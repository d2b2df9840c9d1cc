"""Shared generators for randomized tests.

Random-but-valid scenario construction: distinct bands, well-separated
spatial phases, and a coset pattern whose columns are incoherent enough for
greedy support recovery to be well posed.  Also the grid-and-refine phase
search, kept as the reference for the estimators' polynomial-root search,
the sequential support-swap loop, kept as the reference for its batched form,
the brute-force Fisher oracles behind the bounds, and the Nyquist-rate
streams and coset decimation behind the per-channel snapshot synthesis.
"""

import numpy as np
from scipy.optimize import minimize_scalar

from subnyq.crb import CrbInput
from subnyq.errors import ConfigError, RankDeficiencyError
from subnyq.model import (
    ArrayGeometry,
    MultiCosetPattern,
    build_B,
    build_G_selected,
    build_H_selected,
    full_steering,
    joint_steering,
    phase_from_doa,
)
from subnyq.siggen import (
    ScenarioConfig,
    SourceTruth,
    _draw_envelopes,
    _envelope_series,
    _white_noise,
)

MIN_PHASE_SEPARATION = 0.15  # rad, far above the oracle's grid step


def _builders(full_structure: bool):
    """(steering-matrix builder, one-column steering) of a receiver structure."""
    if full_structure:
        return build_G_selected, full_steering
    return build_H_selected, joint_steering


def pattern_coherence(pattern: MultiCosetPattern) -> float:
    """Maximum cosine between distinct coset-matrix columns (norm-adjusted:
    each column has squared norm P/L)."""
    B = build_B(pattern)
    norms = np.linalg.norm(B, axis=0)
    G = np.abs(B.conj().T @ B) / np.outer(norms, norms)
    np.fill_diagonal(G, 0.0)
    return float(G.max())


def kruskal_rank_at_least(pattern: MultiCosetPattern, k: int) -> bool:
    """True if every k-subset of coset-matrix columns is linearly independent.

    Composite L can make column subsets exactly dependent (offsets covering
    too few residues modulo a divisor of L), in which case two different band
    supports explain the branch data identically and no method can tell them
    apart.
    """
    import itertools

    B = build_B(pattern)
    if k > pattern.P:
        return False
    for combo in itertools.combinations(range(pattern.L), k):
        s = np.linalg.svd(B[:, combo], compute_uv=False)
        if s[-1] < 1e-8 * s[0]:
            return False
    return True


def random_pattern(rng: np.random.Generator, max_coherence: float = 0.5,
                   L_range=(8, 16), P_range=(4, 6),
                   min_krank: int = 4) -> MultiCosetPattern:
    """Random multi-coset pattern valid for band-support recovery of up to
    `min_krank - 1` sources: bounded column coherence (greedy pursuit needs
    incoherent columns) and Kruskal rank at least `min_krank`
    (identifiability).  Resamples until both hold.
    """
    for _ in range(200):
        L = int(rng.integers(L_range[0], L_range[1] + 1))
        P = int(rng.integers(P_range[0], min(P_range[1], L - 1) + 1))
        offsets = np.sort(rng.choice(L, size=P, replace=False))
        pattern = MultiCosetPattern(L=L, offsets=tuple(int(c) for c in offsets))
        if (pattern_coherence(pattern) <= max_coherence
                and kruskal_rank_at_least(pattern, min(min_krank, P))):
            return pattern
    raise RuntimeError("no pattern with acceptable coherence found")


def random_geometry(rng: np.random.Generator, M_range=(4, 10)) -> ArrayGeometry:
    return ArrayGeometry(M=int(rng.integers(M_range[0], M_range[1] + 1)),
                         d=0.5, c_prop=1.0)


def _circular_separation(phis: np.ndarray) -> float:
    diffs = np.abs(phis[:, None] - phis[None, :])
    diffs = np.minimum(diffs, 2.0 * np.pi - diffs)
    np.fill_diagonal(diffs, np.inf)
    return float(diffs.min())


def random_scenario(rng: np.random.Generator, K: int | None = None,
                    snr_db=None, n_snapshots: int = 256,
                    geom: ArrayGeometry | None = None,
                    pattern: MultiCosetPattern | None = None) -> ScenarioConfig:
    """Random valid tone scenario with distinct bands and separated phases.

    Bands, in-band positions and DOAs are redrawn until the resulting spatial
    phases are pairwise separated by `MIN_PHASE_SEPARATION` on the circle
    (low-band carriers compress the reachable phase range, so a draw can
    land two sources too close for any subspace method to resolve).
    """
    if geom is None:
        geom = random_geometry(rng)
    if pattern is None:
        pattern = random_pattern(rng)
    if K is None:
        K = int(rng.integers(1, min(3, pattern.P - 1) + 1))
    f_s = pattern.f_s
    for _ in range(500):
        bands = rng.choice(pattern.L, size=K, replace=False)
        residuals = rng.uniform(0.1, 0.9, size=K) * f_s
        thetas = np.deg2rad(rng.uniform(-80.0, 80.0, size=K))
        f_cs = bands * f_s + residuals
        phis = np.array([phase_from_doa(t, f, geom)
                         for t, f in zip(thetas, f_cs)])
        if _circular_separation(phis) <= MIN_PHASE_SEPARATION:
            continue
        # near-coincident residuals alias two sources onto (almost) the same
        # snapshot-rate tone, which no correlation-based pairing can split
        if K > 1 and np.min(np.diff(np.sort(residuals))) < 0.05 * f_s:
            continue
        break
    else:
        raise RuntimeError("no separated source draw found")
    sources = tuple(
        SourceTruth(theta=float(t), f_c=float(f)) for t, f in zip(thetas, f_cs)
    )
    return ScenarioConfig(geom=geom, pattern=pattern, sources=sources,
                          snr_db=snr_db, n_snapshots=n_snapshots,
                          rng_seed=int(rng.integers(0, 2**31)))


# The phase grid and peak suppression of the grid-and-refine search that the
# estimators' polynomial-root search replaced; kept as its reference.
ORACLE_GRID = -np.pi + (2.0 * np.pi / 6284) * np.arange(1, 6285)
ORACLE_NMS_RADIUS = 3


def grid_search_oracle(U_N: np.ndarray, steering, n_bands: int, K: int):
    """Grid-and-refine minimization of ||U_N^H s_l(phi)||^2 over (phi, l).

    `steering(phis, l)` returns band l's steering vectors as columns.  Scans
    a 6,284-point phase grid per band, takes the K strongest pseudo-spectrum
    peaks with per-band non-maximum suppression, refines each with a bounded
    scalar minimization inside its grid-cell pair, and drops refined picks
    that landed on the same point.  Returns (phis, bands) in pick order, or
    fewer than K picks when the spectrum has fewer peaks.
    """
    def cost(phis, l):
        return np.sum(np.abs(U_N.conj().T @ steering(phis, l)) ** 2, axis=0)

    grid, n_grid = ORACLE_GRID, ORACLE_GRID.size
    step = grid[1] - grid[0]
    candidates = []
    for l in range(n_bands):
        spec = 1.0 / cost(grid, l)
        peaks = np.nonzero((spec > np.roll(spec, 1)) & (spec > np.roll(spec, -1)))[0]
        candidates.extend((spec[i], l, int(i)) for i in peaks)
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    picks = []
    for _, l, idx in candidates:
        if any(pl == l and min(abs(pi - idx), n_grid - abs(pi - idx))
               <= ORACLE_NMS_RADIUS for pl, pi in picks):
            continue
        picks.append((l, idx))
        if len(picks) == K:
            break
    kept = []
    for l, idx in picks:
        res = minimize_scalar(lambda x: cost(np.array([grid[idx] + x]), l)[0],
                              bounds=(-step, step), method="bounded",
                              options={"xatol": 1e-12})
        phi = float(np.angle(np.exp(1j * (grid[idx] + res.x))))
        if not any(b == l and abs(p - phi) < 0.5 * step for p, b in kept):
            kept.append((phi, l))
    return (np.array([p for p, _ in kept]), np.array([b for _, b in kept], dtype=int))


def _psd_sqrt(R: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(R)
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.conj().T


def fim_numerical(inp: CrbInput, full_structure: bool = False,
                  n_fim: int = 8, fd_step: float = 1e-5) -> np.ndarray:
    """Phase Fisher information by brute force, scaled to `inp.T_obs`.

    Builds a small deterministic snapshot set whose empirical covariance
    equals the per-snapshot signal covariance exactly, differentiates the
    mean numerically in each phase, treats the per-snapshot signal values as
    unknown real nuisances, and eliminates them by a Schur complement.  Its
    inverse is directly comparable with `crb.crb_phase(...).crb_matrix`.
    """
    K = inp.n_sources
    n_fim = max(n_fim, 2 * K)
    build, _ = _builders(full_structure)
    L = inp.pattern.L

    # snapshots with exact covariance L * R_S (per-branch-sample scale)
    C = np.exp(2j * np.pi * np.outer(np.arange(K), np.arange(n_fim)) / n_fim)
    s = _psd_sqrt(L * inp.R_S) @ C

    phis = np.array(inp.phis)

    def mean(ph):
        return build(ph, inp.bands, inp.geom, inp.pattern) @ s

    d_phi = []
    for i in range(K):
        hi = phis.copy()
        lo = phis.copy()
        hi[i] += fd_step
        lo[i] -= fd_step
        d_phi.append(((mean(hi) - mean(lo)) / (2.0 * fd_step)).ravel())

    H = build(phis, inp.bands, inp.geom, inp.pattern)
    rows = H.shape[0]
    d_nuis = []
    for k in range(K):
        for n in range(n_fim):
            col = np.zeros((rows, n_fim), dtype=complex)
            col[:, n] = H[:, k]
            d_nuis.append(col.ravel())          # d/d Re(s_{k,n})
            d_nuis.append(1j * col.ravel())     # d/d Im(s_{k,n})

    D = np.column_stack(d_phi + d_nuis)
    F = (2.0 / inp.sigma2) * np.real(D.conj().T @ D)
    F_pp = F[:K, :K]
    F_pn = F[:K, K:]
    F_nn = F[K:, K:]
    schur = F_pp - F_pn @ np.linalg.solve(F_nn, F_pn.T)
    return schur * (inp.n_snapshots / n_fim)


def freq_crb_dense_oracle(inp: CrbInput, full_structure: bool = False,
                       fd_step: float = 1e-5) -> np.ndarray:
    """`crb.freq_crb_numerical` computed from the explicit derivative matrix.

    Materializes the (rows * N) x 4K matrix D of vectorized derivatives of
    the tone-model mean and forms F = (2 / sigma^2) Re(D^H D); the reference
    for the Kronecker-factored Fisher matrix.
    """
    if inp.f_residuals is None:
        raise ConfigError("frequency bound needs the in-band residuals")
    K = inp.n_sources
    build, steer = _builders(full_structure)
    pattern = inp.pattern
    N = inp.n_snapshots
    T_s = 1.0 / pattern.f_s
    n = np.arange(N)

    rho = np.sqrt(pattern.L * np.diag(inp.R_S).real)
    tones = np.array(
        [r * np.exp(2j * np.pi * f * n * T_s)
         for r, f in zip(rho, inp.f_residuals)]
    )
    H = build(inp.phis, inp.bands, inp.geom, inp.pattern)

    cols = []
    for k in range(K):
        dh = (
            steer(inp.phis[k] + fd_step, inp.bands[k], inp.geom, pattern)
            - steer(inp.phis[k] - fd_step, inp.bands[k], inp.geom, pattern)
        ) / (2.0 * fd_step)
        cols.append(np.outer(dh, tones[k]))                        # d/d phi_k
    for k in range(K):
        cols.append(np.outer(H[:, k], tones[k] * 2j * np.pi * n * T_s))  # d/d f_k
    for k in range(K):
        cols.append(np.outer(H[:, k], tones[k] / rho[k]))          # d/d rho_k
    for k in range(K):
        cols.append(np.outer(H[:, k], 1j * tones[k]))              # d/d alpha_k

    D = np.column_stack([c.ravel() for c in cols])
    F = (2.0 / inp.sigma2) * np.real(D.conj().T @ D)
    cond = np.linalg.cond(F)
    if not np.isfinite(cond) or cond > 1e14:
        raise RankDeficiencyError("tone-model Fisher information is singular")
    crb = np.linalg.inv(F)
    return crb[K:2 * K, K:2 * K]


def sequential_swap_oracle(B: np.ndarray, V: np.ndarray, selected: list[int],
                           max_passes: int = 3) -> list[int]:
    """Single-atom support swaps with one `lstsq` per candidate, accepted in
    candidate order while each lowers the joint residual; the reference for
    the estimators' batched swap search."""

    def resid(cols):
        coef, *_ = np.linalg.lstsq(B[:, cols], V, rcond=None)
        return float(np.linalg.norm(V - B[:, cols] @ coef))

    best = resid(selected)
    for _ in range(max_passes):
        improved = False
        for i in range(len(selected)):
            for cand in range(B.shape[1]):
                if cand in selected:
                    continue
                trial = selected.copy()
                trial[i] = cand
                r = resid(trial)
                if r < best * (1.0 - 1e-12):
                    selected, best = trial, r
                    improved = True
        if not improved:
            break
    return selected


def synthesize_streams(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Nyquist-rate sensor streams x_m[n], shape (M, n_snapshots * L)."""
    geom, pattern = config.geom, config.pattern
    n_fine = config.n_snapshots * pattern.L
    coeffs = _draw_envelopes(config, rng)
    t_idx = np.arange(n_fine)
    streams = np.zeros((geom.M, n_fine), dtype=complex)
    phis = config.phases()
    for k, src in enumerate(config.sources):
        g = _envelope_series(coeffs[k], n_fine)
        carrier = np.exp(2j * np.pi * src.f_c * t_idx * pattern.T_N)
        a = np.exp(-1j * phis[k] * np.arange(geom.M))
        streams += np.outer(a, src.amplitude * g * carrier)
    streams += _white_noise(rng, geom.M, n_fine, config.sigma2)
    return streams


def multicoset_sample(stream: np.ndarray, pattern: MultiCosetPattern,
                      n_snapshots: int | None = None) -> np.ndarray:
    """Decimate one Nyquist stream into its P coset branches (P x N)."""
    stream = np.asarray(stream)
    if n_snapshots is None:
        n_snapshots = stream.shape[-1] // pattern.L
    if stream.shape[-1] < n_snapshots * pattern.L:
        raise ConfigError(
            f"stream of length {stream.shape[-1]} too short for "
            f"{n_snapshots} snapshots at L={pattern.L}"
        )
    return np.stack(
        [stream[c::pattern.L][:n_snapshots] for c in pattern.offsets]
    )
