"""Shared generators for randomized tests.

Random-but-valid scenario construction: distinct bands, well-separated
spatial phases, and a coset pattern whose columns are incoherent enough for
greedy support recovery to be well posed.  Also the explicit selection and
combined matrices J and H = J (A kron B) and the per-band channel maps;
the grid-and-refine phase search,
kept as the reference for the estimators' polynomial-root search; the joint
search that roots every band, kept as the reference for its bound-pruned
form; the sequential support-swap loop, kept as the reference for its
batched form; the brute-force Fisher oracles behind the bounds; and the
Nyquist-rate streams and coset decimation behind the per-channel snapshot
synthesis.
"""

import numpy as np
from scipy.optimize import minimize_scalar

from subnyq.crb import CrbInput
from subnyq.errors import ConfigError, PeakCountError, RankDeficiencyError
from subnyq.estimators import _phase_minima, decompose
from subnyq.model import (
    ArrayGeometry,
    MultiCosetPattern,
    build_A,
    build_B,
    build_G_selected,
    phase_from_doa,
    selected_channel_columns,
)
from subnyq.siggen import (
    ScenarioConfig,
    SourceTruth,
    _draw_envelopes,
    _envelope_series,
    _white_noise,
)

MIN_PHASE_SEPARATION = 0.15  # rad, far above the oracle's grid step


def structure_rows(geom: ArrayGeometry, pattern: MultiCosetPattern,
                   full_structure: bool = False) -> np.ndarray:
    """Flat channel indices m*P + p a receiver structure keeps: every one
    for the full structure, `selected_channel_columns` for the simplified."""
    M, P = geom.M, pattern.P
    return np.arange(M * P) if full_structure else selected_channel_columns(M, P)


def steering_column(phi: float, band: int, geom: ArrayGeometry,
                    pattern: MultiCosetPattern, full_structure: bool = False):
    """One steering column of a receiver structure."""
    rows = structure_rows(geom, pattern, full_structure)
    return build_G_selected([phi], [band], geom, pattern, rows)[:, 0]


def channel_maps(M: int, B: np.ndarray, rows) -> np.ndarray:
    """(L, len(rows), M) stack of the `rows` of I_M kron B[:, l], the map
    v(phi) -> a(phi) kron B_l of each band, built with `np.kron`."""
    return np.stack([np.kron(np.eye(M), B[:, [l]])[rows]
                     for l in range(B.shape[1])])


def selection_matrix(M: int, P: int) -> np.ndarray:
    """(M+P-1) x MP 0/1 selection matrix J of the simplified receiver: the
    rows of the identity at `selected_channel_columns`."""
    return np.eye(M * P)[selected_channel_columns(M, P)]


def combined_matrix(phis, geom: ArrayGeometry,
                    pattern: MultiCosetPattern) -> np.ndarray:
    """(M+P-1) x (K*L) matrix H = J (A kron B): the simplified steering
    column of every band at each phase, column k*L + l for phase k, band l."""
    return selection_matrix(geom.M, pattern.P) @ np.kron(
        build_A(phis, geom.M), build_B(pattern))


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


def all_band_search(R: np.ndarray, K: int, G: np.ndarray):
    """The joint subspace search on the covariance R rooting every band's
    cost, with no bound pruning; the reference for `estimators._search`.
    Returns (phis, bands) of the K lowest minima ranked by (cost, band, phi)."""
    U_N = decompose(R, K).U_N
    T = U_N.conj().T @ G
    band, phi, cost = _phase_minima(T.conj().transpose(0, 2, 1) @ T)
    if phi.size < K:
        raise PeakCountError(
            f"found {phi.size} noise-subspace cost minima, need {K}",
            found=int(phi.size), wanted=K, step="all_band_search",
        )
    pick = np.lexsort((phi, band, cost))[:K]
    return phi[pick], band[pick]


def fim_numerical(inp: CrbInput, full_structure: bool = False,
                  n_fim: int = 8, fd_step: float = 1e-5) -> np.ndarray:
    """Phase Fisher information by brute force, scaled to `inp.n_snapshots`.

    Builds a small deterministic snapshot set whose empirical covariance
    equals the per-snapshot signal covariance exactly, differentiates the
    mean numerically in each phase, treats the per-snapshot signal values as
    unknown real nuisances, and eliminates them by a Schur complement.  Its
    inverse is directly comparable with `crb.crb_phase(...).crb_matrix`.
    """
    K = inp.n_sources
    n_fim = max(n_fim, 2 * K)
    rows = structure_rows(inp.geom, inp.pattern, full_structure)
    L = inp.pattern.L

    # snapshots with exact covariance L * diag(powers) (per-branch-sample scale)
    C = np.exp(2j * np.pi * np.outer(np.arange(K), np.arange(n_fim)) / n_fim)
    s = np.sqrt(L * np.array(inp.powers))[:, None] * C

    phis = np.array(inp.phis)

    def mean(ph):
        return build_G_selected(ph, inp.bands, inp.geom, inp.pattern, rows) @ s

    d_phi = []
    for i in range(K):
        hi = phis.copy()
        lo = phis.copy()
        hi[i] += fd_step
        lo[i] -= fd_step
        d_phi.append(((mean(hi) - mean(lo)) / (2.0 * fd_step)).ravel())

    H = build_G_selected(phis, inp.bands, inp.geom, inp.pattern, rows)
    d_nuis = []
    for k in range(K):
        for n in range(n_fim):
            col = np.zeros((rows.size, n_fim), dtype=complex)
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


def tone_crb_dense_oracle(inp: CrbInput, full_structure: bool = False) -> np.ndarray:
    """Inverse of the tone-model Fisher matrix from the explicit derivative
    matrix, 4K x 4K with parameters ordered (phi, f, rho, alpha).

    Materializes the (rows * N) x 4K matrix D of vectorized derivatives of
    the tone-model mean and forms F = (2 / sigma^2) Re(D^H D).  Row m*P + p
    of a steering column depends on phi only through exp(-j m phi), so its
    phase derivative is -j m times the row.
    """
    K = inp.n_sources
    rows = structure_rows(inp.geom, inp.pattern, full_structure)
    pattern = inp.pattern
    N = inp.n_snapshots
    T_s = 1.0 / pattern.f_s
    n = np.arange(N)

    rho = np.sqrt(pattern.L * np.array(inp.powers))
    tones = np.array(
        [r * np.exp(2j * np.pi * f * n * T_s)
         for r, f in zip(rho, inp.f_residuals)]
    )
    H = build_G_selected(inp.phis, inp.bands, inp.geom, pattern, rows)
    dH = -1j * (rows // pattern.P)[:, None] * H

    cols = []
    for k in range(K):
        cols.append(np.outer(dH[:, k], tones[k]))                  # d/d phi_k
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
    return np.linalg.inv(F)


def freq_crb_dense_oracle(inp: CrbInput, full_structure: bool = False) -> np.ndarray:
    """`crb.freq_crb_numerical` as the in-band frequency block of
    `tone_crb_dense_oracle`; the reference for the Kronecker-factored
    Fisher matrix."""
    K = inp.n_sources
    return tone_crb_dense_oracle(inp, full_structure)[K:2 * K, K:2 * K]


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
