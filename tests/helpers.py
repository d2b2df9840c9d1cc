"""Shared generators for randomized tests.

Random-but-valid scenario construction: distinct bands, well-separated
spatial phases, and an incoherent coset pattern whose band supports are
identifiable.  Also the explicit selection and combined matrices J and
H = J (A kron B) and the per-band channel maps; the grid-and-refine phase
search, kept as the reference for the estimators' polynomial-root search,
and the complex-companion rooting in exp(j phi) that the real rooting in
tan(phi/2) replaced, kept as the reference for `_phase_minima`, with the
pairwise duplicate rule that its sort-based `_first_of_each` replaced;
the joint search that roots every band, kept as the reference for its
bound-pruned form; the brute-force Fisher oracles and the exact tone
moments behind the bounds; and the Nyquist-rate streams and coset decimation
behind the per-channel snapshot synthesis, with the per-trial noise draw
that `siggen._draws` replaced by one buffer per block; and the block
expressions of `ls_solve` (a complex division by the singular values) and
of `residual_frequency` (`np.angle` of derotated copies) that their in-place
forms replaced.
"""

import numpy as np
from scipy.optimize import minimize_scalar

from subnyq.crb import CrbInput
from subnyq.errors import ConfigError, PeakCountError, RankDeficiencyError
from subnyq.estimators import COND_LIMIT, _phase_minima, decompose
from subnyq.model import (
    ArrayGeometry,
    MultiCosetPattern,
    build_A,
    build_B,
    build_G_selected,
    check_identifiable,
    phase_from_doa,
    selected_channel_columns,
)
from subnyq.siggen import (
    ScenarioConfig,
    SourceTruth,
    _draw_envelopes,
    _envelope_series,
)

MIN_PHASE_SEPARATION = 0.15  # rad, far above the oracle's grid step


def structure_rows(geom: ArrayGeometry, pattern: MultiCosetPattern,
                   full_structure: bool = False) -> np.ndarray:
    """Flat channel indices m*P + p a receiver structure keeps: every one
    for the full structure, `selected_channel_columns` for the simplified."""
    return selected_channel_columns(geom.M, pattern.P, full_structure)


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


def supports_identifiable(pattern: MultiCosetPattern, K: int) -> bool:
    """True if `check_identifiable(pattern, K)` passes: every K + 1 coset
    columns are linearly independent."""
    try:
        check_identifiable(pattern, K)
    except ConfigError:
        return False
    return True


def random_pattern(rng: np.random.Generator, max_coherence: float = 0.5,
                   L_range=(8, 16), P_range=(4, 6),
                   min_krank: int = 4) -> MultiCosetPattern:
    """Random multi-coset pattern valid for band-support recovery of up to
    `min_krank - 1` sources: bounded column coherence (incoherent columns
    keep the bands' steering vectors far apart) and Kruskal rank at least
    `min_krank` (identifiability).  Resamples until both hold.
    """
    for _ in range(200):
        L = int(rng.integers(L_range[0], L_range[1] + 1))
        P = int(rng.integers(P_range[0], min(P_range[1], L - 1) + 1))
        offsets = np.sort(rng.choice(L, size=P, replace=False))
        pattern = MultiCosetPattern(L=L, offsets=tuple(int(c) for c in offsets))
        if (pattern_coherence(pattern) <= max_coherence
                and supports_identifiable(pattern, min(min_krank, P) - 1)):
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


def complex_companion_minima(C: np.ndarray):
    """Local minima over phi of v(phi)^H C_s v(phi), v_m = exp(-j m phi),
    for a stack C of S Hermitian M x M matrices, rooted in w = exp(j phi):
    the reference for `estimators._phase_minima`, which roots the same
    stationary points in t = tan(phi/2).

    The derivative's coefficients come from the subdiagonal sums r_d, one
    `np.trace` each; the rows are rooted as the eigenvalues of complex
    companion matrices, batched by polynomial degree (a vanishing corner
    entry C_s[M-1, 0] lowers it); the root angles are polished by three
    Newton steps on the real polynomial, and each converged point of
    positive curvature is kept once.  Returns flat arrays (row, phi, cost)
    over the minima of all rows, phi in (-pi, pi].
    """
    S, M, _ = C.shape
    d = np.arange(1, M)
    r = np.stack([np.trace(C, offset=-k, axis1=1, axis2=2) for k in range(M)],
                 axis=1)
    # c'(phi) = sum_d j d r_d w^d with r_{-d} = conj(r_d); coefficients of
    # w^(M-1) c'(phi), highest power first
    coef = 1j * np.concatenate(
        [d[::-1] * r[:, :0:-1], np.zeros((S, 1)), -d * r[:, 1:].conj()], axis=1)

    # degree of each row: a vanishing corner entry C_s[M-1, 0] lowers it.
    # Dropping terms below 1e-12 only moves the starting points: Newton
    # below runs on the full polynomial.  A row of degree D > 0 is rooted
    # from its 2D+1 middle coefficients.
    big = np.abs(r) > 1e-12 * np.abs(r).max(axis=1, keepdims=True)
    big[:, 0] = True
    D = M - 1 - np.argmax(big[:, ::-1], axis=1)
    roots = np.full((S, 2 * (M - 1)), np.nan, dtype=complex)
    for deg in set(D.tolist()) - {0}:
        sel, k = np.flatnonzero(D == deg), 2 * deg
        part = coef[sel, M - 1 - deg:M + deg]
        comp = np.zeros((sel.size, k, k), dtype=complex)
        comp[:, 0, :] = -part[:, 1:] / part[:, :1]
        comp[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        roots[sel, :k] = np.linalg.eigvals(comp)

    row, col = np.nonzero(~np.isnan(roots))
    rd = r[row, 1:]

    def terms(phi):
        """r_d exp(j d phi) per d, and the slope and curvature of the cost."""
        e = rd * np.exp(1j * phi[:, None] * d)
        return (e, -2.0 * np.sum(d * e, axis=-1).imag,
                -2.0 * np.sum(d**2 * e, axis=-1).real)

    phi = np.angle(roots[row, col])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            _, slope, curv = terms(phi)
            phi = phi - slope / curv
        e, slope, curv = terms(phi)
        phi = np.pi - np.mod(np.pi - phi, 2.0 * np.pi)
    cost = r[row, 0].real + 2.0 * np.sum(e, axis=-1).real
    # Roots off the circle come in pairs (w, 1/conj(w)) where c' nears zero
    # without crossing it; from their angles Newton either fails this slope
    # test or lands on a real root found again below.
    ok = (curv > 0) & (np.abs(slope) <= 1e-12 * np.sum(d * np.abs(rd), axis=-1))
    row, phi, cost = row[ok], phi[ok], cost[ok]
    # a root that Newton carried onto an earlier root's point counts once
    gap = np.abs(np.angle(np.exp(1j * (phi[:, None] - phi))))
    dup = np.tril((gap < 1e-7) & (row[:, None] == row), -1).any(axis=1)
    return row[~dup], phi[~dup], cost[~dup]


def pairwise_first_of_each(row: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Mask of the points not within 1e-7 rad (mod 2 pi) of an earlier point
    of their row, from every pair at once: the n x n rule that
    `estimators._first_of_each` replaced, kept as its reference."""
    near = np.abs(np.pi - np.abs(phi[:, None] - phi)) > np.pi - 1e-7
    return ~(near & (row[:, None] == row) & np.tri(row.size, k=-1, dtype=bool)).any(1)


def all_band_search(R: np.ndarray, K: int, G: np.ndarray):
    """The joint subspace search on the covariance R rooting every band's
    cost, with no bound pruning; the reference for `estimators._search`.
    Returns (phis, bands) of the K lowest minima ranked by (cost, band, phi)."""
    U_N = decompose(R, K)
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


def exact_tone_moments(inp: CrbInput) -> np.ndarray:
    """`CrbInput.tone_moments` in 120-digit arithmetic, rounded once: the
    float inputs are taken as exact, and each sum_{n<N} n^p x^n, x =
    exp(j 2 pi (f_b - f_a) / f_s), comes from its closed form (the integer
    sums where x = 1).  Needs mpmath."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 120
    N = mp.mpf(inp.n_snapshots)
    K = inp.n_sources
    rho = [mp.sqrt(mp.mpf(inp.pattern.L) * mp.mpf(p)) for p in inp.powers]
    out = np.empty((3, K, K), dtype=complex)
    for a in range(K):
        for b in range(K):
            x = mp.expjpi(2 * (mp.mpf(inp.f_residuals[b]) - mp.mpf(inp.f_residuals[a]))
                          / mp.mpf(inp.pattern.f_s))
            if x == 1:
                sums = [N, N * (N - 1) / 2, (N - 1) * N * (2 * N - 1) / 6]
            else:
                xN, d = x ** N, 1 - x
                sums = [
                    (1 - xN) / d,
                    x * (1 - N * x ** (N - 1) + (N - 1) * xN) / d ** 2,
                    x * (1 + x - N ** 2 * x ** (N - 1) + (2 * N ** 2 - 2 * N - 1) * xN
                         - (N - 1) ** 2 * x ** (N + 1)) / d ** 3,
                ]
            for p, s in enumerate(sums):
                out[p, a, b] = complex(rho[a] * rho[b] * s)
    return out


def white_noise(rng: np.random.Generator, rows: int, cols: int,
                 sigma2: float) -> np.ndarray:
    """Circular Gaussian noise of variance sigma2, shape (rows, cols).

    Row r takes its own block of 2*cols consecutive draws (re/im interleaved),
    as `siggen._draws` draws a trial's channel rows.
    """
    if sigma2 == 0.0:
        return np.zeros((rows, cols), dtype=complex)
    draws = rng.standard_normal((rows, 2 * cols))
    draws *= np.sqrt(sigma2 / 2.0)
    return draws.view(np.complex128)


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
    streams += white_noise(rng, geom.M, n_fine, config.sigma2)
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


def ls_solve_reference(mat: np.ndarray, obs: np.ndarray):
    """(x, bad) of `estimators.ls_solve` on a block: u^H obs divided by the
    singular values as a complex array, zeros for an ill-conditioned trial."""
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = (s[:, -1] == 0.0) | (s[:, 0] / s[:, -1] > COND_LIMIT)
        x = vh.conj().swapaxes(-1, -2) @ ((u.conj().swapaxes(-1, -2) @ obs) / s[..., None])
    x[bad] = 0.0
    return x, bad


def residual_frequency_reference(x: np.ndarray, f_s: float) -> np.ndarray:
    """`estimators.residual_frequency` of each row of a block of sequences,
    with the increments' phases taken by `np.angle` of a derotated copy."""
    lag = np.conj(x[..., :-1])
    prods = x[..., 1:] * lag
    coarse = np.angle(np.sum(prods, axis=-1)) / (2.0 * np.pi)
    n = x.shape[-1]
    incr = np.angle(prods * np.exp(-2j * np.pi * coarse)[..., None])
    t = np.arange(n - 1)
    w = 1.0 - ((t - (n / 2.0 - 1.0)) / (n / 2.0)) ** 2
    w /= np.sum(w)
    frac = (coarse + np.sum(w * incr, axis=-1) / (2.0 * np.pi)) % 1.0
    return np.where(frac < 1.0, frac, 0.0) * f_s
