"""Joint DOA/frequency estimation pipelines and their shared primitives.

Two pipelines operate on the simplified receiver output W:

* `jdfpi`: individual estimates (spatial MUSIC, coset support recovery) on
  blocks of one sample covariance of W, matched by cross-correlation
  pairing, then least-squares signal reconstruction and per-source residual
  frequency estimation.
* `jdfsdpj`: a joint 2-D subspace search over (spatial phase, band) with the
  simplified steering vectors, which needs no pairing step.

`jdfsd_full` is the full-structure (all M*P channels) baseline of the same
subspace search, used for comparison only.

Every phase search (spatial MUSIC and both joint searches) minimizes a
noise-subspace cost that is, per band, a trigonometric polynomial in the
phase; its minima are found exactly as roots of the derivative polynomial,
with no phase grid.  A joint search roots only the bands whose Rayleigh
lower bound could still beat the K-th lowest minimum found, which picks
exactly what rooting every band would.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    EmptySupportError,
    EstimationError,
    PeakCountError,
    RankDeficiencyError,
    SpatialAliasingError,
)
from .model import (
    build_A,
    build_B,
    build_G_selected,
    doa_from_phase,
    selected_channel_columns,
)

__all__ = [
    "SubspaceDecomposition",
    "JointSupport",
    "EstimationResult",
    "sample_covariance",
    "decompose",
    "music_spatial",
    "ls_solve",
    "ctf_support",
    "pair_supports",
    "residual_frequency",
    "unfold_frequency",
    "jdfpi",
    "jdfsdpj",
    "jdfsd_full",
]

COND_LIMIT = 1e10
CTF_RESIDUAL_TOL = 1e-8
PAIRING_AMBIGUITY_RATIO = 3.0
SWAP_PASSES = 3  # rounds of single-atom swaps in `_improve_support`


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Eigendecomposition of a sample covariance split at model order K."""

    eigvals: np.ndarray
    U_N: np.ndarray = field(repr=False)
    weak_separation: bool = False


@dataclass(frozen=True)
class JointSupport:
    """Per-source band assignment from `pair_supports`."""

    bands: tuple[int, ...]
    ambiguous: bool = False


@dataclass(frozen=True)
class EstimationResult:
    """Unordered per-source estimates from one pipeline run."""

    algorithm: str
    phi: np.ndarray
    band: np.ndarray
    f_residual: np.ndarray
    f: np.ndarray
    theta: np.ndarray

    @property
    def n_sources(self) -> int:
        return self.phi.size


def sample_covariance(X: np.ndarray) -> np.ndarray:
    """R = X X^H / N, symmetrized so it is Hermitian to machine precision."""
    X = np.asarray(X)
    R = X @ X.conj().T / X.shape[1]
    return 0.5 * (R + R.conj().T)


def decompose(R: np.ndarray, K: int) -> SubspaceDecomposition:
    """Split the dominant-K eigenvectors (signal) from the rest (noise)."""
    rows = R.shape[0]
    if not 0 < K < rows:
        raise ConfigError(f"need 0 < K < {rows}, got K={K}")
    eigvals, vecs = np.linalg.eigh(R)
    eigvals = eigvals[::-1]
    vecs = vecs[:, ::-1]
    weak = bool(eigvals[K] > 0 and eigvals[K - 1] < 2.0 * eigvals[K])
    return SubspaceDecomposition(
        eigvals=eigvals, U_N=vecs[:, K:], weak_separation=weak)


def _phase_minima(C: np.ndarray):
    """Local minima over phi of cost_s(phi) = v(phi)^H C_s v(phi), with
    v_m = exp(-j m phi), for a stack C of S Hermitian M x M matrices.

    cost_s is the trigonometric polynomial sum_{|d| < M} r_d exp(j d phi),
    r_d the sum of C_s's d-th subdiagonal, so its stationary points are roots
    on the unit circle of a degree-2(M-1) polynomial in w = exp(j phi)
    (root-MUSIC; Barabell, ICASSP 1983).  The rows are rooted as the
    eigenvalues of their companion matrices, batched by degree; the root
    angles are polished by Newton steps on the real polynomial, and each
    converged point of positive curvature is kept once.  No grid is involved.

    Returns flat arrays (row, phi, cost) over the minima of all rows, phi in
    (-pi, pi].
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
    n = 2 * (M - 1)
    roots = np.full((S, n), np.nan, dtype=complex)
    for deg in set(D.tolist()) - {0}:
        sel, k = np.flatnonzero(D == deg), 2 * deg
        part = coef[sel, M - 1 - deg:M + deg]
        comp = np.zeros((sel.size, k, k), dtype=complex)
        comp[:, 0, :] = -part[:, 1:] / part[:, :1]
        comp[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        roots[sel, :k] = np.linalg.eigvals(comp)

    rd = r[:, None, 1:]

    def terms(phi):
        """r_d exp(j d phi) per d, and the slope and curvature of the cost."""
        e = rd * np.exp(1j * phi[..., None] * d)
        return (e, -2.0 * np.sum(d * e, axis=-1).imag,
                -2.0 * np.sum(d**2 * e, axis=-1).real)

    phi = np.angle(roots)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            _, slope, curv = terms(phi)
            phi = phi - slope / curv
        e, slope, curv = terms(phi)
        phi = np.pi - np.mod(np.pi - phi, 2.0 * np.pi)
        # a root that Newton carried onto another root's point counts once
        gap = np.abs(np.angle(np.exp(1j * (phi[:, :, None] - phi[:, None, :]))))
    cost = r[:, :1].real + 2.0 * np.sum(e, axis=-1).real
    # Roots off the circle come in pairs (w, 1/conj(w)) where c' nears zero
    # without crossing it; from their angles Newton either fails this slope
    # test or lands on a real root found again below.
    ok = (curv > 0) & (np.abs(slope) <= 1e-12 * np.sum(d * np.abs(rd), axis=-1))
    earlier = np.tri(n, k=-1, dtype=bool)
    ok &= ~np.any((gap < 1e-7) & ok[:, None, :] & earlier, axis=2)
    row, col = np.nonzero(ok)
    return row, phi[row, col], cost[row, col]


def _search(R: np.ndarray, K: int, G: np.ndarray, step: str):
    """The K lowest minima over (phi, l) of ||U_N^H G_l v(phi)||^2.

    U_N is the noise subspace of the covariance R at model order K, and
    the stack G maps v(phi) to the steering vector of each band l.  Minima
    are ranked by (cost, band, phi).  Returns (phis, bands).

    Only bands that can hold one of the K picks are rooted.  Band l's cost
    is v^H C_l v with ||v||^2 = M, so none of its minima costs less than the
    Rayleigh bound b_l = M lambda_min(C_l).  The K bands of lowest bound are
    rooted first; any other band is rooted only if b_l does not exceed the
    K-th lowest cost found, plus a slack far above rounding.  Every band left
    out has only minima that cost more than the K-th pick, and rows are
    rooted independently, so the picks are those of rooting every band.
    """
    U_N = decompose(R, K).U_N
    T = U_N.conj().T @ G
    C = T.conj().transpose(0, 2, 1) @ T
    M = C.shape[-1]
    bound = M * np.linalg.eigvalsh(C)[:, 0]
    order = np.argsort(bound, kind="stable")
    first, rest = order[:K], order[K:]
    row, phi, cost = _phase_minima(C[first])
    band = first[row]
    tau = np.partition(cost, K - 1)[K - 1] if cost.size >= K else np.inf
    slack = 1e-9 * M * np.trace(C[rest], axis1=1, axis2=2).real
    rest = rest[bound[rest] <= tau + slack]
    if rest.size:
        row, phi2, cost2 = _phase_minima(C[rest])
        band = np.concatenate([band, rest[row]])
        phi = np.concatenate([phi, phi2])
        cost = np.concatenate([cost, cost2])
    if phi.size < K:
        raise PeakCountError(
            f"found {phi.size} noise-subspace cost minima, need {K}",
            found=int(phi.size), wanted=K, step=step,
        )
    pick = np.lexsort((phi, band, cost))[:K]
    return phi[pick], band[pick]


def music_spatial(R: np.ndarray, K: int) -> np.ndarray:
    """Spatial-phase MUSIC on the M x M sensor covariance R; returns the K
    phases that minimize the noise-subspace cost, sorted."""
    phis, _ = _search(R, K, np.eye(R.shape[0])[None], "music_spatial")
    return np.sort(phis)


def ls_solve(mat: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Pseudo-inverse solution mat^+ obs; rejects near-singular systems."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] < mat.shape[1]:
        raise ConfigError(f"system matrix must be tall, got shape {mat.shape}")
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    if s[-1] == 0.0 or s[0] / s[-1] > COND_LIMIT:
        raise RankDeficiencyError(
            f"system matrix condition number exceeds {COND_LIMIT:.0e} "
            "(duplicated supports or coincident sources)",
            step="ls_solve",
        )
    return vh.conj().T @ ((u.conj().T @ obs) / s[:, None])


def ctf_support(R: np.ndarray, B: np.ndarray, K: int) -> tuple[int, ...]:
    """Band support from the P x P branch covariance R via the CTF reduction.

    R is factored as V V^H through its eigendecomposition
    (numerically positive eigenvalues only) and the resulting multiple
    measurement vector system B U = V is solved for a row-sparse U by
    simultaneous orthogonal matching pursuit over the columns of B.
    """
    if K > B.shape[0] - 1:
        raise ConfigError(f"CTF needs K <= P-1, got K={K}, P={B.shape[0]}")
    eigvals, vecs = np.linalg.eigh(R)
    keep = eigvals > max(eigvals[-1], 0.0) * 1e-12
    if not np.any(keep):
        raise EmptySupportError("covariance frame has no energy", step="ctf_support")
    V = vecs[:, keep] * np.sqrt(eigvals[keep])

    v_norm = np.linalg.norm(V)
    selected: list[int] = []
    residual = V
    for it in range(K):
        corr = np.linalg.norm(B.conj().T @ residual, axis=1)
        corr[selected] = -1.0
        atom = int(np.argmax(corr))
        if it == 0 and corr[atom] <= v_norm * 1e-12:
            raise EmptySupportError(
                "strongest atom correlation below the noise floor",
                step="ctf_support",
            )
        selected.append(atom)
        coef, *_ = np.linalg.lstsq(B[:, selected], V, rcond=None)
        residual = V - B[:, selected] @ coef
        if np.linalg.norm(residual) < CTF_RESIDUAL_TOL * v_norm:
            break
    return tuple(sorted(_improve_support(B, V, selected)))


def _improve_support(B: np.ndarray, V: np.ndarray, selected: list[int]) -> list[int]:
    """Greedy pursuit is not exact for coherent dictionaries; polish the
    support by single-atom swaps while they lower the joint residual.

    For each position the residuals of every candidate swap come from one
    batched SVD, truncated at `lstsq`'s default cutoff so that rank-deficient
    column sets project as `lstsq` does; swaps are accepted in candidate
    order while each beats the running minimum."""
    rcond = np.finfo(float).eps * max(B.shape[0], len(selected))

    def resid(column_sets):
        """Residual norms of V against each column set of a (K, n) array."""
        mats = B[:, column_sets].transpose(2, 0, 1)
        u, s, _ = np.linalg.svd(mats, full_matrices=False)
        u = u * (s > rcond * s[:, :1])[:, None, :]
        return np.linalg.norm(V - u @ (u.conj().transpose(0, 2, 1) @ V),
                              axis=(1, 2))

    selected = list(selected)
    best = resid(np.array(selected)[:, None])[0]
    for _ in range(SWAP_PASSES):
        improved = False
        for i in range(len(selected)):
            free = np.ones(B.shape[1], dtype=bool)
            free[selected] = False
            cands = np.flatnonzero(free)
            sets = np.repeat(np.array(selected)[:, None], cands.size, axis=1)
            sets[i] = cands
            for cand, r in zip(cands, resid(sets)):
                if r < best * (1.0 - 1e-12):
                    selected[i], best = int(cand), r
                    improved = True
        if not improved:
            break
    return selected


def pair_supports(C: np.ndarray, omega) -> JointSupport:
    """Assign each source a band from omega by cross-correlation: C is the
    K x |omega| correlation of the source signals with the band signals."""
    omega = tuple(omega)
    R = np.abs(C)
    ambiguous = False
    bands = []
    for i in range(R.shape[0]):
        order = np.argsort(R[i])[::-1]
        bands.append(omega[int(order[0])])
        if order.size > 1 and R[i, order[0]] < PAIRING_AMBIGUITY_RATIO * R[i, order[1]]:
            ambiguous = True
    if ambiguous:
        warnings.warn(
            "pairing confidence low: top cross-correlation entries within "
            f"{PAIRING_AMBIGUITY_RATIO}x of the runner-up",
            stacklevel=2,
        )
    return JointSupport(bands=tuple(bands), ambiguous=ambiguous)


def residual_frequency(x: np.ndarray, f_s: float) -> float:
    """In-band frequency of a (near) single tone, in [0, f_s).

    Coarse estimate from the phase of the lag-1 autocorrelation (exact for a
    clean tone, wrap-free over [0, f_s)), then a derotated refinement using
    parabolically weighted phase increments, which is efficient in noise.
    """
    x = np.asarray(x)
    if x.size < 2:
        raise ConfigError("need at least 2 samples for a frequency estimate")
    if not np.any(x):
        raise EstimationError("zero sequence has no frequency",
                              step="residual_frequency")
    prods = x[1:] * np.conj(x[:-1])
    z = np.sum(prods)
    coarse = np.angle(z) / (2.0 * np.pi)  # cycles per snapshot, in (-0.5, 0.5]
    # derotate so the remaining increments sit near zero phase
    n = x.size
    incr = np.angle(prods * np.exp(-2j * np.pi * coarse))
    t = np.arange(n - 1)
    w = 1.0 - ((t - (n / 2.0 - 1.0)) / (n / 2.0)) ** 2
    w /= np.sum(w)
    fine = coarse + np.sum(w * incr) / (2.0 * np.pi)
    return float((fine % 1.0) * f_s)


def unfold_frequency(band: int, f_res: float, pattern) -> float:
    """Map a band index and in-band residual back to the carrier frequency."""
    f_slice = pattern.f_N / pattern.L
    if not 0 <= band < pattern.L:
        raise ConfigError(f"band index {band} out of [0, {pattern.L - 1}]")
    if not 0.0 <= f_res < f_slice:
        raise ConfigError(f"residual {f_res} outside [0, {f_slice})")
    return band * f_slice + f_res


def _finish(W: np.ndarray, phis: np.ndarray, bands, config, algorithm: str,
            rows) -> EstimationResult:
    """Steps shared by every pipeline on the receiver output W, whose rows are
    the channels `rows` (flat indices m*P + p): LS reconstruction, residual
    frequency, unfolding, and the phase-to-DOA conversion."""
    geom, pattern = config.geom, config.pattern
    bands = np.asarray(bands, dtype=int)
    mat = build_G_selected(phis, bands, geom, pattern, rows)
    S = ls_solve(mat, W)
    f_res = np.array([residual_frequency(row, pattern.f_s) for row in S])
    f = np.array([unfold_frequency(b, r, pattern) for b, r in zip(bands, f_res)])
    theta = np.empty_like(f)
    for k in range(f.size):
        try:
            theta[k] = doa_from_phase(phis[k], f[k], geom)
        except SpatialAliasingError:
            theta[k] = np.nan  # phase/frequency stay valid; DOA undefined here
    return EstimationResult(
        algorithm=algorithm, phi=np.asarray(phis, dtype=float), band=bands,
        f_residual=f_res, f=f, theta=theta,
    )


def jdfpi(W: np.ndarray, config) -> EstimationResult:
    """Individual-estimates pipeline: spatial MUSIC + CTF support + pairing.

    W is the simplified receiver output, whose rows are the channels
    `selected_channel_columns(M, P)` (flat indices m*P + p).  The steps read
    blocks of its sample covariance R over the sensor rows q (p = 0) and the
    branch rows y (m = 0); pairing correlates Z = A^+ W[q] with the band
    signals X = B_omega^+ W[y] as Z X^H / N = A^+ R[q, y] (B_omega^+)^H.
    """
    K = config.n_sources
    pattern = config.pattern
    if K > pattern.P - 1:
        raise ConfigError(f"JDFPI needs K <= P-1, got K={K}, P={pattern.P}")
    rows = selected_channel_columns(config.geom.M, pattern.P)
    q, y = np.flatnonzero(rows % pattern.P == 0), np.flatnonzero(rows < pattern.P)
    R = sample_covariance(W)
    phis = music_spatial(R[q][:, q], K)
    # A^+ R[q, y]; an ill-conditioned A fails before the support search runs
    AR = ls_solve(build_A(phis, config.geom.M), R[q][:, y])
    B = build_B(pattern)
    omega = ctf_support(R[y][:, y], B, K)
    C = ls_solve(B[:, list(omega)], AR.conj().T).conj().T
    support = pair_supports(C, omega)
    return _finish(W, phis, support.bands, config, "JDFPI", rows)


def _joint_search(X: np.ndarray, config, rows, algorithm: str,
                  step: str) -> EstimationResult:
    """Joint 2-D subspace search over (phi, band) on the receiver output X,
    whose rows are the channels `rows` (flat indices m*P + p), then the
    shared `_finish`.  Band l maps v(phi) to those rows of a(phi) kron B_l:
    row m*P + p of the map is B[p, l] times the m-th unit row."""
    M, P = config.geom.M, config.pattern.P
    G = np.eye(M)[rows // P] * build_B(config.pattern)[rows % P].T[:, :, None]
    phis, bands = _search(sample_covariance(X), config.n_sources, G, step)
    return _finish(X, phis, bands, config, algorithm, rows)


def jdfsdpj(W: np.ndarray, config) -> EstimationResult:
    """Joint 2-D subspace search over (phi, band) on the simplified output W."""
    rows = selected_channel_columns(config.geom.M, config.pattern.P)
    return _joint_search(W, config, rows, "JDFSDPJ", "jdfsdpj_search")


def jdfsd_full(Y_full: np.ndarray, config) -> EstimationResult:
    """Full-structure baseline: the same joint search on all M*P channels."""
    rows = np.arange(config.geom.M * config.pattern.P)
    return _joint_search(Y_full, config, rows, "JDFSD-full", "jdfsd_full_search")
