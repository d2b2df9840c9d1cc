"""Joint DOA/frequency estimation pipelines and their shared primitives.

Two pipelines operate on the simplified receiver output W:

* `jdfpi`: individual estimates (spatial MUSIC, coset support recovery) on
  blocks of one sample covariance of W, matched by cross-correlation
  pairing, then least-squares signal reconstruction and per-source residual
  frequency estimation.
* `jdfsdpj`: a joint 2-D subspace search over (spatial phase, band) with the
  simplified steering vectors, which needs no pairing step.

`jdfsd_full` is the full-structure (all M*P channels) baseline of the same
subspace search, used for comparison only.  Every pipeline takes its
receiver output together with that output's `sample_covariance`, so the
pipelines run on one output share one covariance.

Every phase search (spatial MUSIC and both joint searches) minimizes a
noise-subspace cost that is, per band, a trigonometric polynomial in the
phase; its minima are found exactly, with no phase grid, as the real roots
of the derivative polynomial in tan(phi/2), through one cached root plan per
array size.  A joint search reads its band maps from a cache per (M,
pattern, structure) and roots only the bands whose Rayleigh lower bound
could still beat the K-th lowest minimum found, which picks exactly what
rooting every band would.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    EmptySupportError,
    EstimationError,
    PeakCountError,
    RankDeficiencyError,
)
from .model import (
    build_A,
    build_B,
    build_G_selected,
    check_identifiable,
    doa_from_phase,
    selected_channel_columns,
)

__all__ = [
    "EstimationResult",
    "sample_covariance",
    "decompose",
    "music_spatial",
    "ls_solve",
    "ctf_support",
    "pair_supports",
    "residual_frequency",
    "jdfpi",
    "jdfsdpj",
    "jdfsd_full",
]

COND_LIMIT = 1e10
PAIRING_AMBIGUITY_RATIO = 3.0


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


def decompose(R: np.ndarray, K: int) -> np.ndarray:
    """Noise subspace U_N of R at model order K: a view of the eigenvectors
    of all but the K largest eigenvalues, largest first."""
    rows = R.shape[0]
    if not 0 < K < rows:
        raise ConfigError(f"need 0 < K < {rows}, got K={K}")
    return np.linalg.eigh(R)[1][:, rows - K - 1::-1]


@lru_cache(maxsize=16)
def _root_plan(M: int):
    """Read-only (gather, tmap, sub, dpow) for rooting M x M costs.  Row d
    of `np.take(flat, gather, axis=1)` (flat C_s, one zero appended) is C_s's
    d-th subdiagonal, zero-padded.  tmap maps [Re r_1, Im r_1, Re r_2, ...]
    to the coefficients, highest first, of (1 + t^2)^(M-1) c'(phi) =
    -2 Im sum_d d r_d q_d(t), with q_d = (1 + jt)^(M-1+d) (1 - jt)^(M-1-d)
    (that is (1 + t^2)^(M-1) w^d), whose t^k coefficient is j^k times that
    of (1 + x)^(M-1+d) (1 - x)^(M-1-d).  `sub` indexes the companion
    subdiagonal; dpow has the rows 1, d, d^2 for d = 1..M-1."""
    n, m, k = M - 1, np.arange(M), np.arange(2 * M - 1)
    gather = np.where(m[:, None] + m < M, (m[:, None] + m) * M + m, M * M)
    tmap = np.zeros((2 * n + 1, n, 2))
    for d in range(1, M):
        q = np.convolve([math.comb(n + d, i) for i in range(n + d + 1)],
                        [(-1) ** i * math.comb(n - d, i) for i in range(n - d + 1)])
        # -2 Im(j^k r_d) is -2 Im r_d, -2 Re r_d, 2 Im r_d, 2 Re r_d for k = 0..3
        tmap[k, d - 1, 1 - k % 2] = np.where(k % 4 < 2, -2.0, 2.0) * d * q
    tmap = np.ascontiguousarray(tmap.reshape(2 * n + 1, 2 * n)[::-1])
    sub = (np.arange(1, 2 * n), np.arange(2 * n - 1))
    dpow = np.arange(1.0, M) ** np.arange(3.0)[:, None]
    for table in (gather, tmap, *sub, dpow):
        table.setflags(write=False)
    return gather, tmap, sub, dpow


def _phase_minima(C: np.ndarray):
    """Local minima over phi of cost_s(phi) = v(phi)^H C_s v(phi), with
    v_m = exp(-j m phi), for a stack C of S Hermitian M x M matrices.

    cost_s is the trigonometric polynomial sum_{|d| < M} r_d exp(j d phi),
    r_d the sum of C_s's d-th subdiagonal (root-MUSIC; Barabell, ICASSP
    1983).  In t = tan(phi/2), (1 + t^2)^(M-1) c_s'(phi) is a real
    polynomial of degree 2(M-1) (Pesavento, Gershman & Haardt, IEEE TSP
    2000), and all rows are rooted in one batch of real companion matrices
    from `_root_plan(M)`.  Its leading coefficient is c_s'(pi): those below
    1e-12 of the row's largest are trimmed (freeing roots t = 0) and phi =
    pi is one more start.  A row whose r_d (d > 0) are within 1e-12 of r_0
    is constant.  Newton steps on phi polish the starts 2 atan(Re t), one
    per real root or conjugate pair, and each converged point of positive
    curvature is kept once.  Every sum runs along one row, so a row's
    minima do not depend on the rest of the stack.

    Returns flat arrays (row, phi, cost) over the minima of all rows, phi in
    (-pi, pi].
    """
    S, M, _ = C.shape
    gather, tmap, sub, dpow = _root_plan(M)
    flat = np.zeros((S, M * M + 1), dtype=complex)
    flat[:, :-1] = C.reshape(S, M * M)
    r = np.take(flat, gather, axis=1).sum(axis=-1)
    live = np.flatnonzero(np.abs(r[:, 1:]).max(axis=1) > 1e-12 * np.abs(r[:, 0]))
    coef = (r[live, None, 1:].view(float) * tmap).sum(axis=-1)
    big = np.abs(coef) > 1e-12 * np.abs(coef).max(axis=1, keepdims=True)
    trimmed = np.flatnonzero(~big[:, 0])
    for i in trimmed:  # c'(pi) = 0: the leading coefficients vanish
        lead = np.argmax(big[i])
        coef[i] = np.concatenate([coef[i, lead:], np.zeros(lead)])
    comp = np.zeros((live.size, 2 * M - 2, 2 * M - 2))
    comp[:, sub[0], sub[1]] = 1.0
    comp[:, 0] = -coef[:, 1:] / coef[:, :1]
    t = np.linalg.eigvals(comp)
    upper = t.imag >= 0
    row = live[np.concatenate([np.nonzero(upper)[0], trimmed])]
    phi = np.concatenate([2.0 * np.arctan(t.real[upper]),
                          np.full(trimmed.size, np.pi)])
    # z_i = sum_d d^i r_d exp(j d phi), one product per start: c = r_0 +
    # 2 Re z_0, c' = -2 Im z_1, c'' = -2 Re z_2
    rdp, jd = r[row, None, 1:] * dpow, 1j * dpow[1, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):  # Newton: phi - c'/c'' = phi - Im z_1 / Re z_2
            z = rdp @ np.exp(phi[:, None, None] * jd)
            phi = phi - z[:, 1, 0].imag / z[:, 2, 0].real
        z = (rdp @ np.exp(phi[:, None, None] * jd))[..., 0]
        phi = np.pi - np.mod(np.pi - phi, 2.0 * np.pi)
    slope, curv = -2.0 * z[:, 1].imag, -2.0 * z[:, 2].real
    cost = r[row, 0].real + 2.0 * z[:, 0].real
    # from a complex pair, where c' nears zero without crossing it, Newton
    # fails this slope test or lands on a real root found again below
    ok = (curv > 0) & (np.abs(slope) <= 1e-12 * np.abs(rdp[:, 1]).sum(axis=-1))
    row, phi, cost = row[ok], phi[ok], cost[ok]
    # a point within 1e-7 rad (mod 2 pi) of an earlier one of its row counts once
    near = np.abs(np.pi - np.abs(phi[:, None] - phi)) > np.pi - 1e-7
    dup = (near & (row[:, None] == row) & np.tri(row.size, k=-1, dtype=bool)).any(1)
    return row[~dup], phi[~dup], cost[~dup]


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
    U_N = decompose(R, K)
    T = U_N.conj().T @ G
    C = T.conj().transpose(0, 2, 1) @ T
    if len(C) <= K:  # every band is rooted first: nothing to prune
        band, phi, cost = _phase_minima(C)
    else:
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


def ctf_support(R: np.ndarray, pattern, K: int) -> tuple[int, ...]:
    """Band support from the P x P branch covariance R, ascending: the K
    bands l of lowest ||U_N^H b_l||, U_N = `decompose(R, K)` and b_l column l
    of `build_B(pattern)` (every column has one norm), a tie going to the
    lower band.  The cost is zero exactly on the support of rank-K data whose
    every K + 1 coset columns are independent, as `check_identifiable`
    enforces: the MUSIC criterion for joint-sparse recovery (Lee, Bresler &
    Junge, IEEE TIT 2012)."""
    U_N = decompose(R, K)
    if not np.any(R):
        raise EmptySupportError("covariance frame has no energy", step="ctf_support")
    cost = np.linalg.norm(U_N.conj().T @ build_B(pattern), axis=0)
    return tuple(sorted(int(l) for l in np.argsort(cost, kind="stable")[:K]))


def pair_supports(C: np.ndarray, omega) -> tuple[int, ...]:
    """Band of each source, chosen from omega by cross-correlation: C is the
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
    return tuple(bands)


def residual_frequency(x: np.ndarray, f_s: float):
    """In-band frequency of a (near) single tone, in [0, f_s): a float for
    one sequence, or one per row of a 2-D array of sequences.

    Coarse estimate from the phase of the lag-1 autocorrelation (exact for a
    clean tone, wrap-free over [0, f_s)), then a derotated refinement using
    parabolically weighted phase increments, which is efficient in noise.
    """
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ConfigError("need at least 2 samples for a frequency estimate")
    if not np.all(np.any(x, axis=-1)):
        raise EstimationError("zero sequence has no frequency",
                              step="residual_frequency")
    prods = x[..., 1:] * np.conj(x[..., :-1])
    z = np.sum(prods, axis=-1)
    coarse = np.angle(z) / (2.0 * np.pi)  # cycles per snapshot, in (-0.5, 0.5]
    # derotate so the remaining increments sit near zero phase
    n = x.shape[-1]
    incr = np.angle(prods * np.exp(-2j * np.pi * coarse)[..., None])
    t = np.arange(n - 1)
    w = 1.0 - ((t - (n / 2.0 - 1.0)) / (n / 2.0)) ** 2
    w /= np.sum(w)
    fine = coarse + np.sum(w * incr, axis=-1) / (2.0 * np.pi)
    frac = fine % 1.0  # 1.0 for a tiny negative fine: that is 0 cycles
    return np.where(frac < 1.0, frac, 0.0) * f_s


def _finish(W: np.ndarray, phis: np.ndarray, bands, config, algorithm: str,
            rows) -> EstimationResult:
    """Steps shared by every pipeline on the receiver output W, whose rows are
    the channels `rows` (flat indices m*P + p): LS reconstruction, residual
    frequency, unfolding, and the phase-to-DOA conversion (NaN where the
    DOA is undefined)."""
    geom, pattern = config.geom, config.pattern
    bands = np.asarray(bands, dtype=int)
    mat = build_G_selected(phis, bands, geom, pattern, rows)
    S = ls_solve(mat, W)
    f_res = residual_frequency(S, pattern.f_s)
    f = bands * pattern.f_s + f_res
    return EstimationResult(
        algorithm=algorithm, phi=np.asarray(phis, dtype=float), band=bands,
        f_residual=f_res, f=f, theta=doa_from_phase(phis, f, geom),
    )


def jdfpi(W: np.ndarray, R: np.ndarray, config) -> EstimationResult:
    """Individual-estimates pipeline: spatial MUSIC + CTF support + pairing.

    W is the simplified receiver output, whose rows are the channels
    `selected_channel_columns(M, P)` (flat indices m*P + p), and R is
    `sample_covariance(W)`.  The steps read blocks of R over the sensor rows
    q (p = 0) and the branch rows y (m = 0); pairing correlates Z = A^+ W[q]
    with the band signals X = B_omega^+ W[y] as
    Z X^H / N = A^+ R[q, y] (B_omega^+)^H.
    """
    K = config.n_sources
    pattern = config.pattern
    check_identifiable(pattern, K)
    rows = selected_channel_columns(config.geom.M, pattern.P)
    q, y = np.flatnonzero(rows % pattern.P == 0), np.flatnonzero(rows < pattern.P)
    phis = music_spatial(R[q][:, q], K)
    # A^+ R[q, y]; an ill-conditioned A fails before the support search runs
    AR = ls_solve(build_A(phis, config.geom.M), R[q][:, y])
    omega = ctf_support(R[y][:, y], pattern, K)
    C = ls_solve(build_B(pattern)[:, list(omega)], AR.conj().T).conj().T
    return _finish(W, phis, pair_supports(C, omega), config, "JDFPI", rows)


@lru_cache(maxsize=8)
def _band_maps(M: int, pattern, full_structure: bool):
    """Read-only (rows, G) of a joint search: the structure's channel rows
    `selected_channel_columns(M, P, full_structure)` (flat indices m*P + p),
    and the (L, rows, M) stack G whose band l maps v(phi) to those rows of
    a(phi) kron B_l: row m*P + p of G_l is B[p, l] times the m-th unit row."""
    P = pattern.P
    rows = selected_channel_columns(M, P, full_structure)
    G = np.eye(M)[rows // P] * build_B(pattern)[rows % P].T[:, :, None]
    for table in (rows, G):
        table.setflags(write=False)
    return rows, G


def _joint_search(X: np.ndarray, R: np.ndarray, config, full_structure: bool,
                  algorithm: str, step: str) -> EstimationResult:
    """Joint 2-D subspace search over (phi, band) on the receiver output X of
    one structure and its sample covariance R, through that structure's
    cached `_band_maps`, then the shared `_finish`.

    The search needs a full-rank source covariance, and coherent sources
    break it without an error: tones with equal residual frequencies are
    one coarse-rate waveform up to a constant.  With L = 6, offsets
    (0, 1, 3), M = 4, N = 512 and tones at theta = (0.3, -0.5) rad in bands
    (2, 4), (0, 2) or (1, 3), both joint searches return the true bands at
    residuals (0.4, 0.7) or (0.2, 0.6) f_s, noiseless and at 20 dB, though
    columns 0, 2 and 4 of this coset matrix are dependent.  At residuals
    (0.4, 0.4) f_s JDFSDPJ returns [1, 5] noiseless and [0, 4] at 20 dB
    for (2, 4), and [1, 4] for (1, 3) at 20 dB; JDFSD-full returns [3, 5]
    for (1, 3) noiseless and [0, 4] for (0, 2) at 20 dB.  No check here
    rejects such sources."""
    rows, G = _band_maps(config.geom.M, config.pattern, full_structure)
    phis, bands = _search(R, config.n_sources, G, step)
    return _finish(X, phis, bands, config, algorithm, rows)


def jdfsdpj(W: np.ndarray, R: np.ndarray, config) -> EstimationResult:
    """Joint 2-D subspace search over (phi, band) on the simplified output W
    and R = `sample_covariance(W)`."""
    return _joint_search(W, R, config, False, "JDFSDPJ", "jdfsdpj_search")


def jdfsd_full(Y_full: np.ndarray, R_full: np.ndarray, config) -> EstimationResult:
    """Full-structure baseline: the same joint search on all M*P channels,
    with R_full = `sample_covariance(Y_full)`."""
    return _joint_search(Y_full, R_full, config, True, "JDFSD-full",
                         "jdfsd_full_search")
