"""Cramer-Rao bounds for the spatial phases, plus numerical validation oracles.

The analytic phase bound follows the conditional (deterministic-signal) form

    CRB = sigma^2 / (2 * T_obs * f_N) * Re((E^H P E) o R_S^T)^{-1}

with E the per-source steering derivatives, P the projector onto the
orthogonal complement of the selected steering columns, o the element-wise
product, and R_S the source-power covariance at Nyquist-sample scale.
T_obs * f_N is the number of Nyquist slots spanned by the observation, which
reconciles the two common bookkeepings of the time/bandwidth prefactor
(per-branch snapshots carry L-times the per-slot signal power).

`fim_numerical` validates it independently: finite differences of the mean
plus explicit elimination of the per-snapshot signal nuisances.  The
frequency bound has no analytic form here; `freq_crb_numerical` computes it
for the tone-structured model only.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RankDeficiencyError
from .model import (
    ArrayGeometry,
    MultiCosetPattern,
    build_G_selected,
    build_H_selected,
    full_steering,
    joint_steering,
)

__all__ = [
    "CrbInput",
    "CrbResult",
    "steering_derivative",
    "full_steering_derivative",
    "projector_complement",
    "crb_phase",
    "fim_numerical",
    "freq_crb_numerical",
    "crb_input_from_scenario",
]


@dataclass(frozen=True)
class CrbInput:
    """Scenario description for the bounds.

    `T_obs` is the total observation time N * L * T_N.  `f_residuals` (in-band
    frequencies) are only needed by the numerical frequency bound.
    """

    phis: tuple[float, ...]
    bands: tuple[int, ...]
    R_S: np.ndarray
    sigma2: float
    T_obs: float
    geom: ArrayGeometry
    pattern: MultiCosetPattern
    f_residuals: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "phis", tuple(float(p) for p in self.phis))
        object.__setattr__(self, "bands", tuple(int(b) for b in self.bands))
        R = np.atleast_2d(np.asarray(self.R_S, dtype=complex))
        object.__setattr__(self, "R_S", R)
        K = len(self.phis)
        if len(self.bands) != K or R.shape != (K, K):
            raise ConfigError(
                f"inconsistent sizes: {K} phases, {len(self.bands)} bands, "
                f"R_S {R.shape}"
            )
        if np.max(np.abs(R - R.conj().T)) > 1e-10 * max(np.max(np.abs(R)), 1e-300):
            raise ConfigError("R_S must be Hermitian")
        if self.sigma2 <= 0:
            raise ConfigError(f"noise power must be positive, got {self.sigma2}")
        if self.T_obs <= 0:
            raise ConfigError(f"observation time must be positive, got {self.T_obs}")

    @property
    def n_sources(self) -> int:
        return len(self.phis)

    @property
    def n_snapshots(self) -> int:
        return int(round(self.T_obs * self.pattern.f_s))


@dataclass(frozen=True)
class CrbResult:
    """Phase bound matrix and its per-source standard deviations."""

    crb_matrix: np.ndarray
    per_source_std: np.ndarray
    fim: np.ndarray = field(repr=False)


def steering_derivative(phi: float, band: int, geom: ArrayGeometry,
                        pattern: MultiCosetPattern) -> np.ndarray:
    """d/dphi of the simplified joint steering J (a(phi) kron B_l)."""
    b0 = np.exp(2j * np.pi * pattern.offsets[0] * band / pattern.L) / np.sqrt(pattern.L)
    m = np.arange(1, geom.M)
    tail = -1j * m * np.exp(-1j * phi * m) * b0
    return np.concatenate([np.zeros(pattern.P, dtype=complex), tail])


def full_steering_derivative(phi: float, band: int, geom: ArrayGeometry,
                             pattern: MultiCosetPattern) -> np.ndarray:
    """d/dphi of the full-structure steering a(phi) kron B_l."""
    m = np.arange(geom.M)
    da = -1j * m * np.exp(-1j * phi * m)
    b = np.exp(2j * np.pi * np.asarray(pattern.offsets) * band / pattern.L)
    return np.kron(da, b / np.sqrt(pattern.L))


def projector_complement(mat: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the complement of mat's column space."""
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s[-1] == 0.0 or s[0] / s[-1] > 1e10:
        raise RankDeficiencyError("steering matrix is rank deficient")
    return np.eye(mat.shape[0]) - u @ u.conj().T


def _builders(full_structure: bool):
    if full_structure:
        return build_G_selected, full_steering, full_steering_derivative
    return build_H_selected, joint_steering, steering_derivative


def crb_phase(inp: CrbInput, full_structure: bool = False) -> CrbResult:
    """Analytic spatial-phase bound for the selected receiver structure."""
    build, _, deriv = _builders(full_structure)
    H = build(inp.phis, inp.bands, inp.geom, inp.pattern)
    P = projector_complement(H)
    E = np.column_stack(
        [deriv(p, b, inp.geom, inp.pattern) for p, b in zip(inp.phis, inp.bands)]
    )
    quad = np.real((E.conj().T @ P @ E) * inp.R_S.T)
    fim = (2.0 * inp.T_obs * inp.pattern.f_N / inp.sigma2) * quad
    cond = np.linalg.cond(fim)
    if not np.isfinite(cond) or cond > 1e12:
        raise RankDeficiencyError(
            "phase Fisher information is singular (steering derivatives lie "
            "in the span of the steering columns?)"
        )
    crb = np.linalg.inv(fim)
    return CrbResult(
        crb_matrix=crb,
        per_source_std=np.sqrt(np.diag(crb).real),
        fim=fim,
    )


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
    inverse is directly comparable with `crb_phase(...).crb_matrix`.
    """
    K = inp.n_sources
    n_fim = max(n_fim, 2 * K)
    build, _, _ = _builders(full_structure)
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


def freq_crb_numerical(inp: CrbInput, full_structure: bool = False,
                       fd_step: float = 1e-5) -> np.ndarray:
    """Numerical frequency bound (Hz^2) for tone sources, K x K.

    Uses the structured tone model with unknown per-source phase, amplitude,
    spatial phase and in-band frequency; returns the in-band frequency block
    of the inverted Fisher information.  Purely numerical; no analytic
    frequency formula is claimed.
    """
    if inp.f_residuals is None:
        raise ConfigError("frequency bound needs the in-band residuals")
    K = inp.n_sources
    build, steer, _ = _builders(full_structure)
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


def crb_input_from_scenario(config) -> CrbInput:
    """Provision bound inputs from a scenario: tone powers on the diagonal."""
    if config.sigma2 <= 0:
        raise ConfigError("bounds are undefined for a noiseless scenario")
    K = config.n_sources
    powers = np.array([s.power for s in config.sources])
    return CrbInput(
        phis=tuple(config.phases()),
        bands=tuple(config.band_of(k) for k in range(K)),
        R_S=np.diag(powers),
        sigma2=config.sigma2,
        T_obs=config.n_snapshots * config.pattern.L * config.pattern.T_N,
        geom=config.geom,
        pattern=config.pattern,
        f_residuals=tuple(config.residual_of(k) for k in range(K)),
    )
