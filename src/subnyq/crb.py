"""Cramer-Rao bounds: analytic for the spatial phases, numerical for frequency.

Both bounds describe K uncorrelated sources of per-Nyquist-sample powers
p_k, observed for N snapshots of L Nyquist slots each.  The analytic phase
bound is the conditional (deterministic-signal) one, diagonal for
uncorrelated sources:

    CRB_kk = sigma^2 / (2 * N * L * p_k * Re(e_k^H P e_k))

with e_k source k's steering derivative and P the projector onto the
orthogonal complement of the selected steering columns.

The frequency bound has no analytic form here; `freq_crb_numerical`
computes the deterministic tone-model bound (Stoica & Nehorai, IEEE TASSP
1989) numerically.  Each derivative of the mean is a spatial vector times a
temporal one, so its Fisher matrix is the Hadamard product of two small Gram
matrices and the (rows * N) x 4K derivative matrix is never formed; the
temporal Gram matrix comes from tone moments summed in O(log N) steps.

Both bounds use the full-structure steering model and its analytic phase
derivative; the simplified structure is a selection of its rows.

The two bounds model the waveforms differently: `crb_phase` leaves them
arbitrary, the tone model knows them to be tones.  For one source the
phase block of the tone-model inverse equals `crb_phase`; for more it is
lower.  On the default scenario at K = 3 it is 6-13% lower per source on
the simplified receiver and 0.4-1% lower on the full one.  A sweep reports
`crb_phase` as its phase bound.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, RankDeficiencyError
from .model import (
    ArrayGeometry,
    MultiCosetPattern,
    _integer,
    _real,
    build_G_selected,
    selected_channel_columns,
)

__all__ = [
    "CrbInput",
    "CrbResult",
    "crb_phase",
    "freq_crb_numerical",
    "crb_input_from_scenario",
]


@dataclass(frozen=True)
class CrbInput:
    """Scenario description for the bounds: per source its spatial phase,
    band, power per Nyquist sample and in-band frequency, then the noise
    power per Nyquist sample and the snapshot count N."""

    phis: tuple[float, ...]
    bands: tuple[int, ...]
    powers: tuple[float, ...]
    f_residuals: tuple[float, ...]
    sigma2: float
    n_snapshots: int
    geom: ArrayGeometry
    pattern: MultiCosetPattern

    def __post_init__(self):
        for name, kind in (("phis", _real), ("bands", _integer), ("powers", _real),
                           ("f_residuals", _real)):
            object.__setattr__(self, name, tuple(kind(v) for v in getattr(self, name)))
        object.__setattr__(self, "sigma2", _real(self.sigma2))
        K = len(self.phis)
        if K == 0:
            raise ConfigError("bounds need at least one source")
        if {len(self.bands), len(self.powers), len(self.f_residuals)} != {K}:
            raise ConfigError(
                f"inconsistent sizes: {K} phases, {len(self.bands)} bands, "
                f"{len(self.powers)} powers, {len(self.f_residuals)} residuals"
            )
        if not all(0 < p < np.inf for p in self.powers):
            raise ConfigError(
                f"source powers must be positive and finite, got {self.powers}")
        if not np.isfinite(self.phis + self.f_residuals).all():
            raise ConfigError(
                f"phases and residual frequencies must be finite, got "
                f"{self.phis} and {self.f_residuals}")
        if not self.sigma2 > 0:
            raise ConfigError(f"noise power must be positive, got {self.sigma2}")
        try:
            object.__setattr__(self, "n_snapshots", _integer(self.n_snapshots))
        except ConfigError as exc:
            raise ConfigError(f"n_snapshots: {exc}") from None
        if self.n_snapshots < 1:
            raise ConfigError(f"need n_snapshots >= 1, got {self.n_snapshots}")

    @property
    def n_sources(self) -> int:
        return len(self.phis)

    @cached_property
    def tone_moments(self) -> np.ndarray:
        """sum_n n^p conj(t_a[n]) t_b[n] for p = 0, 1, 2 over n < N, shape
        (3, K, K), with t_k[n] = rho_k exp(j 2 pi f_k n T_s) the tone of
        source k and rho_k = sqrt(L p_k).  Both structures' frequency bounds
        read it; it is computed once per input and is read-only.

        conj(t_a[n]) t_b[n] = rho_a rho_b z_ab^n with z_ab = exp(j 2 pi
        nu_ab) and nu_ab = (f_b - f_a) T_s turns per snapshot, so the
        moments are rho_a rho_b times `_power_sums` of the K x K steps."""
        f, f_s = np.array(self.f_residuals), self.pattern.f_s
        # a pair more than f_s / 2 apart is brought within half a turn before
        # the subtraction rounds: f - f_s is exact for f >= f_s / 2
        step, below = f - f[:, None], f - f_s
        step = np.where(step > f_s / 2, below - f[:, None],
                        np.where(step < -f_s / 2, f - below[:, None], step))
        rho = np.sqrt(self.pattern.L * np.array(self.powers))
        moments = np.outer(rho, rho) * _power_sums(step / f_s, self.n_snapshots)
        moments.setflags(write=False)
        return moments


def _power_sums(nu: np.ndarray, N: int) -> np.ndarray:
    """S_p = sum_{n<N} n^p z^n for p = 0, 1, 2 and z = exp(j 2 pi nu),
    element-wise, stacked on a new first axis.  Built in O(log N) steps over
    the bits of N from the top: a doubling step is

        S_p(2m) = S_p(m) + z^m sum_k C(p, k) m^(p-k) S_k(m),

    and a set bit adds m^p z^m.  No step divides by 1 - z, and each z^m is
    taken from nu m reduced to the nearest whole turn, so no power of z
    accumulates rounding."""

    def z_to(m):
        turns = nu * m
        return np.exp(2j * np.pi * (turns - np.round(turns)))

    s0 = s1 = s2 = np.zeros(np.shape(nu), dtype=complex)
    m = 0.0
    for bit in bin(N)[2:]:
        w = z_to(m)
        s0, s1, s2 = (s0 + w * s0, s1 + w * (s1 + m * s0),
                      s2 + w * (s2 + 2 * m * s1 + m * m * s0))
        m *= 2
        if bit == "1":
            w = z_to(m)
            s0, s1, s2 = s0 + w, s1 + m * w, s2 + m * m * w
            m += 1
    return np.stack([s0, s1, s2])


@dataclass(frozen=True)
class CrbResult:
    """Diagonal phase bound matrix and its per-source standard deviations."""

    crb_matrix: np.ndarray
    per_source_std: np.ndarray


def _projector_complement(mat: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the complement of mat's column space."""
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s[-1] == 0.0 or s[0] / s[-1] > 1e10:
        raise RankDeficiencyError("steering matrix is rank deficient")
    return np.eye(mat.shape[0]) - u @ u.conj().T


def _steering(inp: CrbInput, full_structure: bool):
    """Steering columns on the input's support and their phase derivatives,
    on the structure's rows of the full model: row m*P + p depends on phi
    only through exp(-j m phi), so its derivative is -j m times the row."""
    M, P = inp.geom.M, inp.pattern.P
    rows = selected_channel_columns(M, P, full_structure)
    H = build_G_selected(inp.phis, inp.bands, inp.geom, inp.pattern, rows)
    return H, -1j * (rows // P)[:, None] * H


def crb_phase(inp: CrbInput, full_structure: bool = False) -> CrbResult:
    """Analytic spatial-phase bound for the selected receiver structure.
    Whether it is defined depends on the geometry, not on the powers."""
    H, E = _steering(inp, full_structure)
    quad = np.diag(E.conj().T @ _projector_complement(H) @ E)
    if np.any(quad.real <= 1e-12 * np.sum(np.abs(E) ** 2, axis=0)):
        raise RankDeficiencyError("phase Fisher information is singular: a "
                                  "steering derivative lies in the steering span")
    fim = (2.0 * inp.n_snapshots * inp.pattern.L / inp.sigma2) * np.real(
        quad * np.array(inp.powers))
    return CrbResult(crb_matrix=np.diag(1.0 / fim), per_source_std=np.sqrt(1.0 / fim))


def freq_crb_numerical(inp: CrbInput, full_structure: bool = False) -> np.ndarray:
    """Numerical frequency bound (Hz^2) for tone sources, K x K.

    Uses the structured tone model with unknown per-source phase, amplitude,
    spatial phase and in-band frequency; returns the in-band frequency block
    of the inverted Fisher information.  Every derivative of the mean,
    vectorized, is kron(g_c, t_c): g_c an analytic steering derivative or a
    column of H (the simplified structure's rows are a selection of the
    full model's), t_c a tone times 1, j 2 pi n T_s, 1/rho_k or j.  Hence
    F = (2 / sigma^2) Re((G^H G) o (T^H T)) with G rows x 4K and T N x 4K.
    Purely numerical; no analytic frequency formula is claimed.
    """
    K = inp.n_sources
    T_s = 1.0 / inp.pattern.f_s
    rho = np.sqrt(inp.pattern.L * np.array(inp.powers))
    H, dH = _steering(inp, full_structure)
    # column c of the derivative matrix is kron(G[:, c], T[:, c]) with
    # parameters ordered (phi, f, rho, alpha), K of each; T[:, c] is
    # scale[c] * n^power[c] * t_source[c], so T^H T needs only the input's
    # tone moments sum_n n^p conj(t_a) t_b, p = 0, 1, 2
    G = np.hstack([dH, H, H, H])
    power = np.repeat([0, 1, 0, 0], K)
    scale = np.concatenate([np.ones(K), np.full(K, 2j * np.pi * T_s), 1.0 / rho,
                            np.full(K, 1j)])
    source = np.tile(np.arange(K), 4)
    TT = (scale.conj()[:, None] * scale
          * inp.tone_moments[power[:, None] + power, source[:, None], source])
    # F mixes radians, Hz and amplitude: judge it scaled to a unit diagonal,
    # which an extreme noise power can overflow or underflow
    with np.errstate(all="ignore"):
        F = (2.0 / inp.sigma2) * np.real((G.conj().T @ G) * TT)
        unit = F / np.sqrt(np.outer(np.diag(F), np.diag(F)))
    if not np.isfinite(unit).all() or np.linalg.cond(unit) > 1e14:
        raise RankDeficiencyError(
            "tone-model Fisher information is singular or not finite")
    crb = np.linalg.inv(F)
    return crb[K:2 * K, K:2 * K].copy()  # a view would pin the 4K x 4K inverse


def crb_input_from_scenario(config) -> CrbInput:
    """Bound inputs of a scenario's sources, noise and snapshot count."""
    if config.sigma2 <= 0:
        raise ConfigError("bounds are undefined for a noiseless scenario")
    K = config.n_sources
    return CrbInput(
        phis=config.phases(),
        bands=[config.band_of(k) for k in range(K)],
        powers=[s.power for s in config.sources],
        f_residuals=[config.residual_of(k) for k in range(K)],
        sigma2=config.sigma2,
        n_snapshots=config.n_snapshots,
        geom=config.geom,
        pattern=config.pattern,
    )
