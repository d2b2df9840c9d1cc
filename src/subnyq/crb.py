"""Cramer-Rao bounds: analytic for the spatial phases, numerical for frequency.

Both bounds describe K uncorrelated sources of per-Nyquist-sample powers
p_k, observed for N snapshots of L Nyquist slots each.  The analytic phase
bound follows the conditional (deterministic-signal) form

    CRB = sigma^2 / (2 * N * L) * Re((E^H P E) o diag(p))^{-1}

with E the per-source steering derivatives, P the projector onto the
orthogonal complement of the selected steering columns and o the
element-wise product.

The frequency bound has no analytic form here; `freq_crb_numerical`
computes the deterministic tone-model bound (Stoica & Nehorai, IEEE TASSP
1989) numerically.  Each derivative of the mean is a spatial vector times a
temporal one, so its Fisher matrix is the Hadamard product of two small Gram
matrices and the (rows * N) x 4K derivative matrix is never formed.

Both bounds use the full-structure steering model and its analytic phase
derivative; the simplified structure is a selection of its rows.

The two bounds model the waveforms differently: `crb_phase` leaves them
arbitrary, the tone model knows them to be tones.  For one source the
phase block of the tone-model inverse equals `crb_phase`; for more it is
lower.  On the default scenario at K = 3 it is 6-13% lower per source on
the simplified receiver and 0.4-1% lower on the full one.  A sweep reports
`crb_phase` as its phase bound.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RankDeficiencyError
from .model import (
    ArrayGeometry,
    MultiCosetPattern,
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
        for name, kind in (("phis", float), ("bands", int), ("powers", float),
                           ("f_residuals", float)):
            object.__setattr__(self, name, tuple(kind(v) for v in getattr(self, name)))
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
        if not self.sigma2 > 0:
            raise ConfigError(f"noise power must be positive, got {self.sigma2}")
        if not isinstance(self.n_snapshots, (int, np.integer)) or self.n_snapshots < 1:
            raise ConfigError(
                f"need an integer n_snapshots >= 1, got {self.n_snapshots!r}")

    @property
    def n_sources(self) -> int:
        return len(self.phis)


@dataclass(frozen=True)
class CrbResult:
    """Phase bound matrix and its per-source standard deviations."""

    crb_matrix: np.ndarray
    per_source_std: np.ndarray
    fim: np.ndarray = field(repr=False)


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
    rows = np.arange(M * P) if full_structure else selected_channel_columns(M, P)
    H = build_G_selected(inp.phis, inp.bands, inp.geom, inp.pattern, rows)
    return H, -1j * (rows // P)[:, None] * H


def crb_phase(inp: CrbInput, full_structure: bool = False) -> CrbResult:
    """Analytic spatial-phase bound for the selected receiver structure."""
    H, E = _steering(inp, full_structure)
    P = _projector_complement(H)
    quad = np.real((E.conj().T @ P @ E) * np.diag(inp.powers))
    fim = (2.0 * inp.n_snapshots * inp.pattern.L / inp.sigma2) * quad
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
    pattern = inp.pattern
    N = inp.n_snapshots
    T_s = 1.0 / pattern.f_s
    n = np.arange(N)

    rho = np.sqrt(pattern.L * np.array(inp.powers))
    tones = np.array(
        [r * np.exp(2j * np.pi * f * n * T_s)
         for r, f in zip(rho, inp.f_residuals)]
    )
    H, dH = _steering(inp, full_structure)
    # column c of the derivative matrix is kron(G[:, c], T[:, c]) with
    # parameters ordered (phi, f, rho, alpha), K of each; T[:, c] is
    # scale[c] * n^power[c] * tones[source[c]], so T^H T needs only the
    # moments sum_n n^p conj(tones[a]) tones[b], p = 0, 1, 2
    G = np.hstack([dH, H, H, H])
    power = np.repeat([0, 1, 0, 0], K)
    scale = np.concatenate([np.ones(K), np.full(K, 2j * np.pi * T_s), 1.0 / rho,
                            np.full(K, 1j)])
    source = np.tile(np.arange(K), 4)
    weighted = tones.conj() * n ** np.arange(3.0)[:, None, None]
    moments = weighted @ tones.T
    TT = (scale.conj()[:, None] * scale
          * moments[power[:, None] + power, source[:, None], source])
    F = (2.0 / inp.sigma2) * np.real((G.conj().T @ G) * TT)
    # F mixes radians, Hz and amplitude: judge it scaled to a unit diagonal
    cond = np.linalg.cond(F / np.sqrt(np.outer(np.diag(F), np.diag(F))))
    if not np.isfinite(cond) or cond > 1e14:
        raise RankDeficiencyError("tone-model Fisher information is singular")
    crb = np.linalg.inv(F)
    return crb[K:2 * K, K:2 * K]


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
