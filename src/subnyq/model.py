"""Receiver algebra: steering vectors, sampling matrices and phase/DOA conversion.

Conventions used throughout the package:

* spatial steering a(phi)_m = exp(-j * phi * (m - 1)), m = 1..M (1-based here,
  0-based in code),
* coset DFT matrix B[i, l] = exp(j * 2*pi * c_i * l / L) / sqrt(L) with the
  band index l running 0..L-1,
* the Kronecker product combines the spatial and coset factors (an M x K
  matrix times a P x L matrix must give an MP x KL matrix, so nothing else
  is dimensionally possible),
* the selection J keeps all P branches of sensor 1 followed by branch 1 of
  sensors 2..M (`selected_channel_columns`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "ArrayGeometry",
    "MultiCosetPattern",
    "phase_from_doa",
    "doa_from_phase",
    "build_A",
    "build_B",
    "selected_channel_columns",
    "build_G_selected",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: M sensors spaced d meters apart."""

    M: int
    d: float
    c_prop: float = 3e8

    def __post_init__(self):
        if self.M < 2:
            raise ConfigError(f"need at least 2 sensors, got M={self.M}")
        if not 0 < self.d < np.inf:
            raise ConfigError(
                f"sensor spacing must be positive and finite, got d={self.d}")
        if not 0 < self.c_prop < np.inf:
            raise ConfigError(
                f"propagation speed must be positive and finite, got {self.c_prop}")


@dataclass(frozen=True)
class MultiCosetPattern:
    """Multi-coset sampling pattern: P of every L Nyquist-grid slots are kept.

    `offsets` are the kept slot indices c_1 < ... < c_P in [0, L-1]; every
    branch samples at rate f_s = f_N / L.
    """

    L: int
    offsets: tuple[int, ...]
    f_N: float = 1.0

    def __post_init__(self):
        if self.L < 1:
            raise ConfigError(f"downsampling factor must be >= 1, got L={self.L}")
        if not 0 < self.f_N < np.inf:
            raise ConfigError(
                f"Nyquist rate must be positive and finite, got f_N={self.f_N}")
        offs = tuple(int(c) for c in self.offsets)
        object.__setattr__(self, "offsets", offs)
        if not offs:
            raise ConfigError("sampling pattern needs at least one offset")
        if any(c < 0 or c > self.L - 1 for c in offs):
            raise ConfigError(f"offsets must lie in [0, {self.L - 1}], got {offs}")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ConfigError(f"offsets must be strictly increasing, got {offs}")

    @property
    def P(self) -> int:
        return len(self.offsets)

    @property
    def f_s(self) -> float:
        return self.f_N / self.L

    @property
    def T_N(self) -> float:
        return 1.0 / self.f_N


def phase_from_doa(theta: float, f: float, geom: ArrayGeometry) -> float:
    """Spatial phase phi = 2*pi*d*sin(theta)*f / c for a plane wave at carrier f."""
    return 2.0 * np.pi * geom.d * np.sin(theta) * f / geom.c_prop


def doa_from_phase(phi, f, geom: ArrayGeometry):
    """Invert `phase_from_doa` element-wise: NaN where the arcsine argument
    leaves [-1, 1] (spatial aliasing) or is undefined (f = 0).  A scalar
    input gives a float."""
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = phi * geom.c_prop / (2.0 * np.pi * geom.d * np.asarray(f, dtype=float))
        theta = np.where(np.abs(arg) <= 1.0 + 1e-12,
                         np.arcsin(np.clip(arg, -1.0, 1.0)), np.nan)
    return theta if theta.ndim else float(theta)


def build_A(phis, M: int) -> np.ndarray:
    """M x K ULA steering matrix; column k is [1, e^{-j phi_k}, ...,
    e^{-j phi_k (M-1)}]."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    return np.exp(-1j * np.outer(np.arange(M), phis))


def build_B(pattern: MultiCosetPattern) -> np.ndarray:
    """P x L partial-DFT coset matrix; satisfies B @ B^H = I_P."""
    c = np.asarray(pattern.offsets)
    l = np.arange(pattern.L)
    return np.exp(2j * np.pi * np.outer(c, l) / pattern.L) / np.sqrt(pattern.L)


def selected_channel_columns(M: int, P: int) -> np.ndarray:
    """Flat channel indices (sensor-major, m*P + p) kept by the selection matrix."""
    sensor1 = np.arange(P)
    others = np.arange(1, M) * P
    return np.concatenate([sensor1, others])


def build_G_selected(phis, bands, geom: ArrayGeometry,
                     pattern: MultiCosetPattern, rows) -> np.ndarray:
    """len(rows) x K steering columns: rows `rows` (flat channel indices
    m*P + p) of a(phi_k) kron B[:, band_k], the package's one steering model
    (row m*P + p is e^{-j m phi} B[p, l]).  The full structure keeps every
    row, the simplified receiver its `selected_channel_columns`."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    bands = np.atleast_1d(np.asarray(bands, dtype=int))
    rows = np.asarray(rows)
    if phis.shape != bands.shape:
        raise ConfigError(
            f"phase/band lists differ in length: {phis.size} vs {bands.size}"
        )
    if phis.size > rows.size:
        raise ConfigError(
            f"{phis.size} sources exceed {rows.size} output channels; "
            "least squares / CRB undefined"
        )
    if np.any((bands < 0) | (bands >= pattern.L)):
        raise ConfigError(
            f"band indices must lie in [0, {pattern.L - 1}], got {bands}")
    P = pattern.P
    return build_A(phis, geom.M)[rows // P] * build_B(pattern)[rows % P][:, bands]
