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

from .errors import ConfigError, SpatialAliasingError

__all__ = [
    "ArrayGeometry",
    "MultiCosetPattern",
    "phase_from_doa",
    "doa_from_phase",
    "build_A",
    "build_B",
    "joint_steering",
    "full_steering",
    "build_H_selected",
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


def doa_from_phase(phi: float, f: float, geom: ArrayGeometry) -> float:
    """Invert `phase_from_doa`; raises if the arcsine argument exceeds 1."""
    arg = phi * geom.c_prop / (2.0 * np.pi * geom.d * f)
    if abs(arg) > 1.0 + 1e-12:
        raise SpatialAliasingError(
            f"arcsine argument {arg:.6g} out of [-1, 1]: spatial aliasing at "
            f"d={geom.d}, f={f}"
        )
    return float(np.arcsin(np.clip(arg, -1.0, 1.0)))


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


def joint_steering(phi: float, band: int, geom: ArrayGeometry,
                   pattern: MultiCosetPattern) -> np.ndarray:
    """Simplified-receiver steering J (a(phi) kron B_l), length M+P-1: the
    one-column view of `build_H_selected`."""
    return build_H_selected([phi], [band], geom, pattern)[:, 0]


def full_steering(phi: float, band: int, geom: ArrayGeometry,
                  pattern: MultiCosetPattern) -> np.ndarray:
    """Full-structure steering a(phi) kron B_l, length M*P: the one-column
    view of `build_G_selected`."""
    return build_G_selected([phi], [band], geom, pattern)[:, 0]


def _check_selected(phis, bands, rows: int, L: int):
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    bands = np.atleast_1d(np.asarray(bands, dtype=int))
    if phis.shape != bands.shape:
        raise ConfigError(
            f"phase/band lists differ in length: {phis.size} vs {bands.size}"
        )
    if phis.size > rows:
        raise ConfigError(
            f"{phis.size} sources exceed {rows} output channels; "
            "least squares / CRB undefined"
        )
    if np.any((bands < 0) | (bands >= L)):
        raise ConfigError(f"band indices must lie in [0, {L - 1}], got {bands}")
    return phis, bands


def build_G_selected(phis, bands, geom: ArrayGeometry,
                     pattern: MultiCosetPattern) -> np.ndarray:
    """(M*P) x K full-structure steering columns a(phi_k) kron B[:, band_k],
    the package's one steering model (row m*P + p is e^{-j m phi} B[p, l])."""
    phis, bands = _check_selected(phis, bands, geom.M * pattern.P, pattern.L)
    G = build_A(phis, geom.M)[:, None, :] * build_B(pattern)[:, bands]
    return G.reshape(geom.M * pattern.P, phis.size)


def build_H_selected(phis, bands, geom: ArrayGeometry,
                     pattern: MultiCosetPattern) -> np.ndarray:
    """(M+P-1) x K simplified steering columns: the `selected_channel_columns`
    rows of `build_G_selected`."""
    M, P = geom.M, pattern.P
    phis, bands = _check_selected(phis, bands, M + P - 1, pattern.L)
    return build_G_selected(phis, bands, geom, pattern)[selected_channel_columns(M, P)]
