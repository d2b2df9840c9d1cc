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
  sensors 2..M, and the full structure lists these M+P-1 channels first,
  then the rest (`selected_channel_columns`).
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

__all__ = [
    "ArrayGeometry",
    "MultiCosetPattern",
    "phase_from_doa",
    "doa_from_phase",
    "build_A",
    "build_B",
    "check_identifiable",
    "selected_channel_columns",
    "build_G_selected",
]

SUBSET_TABLE_BYTES = 2**25  # cap on the subset matrices `check_identifiable` reads


def _integer(value, name: str, least: int | None = None) -> int:
    """A number equal to an integer (8 or 8.0), and at least `least` if given,
    as an int; ConfigError naming the field `name` otherwise, for booleans too."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or (
            isinstance(value, float) and value.is_integer())):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"need {name} >= {least}, got {int(value)}")
    return int(value)


def _real(value, name: str) -> float:
    """An int, float or real numpy number as a float; ConfigError naming
    the field `name` for anything else, booleans and strings included."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name}: expected a real number, got {value!r}")
    return float(value)


def _positive(value, name: str) -> float:
    """A `_real` in (0, inf); ConfigError naming the field `name` otherwise."""
    if not 0 < (number := _real(value, name)) < np.inf:
        raise ConfigError(f"{name} must be positive and finite, got {number}")
    return number


def _complex(value, name: str) -> complex:
    """A real or complex number as a complex; ConfigError naming `name` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float, complex, np.number)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    return complex(value)


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: M sensors spaced d meters apart."""

    M: int
    d: float
    c_prop: float = 3e8

    def __post_init__(self):
        object.__setattr__(self, "M", _integer(self.M, "M", 2))
        for name in ("d", "c_prop"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))


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
        object.__setattr__(self, "L", _integer(self.L, "L", 1))
        object.__setattr__(self, "f_N", _positive(self.f_N, "f_N"))
        offs = tuple(_integer(c, "offsets") for c in self.offsets)
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
    e^{-j phi_k (M-1)}].  A stack of phase lists gives one per trial."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    return np.exp(-1j * (np.arange(M)[:, None] * phis[..., None, :]))


def build_B(pattern: MultiCosetPattern) -> np.ndarray:
    """P x L partial-DFT coset matrix; satisfies B @ B^H = I_P."""
    c = np.asarray(pattern.offsets)
    l = np.arange(pattern.L)
    return np.exp(2j * np.pi * np.outer(c, l) / pattern.L) / np.sqrt(pattern.L)


@lru_cache(maxsize=8)
def _subset_singular_values(pattern: MultiCosetPattern, k: int):
    """Read-only (subsets, sv): every k-column subset S of `build_B(pattern)`
    in lexicographic order and B_S's singular values, descending, from one
    batched SVD.  ConfigError if the stacked B_S exceed SUBSET_TABLE_BYTES."""
    L, P = pattern.L, pattern.P
    need = math.comb(L, k) * k * P * np.dtype(complex).itemsize
    if need > SUBSET_TABLE_BYTES:
        raise ConfigError(
            f"the {k}-column subsets of L={L} bands need {need} bytes of subset"
            f" matrices, above the {SUBSET_TABLE_BYTES}-byte cap")
    subsets = np.array(list(itertools.combinations(range(L), k)), dtype=int)
    sv = np.linalg.svd(build_B(pattern)[:, subsets].transpose(1, 0, 2),
                       compute_uv=False)
    for table in (subsets, sv):
        table.setflags(write=False)
    return subsets, sv


def check_identifiable(pattern: MultiCosetPattern, K: int) -> None:
    """ConfigError unless rank-K branch data has one K-band support: every
    K + 1 columns of B independent (Davies & Eldar, IEEE TIT 2012), each
    subset's smallest singular value at least 1e-8 times its largest.  For
    prime L every DFT minor is nonzero (Chebotarev), so no table is read."""
    if K > pattern.P - 1:
        raise ConfigError(f"JDFPI needs K <= P-1, got K={K}, P={pattern.P}")
    if all(pattern.L % p for p in range(2, math.isqrt(pattern.L) + 1)):
        return
    subsets, sv = _subset_singular_values(pattern, K + 1)
    dependent = np.flatnonzero(sv[:, -1] < 1e-8 * sv[:, 0])
    if dependent.size:
        raise ConfigError(
            f"JDFPI cannot identify K={K} bands for L={pattern.L}, offsets "
            f"{pattern.offsets}: coset columns {subsets[dependent[0]].tolist()}"
            " are dependent")


def selected_channel_columns(M: int, P: int, full_structure: bool = False) -> np.ndarray:
    """Flat channel indices m*P + p a structure keeps, as its output's rows:
    the selection matrix's (sensor 1 or branch 1, m = 0 or p = 0), then, if
    `full_structure`, the rest, each part ascending."""
    m, p = np.divmod(np.arange(M * P), P)
    rows = np.argsort((m > 0) & (p > 0), kind="stable")
    return rows if full_structure else rows[:M + P - 1]


def build_G_selected(phis, bands, geom: ArrayGeometry,
                     pattern: MultiCosetPattern, rows) -> np.ndarray:
    """len(rows) x K steering columns: rows `rows` (flat channel indices
    m*P + p) of a(phi_k) kron B[:, band_k], the package's one steering model
    (row m*P + p is e^{-j m phi} B[p, l]), such as a structure's
    `selected_channel_columns`; stacks give one per trial."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    bands = np.atleast_1d(np.asarray(bands, dtype=int))
    rows = np.asarray(rows)
    if phis.shape != bands.shape:
        raise ConfigError(
            f"phase/band lists differ in length: {phis.size} vs {bands.size}"
        )
    if phis.shape[-1] > rows.size:
        raise ConfigError(
            f"{phis.shape[-1]} sources exceed {rows.size} output channels; "
            "least squares / CRB undefined"
        )
    if np.any((bands < 0) | (bands >= pattern.L)):
        raise ConfigError(
            f"band indices must lie in [0, {pattern.L - 1}], got {bands}")
    P = pattern.P
    return (build_A(phis, geom.M)[..., rows // P, :]
            * build_B(pattern)[(rows % P)[:, None], bands[..., None, :]])
