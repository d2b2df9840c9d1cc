"""Synthetic multiband array data: Nyquist streams, coset decimation, snapshots.

The snapshot assembly includes the receiver's coset phase alignment: a branch
sampling at offsets n*L + c_p carries a known extra phase exp(j*2*pi*f*c_p*T_N)
relative to the aligned (constant-B) model, where f is the in-band frequency.
A digital front end removes it with an all-pass per-branch filter; here the
generator applies the exact per-source equivalent, so noiseless snapshots lie
exactly in the span of the joint steering columns.

The noise is drawn per digitized channel, not per Nyquist-rate sensor stream:
the branches sample distinct Nyquist slots of independent white streams, so
the decimated noise is i.i.d. circular Gaussian with the same variance, and
the alignment filter is all-pass, so it leaves white noise white. Only the
channels a receiver keeps are drawn. The test suite checks that distribution
against Nyquist-rate streams decimated slot by slot.
"""

import math
import struct
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .model import (
    ArrayGeometry,
    MultiCosetPattern,
    _complex,
    _integer,
    _real,
    build_G_selected,
    phase_from_doa,
    selected_channel_columns,
)

__all__ = [
    "SourceTruth",
    "ScenarioConfig",
    "assemble_snapshots",
    "assemble_full_snapshots",
    "dump_snapshots",
    "load_snapshots",
]

ENVELOPE_KINDS = ("tone", "noise")


@dataclass(frozen=True)
class SourceTruth:
    """One narrowband far-field source.

    `envelope` is "tone" (constant unit envelope) or "noise" (unit-power
    low-pass filtered circular Gaussian of the given one-sided bandwidth,
    occupying [f_c, f_c + bandwidth)).
    """

    theta: float
    f_c: float
    amplitude: complex = 1.0 + 0.0j
    envelope: str = "tone"
    bandwidth: float = 0.0

    def __post_init__(self):
        for name in ("theta", "f_c", "bandwidth"):
            object.__setattr__(self, name, _real(getattr(self, name)))
        object.__setattr__(self, "amplitude", _complex(self.amplitude))
        if not -np.pi / 2 < self.theta < np.pi / 2:
            raise ConfigError(f"DOA must lie in (-pi/2, pi/2), got {self.theta}")
        if not np.isfinite(self.amplitude):
            raise ConfigError(f"amplitude must be finite, got {self.amplitude}")
        try:
            self.power
        except OverflowError:  # |a| or |a|^2 beyond the float range
            raise ConfigError(f"amplitude {self.amplitude} has a power |a|^2 "
                              "beyond the float range") from None
        if self.envelope not in ENVELOPE_KINDS:
            raise ConfigError(f"unknown envelope kind {self.envelope!r}")
        if self.envelope == "tone" and self.bandwidth != 0.0:
            raise ConfigError("pure-tone sources must have zero bandwidth")
        if self.envelope == "noise" and not 0.0 < self.bandwidth < np.inf:
            raise ConfigError(
                "filtered-noise sources need a positive, finite bandwidth")

    @property
    def power(self) -> float:
        return abs(self.amplitude) ** 2


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description for one Monte Carlo trial."""

    geom: ArrayGeometry
    pattern: MultiCosetPattern
    sources: tuple[SourceTruth, ...]
    snr_db: float | None = 10.0
    n_snapshots: int = 4096
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        for name in ("n_snapshots", "rng_seed"):
            object.__setattr__(self, name, _integer(getattr(self, name)))
        K = len(self.sources)
        M, P, L = self.geom.M, self.pattern.P, self.pattern.L
        if self.snr_db is not None:
            object.__setattr__(self, "snr_db", _real(self.snr_db))
            with np.errstate(over="ignore"):
                ratio = np.float64(10.0) ** (self.snr_db / 10.0)
            if not 0 < ratio < np.inf:
                raise ConfigError(
                    f"SNR {self.snr_db} dB is a power ratio of {ratio}; it "
                    "must be positive and finite")
            with np.errstate(over="ignore"):
                sigma2 = self.sigma2
            if not 0 < sigma2 < np.inf:
                raise ConfigError(
                    f"SNR {self.snr_db} dB gives a noise power sigma2 of "
                    f"{sigma2}; it must be positive and finite")
        if self.rng_seed < 0:
            raise ConfigError(f"RNG seed must be non-negative, got {self.rng_seed}")
        if K >= M:
            raise ConfigError(f"need K < M, got K={K}, M={M}")
        if self.n_snapshots < 2 * (M + P - 1):
            raise ConfigError(
                f"need n_snapshots >= {2 * (M + P - 1)} for covariance "
                f"estimation, got {self.n_snapshots}"
            )
        # the largest arrays are the full output (M*P x N) and the fine
        # Nyquist grid (N*L); numpy cannot hold more than 2**63 - 1 bytes
        elements = self.n_snapshots * max(M * P, L)
        if elements * np.dtype(complex).itemsize > np.iinfo(np.int64).max:
            raise ConfigError(
                f"N={self.n_snapshots} snapshots with M*P={M * P} channels and "
                f"L={L} bands need arrays beyond numpy's size limit"
            )
        # coset columns l and l + d are parallel exactly when L divides
        # d * gcd(c_i - c_0), so g > 1 makes bands l and l + L/g identical
        offs = self.pattern.offsets
        g = math.gcd(L, *(c - offs[0] for c in offs[1:]))
        if g > 1:
            raise ConfigError(
                f"coset columns l and l + {L // g} coincide for L={L}, offsets "
                f"{offs}: their bands cannot be told apart"
            )
        f_N = self.pattern.f_N
        for k, src in enumerate(self.sources):
            if not 0 <= src.f_c < f_N:
                raise ConfigError(
                    f"source {k}: carrier {src.f_c} outside [0, f_N={f_N})"
                )
            lo = int(np.floor(src.f_c * L / f_N))
            hi = int(np.floor((src.f_c + src.bandwidth) * L / f_N))
            if lo != hi:
                raise ConfigError(
                    f"source {k}: occupancy [{src.f_c}, {src.f_c + src.bandwidth})"
                    f" straddles bands {lo} and {hi}; sources must sit inside"
                    " one band"
                )

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def sigma2(self) -> float:
        """Noise power per Nyquist sample; 0 for the noiseless case."""
        if self.snr_db is None:
            return 0.0
        mean_power = float(np.mean([s.power for s in self.sources])) if self.sources else 1.0
        return mean_power / 10.0 ** (self.snr_db / 10.0)

    def band_of(self, k: int) -> int:
        return int(np.floor(self.sources[k].f_c * self.pattern.L / self.pattern.f_N))

    def residual_of(self, k: int) -> float:
        return self.sources[k].f_c - self.band_of(k) * self.pattern.f_s

    def phases(self) -> np.ndarray:
        return np.array(
            [phase_from_doa(s.theta, s.f_c, self.geom) for s in self.sources]
        )


def _draw_envelopes(config: ScenarioConfig, rng: np.random.Generator):
    """Fine-grid DFT coefficients per source (None for pure tones)."""
    n_fine = config.n_snapshots * config.pattern.L
    coeffs = []
    for src in config.sources:
        if src.envelope == "tone":
            coeffs.append(None)
            continue
        n_bins = int(np.floor(src.bandwidth * n_fine / config.pattern.f_N))
        if n_bins < 1:
            raise ConfigError(
                f"bandwidth {src.bandwidth} below the frequency resolution "
                f"{config.pattern.f_N / n_fine} of this snapshot length"
            )
        g = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
        coeffs.append(g / np.sqrt(2.0 * n_bins))
    return coeffs


def _envelope_series(coeff, n_points: int) -> np.ndarray:
    """Evaluate the trig-polynomial envelope g[n] = sum_k c_k e^{j2pi k n / n_points}.

    Sampling the fine-grid envelope every (n_fine / n_points) samples folds the
    coefficient index modulo n_points, so one zero-padded IFFT serves both the
    Nyquist grid and the coarse snapshot grid exactly.
    """
    if coeff is None:
        return np.ones(n_points, dtype=complex)
    buf = np.zeros(n_points, dtype=complex)
    np.add.at(buf, np.arange(coeff.size) % n_points, coeff)
    return np.fft.ifft(buf) * n_points


def _envelope_signal(config: ScenarioConfig, coeffs, full_structure: bool) -> np.ndarray:
    """Noiseless aligned signal on the structure's `selected_channel_columns`
    for the envelope coefficients `coeffs` of `_draw_envelopes` (None for a
    tone).  Each row is accumulated element-wise from its own channel alone,
    so the full structure's first rows are the simplified structure's."""
    geom, pattern = config.geom, config.pattern
    N = config.n_snapshots
    channels = selected_channel_columns(geom.M, pattern.P, full_structure)
    signal = np.zeros((len(channels), N), dtype=complex)
    if not config.n_sources:
        return signal
    bands = [config.band_of(k) for k in range(config.n_sources)]
    G = build_G_selected(config.phases(), bands, geom, pattern, channels)
    G *= np.sqrt(pattern.L)
    coarse_t = np.arange(N) * pattern.L * pattern.T_N
    for k, src in enumerate(config.sources):
        g = _envelope_series(coeffs[k], N)
        signal += np.outer(G[:, k], src.amplitude * g
                           * np.exp(2j * np.pi * src.f_c * coarse_t))
    return signal


@lru_cache(maxsize=1)
def _tone_signal(config: ScenarioConfig, full_structure: bool) -> np.ndarray:
    """Read-only `_envelope_signal` of a scenario whose sources are all tones.

    Tones draw nothing from the RNG, so the signal depends on neither the
    seed nor the SNR: callers key it on the scenario with both cleared, and
    one entry serves every trial of an SNR sweep.
    """
    signal = _envelope_signal(config, (None,) * config.n_sources, full_structure)
    signal.setflags(write=False)
    return signal


def _draws(config: ScenarioConfig, seeds, full_structure: bool) -> tuple:
    """(envelope coefficients, noise) of the trials of `config` seeded with
    `seeds`; the noise is one (trials, channels, N) buffer whose rows are
    the structure's `selected_channel_columns(M, P, full_structure)`.

    Each generator draws its envelopes, then all its trial's rows in one
    call (2N normals a row, re/im interleaved, scaled to variance sigma2):
    the full structure's first rows are the simplified ones.  With noise
    every row is drawn, so the buffer starts uninitialized: a serial sweep
    runs this on its fill thread, and numpy holds the GIL while it zeroes
    memory but not while it draws or scales.
    """
    M, P, N = config.geom.M, config.pattern.P, config.n_snapshots
    n_rows = M * P if full_structure else M + P - 1
    sigma2 = config.sigma2
    noise = (np.empty if sigma2 else np.zeros)((len(seeds), n_rows, 2 * N))
    coeffs = []
    for trial, seed in zip(noise, seeds):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        coeffs.append(_draw_envelopes(config, rng))
        if sigma2:
            rng.standard_normal(out=trial)
    noise *= np.sqrt(sigma2 / 2.0)
    return coeffs, noise.view(np.complex128)


def _channel_rows(config: ScenarioConfig, full_structure: bool, draws=None) -> np.ndarray:
    """Receiver output of `config` on the structure's channels: the signal
    added in place to the noise of a block's `_draws`, which is returned
    stacked, or, without them, of one trial seeded with `config.rng_seed`."""
    coeffs, out = draws or _draws(config, [config.rng_seed], full_structure)
    if all(src.envelope == "tone" for src in config.sources):
        out += _tone_signal(replace(config, rng_seed=0, snr_db=None), full_structure)
    else:
        for rows, trial_coeffs in zip(out, coeffs):
            rows += _envelope_signal(config, trial_coeffs, full_structure)
    return out if draws else out[0]


def assemble_snapshots(config: ScenarioConfig, draws=None) -> np.ndarray:
    """Simplified receiver output W ((M+P-1) x N), deterministic in rng_seed.

    Its rows are the channels `selected_channel_columns(M, P)` (flat indices
    m*P + p), in that order.  Given a block's `_draws(config, seeds, False)`,
    the block's outputs come stacked, in that buffer.
    """
    return _channel_rows(config, False, draws)


def assemble_full_snapshots(config: ScenarioConfig, draws=None) -> np.ndarray:
    """Full-structure output (M*P x N) on the channels
    `selected_channel_columns(M, P, True)`, in that order.

    Its first M+P-1 rows are `assemble_snapshots(config)` bit for bit; a
    block's `_draws(config, seeds, True)` give the outputs stacked as there.
    """
    return _channel_rows(config, True, draws)


_MAGIC = b"SNYQ"
_HEADER = struct.Struct("<4sIIIQ")  # magic, rows, cols, reserved, seed


def dump_snapshots(W: np.ndarray, seed: int, path) -> None:
    """Write snapshots as little-endian complex128 ("<c16": re then im
    float64), row-major, after a 24-byte header (magic "SNYQ", u32 rows,
    u32 cols, u32 pad, u64 seed).
    """
    W = np.asarray(W, "<c16")
    rows, cols = W.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, rows, cols, 0, seed & (2**64 - 1)))
        fh.write(W.tobytes())


def load_snapshots(path) -> tuple[np.ndarray, int]:
    """Inverse of `dump_snapshots`; returns (W, seed)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ConfigError(
                f"{path}: header is {len(header)} bytes, expected {_HEADER.size}"
            )
        magic, rows, cols, _, seed = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ConfigError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        payload = fh.read()
    if len(payload) != rows * cols * 16:
        raise ConfigError(f"{path}: payload is {len(payload)} bytes, expected "
                          f"{rows * cols * 16} for {rows}x{cols} complex128")
    return np.frombuffer(payload, "<c16").astype(complex).reshape(rows, cols), seed
