"""Signal synthesis: decimation, model consistency, noise statistics, file I/O."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    multicoset_sample,
    pattern_coherence,
    random_scenario,
    synthesize_streams,
)
from subnyq.errors import ConfigError
from subnyq.model import (
    ArrayGeometry,
    MultiCosetPattern,
    build_G_selected,
    selected_channel_columns,
)
from subnyq import siggen
from subnyq.siggen import (
    ScenarioConfig,
    SourceTruth,
    _aligned_signal,
    _white_noise,
    assemble_full_snapshots,
    assemble_snapshots,
    dump_snapshots,
    load_snapshots,
)

GEOM = ArrayGeometry(M=6, d=0.5, c_prop=1.0)
PATTERN = MultiCosetPattern(L=11, offsets=(0, 1, 4, 6), f_N=1.0)


def tone_scenario(snr_db=None, K=2, n_snapshots=128, seed=0):
    f_s = PATTERN.f_s
    sources = (
        SourceTruth(theta=np.deg2rad(25.0), f_c=(3 + 0.4) * f_s),
        SourceTruth(theta=np.deg2rad(-50.0), f_c=(8 + 0.7) * f_s),
    )[:K]
    return ScenarioConfig(geom=GEOM, pattern=PATTERN, sources=sources,
                          snr_db=snr_db, n_snapshots=n_snapshots, rng_seed=seed)


def test_multicoset_sample_picks_offset_slots():
    pattern = MultiCosetPattern(L=4, offsets=(0, 2, 3))
    stream = np.arange(20, dtype=complex)
    branches = multicoset_sample(stream, pattern)
    np.testing.assert_array_equal(branches[0], [0, 4, 8, 12, 16])
    np.testing.assert_array_equal(branches[1], [2, 6, 10, 14, 18])
    np.testing.assert_array_equal(branches[2], [3, 7, 11, 15, 19])


def test_multicoset_sample_rejects_short_stream():
    pattern = MultiCosetPattern(L=4, offsets=(0, 2))
    with pytest.raises(ConfigError):
        multicoset_sample(np.zeros(7), pattern, n_snapshots=2)


def test_coset_branches_of_tone_differ_by_known_phase():
    # branch p of a pure tone equals branch 0 advanced by c_p Nyquist slots,
    # i.e. a constant phase factor exp(2j*pi*f_c*c_p*T_N)
    pattern = MultiCosetPattern(L=8, offsets=(0, 1, 3, 6), f_N=4.0)
    f_c = 1.37
    n = np.arange(8 * 32)
    stream = np.exp(2j * np.pi * f_c * n / pattern.f_N)
    branches = multicoset_sample(stream, pattern)
    for p, c in enumerate(pattern.offsets):
        expected = branches[0] * np.exp(2j * np.pi * f_c * c * pattern.T_N)
        np.testing.assert_allclose(branches[p], expected, atol=1e-12)


def test_zero_sources_zero_noise_gives_zero_streams():
    config = ScenarioConfig(geom=GEOM, pattern=PATTERN, sources=(),
                            snr_db=None, n_snapshots=32, rng_seed=0)
    streams = synthesize_streams(config, np.random.default_rng(0))
    np.testing.assert_array_equal(streams, 0.0)


def test_single_tone_stream_formula():
    config = tone_scenario(snr_db=None, K=1, n_snapshots=32)
    src = config.sources[0]
    streams = synthesize_streams(config, np.random.default_rng(0))
    n = np.arange(32 * PATTERN.L)
    expected = src.amplitude * np.exp(2j * np.pi * src.f_c * n * PATTERN.T_N)
    np.testing.assert_allclose(streams[0], expected, atol=1e-12)


def test_unit_snr_balances_signal_and_noise_power():
    config = tone_scenario(snr_db=0.0, K=1, n_snapshots=10_000)
    streams = synthesize_streams(config, np.random.default_rng(1))
    clean = synthesize_streams(tone_scenario(snr_db=None, K=1,
                                             n_snapshots=10_000),
                               np.random.default_rng(1))
    noise_power = np.mean(np.abs(streams - clean) ** 2)
    signal_power = np.mean(np.abs(clean) ** 2)
    assert noise_power / signal_power == pytest.approx(1.0, rel=0.05)


def test_minimal_selection_row_count():
    geom = ArrayGeometry(M=2, d=0.5, c_prop=1.0)
    pattern = MultiCosetPattern(L=5, offsets=(0, 2), f_N=1.0)
    src = SourceTruth(theta=0.3, f_c=0.5 * pattern.f_s)
    config = ScenarioConfig(geom=geom, pattern=pattern, sources=(src,),
                            snr_db=None, n_snapshots=16)
    assert assemble_snapshots(config).shape == (3, 16)


def test_tone_aliases_to_expected_band_and_residual():
    config = tone_scenario(snr_db=None, K=1, n_snapshots=512)
    W = assemble_snapshots(config)
    f_res = config.residual_of(0)
    pad = 1 << 14
    spec = np.abs(np.fft.fft(W[0], pad))
    peak = np.argmax(spec) / pad * PATTERN.f_s
    assert abs(peak - f_res) <= PATTERN.f_s / 512  # within one FFT bin


def test_noiseless_snapshots_lie_in_steering_span():
    rng = np.random.default_rng(3)
    for _ in range(10):
        config = random_scenario(rng, snr_db=None, n_snapshots=64)
        W = assemble_snapshots(config)
        bands = [config.band_of(k) for k in range(config.n_sources)]
        rows = selected_channel_columns(config.geom.M, config.pattern.P)
        H = build_G_selected(config.phases(), bands, config.geom, config.pattern,
                             rows)
        # residual after projecting onto the steering columns
        coef, *_ = np.linalg.lstsq(H, W, rcond=None)
        resid = np.linalg.norm(W - H @ coef)
        assert resid < 1e-10 * np.linalg.norm(W)


def test_noiseless_snapshot_rank_equals_source_count():
    config = tone_scenario(snr_db=None, K=2)
    W = assemble_snapshots(config)
    s = np.linalg.svd(W, compute_uv=False)
    assert s[2] < 1e-10 * s[0]
    assert s[1] > 1e-3 * s[0]


def test_aligned_branch_matches_scalar_corrected_decimation():
    # For a single tone the receiver's per-branch alignment is the scalar
    # phase exp(-2j*pi*f_res*c_p*T_N) applied to the raw decimated stream.
    config = tone_scenario(snr_db=None, K=1, n_snapshots=64)
    W = assemble_snapshots(config)
    streams = synthesize_streams(config, np.random.default_rng(0))
    f_res = config.residual_of(0)
    raw = multicoset_sample(streams[0], config.pattern, config.n_snapshots)
    correction = np.exp(
        -2j * np.pi * f_res * np.asarray(config.pattern.offsets) * config.pattern.T_N
    )
    np.testing.assert_allclose(raw * correction[:, None], W[:PATTERN.P], atol=1e-10)


def test_noiseless_tone_channel_power():
    # each selected channel of a unit-amplitude tone carries unit mean power
    config = tone_scenario(snr_db=None, K=1)
    W = assemble_snapshots(config)
    power = np.mean(np.abs(W) ** 2, axis=1)
    np.testing.assert_allclose(power, 1.0, atol=1e-10)


def test_noise_only_covariance_is_white():
    config = ScenarioConfig(geom=GEOM, pattern=PATTERN, sources=(),
                            snr_db=0.0, n_snapshots=20000, rng_seed=7)
    assert config.sigma2 == 1.0
    W = assemble_snapshots(config)
    R = W @ W.conj().T / W.shape[1]
    dev = np.max(np.abs(R - np.eye(R.shape[0])))
    assert dev < 5.0 / np.sqrt(W.shape[1])


def _noise_statistics(Y, sigma2):
    """Worst deviations of per-channel power, cross-channel covariance and
    pseudo-covariance from circular white noise of power sigma2."""
    n = Y.shape[1]
    R = Y @ Y.conj().T / n
    C = Y @ Y.T / n
    return (np.max(np.abs(np.diag(R).real - sigma2)),
            np.max(np.abs(R - np.diag(np.diag(R)))),
            np.max(np.abs(C)))


def test_direct_channel_noise_matches_decimated_nyquist_streams():
    # the receiver draws decimated noise per channel; the reference decimates
    # white Nyquist-rate sensor streams through the coset sampler
    pattern = MultiCosetPattern(L=7, offsets=(0, 2, 3), f_N=1.0)
    geom = ArrayGeometry(M=5, d=0.5, c_prop=1.0)
    n = 20000
    config = ScenarioConfig(geom=geom, pattern=pattern, sources=(),
                            snr_db=-3.0, n_snapshots=n, rng_seed=17)
    sigma2 = config.sigma2
    direct = assemble_full_snapshots(config)
    streams = synthesize_streams(config, np.random.default_rng(17))
    reference = np.vstack([multicoset_sample(s, pattern, n) for s in streams])
    assert direct.shape == reference.shape == (geom.M * pattern.P, n)
    limit = 5.0 * sigma2 / np.sqrt(n)
    for Y in (direct, reference):
        power, cross, pseudo = _noise_statistics(Y, sigma2)
        assert power < limit and cross < limit and pseudo < limit
    # the two covariance estimates agree with each other as well
    R_direct = direct @ direct.conj().T / n
    R_reference = reference @ reference.conj().T / n
    assert np.max(np.abs(R_direct - R_reference)) < 2.0 * limit


def test_snr_sets_noise_power():
    config = tone_scenario(snr_db=10.0)
    assert abs(config.sigma2 - 0.1) < 1e-12
    assert tone_scenario(snr_db=None).sigma2 == 0.0


def test_same_seed_reproduces_different_seed_differs():
    a = assemble_snapshots(tone_scenario(snr_db=5.0, seed=11))
    b = assemble_snapshots(tone_scenario(snr_db=5.0, seed=11))
    c = assemble_snapshots(tone_scenario(snr_db=5.0, seed=12))
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_full_snapshots_agree_with_selected_rows():
    config = tone_scenario(snr_db=5.0, seed=3)
    W = assemble_snapshots(config)
    Y_full = assemble_full_snapshots(config)
    rows = selected_channel_columns(GEOM.M, PATTERN.P)
    np.testing.assert_array_equal(Y_full[rows], W)


def per_trial_rows(config, channels):
    """Receiver output drawn the per-trial way: envelopes, then the signal,
    then the noise added to it, all from one generator."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.rng_seed)))
    rows = _aligned_signal(config, rng, channels)
    rows += _white_noise(rng, len(channels), config.n_snapshots, config.sigma2)
    return rows


def test_cached_tone_signal_is_read_only_and_output_is_unchanged():
    # the cached all-tone signal is added into fresh noise: the output is
    # the per-trial draw bit for bit, writable, and writing to it leaves the
    # cache intact; sources with noise envelopes draw per trial as before
    f_s = PATTERN.f_s
    noisy = SourceTruth(theta=0.3, f_c=(4 + 0.2) * f_s, envelope="noise",
                        bandwidth=0.4 * f_s)
    rows = selected_channel_columns(GEOM.M, PATTERN.P)
    order = np.concatenate([rows, np.setdiff1d(np.arange(GEOM.M * PATTERN.P), rows)])
    for config in (tone_scenario(snr_db=5.0, seed=4), tone_scenario(snr_db=None),
                   replace(tone_scenario(snr_db=5.0, seed=4), sources=(noisy,)),
                   replace(tone_scenario(snr_db=5.0, seed=4),
                           sources=(tone_scenario().sources[0], noisy))):
        W = assemble_snapshots(config)
        np.testing.assert_array_equal(W, per_trial_rows(config, rows))
        full = assemble_full_snapshots(config)
        np.testing.assert_array_equal(full[order], per_trial_rows(config, order))
        W[:] = 0.0
        np.testing.assert_array_equal(assemble_snapshots(config),
                                      per_trial_rows(config, rows))
    cached = siggen._tone_signal(replace(tone_scenario(), rng_seed=0, snr_db=None),
                                 tuple(int(c) for c in rows))
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 1.0


def test_bandlimited_envelope_occupies_configured_band():
    f_s = PATTERN.f_s
    src = SourceTruth(theta=0.3, f_c=(4 + 0.2) * f_s, envelope="noise",
                      bandwidth=0.4 * f_s)
    config = ScenarioConfig(geom=GEOM, pattern=PATTERN, sources=(src,),
                            snr_db=None, n_snapshots=512, rng_seed=5)
    streams = synthesize_streams(config, np.random.default_rng(5))
    spec = np.abs(np.fft.fft(streams[0])) ** 2
    n_fine = streams.shape[1]
    freqs = np.fft.fftfreq(n_fine, d=PATTERN.T_N) % PATTERN.f_N
    # the carrier is not DFT-bin aligned, so allow a small leakage guard
    guard = 16 * PATTERN.f_N / n_fine
    in_band = (freqs >= src.f_c - guard) & (freqs < src.f_c + src.bandwidth + guard)
    assert spec[in_band].sum() > 0.99 * spec.sum()
    # unit-power envelope on average over realizations; loose check here
    assert 0.2 < np.mean(np.abs(streams[0]) ** 2) < 5.0


def test_envelope_consistent_between_grids():
    # the coarse snapshot sequence is the fine Nyquist sequence decimated at
    # the first offset (c_1 = 0), including for bandlimited envelopes
    f_s = PATTERN.f_s
    src = SourceTruth(theta=0.2, f_c=(2 + 0.3) * f_s, envelope="noise",
                      bandwidth=0.3 * f_s)
    config = ScenarioConfig(geom=GEOM, pattern=PATTERN, sources=(src,),
                            snr_db=None, n_snapshots=128, rng_seed=9)
    W = assemble_snapshots(config)
    streams = synthesize_streams(config, np.random.default_rng(9))
    raw = multicoset_sample(streams[0], config.pattern, config.n_snapshots)
    np.testing.assert_allclose(raw[0], W[0], atol=1e-10)


def test_dump_load_round_trip(tmp_path):
    config = tone_scenario(snr_db=5.0, seed=21)
    path = tmp_path / "snap.snyq"
    # bit for bit, NaN payloads, infinities and signed zeros included
    for special in (None, complex(3.0, np.inf), complex(5.0, np.nan),
                    complex(-0.0, -0.0)):
        W = assemble_snapshots(config)
        if special is not None:
            W[1, 2] = special
        dump_snapshots(W, 21, path)
        loaded, seed = load_snapshots(path)
        assert seed == 21
        assert loaded.dtype == complex and loaded.shape == W.shape
        assert loaded.tobytes() == W.tobytes(), special
        assert loaded.flags.writeable
    # header layout: 24 bytes then rows*cols complex128
    assert path.stat().st_size == 24 + W.size * 16


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.snyq"
    path.write_bytes(b"JUNK" + bytes(20))
    with pytest.raises(ConfigError):
        load_snapshots(path)


@pytest.mark.parametrize("size", [0, 4, 23])
def test_load_rejects_short_header(tmp_path, size):
    path = tmp_path / "short.snyq"
    path.write_bytes((b"SNYQ" + bytes(20))[:size])
    with pytest.raises(ConfigError):
        load_snapshots(path)


def test_load_rejects_truncated_payload(tmp_path):
    config = tone_scenario(snr_db=5.0)
    W = assemble_snapshots(config)
    path = tmp_path / "trunc.snyq"
    dump_snapshots(W, 0, path)
    whole = path.read_bytes()
    for missing in (1, 8, 16):
        path.write_bytes(whole[:-missing])
        with pytest.raises(ConfigError):
            load_snapshots(path)


@pytest.mark.parametrize("kwargs", [
    dict(theta=2.0, f_c=0.1),                              # DOA out of range
    dict(theta=0.1, f_c=0.1, envelope="square"),           # unknown envelope
    dict(theta=0.1, f_c=0.1, envelope="tone", bandwidth=0.1),
    dict(theta=0.1, f_c=0.1, envelope="noise", bandwidth=0.0),
])
def test_source_validation(kwargs):
    with pytest.raises(ConfigError):
        SourceTruth(**kwargs)


def test_scenario_validation():
    f_s = PATTERN.f_s
    mk = lambda srcs, **kw: ScenarioConfig(geom=GEOM, pattern=PATTERN,
                                           sources=srcs, **kw)
    too_many = tuple(SourceTruth(theta=0.01 * k, f_c=(k + 0.5) * f_s)
                     for k in range(GEOM.M))
    with pytest.raises(ConfigError):
        mk(too_many)
    straddling = (SourceTruth(theta=0.1, f_c=2.9 * f_s, envelope="noise",
                              bandwidth=0.2 * f_s),)
    with pytest.raises(ConfigError):
        mk(straddling)
    out_of_range = (SourceTruth(theta=0.1, f_c=1.5 * PATTERN.f_N),)
    with pytest.raises(ConfigError):
        mk(out_of_range)
    with pytest.raises(ConfigError):
        mk((SourceTruth(theta=0.1, f_c=0.5 * f_s),), n_snapshots=4)
    one = (SourceTruth(theta=0.1, f_c=0.5 * f_s),)
    for fields in ({"n_snapshots": 256.5}, {"rng_seed": 1.5},
                   {"rng_seed": True}):
        with pytest.raises(ConfigError, match="integer"):
            mk(one, **fields)
    scenario = mk(one, n_snapshots=256.0, rng_seed=np.int64(3))
    assert (type(scenario.n_snapshots), type(scenario.rng_seed)) == (int, int)
    # the noise power divides by the power ratio 10^(snr/10): it must be
    # positive and finite
    for snr_db in (-4000.0, 4000.0, -1e308):
        with pytest.raises(ConfigError, match="power ratio"):
            mk(one, snr_db=snr_db)


def one_source_scenario(pattern):
    return ScenarioConfig(geom=ArrayGeometry(M=4, d=0.5, c_prop=1.0),
                          pattern=pattern, sources=(SourceTruth(theta=0.1, f_c=0.0),),
                          n_snapshots=64)


@pytest.mark.parametrize("L,offsets,step", [
    (12, (0, 3, 6, 9), 4),
    (8, (1, 3), 4),
    (8, (0, 2, 4, 6), 4),
])
def test_coincident_coset_columns_rejected(L, offsets, step):
    with pytest.raises(ConfigError, match=f"l and l \\+ {step} coincide"):
        one_source_scenario(MultiCosetPattern(L=L, offsets=offsets))


def test_coincident_column_rule_matches_coherence():
    # the gcd rule must flag exactly the patterns with two parallel columns
    for L in range(1, 13):
        for P in range(1, min(L, 4) + 1):
            for offsets in itertools.combinations(range(L), P):
                pattern = MultiCosetPattern(L=L, offsets=offsets)
                try:
                    one_source_scenario(pattern)
                    rejected = False
                except ConfigError as exc:
                    assert "coincide" in str(exc)
                    rejected = True
                assert rejected == (pattern_coherence(pattern) > 1 - 1e-9), offsets


def test_band_and_residual_bookkeeping():
    config = tone_scenario()
    assert config.band_of(0) == 3
    assert config.band_of(1) == 8
    assert abs(config.residual_of(0) - 0.4 * PATTERN.f_s) < 1e-12
