"""Bound computations against finite-difference and brute-force Fisher oracles."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    fim_numerical,
    freq_crb_dense_oracle,
    random_geometry,
    random_scenario,
    steering_column,
    tone_crb_dense_oracle,
)
from subnyq.crb import (
    CrbInput,
    _projector_complement,
    _steering,
    crb_input_from_scenario,
    crb_phase,
    freq_crb_numerical,
)
from subnyq.errors import ConfigError, RankDeficiencyError
from subnyq.harness import default_scenario
from subnyq.model import ArrayGeometry, MultiCosetPattern

GEOM = ArrayGeometry(M=6, d=0.5, c_prop=1.0)
PATTERN = MultiCosetPattern(L=11, offsets=(0, 1, 4, 6), f_N=1.0)


def make_input(phis=(0.4, -1.1), bands=(2, 7), sigma2=0.01, n_snapshots=512,
               powers=None, f_residuals=None, geom=GEOM, pattern=PATTERN):
    K = len(phis)
    if powers is None:
        powers = np.ones(K)
    if f_residuals is None:
        f_residuals = tuple(0.3 * pattern.f_s for _ in range(K))
    return CrbInput(phis=phis, bands=bands, powers=powers, f_residuals=f_residuals,
                    sigma2=sigma2, n_snapshots=n_snapshots, geom=geom,
                    pattern=pattern)


def test_projector_complement_properties():
    rng = np.random.default_rng(0)
    H = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    P = _projector_complement(H)
    np.testing.assert_allclose(P, P.conj().T, atol=1e-12)
    np.testing.assert_allclose(P @ P, P, atol=1e-12)
    np.testing.assert_allclose(P @ H, 0, atol=1e-12)
    with pytest.raises(RankDeficiencyError):
        _projector_complement(np.ones((5, 2)))


@pytest.mark.parametrize("full", [
    pytest.param(False, id="simplified"),
    pytest.param(True, id="full"),
])
def test_steering_derivative_matches_finite_difference(full):
    h = 1e-6
    phis, bands = (0.3, -2.0, 1.7), (1, 9, 5)
    inp = make_input(phis=phis, bands=bands)
    H, E = _steering(inp, full)

    def steer(phi, band, geom, pattern):
        return steering_column(phi, band, geom, pattern, full)

    for k, (phi, band) in enumerate(zip(phis, bands)):
        np.testing.assert_allclose(H[:, k], steer(phi, band, GEOM, PATTERN),
                                   atol=1e-14)
        numeric = (steer(phi + h, band, GEOM, PATTERN)
                   - steer(phi - h, band, GEOM, PATTERN)) / (2 * h)
        np.testing.assert_allclose(E[:, k], numeric, atol=1e-8)


def test_analytic_bound_matches_numerical_fisher():
    rng = np.random.default_rng(1)
    for _ in range(5):
        config = random_scenario(rng, snr_db=15.0, n_snapshots=256)
        inp = crb_input_from_scenario(config)
        for full in (False, True):
            analytic = crb_phase(inp, full_structure=full).crb_matrix
            numeric = np.linalg.inv(fim_numerical(inp, full_structure=full))
            rel = (np.linalg.norm(analytic - numeric)
                   / np.linalg.norm(analytic))
            assert rel < 1e-4


def test_bound_scales_with_noise_and_time():
    base = crb_phase(make_input()).crb_matrix
    double_noise = crb_phase(make_input(sigma2=0.02)).crb_matrix
    double_time = crb_phase(make_input(n_snapshots=2 * 512)).crb_matrix
    np.testing.assert_allclose(double_noise, 2 * base, rtol=1e-12)
    np.testing.assert_allclose(double_time, base / 2, rtol=1e-12)
    quad_power = crb_phase(make_input(powers=[4.0, 4.0])).crb_matrix
    np.testing.assert_allclose(quad_power, base / 4, rtol=1e-12)


def test_selected_structure_bound_dominates_full():
    rng = np.random.default_rng(2)
    for _ in range(10):
        config = random_scenario(rng, snr_db=10.0, n_snapshots=256)
        inp = crb_input_from_scenario(config)
        sim = np.diag(crb_phase(inp).crb_matrix).real
        full = np.diag(crb_phase(inp, full_structure=True).crb_matrix).real
        assert np.all(sim >= full * (1 - 1e-12))
        assert np.any(sim > full * (1 + 1e-9))


def test_per_branch_bookkeeping_is_equivalent():
    # per-branch bookkeeping: prefactor 2 N / sigma^2 with N snapshots and
    # the branch-scale source powers L * p; it must give crb_phase's Fisher
    # information, whose prefactor counts the N * L Nyquist slots
    inp = make_input(powers=[1.0, 2.5])
    N = inp.n_snapshots
    R_branch = inp.pattern.L * np.diag(inp.powers)
    for full in (False, True):
        H, E = _steering(inp, full)
        P = _projector_complement(H)
        fim = (2.0 * N / inp.sigma2) * np.real((E.conj().T @ P @ E) * R_branch.T)
        a = crb_phase(inp, full_structure=full).crb_matrix
        np.testing.assert_allclose(a, np.linalg.inv(fim), rtol=1e-12)


def test_bound_result_fields_consistent():
    res = crb_phase(make_input())
    np.testing.assert_allclose(res.per_source_std,
                               np.sqrt(np.diag(res.crb_matrix).real))
    np.testing.assert_allclose(res.crb_matrix @ res.fim, np.eye(2), atol=1e-10)


def test_singular_geometry_rejected():
    # identical sources make the Fisher information singular
    with pytest.raises((RankDeficiencyError, ConfigError)):
        crb_phase(make_input(phis=(0.4, 0.4), bands=(2, 2)))


def test_frequency_bound_positive_and_time_scaling():
    f1 = freq_crb_numerical(make_input())
    assert f1.shape == (2, 2)
    d1 = np.diag(f1).real
    assert np.all(d1 > 0)
    # a tone's frequency bound tightens much faster than 1/T
    f2 = freq_crb_numerical(make_input(n_snapshots=2 * 512))
    d2 = np.diag(f2).real
    assert np.all(d2 < d1 / 4)


def test_frequency_bound_single_tone_closed_form():
    # one source: the bound must match the known single-tone result
    #   var(f) >= 6 sigma^2 / ((2 pi)^2 rho^2 N (N^2 - 1) T_s^2)
    # with per-snapshot tone power rho^2 and N snapshots; the multichannel
    # array adds a factor 1/n_channels of independent looks
    inp = make_input(phis=(0.4,), bands=(3,), powers=[1.0])
    N = inp.n_snapshots
    T_s = 1.0 / inp.pattern.f_s
    rho2 = inp.pattern.L * 1.0 / inp.pattern.L  # channel gain folds to 1
    n_ch = inp.geom.M + inp.pattern.P - 1
    bound = np.diag(freq_crb_numerical(inp)).real[0]
    classic = (6 * inp.sigma2
               / ((2 * np.pi) ** 2 * rho2 * N * (N**2 - 1) * T_s**2) / n_ch)
    assert bound == pytest.approx(classic, rel=1e-2)


def test_freq_bound_matches_dense_oracle():
    # the Kronecker-factored Fisher matrix against the explicit derivative
    # matrix, over every (K, N) pair twice and both receiver structures
    rng = np.random.default_rng(7)
    for i in range(24):
        config = random_scenario(rng, K=1 + i % 4, snr_db=10.0,
                                 n_snapshots=(64, 256, 1024)[i % 3],
                                 geom=random_geometry(rng, M_range=(5, 10)))
        inp = crb_input_from_scenario(config)
        for full in (False, True):
            dense = freq_crb_dense_oracle(inp, full_structure=full)
            # cross terms that vanish exactly (two bands whose coset columns
            # are orthogonal) are rounding noise in both computations
            np.testing.assert_allclose(
                freq_crb_numerical(inp, full_structure=full), dense,
                rtol=1e-10, atol=1e-12 * np.abs(dense).max())


@pytest.mark.parametrize("full", [
    pytest.param(False, id="simplified"),
    pytest.param(True, id="full"),
])
def test_tone_model_phase_bound_equals_crb_phase_for_one_source(full):
    # with one source the tone model's amplitude and phase span every
    # complex multiple of h kron t, and the remaining nuisance direction is
    # orthogonal to the part of the phase derivative outside h, so its phase
    # block is the conditional bound; with more sources it is lower
    rng = np.random.default_rng(9)
    for i in range(6):
        config = random_scenario(rng, K=1, snr_db=(0.0, 10.0, 20.0)[i % 3],
                                 n_snapshots=(64, 256, 1024)[i % 3])
        inp = crb_input_from_scenario(config)
        tone = tone_crb_dense_oracle(inp, full_structure=full)[:1, :1]
        np.testing.assert_allclose(
            tone, crb_phase(inp, full_structure=full).crb_matrix,
            rtol=1e-12, atol=0)


def test_freq_bound_is_unit_free():
    # f_N, c_prop and the carriers scaled together describe the same
    # scenario in another unit of frequency: the bound scales with f_N^2,
    # and no unit makes the Fisher information look singular
    base = replace(default_scenario(K=3, snr_db=20.0), n_snapshots=256)
    for full in (False, True):
        want = freq_crb_numerical(crb_input_from_scenario(base), full_structure=full)
        for scale in (1e-6, 1e-3, 1.0, 1e3, 3.7e9):
            config = replace(
                base, geom=replace(base.geom, c_prop=scale * base.geom.c_prop),
                pattern=replace(base.pattern, f_N=scale * base.pattern.f_N),
                sources=tuple(replace(s, f_c=scale * s.f_c) for s in base.sources))
            got = freq_crb_numerical(crb_input_from_scenario(config),
                                     full_structure=full)
            np.testing.assert_allclose(got / scale**2, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())


def test_freq_bound_memory_does_not_scale_with_channels():
    # the dense derivative matrix of this call is 655,360 x 12 (120 MiB)
    config = replace(default_scenario(K=3), n_snapshots=16384)
    inp = crb_input_from_scenario(config)
    tracemalloc.start()
    try:
        freq_crb_numerical(inp, full_structure=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_input_validation():
    with pytest.raises(ConfigError):
        make_input(sigma2=0.0)
    with pytest.raises(ConfigError):
        make_input(sigma2=np.nan)
    for n_snapshots in (0, 512.5):
        with pytest.raises(ConfigError, match="n_snapshots"):
            make_input(n_snapshots=n_snapshots)
    for power in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="powers"):
            make_input(powers=[1.0, power])
    with pytest.raises(ConfigError):
        make_input(bands=(1,))
    with pytest.raises(ConfigError):
        make_input(powers=[1.0])
    with pytest.raises(ConfigError):
        make_input(f_residuals=(0.1, 0.2, 0.3))
    with pytest.raises(ConfigError, match="at least one source"):
        make_input(phis=(), bands=(), powers=[], f_residuals=())


def test_input_from_scenario_bookkeeping():
    rng = np.random.default_rng(3)
    config = random_scenario(rng, K=2, snr_db=12.0, n_snapshots=256)
    inp = crb_input_from_scenario(config)
    assert inp.n_sources == 2
    assert inp.n_snapshots == config.n_snapshots
    assert inp.powers == tuple(s.power for s in config.sources)
    np.testing.assert_allclose(inp.phis, config.phases())
    assert inp.bands == tuple(config.band_of(k) for k in range(2))
    assert inp.sigma2 == pytest.approx(config.sigma2)
    with pytest.raises(ConfigError):
        crb_input_from_scenario(random_scenario(rng, K=2, snr_db=None))


def test_numerical_fisher_uses_requested_projection_structure():
    # the simplified structure discards channels, so its Fisher information
    # must be no larger than the full-structure one
    inp = make_input()
    f_sim = fim_numerical(inp)
    f_full = fim_numerical(inp, full_structure=True)
    evals = np.linalg.eigvalsh(f_full - f_sim)
    assert evals.min() > -1e-6 * np.abs(evals).max()
