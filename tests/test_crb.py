"""Bound computations against finite-difference and brute-force Fisher oracles."""

import numpy as np
import pytest

from helpers import random_scenario
from subnyq.crb import (
    CrbInput,
    crb_input_from_scenario,
    crb_phase,
    fim_numerical,
    freq_crb_numerical,
    full_steering_derivative,
    projector_complement,
    steering_derivative,
)
from subnyq.errors import ConfigError, RankDeficiencyError
from subnyq.model import (
    ArrayGeometry,
    MultiCosetPattern,
    build_G_selected,
    build_H_selected,
    full_steering,
    joint_steering,
)

GEOM = ArrayGeometry(M=6, d=0.5, c_prop=1.0)
PATTERN = MultiCosetPattern(L=11, offsets=(0, 1, 4, 6), f_N=1.0)


def make_input(phis=(0.4, -1.1), bands=(2, 7), sigma2=0.01, T_obs=512 * 11.0,
               powers=None, f_residuals=None, geom=GEOM, pattern=PATTERN):
    K = len(phis)
    if powers is None:
        powers = np.ones(K)
    if f_residuals is None:
        f_residuals = tuple(0.3 * pattern.f_s for _ in range(K))
    return CrbInput(phis=phis, bands=bands, R_S=np.diag(powers), sigma2=sigma2,
                    T_obs=T_obs, geom=geom, pattern=pattern,
                    f_residuals=f_residuals)


def test_projector_complement_properties():
    rng = np.random.default_rng(0)
    H = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    P = projector_complement(H)
    np.testing.assert_allclose(P, P.conj().T, atol=1e-12)
    np.testing.assert_allclose(P @ P, P, atol=1e-12)
    np.testing.assert_allclose(P @ H, 0, atol=1e-12)
    with pytest.raises(RankDeficiencyError):
        projector_complement(np.ones((5, 2)))


@pytest.mark.parametrize("deriv,steer", [
    (steering_derivative, joint_steering),
    (full_steering_derivative, full_steering),
])
def test_steering_derivative_matches_finite_difference(deriv, steer):
    h = 1e-6
    for phi, band in [(0.3, 1), (-2.0, 9), (1.7, 5)]:
        analytic = deriv(phi, band, GEOM, PATTERN)
        numeric = (steer(phi + h, band, GEOM, PATTERN)
                   - steer(phi - h, band, GEOM, PATTERN)) / (2 * h)
        np.testing.assert_allclose(analytic, numeric, atol=1e-8)


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
    double_time = crb_phase(make_input(T_obs=2 * 512 * 11.0)).crb_matrix
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
    # per-branch bookkeeping: prefactor 2 N / sigma^2 with N = T_obs * f_s
    # snapshots and the branch-scale source covariance L * R_S; N * L equals
    # T_obs * f_N, so it must give crb_phase's Fisher information
    inp = make_input()
    N = inp.T_obs * inp.pattern.f_s
    R_branch = inp.pattern.L * inp.R_S
    for full, build, deriv in ((False, build_H_selected, steering_derivative),
                               (True, build_G_selected, full_steering_derivative)):
        P = projector_complement(build(inp.phis, inp.bands, GEOM, PATTERN))
        E = np.column_stack([deriv(p, b, GEOM, PATTERN)
                             for p, b in zip(inp.phis, inp.bands)])
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
    f2 = freq_crb_numerical(make_input(T_obs=2 * 512 * 11.0))
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


def test_frequency_bound_requires_residuals():
    inp = CrbInput(phis=(0.4,), bands=(3,), R_S=np.eye(1), sigma2=0.01,
                   T_obs=512 * 11.0, geom=GEOM, pattern=PATTERN)
    with pytest.raises(ConfigError):
        freq_crb_numerical(inp)


def test_input_validation():
    with pytest.raises(ConfigError):
        make_input(sigma2=0.0)
    with pytest.raises(ConfigError):
        make_input(T_obs=-1.0)
    with pytest.raises(ConfigError):
        CrbInput(phis=(0.1, 0.2), bands=(1,), R_S=np.eye(2), sigma2=0.01,
                 T_obs=10.0, geom=GEOM, pattern=PATTERN)
    with pytest.raises(ConfigError):
        CrbInput(phis=(0.1,), bands=(1,), R_S=np.array([[1j]]), sigma2=0.01,
                 T_obs=10.0, geom=GEOM, pattern=PATTERN)


def test_input_from_scenario_bookkeeping():
    rng = np.random.default_rng(3)
    config = random_scenario(rng, K=2, snr_db=12.0, n_snapshots=256)
    inp = crb_input_from_scenario(config)
    assert inp.n_sources == 2
    assert inp.n_snapshots == config.n_snapshots
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
