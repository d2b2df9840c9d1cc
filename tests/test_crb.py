"""Bound computations against finite-difference and brute-force Fisher oracles."""

import tracemalloc
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from helpers import (
    exact_tone_moments,
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


@pytest.mark.parametrize("powers", [(1.0, 2.5e-13), (1.0, 1e-13)],
                         ids=["ratio_4e12", "ratio_1e13"])
@pytest.mark.parametrize("full", [
    pytest.param(False, id="simplified"),
    pytest.param(True, id="full"),
])
def test_weak_source_has_its_own_scalar_bound(powers, full):
    # uncorrelated sources decouple: each bound is sigma^2 / (2 N L p_k
    # Re(e_k^H P e_k)) however far apart the powers are, and scaling every
    # power scales every bound by the inverse factor
    inp = make_input(powers=powers)
    H, E = _steering(inp, full)
    quad = np.real(np.diag(E.conj().T @ _projector_complement(H) @ E))
    want = inp.sigma2 / (2 * inp.n_snapshots * inp.pattern.L
                         * np.array(powers) * quad)
    res = crb_phase(inp, full_structure=full)
    assert np.all(np.isfinite(res.crb_matrix))
    np.testing.assert_array_equal(res.crb_matrix, np.diag(np.diag(res.crb_matrix)))
    np.testing.assert_allclose(np.diag(res.crb_matrix), want, rtol=1e-12)
    np.testing.assert_allclose(res.per_source_std, np.sqrt(want), rtol=1e-12)
    for scale in (1e-6, 1e6):
        scaled = crb_phase(make_input(powers=[scale * p for p in powers]),
                           full_structure=full)
        np.testing.assert_allclose(scaled.crb_matrix, res.crb_matrix / scale,
                                   rtol=1e-12)


def test_derivative_in_steering_span_is_rank_deficient(monkeypatch):
    # a derivative column inside span(H) carries no phase information,
    # whether one source's column lies there or every source's
    import subnyq.crb as crb

    steering = crb._steering
    for derivative in (lambda H, E: np.column_stack([E[:, 0], 2j * H[:, 1]]),
                       lambda H, E: H @ np.array([[1.0, 2.0], [3.0, 4.0]])):
        def in_span(inp, full, derivative=derivative):
            H, E = steering(inp, full)
            return H, derivative(H, E)

        monkeypatch.setattr(crb, "_steering", in_span)
        for full in (False, True):
            with pytest.raises(RankDeficiencyError):
                crb_phase(make_input(), full_structure=full)


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


def test_freq_bound_owns_its_block():
    # a view of the K x K block would keep the whole 4K x 4K inverse alive
    # for as long as a caller holds the bound
    bound = freq_crb_numerical(make_input())
    assert bound.shape == (2, 2) and bound.flags.owndata


@pytest.fixture
def moment_builds(monkeypatch):
    """Inputs whose tone moments are computed, one entry per computation."""
    built = []
    compute = CrbInput.tone_moments.func
    counted = cached_property(lambda inp: built.append(inp) or compute(inp))
    counted.__set_name__(CrbInput, "tone_moments")
    monkeypatch.setattr(CrbInput, "tone_moments", counted)
    return built


def test_tone_moments_are_computed_once_per_input(moment_builds):
    # both structures' frequency bounds of one input share its moments, and
    # sharing leaves the bound bytes as a fresh input gives them; nothing
    # outlives the input, so each table of each pass computes them anew
    inp = make_input()
    full = freq_crb_numerical(inp, full_structure=True)
    sim = freq_crb_numerical(inp)
    assert moment_builds == [inp]
    assert not inp.tone_moments.flags.writeable
    np.testing.assert_array_equal(sim, freq_crb_numerical(make_input()))
    np.testing.assert_array_equal(full, freq_crb_numerical(make_input(),
                                                           full_structure=True))
    moment_builds.clear()
    curve = [replace(default_scenario(K=K, snr_db=20.0), n_snapshots=N)
             for K in (1, 2, 3) for N in (1024, 4096, 16384)]
    for _ in range(2):
        for config in curve:
            inp = crb_input_from_scenario(config)
            for full in (False, True):
                crb_phase(inp, full_structure=full)
                freq_crb_numerical(inp, full_structure=full)
    assert len(moment_builds) == 18


F_S = PATTERN.f_s
TOP = float(np.nextafter(F_S, 0.0))  # the highest residual below f_s
MOMENT_LAYOUTS = {  # in-band frequencies of K <= 4 sources
    "one_source": [0.3 * F_S],
    "equal": [0.3 * F_S, 0.3 * F_S],
    "df_1e-12": [0.3 * F_S, (0.3 + 1e-12) * F_S],
    "generic": [0.05 * F_S, 0.37 * F_S, 0.81 * F_S],
    "near_f_s": [0.4 * F_S, TOP],
    "wrapped": [1e-9 * F_S, (1 - 1e-9) * F_S],
    "mixed": [0.0, 0.1 * F_S, (0.1 + 1e-12) * F_S, TOP],
}


@pytest.mark.parametrize("N", [1, 2, 3, 1000, 4096, 2**20 + 1])
@pytest.mark.parametrize("layout", MOMENT_LAYOUTS)
def test_tone_moments_match_exact_sums(layout, N):
    # within 1e-15 of the largest moment, against sums in 120-digit
    # arithmetic: equal and nearly equal frequencies, generic spacings, a
    # residual one ulp below f_s, and pairs nearly one f_s apart (alike in
    # discrete time)
    pytest.importorskip("mpmath")
    f = MOMENT_LAYOUTS[layout]
    K = len(f)
    inp = make_input(phis=np.linspace(-1.0, 1.0, K), bands=range(1, K + 1),
                     powers=np.linspace(0.5, 2.0, K), f_residuals=f, n_snapshots=N)
    want = exact_tone_moments(inp)
    assert np.abs(inp.tone_moments - want).max() <= 1e-15 * np.abs(want).max()


def test_tone_moments_memory_does_not_scale_with_snapshots():
    # the moments of 2**20 snapshots once took three N-length complex rows
    inp = make_input(phis=(0.4,), bands=(3,), powers=[1.0], n_snapshots=2**20)
    tracemalloc.start()
    try:
        inp.tone_moments
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


def test_input_rejects_non_finite_angles_and_boolean_counts():
    # a NaN residual used to reach the Fisher matrix and end in "bound
    # undefined"; True used to build a one-snapshot input
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="finite"):
            make_input(phis=(0.4, bad))
        with pytest.raises(ConfigError, match="finite"):
            make_input(f_residuals=(0.01, bad))
    for n_snapshots in (True, np.bool_(True), "512"):
        with pytest.raises(ConfigError, match="n_snapshots"):
            make_input(n_snapshots=n_snapshots)
    # a real field takes numbers only, as the count fields do
    for field, bad in (("phis", (0.4, True)), ("powers", ["1", 1.0]),
                       ("f_residuals", (np.bool_(False), 0.2)), ("sigma2", "0.01")):
        with pytest.raises(ConfigError, match="real number"):
            make_input(**{field: bad})
    # an integer-valued count of any numeric type is that integer
    for n_snapshots in (512.0, np.int32(512)):
        inp = make_input(n_snapshots=n_snapshots)
        assert inp.n_snapshots == 512 and type(inp.n_snapshots) is int


def test_input_bands_are_integers():
    # int() used to cut 2.7 to band 2 and take "2" and True as bands
    for bad in (2.7, "2", True):
        with pytest.raises(ConfigError, match="integer"):
            make_input(bands=(2, bad))
    inp = make_input(bands=(2.0, np.int64(7)))
    assert inp.bands == (2, 7) and all(type(b) is int for b in inp.bands)


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
