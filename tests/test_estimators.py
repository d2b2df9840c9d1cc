"""Estimation primitives against independent oracles, plus noiseless pipelines."""

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    all_band_search,
    channel_maps,
    complex_companion_minima,
    grid_search_oracle,
    pattern_coherence,
    random_scenario,
    steering_column,
    structure_rows,
)
from subnyq import estimators, model
from subnyq.errors import (
    ConfigError,
    EmptySupportError,
    EstimationError,
    PeakCountError,
    RankDeficiencyError,
)
from subnyq.estimators import (
    _phase_minima,
    _search,
    ctf_support,
    decompose,
    jdfpi,
    jdfsd_full,
    jdfsdpj,
    ls_solve,
    music_spatial,
    pair_supports,
    residual_frequency,
    sample_covariance,
)
from subnyq.harness import default_scenario, match_estimates
from subnyq.model import (
    ArrayGeometry,
    MultiCosetPattern,
    build_A,
    build_B,
    build_G_selected,
    selected_channel_columns,
)
from subnyq.siggen import (
    ScenarioConfig,
    SourceTruth,
    assemble_full_snapshots,
    assemble_snapshots,
)

PATTERN = MultiCosetPattern(L=11, offsets=(0, 1, 4, 6), f_N=1.0)


def test_sample_covariance_matches_definition():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 50)) + 1j * rng.standard_normal((4, 50))
    R = sample_covariance(X)
    np.testing.assert_allclose(R, X @ X.conj().T / 50, atol=1e-12)
    np.testing.assert_allclose(R, R.conj().T, atol=0)


def test_decompose_orders_and_splits():
    rng = np.random.default_rng(1)
    A = build_A([0.5, -1.0], 5)
    S = rng.standard_normal((2, 400)) + 1j * rng.standard_normal((2, 400))
    X = A @ S + 0.01 * (rng.standard_normal((5, 400))
                        + 1j * rng.standard_normal((5, 400)))
    U_N = decompose(sample_covariance(X), 2)
    assert U_N.shape == (5, 3)
    # noise subspace nearly orthogonal to the true steering columns
    assert np.linalg.norm(U_N.conj().T @ A) < 0.05
    with pytest.raises(ConfigError):
        decompose(np.eye(4), 4)


def cosine_cost(M, A, B, k, phi0):
    """Hermitian C with v(phi)^H C v(phi) = A - B cos(k (phi - phi0)), whose
    minima are phi0 + 2 pi i / k with cost A - B."""
    C = np.zeros((M, M), dtype=complex)
    C[0, 0] = A
    C[k, 0] = -0.5 * B * np.exp(-1j * k * phi0)
    C[0, k] = np.conj(C[k, 0])
    return C


def test_phase_minima_closed_form():
    M = 5
    # every row is rooted in one batch of companion matrices in
    # t = tan(phi/2): rows 4 and 5 have a stationary point at phi = pi, which
    # trims their leading coefficient, rows 2 and 3 are constant, and rows 1
    # and 6 have zero corner entries
    C = np.stack([
        cosine_cost(M, 3.0, 1.0, 4, 0.4),
        cosine_cost(M, 2.0, 1.5, 2, -2.9),
        2.0 * np.eye(M),                    # constant cost: no minima
        np.zeros((M, M)),
        cosine_cost(M, 1.0, 0.5, 1, np.pi),  # minimum at phi = pi, as +pi
        cosine_cost(M, 3.0, 2.0, 4, 0.0),   # minima at 0, +-pi/2 and pi
        cosine_cost(M, 1.0, 0.25, 2, 1.0),
    ])
    rows, phis, costs = _phase_minima(C)
    assert set(rows) <= {0, 1, 4, 5, 6}
    for row, k, phi0, floor in ((0, 4, 0.4, 2.0), (1, 2, -2.9, 0.5),
                                (4, 1, np.pi, 0.5), (5, 4, 0.0, 1.0),
                                (6, 2, 1.0, 0.75)):
        got = np.sort(phis[rows == row])
        want = np.sort(np.angle(np.exp(1j * (phi0 + 2 * np.pi * np.arange(k) / k))))
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_allclose(costs[rows == row], floor, atol=1e-12)
    assert np.all((phis > -np.pi) & (phis <= np.pi))


def projected_cost(rng, M, rank, phis=(), real=False):
    """C = X^H X for a random rank x M matrix X whose rows are orthogonal to
    v(phi) at each of `phis`, so the cost vanishes there: a minimum."""
    X = rng.standard_normal((rank, M))
    if not real:
        X = X + 1j * rng.standard_normal((rank, M))
    if len(phis):
        V = build_A(phis, M).conj()  # v(phi) per column
        if real:
            V = V.real
        X = X - (X @ V) @ np.linalg.pinv(V)
    return X.conj().T @ X


def oracle_stack(rng):
    """A random stack of cost matrices, each of one kind: full-rank,
    rank-deficient, constant, zero, a minimum exactly at phi = pi (a real
    matrix, so c'(pi) = 0 exactly, or a complex one vanishing at pi), one
    of two rows whose minima lie 1e-6 or 1e-8 rad apart, or zero corner
    entries."""
    M = int(rng.integers(2, 13))
    rows = []
    for _ in range(int(rng.integers(1, 7))):
        kind = int(rng.integers(8))
        scale = 10.0 ** rng.uniform(-3, 3)
        if kind == 0:
            C = projected_cost(rng, M, M + 2)
        elif kind == 1:
            C = projected_cost(rng, M, int(rng.integers(1, M)))
        elif kind == 2:
            C = rng.uniform(0.1, 2.0) * np.eye(M)
        elif kind == 3:
            C = np.zeros((M, M))
        elif kind == 4:
            C = projected_cost(rng, M, M - 1, (np.pi,), real=True)
        elif kind == 5:
            C = projected_cost(rng, M, M - 1, (np.pi,))
        elif kind == 6:
            # two rows whose minima are 1e-6 rad apart, or closer than the
            # duplicate radius; within one row of degree <= 11, minima that
            # close are parted by a cost barrier far below rounding
            phi0 = rng.uniform(-np.pi, np.pi)
            rows.append(scale * projected_cost(rng, M, M - 1, (phi0,)))
            C = projected_cost(rng, M, M - 1, (phi0 + rng.choice([1e-6, 1e-8]),))
        else:
            C = projected_cost(rng, M, int(rng.integers(1, M + 3)))
            C[M - 1, 0] = C[0, M - 1] = 0.0
        rows.append(scale * C)
    return np.stack(rows).astype(complex)


def test_phase_minima_match_complex_companion_oracle():
    # the real t = tan(phi/2) rooting finds the minima that rooting in
    # w = exp(j phi) finds: the same count per row, the same points, and
    # the same costs
    rng = np.random.default_rng(19)
    n_rows = at_pi = 0
    for _ in range(1200):
        C = oracle_stack(rng)
        got, want = _phase_minima(C), complex_companion_minima(C)
        for s in range(C.shape[0]):
            mine, theirs = got[0] == s, want[0] == s
            assert mine.sum() == theirs.sum()
            if not mine.any():
                continue
            gap = np.abs(np.angle(np.exp(1j * (got[1][mine][:, None]
                                               - want[1][theirs]))))
            match = np.argmin(gap, axis=1)
            assert sorted(match) == list(range(theirs.sum()))
            assert np.max(gap[np.arange(match.size), match]) < 1e-9
            scale = np.abs(C[s]).sum()
            np.testing.assert_array_less(
                np.abs(got[2][mine] - want[2][theirs][match]), 1e-12 * scale)
        n_rows += C.shape[0]
        at_pi += np.sum(np.abs(np.angle(-np.exp(1j * got[1]))) < 1e-9)
    assert n_rows >= 3000 and at_pi >= 200


def test_music_spatial_recovers_phases():
    rng = np.random.default_rng(2)
    true = np.array([-1.8, 0.3, 2.4])
    A = build_A(true, 8)
    S = rng.standard_normal((3, 2000)) + 1j * rng.standard_normal((3, 2000))
    X = A @ S + 1e-6 * (rng.standard_normal((8, 2000))
                        + 1j * rng.standard_normal((8, 2000)))
    est = music_spatial(sample_covariance(X), 3)
    np.testing.assert_allclose(est, np.sort(true), atol=1e-6)


def test_music_spatial_validates_order():
    with pytest.raises(ConfigError):
        music_spatial(sample_covariance(np.zeros((3, 10), dtype=complex)), 3)


def test_ls_solve_matches_lstsq():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    Y = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    expected, *_ = np.linalg.lstsq(A, Y, rcond=None)
    np.testing.assert_allclose(ls_solve(A, Y), expected, atol=1e-10)


def test_ls_solve_rejects_bad_systems():
    with pytest.raises(ConfigError):
        ls_solve(np.zeros((2, 4)), np.zeros((2, 1)))
    singular = np.ones((5, 2), dtype=complex)
    with pytest.raises(RankDeficiencyError):
        ls_solve(singular, np.zeros((5, 1)))


def brute_force_support(Y1, B, K):
    """Oracle: the K-column subset of B that best explains Y1 in least squares."""
    best, best_resid = None, np.inf
    for combo in itertools.combinations(range(B.shape[1]), K):
        sub = B[:, list(combo)]
        coef, *_ = np.linalg.lstsq(sub, Y1, rcond=None)
        resid = np.linalg.norm(Y1 - sub @ coef)
        if resid < best_resid:
            best, best_resid = combo, resid
    return best


# Noiseless sources on coherent L = 11 patterns for which greedy pursuit
# (matching pursuit with single-atom swaps) returns wrong bands:
# (offsets, ((theta, f_c) per source)).
GREEDY_MISSES = [
    ((0, 4, 5, 6, 10), ((-0.74, 0.6585), (1.39, 0.125), (-1.32, 0.0453))),
    ((0, 1, 4, 7, 8), ((-0.044, 0.3914), (1.24, 0.0636), (0.43, 0.5682))),
]


def coherent_prime_patterns():
    """Every P = 5 pattern with first offset 0, prime L in {7, 11, 13} and
    column coherence at least 0.7 (L = 7 has none: its maximum is 0.36)."""
    patterns = (MultiCosetPattern(L=L, offsets=(0, *rest))
                for L in (7, 11, 13)
                for rest in itertools.combinations(range(1, L), 4))
    return [p for p in patterns if pattern_coherence(p) >= 0.7]


def test_ctf_support_matches_brute_force():
    rng = np.random.default_rng(4)
    configs = [random_scenario(rng, snr_db=20.0, n_snapshots=512)
               for _ in range(15)]
    coherent = coherent_prime_patterns()
    assert {p.L for p in coherent} == {11, 13}
    for i in range(30):
        configs.append(random_scenario(
            rng, K=2 + i % 2, snr_db=None, n_snapshots=64,
            pattern=coherent[int(rng.integers(len(coherent)))]))
    geom = ArrayGeometry(M=4, d=0.5, c_prop=1.0)
    for offsets, sources in GREEDY_MISSES:
        configs.append(ScenarioConfig(
            geom=geom, pattern=MultiCosetPattern(L=11, offsets=offsets),
            sources=tuple(SourceTruth(theta=t, f_c=f) for t, f in sources),
            snr_db=None, n_snapshots=64))
    hits = 0
    for config in configs:
        K = config.n_sources
        if K > config.pattern.P - 1:
            continue
        Y1 = assemble_snapshots(config)[:config.pattern.P]
        est = ctf_support(sample_covariance(Y1), config.pattern, K)
        oracle = brute_force_support(Y1, build_B(config.pattern), K)
        truth = tuple(sorted(config.band_of(k) for k in range(K)))
        assert est == tuple(sorted(oracle)) == truth
        hits += 1
    assert hits >= 40


def test_ctf_support_validates_and_rejects_empty():
    R = sample_covariance(np.zeros((PATTERN.P, 8), dtype=complex))
    with pytest.raises(ConfigError):
        ctf_support(R, PATTERN, PATTERN.P)
    with pytest.raises(EmptySupportError):
        ctf_support(R, PATTERN, 2)


def test_subset_table_is_built_once_and_read_only(monkeypatch):
    svd_calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        svd_calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    model._subset_singular_values.cache_clear()
    pattern = MultiCosetPattern(L=10, offsets=(0, 1, 3, 7))
    config = random_scenario(np.random.default_rng(8), K=2, snr_db=20.0,
                             pattern=pattern)
    W = assemble_snapshots(config)
    for _ in range(3):  # the check reads k = K + 1; the support reads no table
        jdfpi(W, sample_covariance(W), config)
    tables = [shape for shape in svd_calls if len(shape) == 3]
    assert tables == [(120, 4, 3)]
    subsets, sv = model._subset_singular_values(pattern, 3)
    assert model._subset_singular_values(pattern, 3)[1] is sv
    assert subsets.shape == (120, 3) and sv.shape == (120, 3)
    for table in (subsets, sv):
        assert not table.flags.writeable


def test_root_plan_and_band_maps_are_built_once_and_read_only():
    estimators._root_plan.cache_clear()
    estimators._band_maps.cache_clear()
    config = random_scenario(np.random.default_rng(9), K=2, snr_db=20.0,
                             n_snapshots=128)
    M, pattern = config.geom.M, config.pattern
    W, full = assemble_snapshots(config), assemble_full_snapshots(config)
    for _ in range(3):
        jdfpi(W, sample_covariance(W), config)
        jdfsdpj(W, sample_covariance(W), config)
        jdfsd_full(full, sample_covariance(full), config)
    # one plan for every M x M cost, one band map per receiver structure
    assert estimators._root_plan.cache_info().misses == 1
    assert estimators._band_maps.cache_info().misses == 2
    plan = estimators._root_plan(M)
    assert estimators._root_plan(M) is plan
    gather, tmap, sub, dpow = plan
    assert gather.shape == (M, M) and tmap.shape == (2 * M - 1, 2 * M - 2)
    assert dpow.shape == (3, M - 1)
    tables = [gather, tmap, *sub, dpow]
    for full_structure, n_rows in ((False, M + pattern.P - 1), (True, M * pattern.P)):
        rows, G = estimators._band_maps(M, pattern, full_structure)
        assert rows.shape == (n_rows,) and G.shape == (pattern.L, n_rows, M)
        np.testing.assert_array_equal(
            G, channel_maps(M, build_B(pattern), structure_rows(
                config.geom, pattern, full_structure)))
        tables += [rows, G]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1


def test_subset_table_above_the_cap_is_config_error(monkeypatch):
    pattern = MultiCosetPattern(L=9, offsets=(0, 2, 3, 7))
    # K = 2 reads the C(9, 3) subsets, each a 4 x 3 complex matrix: 84 * 192
    # bytes
    model._subset_singular_values.cache_clear()
    monkeypatch.setattr(model, "SUBSET_TABLE_BYTES", 16127)
    with pytest.raises(ConfigError, match=r"need 16128 bytes.*16127-byte cap"):
        model.check_identifiable(pattern, 2)


@pytest.mark.parametrize("bands, snr_db", [
    ((0, 4), None), ((1, 3), None), ((0, 2), 20.0), ((2, 4), 20.0),
], ids=["0_4_noiseless", "1_3_noiseless", "0_2_20dB", "2_4_20dB"])
def test_jdfpi_rejects_unidentifiable_support(bands, snr_db):
    # columns 0, 2 and 4 of this pattern's coset matrix are dependent, so
    # the branch data of two sources has more than one band support: a
    # support search returns wrong bands (such as [0, 0] for (0, 4))
    pattern = MultiCosetPattern(L=6, offsets=(0, 1, 3))
    sources = tuple(SourceTruth(theta=t, f_c=(b + 0.4) * pattern.f_s)
                    for t, b in zip((0.3, -0.5), bands))
    config = ScenarioConfig(geom=ArrayGeometry(M=4, d=0.5, c_prop=1.0),
                            pattern=pattern, sources=sources, snr_db=snr_db,
                            n_snapshots=512)
    W = assemble_snapshots(config)
    with pytest.raises(ConfigError, match="cannot identify K=2 bands"):
        jdfpi(W, sample_covariance(W), config)


@pytest.mark.parametrize("L, offsets, bands", [
    (61, (0, 1, 4, 9, 20), (3, 17, 30, 52)),
    (97, (0, 2, 7, 19, 40, 66), (5, 21, 44, 60, 88)),
], ids=["L61_K4", "L97_K5"])
def test_jdfpi_recovers_bands_for_large_prime_l(L, offsets, bands):
    # the stacked K-column subsets of these coset matrices would take 167 MB
    # and 31 GB; the support is read from the noise subspace, one cost per band
    pattern = MultiCosetPattern(L=L, offsets=offsets)
    thetas = np.deg2rad([60.0, -40.0, 20.0, -70.0, 45.0])
    residuals = (0.3, 0.55, 0.72, 0.12, 0.9)
    sources = tuple(SourceTruth(theta=t, f_c=(b + r) * pattern.f_s)
                    for t, b, r in zip(thetas, bands, residuals))
    config = ScenarioConfig(geom=ArrayGeometry(M=8, d=0.5, c_prop=1.0),
                            pattern=pattern, sources=sources, snr_db=None,
                            n_snapshots=512)
    W = assemble_snapshots(config)
    result = jdfpi(W, sample_covariance(W), config)
    assert sorted(result.band) == list(bands)
    phase_err, freq_err = match_estimates(config, result)
    assert np.max(np.abs(phase_err)) < 1e-6
    assert np.max(np.abs(freq_err)) < 1e-8


def spy_calls(monkeypatch, *names):
    """Record, per estimators function name, the arguments and result of
    its latest call (args..., result)."""
    seen = {}

    def spy(name):
        original = getattr(estimators, name)

        def record(*args):
            result = original(*args)
            seen[name] = (*args, result)
            return result
        return record

    for name in names:
        monkeypatch.setattr(estimators, name, spy(name))
    return seen


@pytest.mark.parametrize("M, pattern", [
    (6, PATTERN),
    (8, MultiCosetPattern(L=13, offsets=(0, 1, 4, 7, 9), f_N=1.0)),
    (3, MultiCosetPattern(L=7, offsets=(0, 2, 3), f_N=1.0)),
], ids=["M6_P4", "M8_P5", "M3_P3"])
def test_jdfpi_views_are_channel_rows(monkeypatch, M, pattern):
    # the sensor block is branch 0 of every sensor, sensor 0 first; the
    # branch block is every branch of sensor 0; both are cut from one
    # sample covariance of W
    seen = spy_calls(monkeypatch, "music_spatial", "ctf_support")
    geom = ArrayGeometry(M=M, d=0.5, c_prop=1.0)
    config = random_scenario(np.random.default_rng(M), K=1, snr_db=20.0,
                             geom=geom, pattern=pattern)
    W = assemble_snapshots(config)
    R, P = sample_covariance(W), pattern.P
    jdfpi(W, R, config)
    q = [0, *range(P, M + P - 1)]
    np.testing.assert_array_equal(seen["music_spatial"][0], R[q][:, q])
    np.testing.assert_array_equal(seen["ctf_support"][0], R[:P][:, :P])


@pytest.mark.parametrize("algorithms", [
    ("JDFPI",), ("JDFSDPJ",), ("JDFSD-full",), ("JDFPI", "JDFSDPJ"),
    ("JDFSD-full", "JDFPI", "JDFSDPJ"),
], ids=["jdfpi-False", "jdfsdpj-False", "jdfsd_full-True", "jdfpi+jdfsdpj",
        "all"])
def test_one_sample_covariance_per_pipeline(monkeypatch, algorithms):
    # a trial computes one covariance per receiver structure, of that
    # structure's output itself (W is not cut from the full covariance), and
    # the pipelines compute none
    from subnyq import harness

    covariances, handed = [], []

    def covariance(X):
        covariances.append(X.shape)
        return sample_covariance(X)

    for module in (estimators, harness):
        monkeypatch.setattr(module, "sample_covariance", covariance)
    for name in ("jdfpi", "jdfsdpj", "jdfsd_full"):
        monkeypatch.setattr(harness, name, lambda X, R, config, _f=getattr(harness, name):
                            handed.append((X, R)) or _f(X, R, config))
    base = random_scenario(np.random.default_rng(19), K=2, snr_db=20.0)
    table = harness.run_sweep(harness.SweepConfig(
        base=base, sweep_variable="snr_db", sweep_values=(20.0,), n_trials=1,
        algorithms=algorithms))
    assert not any(r.failed for r in table.records)
    M, P, N = base.geom.M, base.pattern.P, base.n_snapshots
    shapes = {False: (M + P - 1, N), True: (M * P, N)}
    assert sorted(covariances) == sorted(
        shapes[full] for full in {name == "JDFSD-full" for name in algorithms})
    assert len(handed) == len(algorithms)
    for X, R in handed:
        np.testing.assert_array_equal(R, sample_covariance(X))


# low-SNR draws may pair ambiguously; the matrix is checked, not the choice
@pytest.mark.filterwarnings("ignore:pairing confidence low")
def test_jdfpi_pairs_from_the_cross_block(monkeypatch):
    # the pairing matrix read from the covariance's cross block is the
    # correlation Z X_omega^H / N of the N-length source and band signals
    rng = np.random.default_rng(18)
    seen = spy_calls(monkeypatch, "music_spatial", "pair_supports")
    checked = 0
    for i in range(25):
        config = random_scenario(rng, snr_db=(-10.0, 0.0, 10.0, 20.0, 30.0)[i % 5],
                                 n_snapshots=256)
        M, P = config.geom.M, config.pattern.P
        W = assemble_snapshots(config)
        try:
            jdfpi(W, sample_covariance(W), config)
        except EstimationError:
            continue
        Q, Y1 = W[[0, *range(P, M + P - 1)]], W[:P]
        C, omega, _ = seen["pair_supports"]
        Z = np.linalg.pinv(build_A(seen["music_spatial"][-1], M)) @ Q
        X_omega = np.linalg.pinv(build_B(config.pattern)[:, list(omega)]) @ Y1
        want = Z @ X_omega.conj().T / W.shape[1]
        assert np.linalg.norm(C - want) < 1e-12 * np.linalg.norm(want)
        checked += 1
    assert checked >= 20


def test_pair_supports_recovers_assignment():
    rng = np.random.default_rng(5)
    N = 1000
    # three independent source sequences; Z rows are noisy copies in a
    # shuffled order relative to the band rows X_omega
    S = rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N))
    order = [2, 0, 1]
    Z = S[order] + 0.05 * (rng.standard_normal((3, N))
                           + 1j * rng.standard_normal((3, N)))
    omega = (1, 5, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clear pairing does not warn
        bands = pair_supports(Z @ S.conj().T / N, omega)
    assert bands == tuple(omega[i] for i in order)


def test_pair_supports_flags_ambiguity():
    rng = np.random.default_rng(6)
    N = 500
    s = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    Z = np.vstack([s, s])  # both rows correlate equally with both bands
    X = np.vstack([s, s])
    with pytest.warns(UserWarning, match="pairing confidence low"):
        bands = pair_supports(Z @ X.conj().T / N, (0, 3))
    assert len(bands) == 2 and set(bands) <= {0, 3}


def test_residual_frequency_exact_for_clean_tone():
    n = np.arange(1024)
    for f in [0.0123, 0.25, 0.5, 0.777, 0.9991]:
        x = 0.8 * np.exp(2j * np.pi * f * n + 1j * 1.1)
        assert abs(residual_frequency(x, 1.0) - f) < 1e-12


def test_residual_frequency_matches_fft_oracle_in_noise():
    rng = np.random.default_rng(7)
    n = np.arange(512)
    f_s = 2.0
    for f_cyc in [0.123, 0.661, 0.948]:
        x = np.exp(2j * np.pi * f_cyc * n) + 0.1 * (
            rng.standard_normal(512) + 1j * rng.standard_normal(512))
        est = residual_frequency(x, f_s)
        pad = 1 << 16
        spec = np.abs(np.fft.fft(x, pad))
        oracle = (np.argmax(spec) / pad) * f_s
        # both should land within an interpolated-FFT bin of each other
        assert abs(est - oracle) < f_s / pad * 4
        assert abs(est - f_cyc * f_s) < 1e-3 * f_s


def test_residual_frequency_rejects_degenerate_input():
    with pytest.raises(ConfigError):
        residual_frequency(np.ones(1), 1.0)
    with pytest.raises(EstimationError):
        residual_frequency(np.zeros(16), 1.0)


def test_residual_frequency_of_rows_equals_each_row():
    # a (K, N) array gives each row's estimate bit for bit, as `_finish`
    # needs for the LS-reconstructed source signals; one zero row raises
    rng = np.random.default_rng(21)
    n = np.arange(1000)
    for K in (1, 3):
        X = (np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (K, 1)) * n)
             + 0.3 * (rng.standard_normal((K, n.size))
                      + 1j * rng.standard_normal((K, n.size))))
        got = residual_frequency(X, 2.5)
        want = np.array([residual_frequency(x, 2.5) for x in X])
        assert got.shape == (K,)
        np.testing.assert_array_equal(got, want)
        X[-1] = 0.0
        with pytest.raises(EstimationError) as info:
            residual_frequency(X, 2.5)
        assert info.value.step == "residual_frequency"
    with pytest.raises(ConfigError):
        residual_frequency(np.ones((3, 1)), 1.0)


@pytest.mark.parametrize("pipeline,full", [(jdfpi, False), (jdfsdpj, False),
                                           (jdfsd_full, True)])
def test_noiseless_pipeline_exact_recovery(pipeline, full):
    rng = np.random.default_rng(8)
    for _ in range(5):
        config = random_scenario(rng, snr_db=None, n_snapshots=128)
        if config.n_sources > config.pattern.P - 1:
            continue
        data = (assemble_full_snapshots(config) if full
                else assemble_snapshots(config))
        result = pipeline(data, sample_covariance(data), config)
        phase_err, freq_err = match_estimates(config, result)
        assert np.max(np.abs(phase_err)) < 1e-6
        assert np.max(np.abs(freq_err)) < 1e-8 * config.pattern.f_N
        bands = sorted(config.band_of(k) for k in range(config.n_sources))
        assert sorted(result.band) == bands


def phase_band(result):
    return result.phi, result.band


def test_root_search_matches_grid_oracle():
    # each search against the grid-and-refine search it replaced: same
    # bands, and phases within the 1e-8 rad that the oracle's bounded scalar
    # refinement resolves
    rng = np.random.default_rng(16)
    for i in range(24):
        config = random_scenario(rng, snr_db=(None, 0.0, 10.0, 20.0)[i % 4],
                                 n_snapshots=256)
        K, M, pattern = config.n_sources, config.geom.M, config.pattern
        B = build_B(pattern)
        rows = selected_channel_columns(M, pattern.P)
        W = assemble_snapshots(config)
        Q = W[np.r_[0, pattern.P:M + pattern.P - 1]]
        full = assemble_full_snapshots(config)
        searches = (
            (Q, lambda ph, l: build_A(ph, M), 1,
             lambda: (music_spatial(sample_covariance(Q), K),
                      np.zeros(K, dtype=int))),
            (W, lambda ph, l: np.kron(build_A(ph, M), B[:, [l]])[rows], pattern.L,
             lambda: phase_band(jdfsdpj(W, sample_covariance(W), config))),
            (full, lambda ph, l: np.kron(build_A(ph, M), B[:, [l]]), pattern.L,
             lambda: phase_band(jdfsd_full(full, sample_covariance(full),
                                           config))),
        )
        for X, steering, n_bands, search in searches:
            U_N = decompose(sample_covariance(X), K)
            want_phi, want_band = grid_search_oracle(U_N, steering, n_bands, K)
            if want_phi.size < K:
                with pytest.raises(PeakCountError) as info:
                    search()
                assert info.value.found == want_phi.size
                continue
            phi, band = search()
            got, want = np.lexsort((phi, band)), np.lexsort((want_phi, want_band))
            np.testing.assert_array_equal(band[got], want_band[want])
            gap = np.angle(np.exp(1j * (phi[got] - want_phi[want])))
            assert np.max(np.abs(gap)) < 1e-8


def test_noise_subspace_orthogonal_to_truth_noiseless():
    rng = np.random.default_rng(11)
    config = random_scenario(rng, K=2, snr_db=None, n_snapshots=128)
    W = assemble_snapshots(config)
    U_N = decompose(sample_covariance(W), 2)
    for k in range(2):
        a = steering_column(config.phases()[k], config.band_of(k),
                            config.geom, config.pattern)
        assert (np.linalg.norm(U_N.conj().T @ a)
                < 1e-8 * np.linalg.norm(a))


def test_pair_supports_shared_band():
    # more sources than recovered bands: both rows legitimately select the
    # single available band
    rng = np.random.default_rng(12)
    s = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    Z = np.vstack([s, 2 * s])
    assert pair_supports(Z @ s.conj()[:, None] / s.size, (4,)) == (4, 4)


def test_residual_frequency_constant_sequence_is_zero():
    assert residual_frequency(np.full(64, 2.0 + 1.0j), 1.0) == 0.0
    # a tiny negative frequency wraps to a fraction that rounds to 1.0: it is
    # 0 cycles, never f_s, so band * f_s + f_res stays in its band
    x = np.exp(-2j * np.pi * 1e-18 * np.arange(16))
    assert residual_frequency(x, 1 / 13) == 0.0
    np.testing.assert_array_equal(residual_frequency(np.stack([x, x]), 1 / 13),
                                  [0.0, 0.0])


def test_joint_search_separates_same_phase_different_bands():
    # same spatial phase in two bands defeats spatial-only estimation but
    # not the joint (phase, band) search
    from subnyq.model import ArrayGeometry
    from subnyq.siggen import ScenarioConfig, SourceTruth

    geom = ArrayGeometry(M=6, d=0.5, c_prop=1.0)
    f_s = PATTERN.f_s
    phi = 0.55
    sources = []
    for band, frac in ((2, 0.35), (7, 0.6)):
        f_c = (band + frac) * f_s
        theta = float(np.arcsin(phi / (2 * np.pi * geom.d * f_c)))
        sources.append(SourceTruth(theta=theta, f_c=f_c))
    config = ScenarioConfig(geom=geom, pattern=PATTERN,
                            sources=tuple(sources), snr_db=None,
                            n_snapshots=128)
    np.testing.assert_allclose(config.phases(), phi, atol=1e-12)
    W = assemble_snapshots(config)
    result = jdfsdpj(W, sample_covariance(W), config)
    phase_err, freq_err = match_estimates(config, result)
    assert np.max(np.abs(phase_err)) < 1e-6
    assert np.max(np.abs(freq_err)) < 1e-8
    assert sorted(result.band) == [2, 7]


def test_reconstruction_reproduces_noiseless_snapshots():
    rng = np.random.default_rng(13)
    config = random_scenario(rng, K=2, snr_db=None, n_snapshots=128)
    W = assemble_snapshots(config)
    bands = [config.band_of(k) for k in range(2)]
    rows = selected_channel_columns(config.geom.M, config.pattern.P)
    H = build_G_selected(config.phases(), bands, config.geom, config.pattern, rows)
    S = ls_solve(H, W)
    assert np.linalg.norm(W - H @ S) < 1e-10 * np.linalg.norm(W)


def test_result_frequency_unfolding_invariant():
    rng = np.random.default_rng(14)
    config = random_scenario(rng, snr_db=15.0, n_snapshots=256)
    W = assemble_snapshots(config)
    result = jdfsdpj(W, sample_covariance(W), config)
    f_slice = config.pattern.f_N / config.pattern.L
    np.testing.assert_allclose(result.f, result.band * f_slice
                               + result.f_residual, atol=1e-15)


def test_joint_spectrum_invariant_to_global_phase():
    rng = np.random.default_rng(15)
    config = random_scenario(rng, snr_db=15.0, n_snapshots=256)
    W = assemble_snapshots(config)
    rotated = np.exp(1j * 0.7) * W
    a = jdfsdpj(W, sample_covariance(W), config)
    b = jdfsdpj(rotated, sample_covariance(rotated), config)
    np.testing.assert_allclose(np.sort(a.phi), np.sort(b.phi), atol=1e-9)
    assert sorted(a.band) == sorted(b.band)


def test_full_structure_tracks_or_beats_simplified_in_noise():
    from subnyq.harness import default_scenario, run_trial

    scenario = replace(default_scenario(K=3, snr_db=10.0), n_snapshots=1024)
    errs = {"JDFSDPJ": [], "JDFSD-full": []}
    for seed in range(150):
        for alg in errs:
            rec = run_trial(scenario, alg, seed=seed)
            assert not rec.failed
            errs[alg].extend(np.abs(rec.phase_errors) ** 2)
    rmse_full = np.sqrt(np.mean(errs["JDFSD-full"]))
    rmse_sim = np.sqrt(np.mean(errs["JDFSDPJ"]))
    assert rmse_full <= rmse_sim


def test_jdfpi_rejects_too_many_sources_for_branches():
    # K = P is fine for the joint search but not for the branch-domain
    # support recovery, which needs K <= P - 1
    from subnyq.model import ArrayGeometry
    from subnyq.siggen import ScenarioConfig, SourceTruth

    pattern = MultiCosetPattern(L=8, offsets=(0, 1, 3), f_N=1.0)
    f_s = pattern.f_s
    sources = tuple(
        SourceTruth(theta=0.2 * k - 0.2, f_c=(2 * k + 0.5) * f_s)
        for k in range(3)
    )
    config = ScenarioConfig(geom=ArrayGeometry(M=6, d=0.5, c_prop=1.0),
                            pattern=pattern, sources=sources,
                            snr_db=None, n_snapshots=64)
    W = assemble_snapshots(config)
    with pytest.raises(ConfigError):
        jdfpi(W, sample_covariance(W), config)


@pytest.fixture
def rooted_rows(monkeypatch):
    """Row counts of each `_phase_minima` call the estimators make."""
    calls = []

    def counting(C):
        calls.append(C.shape[0])
        return _phase_minima(C)

    monkeypatch.setattr(estimators, "_phase_minima", counting)
    return calls


def search_outcome(search, *args):
    """(phis, bands) of a search, or the minima count its PeakCountError
    reports."""
    try:
        return search(*args)
    except PeakCountError as exc:
        return exc.found


def test_pruned_search_equals_all_band_search(rooted_rows):
    # bound pruning must pick exactly what rooting every band picks, at
    # model orders below, at and above the true source count
    rng = np.random.default_rng(17)
    second_stages = 0
    for i in range(20):
        config = random_scenario(rng, snr_db=(None, -10.0, 0.0, 10.0, 20.0)[i % 5],
                                 n_snapshots=256)
        M, P = config.geom.M, config.pattern.P
        B = build_B(config.pattern)
        for X, maps in ((assemble_snapshots(config),
                         channel_maps(M, B, selected_channel_columns(M, P))),
                        (assemble_full_snapshots(config),
                         channel_maps(M, B, np.arange(M * P)))):
            for K in range(1, 5):
                rooted_rows.clear()
                R = sample_covariance(X)
                got = search_outcome(_search, R, K, maps, "test_step")
                second_stages += len(rooted_rows) > 1
                want = search_outcome(all_band_search, R, K, maps)
                if isinstance(want, int):
                    assert got == want
                    continue
                np.testing.assert_array_equal(got[1], want[1])
                np.testing.assert_array_equal(got[0], want[0])
    assert second_stages >= 10


def noise_subspace_maps(n_signal, costs):
    """(R, G) whose search over K = n_signal sources has band l's cost matrix
    costs[l]: R is the sample covariance of a diagonal X whose n_signal
    strong rows leave the noise subspace spanned by the remaining unit
    vectors, on which G_l is a square root of costs[l]."""
    M = costs[0].shape[0]
    X = np.diag([3.0 + k for k in range(n_signal)][::-1] + [1.0] * M)
    G = np.zeros((len(costs), n_signal + M, M), dtype=complex)
    for l, C in enumerate(costs):
        G[l, n_signal:] = np.linalg.cholesky(C).conj().T
    return sample_covariance(X.astype(complex)), G


def test_pruned_search_roots_bands_the_bound_cannot_exclude(rooted_rows):
    # band 0 has the lowest Rayleigh bound (0.12) but its minimum costs
    # 1.85; band 1's bound (1.2) lies under that and its minimum (1.3) wins;
    # band 2's bound (2.7) lies above it, so band 2 is never rooted
    M = 3
    costs = [np.diag([0.05, 1.0, 1.0]) + cosine_cost(M, 0.0, 0.2, 1, 0.3),
             0.5 * np.eye(M) + cosine_cost(M, 0.0, 0.2, 1, -1.1),
             np.eye(M) + cosine_cost(M, 0.0, 0.2, 1, 2.0)]
    R, G = noise_subspace_maps(1, costs)
    phis, bands = _search(R, 1, G, "test_step")
    assert rooted_rows == [1, 1]
    assert list(bands) == [1]
    np.testing.assert_allclose(phis, [-1.1], atol=1e-12)
    want_phis, want_bands = all_band_search(R, 1, G)
    np.testing.assert_array_equal(phis, want_phis)
    np.testing.assert_array_equal(bands, want_bands)


def test_pruned_search_roots_every_band_when_first_stage_falls_short(rooted_rows):
    # bands 0 and 1 have the lowest bounds but constant costs with no
    # minima; the count must include band 2's one minimum, as with rooting
    # every band
    M = 3
    costs = [0.1 * np.eye(M), 0.2 * np.eye(M),
             np.eye(M) + cosine_cost(M, 0.0, 0.2, 1, 0.5)]
    R, G = noise_subspace_maps(2, costs)
    with pytest.raises(PeakCountError) as info:
        _search(R, 2, G, "test_step")
    assert rooted_rows == [2, 1]
    assert info.value.found == 1 and info.value.wanted == 2
    assert search_outcome(all_band_search, R, 2, G) == 1


def test_search_with_at_most_k_bands_computes_no_bound(monkeypatch, rooted_rows):
    # with no more bands than picks every band is rooted at once, so no
    # Rayleigh bound is computed; the picks equal rooting every band
    bounds = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args: bounds.append(a.shape) or eigvalsh(a, *args))
    rng = np.random.default_rng(22)
    for i in range(10):
        config = random_scenario(rng, snr_db=(None, 0.0, 10.0, 20.0, 30.0)[i % 5],
                                 n_snapshots=256)
        M, P = config.geom.M, config.pattern.P
        W = assemble_snapshots(config)
        R = sample_covariance(W)
        maps = channel_maps(M, build_B(config.pattern), selected_channel_columns(M, P))
        for K in range(1, 4):
            for G in (maps[:1], maps[:K]):
                rooted_rows.clear()
                got = search_outcome(_search, R, K, G, "test_step")
                assert rooted_rows == [len(G)]
                want = search_outcome(all_band_search, R, K, G)
                if isinstance(want, int):
                    assert got == want
                    continue
                np.testing.assert_array_equal(got[1], want[1])
                np.testing.assert_array_equal(got[0], want[0])
        q = [0, *range(P, M + P - 1)]
        music_spatial(R[q][:, q], 1)
    assert bounds == []


def test_peak_count_error_reports_counts():
    # strong rows 1-2 leave the noise subspace span(e_3, e_4), where the
    # channel map makes the search cost 2 - cos(phi): one minimum, at 0
    R = sample_covariance(np.diag([3.0, 2.0, 1.0, 1.0]).astype(complex))
    G = np.zeros((1, 4, 2), dtype=complex)
    G[0, 2:] = np.linalg.cholesky(np.array([[1.0, -0.5], [-0.5, 1.0]])).T
    phis, bands = _search(R, 1, G, "test_step")
    np.testing.assert_allclose(phis, [0.0], atol=1e-12)
    assert list(bands) == [0]
    with pytest.raises(PeakCountError) as info:
        _search(R, 2, G, "test_step")
    assert info.value.found == 1 and info.value.wanted == 2
    assert info.value.step == "test_step"
