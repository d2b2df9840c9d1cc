"""Monte Carlo harness: matching, seeding, sweeps, CSV and JSON plumbing."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from subnyq.errors import ConfigError, RankDeficiencyError
from subnyq.estimators import EstimationResult
from subnyq.harness import (
    SweepConfig,
    _min_cost_assignment,
    default_scenario,
    default_sweep,
    derive_trial_seed,
    emit_csv,
    format_value,
    match_estimates,
    read_csv,
    run_sweep,
    run_trial,
    scenario_from_dict,
    scenario_for_value,
    sweep_from_dict,
    wrap_phase,
)


def small_sweep(n_trials=3, values=(10.0, 20.0), algorithms=("JDFPI", "JDFSDPJ"),
                variable="snr_db", n_snapshots=256):
    base = replace(default_scenario(K=3, snr_db=20.0), n_snapshots=n_snapshots)
    return SweepConfig(base=base, sweep_variable=variable, sweep_values=values,
                       n_trials=n_trials, algorithms=algorithms, master_seed=7)


def test_wrap_phase():
    np.testing.assert_allclose(wrap_phase(0.3), 0.3)
    np.testing.assert_allclose(wrap_phase(np.pi + 0.1), -np.pi + 0.1)
    np.testing.assert_allclose(wrap_phase(-np.pi), np.pi)
    np.testing.assert_allclose(wrap_phase([2 * np.pi, -2 * np.pi]), [0.0, 0.0])


def result_from_truth(scenario, perm, phi_jitter=0.0):
    phis = scenario.phases()[perm] + phi_jitter
    f = np.array([scenario.sources[k].f_c for k in perm])
    bands = np.array([scenario.band_of(k) for k in perm])
    f_res = np.array([scenario.residual_of(k) for k in perm])
    return EstimationResult(algorithm="test", phi=phis, band=bands,
                            f_residual=f_res, f=f,
                            theta=np.zeros_like(f))


def test_match_estimates_inverts_permutation():
    scenario = default_scenario(K=3, snr_db=None)
    for perm in ([2, 0, 1], [1, 2, 0], [0, 1, 2]):
        result = result_from_truth(scenario, perm, phi_jitter=1e-6)
        phase_err, freq_err = match_estimates(scenario, result)
        np.testing.assert_allclose(phase_err, 1e-6, atol=1e-12)
        np.testing.assert_allclose(freq_err, 0.0, atol=1e-12)


def test_match_estimates_near_swap_agrees_with_brute_force():
    # adversarial case: estimates sit between two close truths; exhaustive
    # matching must pick the assignment with the smaller total cost
    import itertools

    scenario = default_scenario(K=3, snr_db=None)
    true_phi = scenario.phases()
    result = result_from_truth(scenario, [0, 1, 2])
    # nudge two estimates toward each other's truth
    delta = (true_phi[1] - true_phi[0]) * 0.45
    phi = result.phi.copy()
    phi[0] += delta
    phi[1] -= delta
    nudged = EstimationResult(algorithm="test", phi=phi, band=result.band,
                              f_residual=result.f_residual, f=result.f,
                              theta=result.theta)
    phase_err, freq_err = match_estimates(scenario, nudged)
    f_norm = scenario.pattern.f_s
    best = min(
        float(np.sum((wrap_phase(phi[list(p)] - true_phi) / np.pi) ** 2
                     + ((nudged.f[list(p)]
                         - np.array([s.f_c for s in scenario.sources]))
                        / f_norm) ** 2))
        for p in itertools.permutations(range(3))
    )
    got = float(np.sum((phase_err / np.pi) ** 2 + (freq_err / f_norm) ** 2))
    assert got == pytest.approx(best, rel=1e-12)


def test_min_cost_assignment_matches_scipy():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        for _ in range(20):
            for continuous, cost in (
                (True, rng.random((n, n))),
                (False, rng.integers(0, 4, (n, n)).astype(float)),
                (True, 1e-12 * rng.random((n, n))),
                (False, np.full((n, n), 2.5)),
            ):
                perm = _min_cost_assignment(cost)
                rows, cols = linear_sum_assignment(cost)
                assert sorted(perm) == list(range(n))
                assert cost[rows, perm].sum() == pytest.approx(
                    cost[rows, cols].sum(), rel=1e-12, abs=0.0)
                if continuous:
                    assert perm == cols.tolist()


@pytest.mark.parametrize("bad", ["all_nan", "one_nan", "inf", "minus_inf"])
def test_min_cost_assignment_rejects_non_finite_costs(bad):
    cost = np.arange(9.0).reshape(3, 3)
    if bad == "all_nan":
        cost[:] = np.nan
    else:
        cost[1, 2] = {"one_nan": np.nan, "inf": np.inf, "minus_inf": -np.inf}[bad]
    with pytest.raises(ValueError, match="NaN or infinite"):
        _min_cost_assignment(cost)


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, subnyq; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    # `python -c` puts its working directory first on the path
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_run_trial_records_failure_without_raising():
    base = default_scenario(K=1, snr_db=None, n_snapshots=256)
    silent = replace(base, sources=(replace(base.sources[0], amplitude=0.0),))
    # all-zero snapshots: each pipeline fails in its first search
    for algorithm, step in (("JDFPI", "music_spatial"),
                            ("JDFSDPJ", "jdfsdpj_search"),
                            ("JDFSD-full", "jdfsd_full_search")):
        rec = run_trial(silent, algorithm, seed=0)
        assert rec.failed and rec.failure_step == step
        assert rec.phase_errors is None and rec.freq_errors is None


def test_failed_trials_excluded_from_rmse():
    base = default_scenario(K=1, snr_db=None, n_snapshots=256)
    silent = replace(base, sources=(replace(base.sources[0], amplitude=0.0),),
                     snr_db=0.0)
    config = SweepConfig(base=silent, sweep_variable="snr_db",
                         sweep_values=(0.0,), n_trials=2,
                         algorithms=("JDFPI",), master_seed=0)
    table = run_sweep(config)
    for row in table.rows:
        assert row.n_success == 0
        assert np.isnan(row.rmse)


def test_table_invariant_to_source_order():
    base = default_scenario(K=3, snr_db=20.0, n_snapshots=256)
    swapped = replace(base, sources=base.sources[::-1])
    mk = lambda b: SweepConfig(base=b, sweep_variable="snr_db",
                               sweep_values=(20.0,), n_trials=1,
                               algorithms=("JDFSDPJ",), master_seed=3)
    rows_a = run_sweep(mk(base)).rows
    rows_b = run_sweep(mk(swapped)).rows
    for a, b in zip(rows_a, rows_b):
        # identical up to the peak-refinement convergence tolerance
        assert a.rmse == pytest.approx(b.rmse, rel=1e-5)


def test_sweep_synthesizes_each_trial_once(monkeypatch):
    import subnyq.harness as harness

    calls = []
    for name in ("assemble_snapshots", "assemble_full_snapshots"):
        original = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda config, _f=original, _n=name:
                            calls.append(_n) or _f(config))
    run_sweep(small_sweep(n_trials=2, values=(20.0,)))
    assert calls == ["assemble_snapshots"] * 2
    calls.clear()
    run_sweep(small_sweep(n_trials=2, values=(20.0,),
                          algorithms=("JDFPI", "JDFSDPJ", "JDFSD-full")))
    assert calls == ["assemble_full_snapshots"] * 2


def test_sweep_computes_each_bound_once_per_structure(monkeypatch):
    # JDFPI and JDFSDPJ share the simplified-structure bound
    import subnyq.harness as harness

    calls = []
    for name in ("crb_input_from_scenario", "crb_phase", "freq_crb_numerical"):
        original = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, _f=original, _n=name, **kw:
                            calls.append((_n, kw.get("full_structure"))) or _f(*a, **kw))
    table = run_sweep(small_sweep(n_trials=1, values=(20.0,),
                                  algorithms=("JDFPI", "JDFSDPJ", "JDFSD-full")))
    assert sorted(calls, key=str) == sorted([
        ("crb_input_from_scenario", None),
        ("crb_phase", False), ("crb_phase", True),
        ("freq_crb_numerical", False), ("freq_crb_numerical", True),
    ], key=str)
    crb = {(r.algorithm, r.metric): r.crb for r in table.rows}
    assert crb[("JDFPI", "phase_rmse")] == crb[("JDFSDPJ", "phase_rmse")]
    assert crb[("JDFSD-full", "phase_rmse")] < crb[("JDFSDPJ", "phase_rmse")]


def test_undefined_bound_raises_before_any_trial(monkeypatch):
    # two coincident sources: the bound is undefined, and the sweep must say
    # so before it synthesizes a single trial
    import subnyq.harness as harness

    calls = []
    for name in ("assemble_snapshots", "assemble_full_snapshots"):
        original = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda config, _f=original, _n=name:
                            calls.append(_n) or _f(config))
    base = default_scenario(K=2, snr_db=20.0, n_snapshots=256)
    same = replace(base, sources=(base.sources[0],) * 2)
    config = SweepConfig(base=same, sweep_variable="snr_db",
                         sweep_values=(10.0, 20.0), n_trials=2,
                         algorithms=("JDFPI", "JDFSDPJ", "JDFSD-full"))
    with pytest.raises(RankDeficiencyError):
        run_sweep(config)
    assert calls == []


def test_interrupted_sweep_returns_partial_table(monkeypatch):
    # Ctrl-C after two of four trials: the partial table keeps the completed
    # records and the bounds, which were computed before the trials
    import subnyq.harness as harness

    original, done = harness._run_task, []

    def interrupting(task):
        if len(done) == 2:
            raise KeyboardInterrupt
        done.append(task)
        return original(task)

    monkeypatch.setattr(harness, "_run_task", interrupting)
    config = small_sweep(n_trials=2, values=(10.0, 20.0))
    with pytest.raises(KeyboardInterrupt) as info:
        run_sweep(config)
    partial = info.value.partial
    assert len(partial.records) == 2 * len(config.algorithms)
    assert {r.sweep_value for r in partial.records} == {10.0}
    monkeypatch.setattr(harness, "_run_task", original)
    full = {(r.sweep_value, r.algorithm, r.metric): r.crb
            for r in run_sweep(config).rows}
    for row in partial.rows:
        assert row.crb == full[(row.sweep_value, row.algorithm, row.metric)]
        assert row.n_success <= (2 if row.sweep_value == 10.0 else 0)


def random_layout(rng, K, M=8):
    """K random tones on an M-sensor array with the default pattern; bands
    may repeat (matching does not need distinct bands)."""
    from subnyq.model import ArrayGeometry
    from subnyq.siggen import ScenarioConfig, SourceTruth

    pattern = default_scenario().pattern
    sources = tuple(SourceTruth(theta=float(rng.uniform(-1.4, 1.4)),
                                f_c=float(rng.uniform(0.0, pattern.f_N)))
                    for _ in range(K))
    return ScenarioConfig(geom=ArrayGeometry(M=M, d=0.5, c_prop=1.0),
                          pattern=pattern, sources=sources, snr_db=None,
                          n_snapshots=64)


def test_match_estimates_equals_exhaustive_search():
    import itertools

    rng = np.random.default_rng(42)
    for _ in range(40):
        K = int(rng.integers(1, 7))
        scenario = random_layout(rng, K)
        true_phi = scenario.phases()
        true_f = np.array([s.f_c for s in scenario.sources])
        f_norm = scenario.pattern.f_s
        # estimates near a shuffled truth, some far enough to make greedy
        # nearest-neighbour matching wrong
        perm = rng.permutation(K)
        phi = true_phi[perm] + rng.normal(0.0, 0.5, K)
        f = true_f[perm] + rng.normal(0.0, 2.0 * f_norm, K)
        result = EstimationResult(algorithm="test", phi=phi,
                                  band=np.zeros(K, dtype=int),
                                  f_residual=np.zeros(K), f=f,
                                  theta=np.zeros(K))
        best = min(itertools.permutations(range(K)), key=lambda p: float(np.sum(
            (wrap_phase(phi[list(p)] - true_phi) / np.pi) ** 2
            + ((f[list(p)] - true_f) / f_norm) ** 2)))
        phase_err, freq_err = match_estimates(scenario, result)
        np.testing.assert_array_equal(phase_err, wrap_phase(phi[list(best)] - true_phi))
        np.testing.assert_array_equal(freq_err, f[list(best)] - true_f)


def test_match_estimates_nine_sources():
    scenario = random_layout(np.random.default_rng(9), K=9, M=10)
    perm = [4, 8, 0, 7, 2, 6, 1, 5, 3]
    result = result_from_truth(scenario, perm, phi_jitter=1e-6)
    phase_err, freq_err = match_estimates(scenario, result)
    np.testing.assert_allclose(phase_err, 1e-6, atol=1e-12)
    np.testing.assert_allclose(freq_err, 0.0, atol=1e-12)


def test_match_estimates_rejects_count_mismatch():
    scenario = default_scenario(K=3, snr_db=None)
    short = result_from_truth(default_scenario(K=2, snr_db=None), [0, 1])
    with pytest.raises(ConfigError):
        match_estimates(scenario, short)


def test_trial_seeds_distinct_and_deterministic():
    seeds = {derive_trial_seed(0, s, t) for s in range(3) for t in range(100)}
    assert len(seeds) == 300
    assert derive_trial_seed(5, 1, 9) == derive_trial_seed(5, 1, 9)


def test_sweep_algorithms_share_each_trial():
    # common random numbers: every algorithm of one (point, trial) carries
    # the same seed, and taking the simplified rows from the full output
    # when JDFSD-full is in the sweep changes no simplified-path result
    config = small_sweep(n_trials=2, values=(10.0, 20.0),
                         algorithms=("JDFPI", "JDFSDPJ", "JDFSD-full"))
    records = run_sweep(config).records
    assert len(records) == 2 * 3 * 2
    seeds = {}
    for rec in records:
        seeds.setdefault((rec.sweep_value, rec.trial_index), set()).add(rec.seed)
    assert len(seeds) == 4
    assert all(len(s) == 1 for s in seeds.values())
    assert len(set().union(*seeds.values())) == 4

    simplified = run_sweep(replace(config, algorithms=("JDFPI", "JDFSDPJ"))).records
    shared = [r for r in records if r.algorithm != "JDFSD-full"]
    key = lambda r: (r.sweep_value, r.algorithm, r.trial_index)
    for a, b in zip(sorted(shared, key=key), sorted(simplified, key=key)):
        assert (a.seed, a.failed) == (b.seed, b.failed)
        if not a.failed:
            np.testing.assert_array_equal(a.phase_errors, b.phase_errors)
            np.testing.assert_array_equal(a.freq_errors, b.freq_errors)


def test_run_trial_deterministic():
    scenario = default_scenario(K=2, snr_db=15.0, n_snapshots=256)
    a = run_trial(scenario, "JDFSDPJ", seed=123)
    b = run_trial(scenario, "JDFSDPJ", seed=123)
    assert not a.failed
    np.testing.assert_array_equal(a.phase_errors, b.phase_errors)
    np.testing.assert_array_equal(a.freq_errors, b.freq_errors)


def test_run_sweep_aggregates_counts_and_metrics():
    config = small_sweep()
    table = run_sweep(config)
    assert len(table.rows) == 2 * 2 * 2  # values x algorithms x metrics
    for row in table.rows:
        assert row.n_trials == 3
        assert 0 <= row.n_success <= 3
        if row.n_success:
            assert np.isfinite(row.rmse) and row.rmse > 0
        assert np.isfinite(row.crb) and row.crb > 0
    assert len(table.records) == 2 * 2 * 3


def test_run_sweep_parallel_matches_sequential():
    config = small_sweep(n_trials=2, values=(20.0,))
    seq = run_sweep(config, workers=1)
    par = run_sweep(config, workers=2)
    assert seq.rows == par.rows


def test_source_count_sweep_truncates_sources():
    base = default_scenario(K=3, snr_db=20.0)
    assert scenario_for_value(base, "n_sources", 2).n_sources == 2
    with pytest.raises(ConfigError):
        scenario_for_value(base, "n_sources", 9)


def test_sweep_validation():
    base = default_scenario()
    with pytest.raises(ConfigError):
        SweepConfig(base=base, sweep_variable="bogus", sweep_values=(1,))
    with pytest.raises(ConfigError):
        SweepConfig(base=base, sweep_variable="snr_db", sweep_values=())
    with pytest.raises(ConfigError):
        SweepConfig(base=base, sweep_variable="snr_db", sweep_values=(0,),
                    n_trials=0)
    with pytest.raises(ConfigError):
        SweepConfig(base=base, sweep_variable="snr_db", sweep_values=(0,),
                    algorithms=("NOPE",))


def test_repeated_algorithm_is_config_error():
    # a repeated name would run twice per trial and count every trial twice
    base = default_scenario()
    with pytest.raises(ConfigError, match="more than once"):
        SweepConfig(base=base, sweep_variable="snr_db", sweep_values=(0,),
                    algorithms=("JDFSDPJ", "JDFPI", "JDFSDPJ"))
    with pytest.raises(ConfigError, match="more than once"):
        sweep_from_dict({"base": scenario_dict(), "sweep_variable": "snr_db",
                         "sweep_values": [0], "algorithms": ["JDFPI", "JDFPI"]})


def test_csv_round_trip(tmp_path):
    table = run_sweep(small_sweep())
    path = tmp_path / "out.csv"
    emit_csv(table, path)
    rows = read_csv(path)
    assert len(rows) == len(table.rows)
    by_key = {(r.sweep_value, r.algorithm, r.metric): r for r in rows}
    for r in table.rows:
        got = by_key[(float(r.sweep_value), r.algorithm, r.metric)]
        assert got.rmse == pytest.approx(r.rmse, rel=1e-15)
        assert got.n_success == r.n_success


def test_csv_is_byte_deterministic(tmp_path):
    config = small_sweep()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(config), p1)
    emit_csv(run_sweep(config), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_table_emits_header_only(tmp_path):
    from subnyq.harness import CSV_HEADER, ResultTable
    path = tmp_path / "empty.csv"
    emit_csv(ResultTable(sweep_variable="snr_db", rows=()), path)
    assert path.read_text() == ",".join(CSV_HEADER) + "\n"
    assert read_csv(path) == ()


def test_read_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_csv(path)


def test_format_value():
    assert format_value(10.0) == "10"
    assert format_value(2) == "2"
    assert format_value(12.5) == "12.5"


def scenario_dict():
    return {
        "geometry": {"M": 6, "d": 0.5, "c_prop": 1.0},
        "pattern": {"L": 11, "offsets": [0, 1, 4, 6], "f_N": 1.0},
        "sources": [
            {"theta": 0.4, "f_c": 0.31, "amplitude": [1.0, 0.5]},
            {"theta": -0.6, "f_c": 0.77, "envelope": "noise",
             "bandwidth": 0.02},
        ],
        "snr_db": 15.0,
        "n_snapshots": 256,
        "rng_seed": 3,
    }


def test_scenario_from_dict():
    config = scenario_from_dict(scenario_dict())
    assert config.geom.M == 6
    assert config.pattern.offsets == (0, 1, 4, 6)
    assert config.sources[0].amplitude == 1.0 + 0.5j
    assert config.sources[1].envelope == "noise"
    assert config.snr_db == 15.0
    noiseless = scenario_dict() | {"snr_db": None}
    assert scenario_from_dict(noiseless).sigma2 == 0.0


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("geometry"),
    lambda d: d["pattern"].update(offsets=[3, 1]),
    lambda d: d["sources"][0].update(amplitude="big"),
    lambda d: d["sources"][0].update(f_c=2.0),
])
def test_scenario_from_dict_rejects_bad_input(mutate):
    data = scenario_dict()
    mutate(data)
    with pytest.raises(ConfigError):
        scenario_from_dict(data)


def test_sweep_from_dict():
    data = {
        "base": scenario_dict(),
        "sweep_variable": "snr_db",
        "sweep_values": [0, 10],
        "n_trials": 4,
        "algorithms": ["JDFSDPJ"],
        "master_seed": 99,
    }
    sweep = sweep_from_dict(data)
    assert sweep.sweep_values == (0, 10)
    assert sweep.algorithms == ("JDFSDPJ",)
    assert sweep.master_seed == 99
    with pytest.raises(ConfigError):
        sweep_from_dict({"base": scenario_dict()})


def test_default_sweep_shapes():
    snr = default_sweep("snr_db")
    assert snr.sweep_variable == "snr_db" and len(snr.sweep_values) >= 3
    k = default_sweep("n_sources")
    assert k.sweep_values == (1, 2, 3)
