"""Monte Carlo harness: matching, seeding, sweeps, CSV and JSON plumbing."""

import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from subnyq.errors import ConfigError, RankDeficiencyError
from subnyq.estimators import EstimationResult
from subnyq.harness import (
    SweepConfig,
    _format_value,
    _min_cost_assignment,
    _scenario_for_value,
    _wrap_phase,
    check_algorithms,
    default_scenario,
    default_sweep,
    derive_trial_seed,
    emit_csv,
    format_csv,
    match_estimates,
    read_csv,
    run_sweep,
    run_trial,
    scenario_from_dict,
    sweep_from_dict,
)
from subnyq.model import ArrayGeometry, MultiCosetPattern
from subnyq.siggen import ScenarioConfig, SourceTruth


def small_sweep(n_trials=3, values=(10.0, 20.0), algorithms=("JDFPI", "JDFSDPJ"),
                variable="snr_db", n_snapshots=256):
    base = replace(default_scenario(K=3, snr_db=20.0), n_snapshots=n_snapshots)
    return SweepConfig(base=base, sweep_variable=variable, sweep_values=values,
                       n_trials=n_trials, algorithms=algorithms, master_seed=7)


def test_wrap_phase():
    np.testing.assert_allclose(_wrap_phase(0.3), 0.3)
    np.testing.assert_allclose(_wrap_phase(np.pi + 0.1), -np.pi + 0.1)
    np.testing.assert_allclose(_wrap_phase(-np.pi), np.pi)
    np.testing.assert_allclose(_wrap_phase([2 * np.pi, -2 * np.pi]), [0.0, 0.0])


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
        float(np.sum((_wrap_phase(phi[list(p)] - true_phi) / np.pi) ** 2
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
    code = ("import sys, subnyq.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    # `python -c` puts its working directory first on the path
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_run_trial_records_failure_without_raising():
    base = replace(default_scenario(K=1, snr_db=None), n_snapshots=256)
    silent = replace(base, sources=(replace(base.sources[0], amplitude=0.0),))
    # all-zero snapshots: each pipeline fails in its first search
    for algorithm, step in (("JDFPI", "music_spatial"),
                            ("JDFSDPJ", "jdfsdpj_search"),
                            ("JDFSD-full", "jdfsd_full_search")):
        rec = run_trial(silent, algorithm, seed=0)
        assert rec.failed and rec.failure_step == step
        assert rec.phase_errors is None and rec.freq_errors is None


def test_failed_trials_excluded_from_rmse():
    # a silent source has no SNR, so the sweep runs noiseless over K
    base = replace(default_scenario(K=1, snr_db=None), n_snapshots=256)
    silent = replace(base, sources=(replace(base.sources[0], amplitude=0.0),))
    config = SweepConfig(base=silent, sweep_variable="n_sources",
                         sweep_values=(1,), n_trials=2,
                         algorithms=("JDFPI",), master_seed=0)
    table = run_sweep(config)
    for row in table.rows:
        assert row.n_success == 0
        assert np.isnan(row.rmse)


def test_table_invariant_to_source_order():
    base = replace(default_scenario(K=3, snr_db=20.0), n_snapshots=256)
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

    # each block's seeds are drawn once, and the block's draws assembled once
    drawn, calls = [], []
    original_draws = harness._draws
    monkeypatch.setattr(harness, "_draws", lambda config, seeds, *a: drawn.append(
        list(seeds)) or original_draws(config, seeds, *a))
    for name in ("assemble_snapshots", "assemble_full_snapshots"):
        original = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda config, draws, _f=original, _n=name:
                            calls.append((_n, len(draws[1]))) or _f(config, draws))
    seeds = [derive_trial_seed(7, 0, trial) for trial in range(6)]
    run_sweep(small_sweep(n_trials=6, values=(20.0,)))
    assert drawn == [seeds]  # one block of 25 or fewer
    assert calls == [("assemble_snapshots", 6)]
    drawn.clear()
    calls.clear()
    run_sweep(small_sweep(n_trials=6, values=(20.0,),
                          algorithms=("JDFPI", "JDFSDPJ", "JDFSD-full")))
    # blocks of 5 at 241 KB per trial
    assert drawn == [seeds[:5], seeds[5:]]
    assert calls == [("assemble_full_snapshots", 5), ("assemble_full_snapshots", 1)]


@pytest.mark.parametrize("algorithms", [("JDFSDPJ", "JDFPI"),
                                        ("JDFSD-full", "JDFPI", "JDFSDPJ")],
                         ids=["simplified", "full"])
def test_sweep_synthesizes_each_block_inside_its_first_run_trial(monkeypatch,
                                                                  algorithms):
    # each block of a point's trials is assembled once, in task order, on
    # the calling thread, while the run_trial of its first algorithm is
    # active: a trace of run_trial spans then holds synthesis
    import threading

    import subnyq.harness as harness

    active, assembled, drawn = [], [], []
    original_trial, original_draws = harness.run_trial, harness._draws

    def tracked_trial(scenario, algorithm, seed, sweep_value=None, trial_index=0,
                      *args, **kwargs):
        active.append((sweep_value, trial_index, algorithm))
        try:
            return original_trial(scenario, algorithm, seed, sweep_value, trial_index,
                                  *args, **kwargs)
        finally:
            active.pop()

    def recorded_draws(config, seeds, *args):
        draws = original_draws(config, seeds, *args)
        drawn.append((draws, tuple(seeds)))
        return draws

    monkeypatch.setattr(harness, "run_trial", tracked_trial)
    monkeypatch.setattr(harness, "_draws", recorded_draws)
    for name in ("assemble_snapshots", "assemble_full_snapshots"):
        original = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda config, draws, _f=original: assembled.append(
            (next(seeds for made, seeds in drawn if made is draws), tuple(active),
             threading.current_thread())) or _f(config, draws))
    config = small_sweep(n_trials=6, values=(10.0, 20.0), algorithms=algorithms)
    run_sweep(config)
    seeds = [[derive_trial_seed(config.master_seed, s_idx, trial) for trial in range(6)]
             for s_idx in range(2)]
    size = 5 if "JDFSD-full" in algorithms else 6  # 241 KB or 51 KB a trial
    assert [(block, now) for block, now, _ in assembled] == [
        (tuple(seeds[s_idx][first:first + size]), ((value, first, algorithms[0]),))
        for s_idx, value in enumerate(config.sweep_values) for first in range(0, 6, size)]
    assert {thread for *_, thread in assembled} == {threading.main_thread()}


def test_sweep_builds_the_tone_signal_once(monkeypatch):
    # the all-tone signal depends on neither seed nor SNR: one build serves
    # every trial of every point of an SNR sweep in this process
    from subnyq import siggen

    built = []
    original = siggen._envelope_signal
    monkeypatch.setattr(siggen, "_envelope_signal",
                        lambda *a: built.append(a[2]) or original(*a))
    siggen._tone_signal.cache_clear()
    table = run_sweep(small_sweep(n_trials=5, values=(10.0, 20.0, 30.0)))
    assert len(table.records) == 30
    assert len(built) == 1


def test_sweep_validates_no_scenario_per_trial(monkeypatch):
    # a block is its point's scenario and its trials' seeds: a sweep
    # validates one scenario per point and one tone-signal key per block
    from subnyq import siggen

    config = small_sweep(n_trials=6, values=(10.0, 20.0),
                         algorithms=("JDFPI", "JDFSDPJ", "JDFSD-full"))
    built = []
    post_init = siggen.ScenarioConfig.__post_init__
    monkeypatch.setattr(siggen.ScenarioConfig, "__post_init__",
                        lambda self: built.append(self.rng_seed) or post_init(self))
    run_sweep(config)
    seeds = {derive_trial_seed(config.master_seed, s_idx, t)
             for s_idx in range(2) for t in range(6)}
    assert len(built) <= 2 + 2 * 2  # blocks of 5 and 1 per point
    assert not seeds & set(built)


def test_repeated_sweep_value_is_config_error():
    # 20 and 20.0 are one point: run twice, every row would count it twice
    base = default_scenario()
    for variable, values in (("snr_db", (20, 20.0)), ("snr_db", (10.0, 20.0, 10.0)),
                             ("n_sources", (2, 1, 2.0))):
        with pytest.raises(ConfigError, match="more than once"):
            SweepConfig(base=base, sweep_variable=variable, sweep_values=values)
    with pytest.raises(ConfigError, match="more than once"):
        sweep_from_dict({"base": scenario_dict(), "sweep_variable": "snr_db",
                         "sweep_values": [20, 20.0]})


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
        monkeypatch.setattr(harness, name, lambda config, *a, _f=original, _n=name:
                            calls.append(_n) or _f(config, *a))
    base = replace(default_scenario(K=2, snr_db=20.0), n_snapshots=256)
    same = replace(base, sources=(base.sources[0],) * 2)
    config = SweepConfig(base=same, sweep_variable="snr_db",
                         sweep_values=(10.0, 20.0), n_trials=2,
                         algorithms=("JDFPI", "JDFSDPJ", "JDFSD-full"))
    with pytest.raises(RankDeficiencyError):
        run_sweep(config)
    assert calls == []


def test_interrupted_sweep_returns_partial_table(monkeypatch):
    # Ctrl-C after the first of two blocks (one per point): the partial table
    # keeps the completed records and the bounds, which were computed before
    # the trials
    import subnyq.harness as harness

    original, done = harness._run_task, []

    def interrupting(task, *args):
        if len(done) == 1:
            raise KeyboardInterrupt
        done.append(task)
        return original(task, *args)

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
            (_wrap_phase(phi[list(p)] - true_phi) / np.pi) ** 2
            + ((f[list(p)] - true_f) / f_norm) ** 2)))
        phase_err, freq_err = match_estimates(scenario, result)
        np.testing.assert_array_equal(phase_err, _wrap_phase(phi[list(best)] - true_phi))
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
    scenario = replace(default_scenario(K=2, snr_db=15.0), n_snapshots=256)
    a = run_trial(scenario, "JDFSDPJ", seed=123)
    b = run_trial(scenario, "JDFSDPJ", seed=123)
    assert not a.failed
    np.testing.assert_array_equal(a.phase_errors, b.phase_errors)
    np.testing.assert_array_equal(a.freq_errors, b.freq_errors)


def test_run_trial_takes_any_sequence_of_seeds_as_a_block():
    # an int is one trial; a tuple, range or 1-D array of seeds is a block
    # whose records are the list's, with int seeds; a boolean, a negative
    # or a non-integer seed, or no seed at all, is a ConfigError
    scenario = replace(default_scenario(K=2, snr_db=15.0), n_snapshots=256)
    listed = run_trial(scenario, "JDFSDPJ", [11, 12])
    assert [r.seed for r in listed] == [11, 12]
    for seeds in ((11, 12), range(11, 13), np.array([11, 12])):
        records = run_trial(scenario, "JDFSDPJ", seeds)
        assert [type(r.seed) for r in records] == [int, int]
        for record, expected in zip(records, listed, strict=True):
            assert replace(record, errors=None) == replace(expected, errors=None)
            np.testing.assert_array_equal(record.errors, expected.errors)
    for bad in (True, -1, [11, -1], [11, True], [], 1.5, "12"):
        with pytest.raises(ConfigError):
            run_trial(scenario, "JDFSDPJ", bad)


def test_run_trial_refuses_an_output_of_another_trial_count():
    # zip used to cut the records to the shorter of seeds and output, an
    # int seed took the first of a block, and an unstacked output was a
    # TypeError; each is now a ConfigError naming both counts
    import subnyq.harness as harness

    scenario = replace(default_scenario(K=2, snr_db=15.0), n_snapshots=256)
    two = harness.trial_output(scenario, ("JDFPI",), harness._draws(scenario, [1, 2], False))
    one = harness.trial_output(scenario, ("JDFPI",))
    for seed, output, match in (([1, 2, 3], two, "2 stacked trials for 3 seed"),
                                (5, two, "2 stacked trials for 1 seed"),
                                (5, one, "one unstacked trial for 1 seed")):
        with pytest.raises(ConfigError, match=match):
            run_trial(scenario, "JDFPI", seed, output=lambda: output)
    assert len(run_trial(scenario, "JDFPI", [1, 2], output=lambda: two)) == 2


def test_run_algorithm_needs_its_structure_in_the_output():
    # a simplified-only output used to end in a bare KeyError: True
    import subnyq.harness as harness

    scenario = replace(default_scenario(K=2, snr_db=15.0), n_snapshots=256)
    with pytest.raises(ConfigError, match="JDFSD-full needs the full structure"):
        harness.run_algorithm("JDFSD-full", scenario,
                              harness.trial_output(scenario, ("JDFPI",)))
    with pytest.raises(ConfigError, match="JDFPI needs the simplified structure"):
        harness.run_algorithm("JDFPI", scenario, {True: None})


def test_list_field_given_a_string_is_config_error_naming_it():
    # tuple("JDFPI") used to be five one-letter names ("unknown algorithm
    # 'J'") and tuple("10") two sweep values
    base = default_scenario()
    fields = dict(sweep_variable="snr_db", sweep_values=(10,))
    for name, value in (("algorithms", "JDFPI"), ("sweep_values", "10")):
        with pytest.raises(ConfigError, match=f"{name} must be a list"):
            SweepConfig(base=base, **fields | {name: value})
        with pytest.raises(ConfigError, match=f"{name} must be a list"):
            sweep_from_dict({"base": scenario_dict(), **fields, name: value})
    with pytest.raises(ConfigError, match="algorithms must be a list"):
        check_algorithms("JDFPI")


def test_full_structure_simplified_output_is_a_view_of_the_full_output():
    # W is the full output's first M+P-1 rows, not a copy, and it and its
    # covariance are a simplified-only trial_output of the same seeds, bit
    # for bit, for a block and for one trial
    import subnyq.harness as harness

    base = replace(default_scenario(K=2, snr_db=20.0), n_snapshots=256)
    seeds = [11, 12, 13]
    for both, simplified in (
            (harness.trial_output(base, harness.ALGORITHM_NAMES,
                                  harness._draws(base, seeds, True)),
             harness.trial_output(base, ("JDFSDPJ",), harness._draws(base, seeds, False))),
            (harness.trial_output(base, ("JDFPI", "JDFSD-full")),
             harness.trial_output(base, ("JDFPI",)))):
        (full, _), (W, R) = both[True], both[False]
        assert np.shares_memory(W, full)
        np.testing.assert_array_equal(W, simplified[False][0])
        np.testing.assert_array_equal(R, simplified[False][1])


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


def test_serial_sweep_derives_each_task_when_it_runs(monkeypatch):
    # a huge serial sweep starts its first block at once, with one block
    # derived ahead, so a Ctrl-C soon after returns a partial table
    import subnyq.harness as harness

    original, derived, at_first_task = harness.derive_trial_seed, [], []

    def counting(*args):
        derived.append(args)
        return original(*args)

    def interrupting(task, *args):
        at_first_task.append(len(derived))
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "derive_trial_seed", counting)
    monkeypatch.setattr(harness, "_run_task", interrupting)
    config = small_sweep(n_trials=1000, values=(10.0, 20.0))
    with pytest.raises(KeyboardInterrupt) as info:
        run_sweep(config)
    assert at_first_task == [2 * 25]  # blocks of 25 trials of 51 KB
    assert info.value.partial.records == ()


def noise_envelope_sweep(algorithms, bandwidth=0.4, n_trials=3):
    """A source-count sweep whose second source has a filtered-noise
    envelope of `bandwidth` band widths: its trials draw envelope
    coefficients before the noise."""
    base = replace(default_scenario(K=2, snr_db=20.0), n_snapshots=256)
    f_s = base.pattern.f_s
    noisy = SourceTruth(theta=-0.5, f_c=(6 + 0.3) * f_s, envelope="noise",
                        bandwidth=bandwidth * f_s)
    return SweepConfig(base=replace(base, sources=(base.sources[0], noisy)),
                       sweep_variable="n_sources", sweep_values=(1, 2),
                       n_trials=n_trials, algorithms=algorithms, master_seed=5)


@pytest.mark.parametrize("algorithms", [("JDFPI", "JDFSDPJ"),
                                        ("JDFSD-full", "JDFPI", "JDFSDPJ")],
                         ids=["simplified", "full"])
def test_noise_envelope_sweep_matches_per_trial_runs(algorithms):
    # the draws made ahead on the fill thread, and those made in pool
    # workers, are the ones each run_trial call makes for itself
    import subnyq.harness as harness

    config = noise_envelope_sweep(algorithms)
    points = [_scenario_for_value(config.base, "n_sources", v)
              for v in config.sweep_values]
    records = [run_trial(scenario, algorithm,
                         derive_trial_seed(config.master_seed, s_idx, trial),
                         sweep_value=value, trial_index=trial)
               for s_idx, (scenario, value) in enumerate(zip(points, config.sweep_values))
               for trial in range(config.n_trials)
               for algorithm in algorithms]
    bounds = [harness._point_bounds(scenario, algorithms) for scenario in points]
    per_trial = format_csv(harness._aggregate(config, records, bounds))
    assert sum(not r.failed for r in records) > len(records) // 2
    assert format_csv(run_sweep(config, workers=1)) == per_trial
    assert format_csv(run_sweep(config, workers=2)) == per_trial


def test_serial_sweep_draws_on_a_thread_that_ends_with_it(monkeypatch):
    import threading

    import subnyq.harness as harness

    before, fillers = threading.enumerate(), []
    original = harness._draws
    monkeypatch.setattr(harness, "_draws", lambda config, seeds, *a: fillers.append(
        (threading.current_thread(), len(seeds))) or original(config, seeds, *a))
    run_sweep(small_sweep(n_trials=3))
    assert [size for _, size in fillers] == [3, 3]  # one block a point
    assert threading.main_thread() not in {thread for thread, _ in fillers}
    assert threading.enumerate() == before


def test_serial_sweep_calls_public_functions_on_the_calling_thread(monkeypatch):
    # the fill thread only draws: every public function of the package,
    # wrapped where its callers look it up (as a call tracer wraps them),
    # runs on the calling thread, and synthesis still runs through them;
    # also when the tone signal is built in this sweep
    import inspect
    import sys
    import threading

    from subnyq import siggen

    siggen._tone_signal.cache_clear()
    threads = {}
    for module in ("subnyq.harness", "subnyq.estimators", "subnyq.siggen", "subnyq.crb"):
        for attr, fn in list(vars(sys.modules[module]).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or not fn.__module__.startswith("subnyq.")):
                continue
            monkeypatch.setattr(sys.modules[module], attr, lambda *a, _f=fn, _n=attr, **k:
                                threads.setdefault(_n, set()).add(threading.current_thread())
                                or _f(*a, **k))
    run_sweep(small_sweep(n_trials=20, algorithms=("JDFPI", "JDFSDPJ", "JDFSD-full")))
    assert {"assemble_full_snapshots", "sample_covariance", "jdfpi"} <= set(threads)
    assert set().union(*threads.values()) == {threading.main_thread()}


def test_serial_full_structure_sweep_holds_two_blocks_and_little_else():
    # a block's output is its noise buffer and W a view of it, so a serial
    # sweep holds the running block, the one drawn ahead and the
    # estimators' work
    import tracemalloc

    import subnyq.harness as harness

    config = small_sweep(n_trials=10, values=(20.0,),
                         algorithms=("JDFPI", "JDFSDPJ", "JDFSD-full"))
    run_sweep(config)  # fills the caches
    tracemalloc.start()
    try:
        run_sweep(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * harness.BLOCK_BYTES


def test_serial_source_count_sweep_with_every_pipeline_holds_little_over_two_blocks():
    # the short source-count sweep with the full structure runs blocks of
    # five trials of all M*P rows; W is a view of each, so a serial sweep
    # holds the running block, the one drawn ahead and the estimators' work
    import tracemalloc

    import subnyq.harness as harness

    config = small_sweep(n_trials=10, values=(1, 2, 3), variable="n_sources",
                         algorithms=harness.ALGORITHM_NAMES)
    run_sweep(config)  # fills the caches
    tracemalloc.start()
    try:
        run_sweep(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.15 * harness.BLOCK_BYTES


def test_serial_default_point_sweep_holds_two_blocks_and_less_than_one_more():
    # default-point blocks are two trials: a serial sweep holds the running
    # block's output, the one drawn ahead and the estimators' work, which
    # stays under one more block's worth (LS and the residual frequency's
    # temporaries peak at about 0.9 of it)
    import tracemalloc

    config = SweepConfig(base=default_scenario(K=3, snr_db=20.0), sweep_variable="snr_db",
                         sweep_values=(20.0,), n_trials=6)
    block = 2 * 12 * 4096 * np.dtype(complex).itemsize
    run_sweep(config)  # fills the caches
    tracemalloc.start()
    try:
        run_sweep(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * block


def test_raising_fill_leaves_no_thread():
    # the second point's noise envelope is narrower than one frequency bin:
    # its first draw raises the ConfigError of a per-trial run, after the
    # first point's trials ran with the next draw already in flight
    import threading

    before = threading.enumerate()
    config = noise_envelope_sweep(("JDFPI", "JDFSDPJ"), bandwidth=1e-6)
    with pytest.raises(ConfigError, match="below the frequency resolution"):
        run_trial(_scenario_for_value(config.base, "n_sources", 2), "JDFPI", 0)
    with pytest.raises(ConfigError, match="below the frequency resolution"):
        run_sweep(config)
    assert threading.enumerate() == before


def test_interrupted_serial_sweep_leaves_no_thread(monkeypatch):
    # a Ctrl-C in the third block waits for the draws in flight, at most one
    # block ahead, and returns the first two blocks' records with no thread
    # left
    import threading

    import subnyq.harness as harness

    before, started, ran = threading.enumerate(), [], []
    original_draws, original_task = harness._draws, harness._run_task
    monkeypatch.setattr(harness, "_draws",
                        lambda *a: started.append(a) or original_draws(*a))

    def interrupting(task, *args):
        if len(ran) == 2:
            raise KeyboardInterrupt
        ran.append(task)
        return original_task(task, *args)

    monkeypatch.setattr(harness, "_run_task", interrupting)
    with pytest.raises(KeyboardInterrupt) as info:
        run_sweep(small_sweep(n_trials=100))
    assert len(info.value.partial.records) == 2 * 25 * 2  # blocks of 25 trials
    assert len(started) <= 4
    assert threading.enumerate() == before


FAILING_STEP = {"JDFPI": "music_spatial", "JDFSDPJ": "jdfsdpj_search",
                "JDFSD-full": "jdfsd_full_search"}


@pytest.mark.parametrize("failure", ["peak_count", "ls_solve", "zero_sequence"])
def test_a_failing_trial_leaves_the_rest_of_its_block_unchanged(monkeypatch, failure):
    # the middle trial of a block of three fails: with an all-zero output (no
    # cost minimum), with a singular LS system (two equal steering columns)
    # or with a zero reconstructed source; it records the step it failed at,
    # and the other two records are those of run_trial on each seed alone
    import subnyq.estimators as estimators
    import subnyq.harness as harness

    base = replace(default_scenario(K=2, snr_db=20.0), n_snapshots=256)
    seeds = [11, 12, 13]
    output = harness.trial_output(base, harness.ALGORITHM_NAMES,
                                  harness._draws(base, seeds, True))
    if failure == "peak_count":
        output = {full: (X * [[[1.0]], [[0.0]], [[1.0]]], R * [[[1.0]], [[0.0]], [[1.0]]])
                  for full, (X, R) in output.items()}
    elif failure == "ls_solve":
        original = estimators.build_G_selected

        def singular(phis, *args):
            G = original(phis, *args)
            if np.ndim(phis) == 2 and len(phis) == 3:
                G[1, :, 1] = G[1, :, 0]
            return G
        monkeypatch.setattr(estimators, "build_G_selected", singular)
    else:
        original = estimators.ls_solve

        def zero_source(mat, obs):
            x, errors = original(mat, obs)
            if obs.shape[-1] == base.n_snapshots and len(x) == 3:
                x[1, 0] = 0.0
            return x, errors
        monkeypatch.setattr(estimators, "ls_solve", zero_source)
    for algorithm in harness.ALGORITHM_NAMES:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = run_trial(base, algorithm, seeds, 20.0, 0, lambda: output)
        assert not caught  # a failed trial's placeholders pair without a warning
        step = {"peak_count": FAILING_STEP[algorithm], "ls_solve": "ls_solve",
                "zero_sequence": "residual_frequency"}[failure]
        assert records[1].failed and records[1].failure_step == step
        assert records[1].phase_errors is None and records[1].freq_errors is None
        for i in (0, 2):
            alone = run_trial(base, algorithm, seeds[i], 20.0, i)
            assert not alone.failed and records[i] == replace(alone, errors=records[i].errors)
            np.testing.assert_array_equal(records[i].errors, alone.errors)


def test_sweep_with_a_short_last_block_is_the_same_at_one_and_two_workers():
    # 7 trials of 241 KB run in blocks of 5 and 2 per point, serially and in
    # the pool
    config = small_sweep(n_trials=7, values=(10.0, 20.0),
                         algorithms=("JDFPI", "JDFSDPJ", "JDFSD-full"))
    assert format_csv(run_sweep(config, workers=1)) == format_csv(run_sweep(config, workers=2))


@pytest.mark.parametrize("workers", [0, -3])
def test_nonpositive_workers_is_config_error(workers):
    with pytest.raises(ConfigError, match="workers"):
        run_sweep(small_sweep(n_trials=1, values=(20.0,)), workers=workers)


BLAS_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_blas_variables(monkeypatch):
    """A caller's thread settings: one variable set, one unset, one empty;
    returns them as os.environ.get reads them."""
    import os

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "")
    return {name: os.environ.get(name) for name in BLAS_CAPS}


def check_spawned_with_blas_caps(mp_context):
    """What a stand-in pool checks when it is built and when it maps: the
    workers are spawned, and BLAS runs one thread in each."""
    import os

    assert mp_context.get_start_method() == "spawn"
    assert {name: os.environ.get(name) for name in BLAS_CAPS} == dict.fromkeys(
        BLAS_CAPS, "1")


def test_pool_is_capped_at_cpu_count(monkeypatch):
    # a stand-in pool records its size and maps in this process, so no
    # worker process is started whatever the requested count; it checks the
    # spawn context and the BLAS caps, and the caller's settings come back
    import concurrent.futures
    import os

    sizes = []

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            check_spawned_with_blas_caps(mp_context)
            sizes.append(max_workers)
            self.mp_context = mp_context

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            check_spawned_with_blas_caps(self.mp_context)
            return map(fn, iterable)

    caller = set_blas_variables(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    config = small_sweep(n_trials=2, values=(20.0,))
    serial = format_csv(run_sweep(config))
    assert format_csv(run_sweep(config, workers=100_000)) == serial
    assert format_csv(run_sweep(config, workers=2)) == serial
    assert sizes == [3, 2]
    assert {name: os.environ.get(name) for name in BLAS_CAPS} == caller
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU
    assert format_csv(run_sweep(config, workers=4)) == serial
    assert sizes == [3, 2]


def test_pool_is_fed_one_window_at_a_time(monkeypatch):
    # a stand-in pool draws its tasks one at a time and runs them in this
    # process: a sweep of 10**12 trials hands each map call one bounded
    # window, in task order, and a Ctrl-C in the third window returns the
    # records of the first two; no task list is built, no process started
    import concurrent.futures
    import os

    import subnyq.harness as harness

    cap, windows = 1000, []

    class WindowPool:
        interrupt_at = 2  # windows handed over before the Ctrl-C; None: never

        def __init__(self, max_workers, mp_context):
            self.mp_context = mp_context

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            check_spawned_with_blas_caps(self.mp_context)
            if len(windows) == self.interrupt_at:
                raise KeyboardInterrupt
            drawn = []
            for task in iterable:
                drawn.append(task)
                assert len(drawn) <= cap, "the pool was handed every task"
            windows.append(drawn)
            return map(fn, drawn)

    caller = set_blas_variables(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", WindowPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "BLOCK_BYTES", 2 * 14592)  # two trials a block
    config = small_sweep(n_trials=10**12, values=(20.0,), algorithms=("JDFPI",),
                         n_snapshots=64)
    with pytest.raises(KeyboardInterrupt) as info:
        run_sweep(config, workers=2)
    # the caller's thread settings come back after the Ctrl-C too
    assert {name: os.environ.get(name) for name in BLAS_CAPS} == caller
    size = len(windows[0])
    assert len(windows) == 2 and len(windows[1]) == size
    # each task is a block of consecutive trials, numbered from task[4]
    trials = [task[4] + i for window in windows for task in window
              for i in range(len(task[2]))]
    assert trials == list(range(len(trials)))
    assert [r.trial_index for r in info.value.partial.records] == trials
    # windows that end inside the sweep leave the table as the serial path
    # writes it
    windows.clear()
    WindowPool.interrupt_at = None
    config = replace(config, n_trials=(size + 3) * 2 - 1)  # the last block short
    assert format_csv(run_sweep(config, workers=2)) == format_csv(run_sweep(config))
    assert [len(window) for window in windows] == [size, 3]


def test_run_sweep_parallel_matches_sequential():
    config = small_sweep(n_trials=2, values=(20.0,))
    seq = run_sweep(config, workers=1)
    par = run_sweep(config, workers=2)
    assert seq.rows == par.rows


def test_source_count_sweep_truncates_sources():
    base = default_scenario(K=3, snr_db=20.0)
    assert _scenario_for_value(base, "n_sources", 2).n_sources == 2
    with pytest.raises(ConfigError):
        _scenario_for_value(base, "n_sources", 9)


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
    for empty in ((), []):
        with pytest.raises(ConfigError, match="at least one algorithm"):
            check_algorithms(empty)
        with pytest.raises(ConfigError, match="at least one algorithm"):
            SweepConfig(base=base, sweep_variable="snr_db", sweep_values=(0,),
                        algorithms=empty)
    # columns 0, 2 and 4 of this coset matrix are dependent: JDFPI cannot
    # tell K=2 bands apart, the joint search is not checked
    pattern = MultiCosetPattern(L=6, offsets=(0, 1, 3))
    unidentifiable = ScenarioConfig(
        geom=ArrayGeometry(M=4, d=0.5, c_prop=1.0), pattern=pattern,
        sources=tuple(SourceTruth(theta=t, f_c=(b + 0.4) * pattern.f_s)
                      for t, b in ((0.3, 0), (-0.5, 4))),
        snr_db=20.0, n_snapshots=512)
    with pytest.raises(ConfigError, match="cannot identify"):
        check_algorithms(("JDFPI",), [unidentifiable])
    check_algorithms(("JDFSDPJ",), [unidentifiable])
    for fields in ({"n_trials": 2.5}, {"master_seed": 1.5}, {"n_trials": True}):
        with pytest.raises(ConfigError, match="integer"):
            SweepConfig(base=base, sweep_variable="snr_db", sweep_values=(0,),
                        **fields)
    config = SweepConfig(base=base, sweep_variable="snr_db", sweep_values=(0,),
                         n_trials=2.0, master_seed=np.int64(4))
    assert (type(config.n_trials), type(config.master_seed)) == (int, int)
    # a source count is an integer: 2.7 would run 2 sources but print 2.7
    assert SweepConfig(base=base, sweep_variable="n_sources",
                       sweep_values=(1, 2.0)).sweep_values == (1, 2.0)
    for value in (2.7, True, "2"):
        with pytest.raises(ConfigError, match="integer"):
            SweepConfig(base=base, sweep_variable="n_sources",
                        sweep_values=(1, value))


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


@pytest.mark.parametrize("body, line", [
    ("", 0),
    ("\nsnr_db,10,JDFPI,phase_rmse,1e-3,1e-4,3,3\n", 2),
    ("snr_db,10,JDFPI,phase_rmse,1e-3,1e-4,3\n", 2),
    ("snr_db,10,JDFPI,phase_rmse,1e-3,1e-4,3,3,3\n", 2),
    ("snr_db,10,JDFPI,phase_rmse,1e-3,1e-4,3,3\nsnr_db,10,JDFPI,freq_rmse,x,1e-4,3,3\n", 3),
    ("snr_db,10,JDFPI,phase_rmse,1e-3,1e-4,3.5,3\n", 2),
], ids=["empty", "blank_row", "short_row", "long_row", "non_numeric", "fractional_count"])
def test_read_csv_rejects_a_malformed_file_naming_its_line(tmp_path, body, line):
    from subnyq.harness import CSV_HEADER

    path = tmp_path / "bad.csv"
    path.write_text(body and ",".join(CSV_HEADER) + "\n" + body)
    with pytest.raises(ConfigError, match=f"{path.name}, line {line}:" if line
                       else "unexpected CSV header None"):
        read_csv(path)


def test_format_value():
    assert _format_value(10.0) == "10"
    assert _format_value(2) == "2"
    assert _format_value(12.5) == "12.5"


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
    # every absent optional key takes the dataclass default
    required = {
        "geometry": {"M": 6, "d": 0.5},
        "pattern": {"L": 11, "offsets": [0, 1, 4, 6]},
        "sources": [{"theta": 0.4, "f_c": 0.31}],
    }
    assert scenario_from_dict(required) == ScenarioConfig(
        geom=ArrayGeometry(M=6, d=0.5),
        pattern=MultiCosetPattern(L=11, offsets=(0, 1, 4, 6)),
        sources=(SourceTruth(theta=0.4, f_c=0.31),))
    # a float equal to an integer is that integer
    floats = scenario_dict()
    floats["geometry"]["M"] = 6.0
    floats["pattern"].update(L=11.0, offsets=[0.0, 1.0, 4.0, 6.0])
    floats.update(n_snapshots=256.0, rng_seed=3.0)
    assert scenario_from_dict(floats) == scenario_from_dict(scenario_dict())


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("geometry"),
    lambda d: d["geometry"].pop("d"),
    lambda d: d["pattern"].pop("offsets"),
    lambda d: d["sources"][0].pop("theta"),
    lambda d: d["pattern"].update(offsets=[3, 1]),
    lambda d: d["sources"][0].update(amplitude="big"),
    lambda d: d["sources"][0].update(f_c=2.0),
    # integer fields take integers (8 or 8.0), nothing cut off or coerced
    lambda d: d["geometry"].update(M=6.9),
    lambda d: d["pattern"].update(L=11.5),
    lambda d: d["pattern"].update(offsets=[0, 1.5, 4, 6]),
    lambda d: d["pattern"].update(offsets=[0, 1, "4", 6]),
    lambda d: d.update(n_snapshots=256.5),
    lambda d: d.update(n_snapshots="256"),
    lambda d: d.update(rng_seed=3.5),
    lambda d: d.update(rng_seed=False),
])
def test_scenario_from_dict_rejects_bad_input(mutate):
    data = scenario_dict()
    mutate(data)
    with pytest.raises(ConfigError):
        scenario_from_dict(data)


def test_dataclasses_convert_their_real_fields():
    scenario = ScenarioConfig(
        geom=ArrayGeometry(M=6, d=1, c_prop=np.float64(2.0)),
        pattern=MultiCosetPattern(L=11, offsets=(0, 1, 4, 6), f_N=3),
        sources=(SourceTruth(theta=np.float64(0.4), f_c=1, envelope="noise",
                             bandwidth=np.float32(0.0625)),),
        snr_db=10)
    source = scenario.sources[0]
    values = (scenario.geom.d, scenario.geom.c_prop, scenario.pattern.f_N,
              source.theta, source.f_c, source.bandwidth, scenario.snr_db)
    assert values == (1.0, 2.0, 3.0, 0.4, 1.0, 0.0625, 10.0)
    assert all(type(value) is float for value in values)


@pytest.mark.parametrize("path", [
    ("base",), ("base", "geometry"), ("base", "pattern"), ("base", "sources", 1),
    (),
], ids=["scenario", "geometry", "pattern", "source", "sweep"])
def test_unknown_key_is_config_error_naming_it(path):
    # an unlisted key used to be dropped, so a misspelt one ran the default
    sweep = {"base": scenario_dict(), "sweep_variable": "snr_db",
             "sweep_values": [0, 10]}
    section = sweep
    for key in path:
        section = section[key]
    section["typo_key"] = 1
    unexpected = "unexpected keyword argument 'typo_key'"
    with pytest.raises(ConfigError, match=unexpected):
        sweep_from_dict(sweep)
    if path:
        with pytest.raises(ConfigError, match=unexpected):
            scenario_from_dict(sweep["base"])


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
    assert sweep_from_dict(data | {"n_trials": 4.0, "master_seed": 99.0}) == sweep
    for bad in ({"n_trials": 4.5}, {"n_trials": True}, {"master_seed": 1.5},
                {"master_seed": "99"}, {"sweep_variable": "n_sources",
                                        "sweep_values": [1, 1.5]}):
        with pytest.raises(ConfigError, match="integer"):
            sweep_from_dict(data | bad)
    # every absent optional key takes the dataclass default
    required = {"base": scenario_dict(), "sweep_variable": "n_sources",
                "sweep_values": [1, 2]}
    assert sweep_from_dict(required) == SweepConfig(
        base=scenario_from_dict(scenario_dict()), sweep_variable="n_sources",
        sweep_values=(1, 2))


def test_default_sweep_shapes():
    snr = default_sweep("snr_db")
    assert snr.sweep_variable == "snr_db" and len(snr.sweep_values) >= 3
    k = default_sweep("n_sources")
    assert k.sweep_values == (1, 2, 3)


def test_sweep_rejects_unidentifiable_jdfpi_points():
    # columns 0, 2 and 4 of this coset matrix are dependent: two sources
    # have more than one band support, one source has one
    pattern = MultiCosetPattern(L=6, offsets=(0, 1, 3))
    base = ScenarioConfig(
        geom=ArrayGeometry(M=4, d=0.5, c_prop=1.0), pattern=pattern,
        sources=(SourceTruth(theta=0.3, f_c=0.4 * pattern.f_s),
                 SourceTruth(theta=-0.5, f_c=4.4 * pattern.f_s)),
        snr_db=20.0, n_snapshots=512)
    for variable, values in (("snr_db", (10.0, 20.0)), ("n_sources", (1, 2))):
        with pytest.raises(ConfigError, match="cannot identify K=2 bands"):
            SweepConfig(base=base, sweep_variable=variable, sweep_values=values)
    SweepConfig(base=base, sweep_variable="n_sources", sweep_values=(1,))
    SweepConfig(base=base, sweep_variable="snr_db", sweep_values=(20.0,),
                algorithms=("JDFSDPJ",))
