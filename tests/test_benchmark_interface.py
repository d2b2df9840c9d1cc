"""The names `bench/run.py` calls, in the call shapes it uses.

The benchmark imports the package from the source tree it measures, so a
renamed or deleted name breaks it only when it runs; these calls break first.
"""

from dataclasses import replace

import numpy as np
import pytest

from subnyq import crb, errors, estimators, harness, siggen

# the module attributes whose calls `bench/run.py` reads as spans
TRACED = {
    harness: ("run_trial", "assemble_snapshots", "assemble_full_snapshots",
              "jdfpi", "jdfsdpj", "jdfsd_full", "sample_covariance",
              "match_estimates", "crb_phase", "freq_crb_numerical"),
    estimators: ("music_spatial", "decompose", "ctf_support", "ls_solve",
                 "residual_frequency"),
}


def test_sweep_names(tmp_path):
    base = replace(harness.default_scenario(K=1, snr_db=20.0), n_snapshots=64)
    for algorithm in ("JDFPI", "JDFSDPJ"):
        assert not harness.run_trial(base, algorithm, 0).failed
    config = harness.SweepConfig(
        base=base, sweep_variable="snr_db", sweep_values=(20.0,), n_trials=1,
        algorithms=("JDFPI", "JDFSDPJ"), master_seed=0)
    table = harness.run_sweep(config, workers=1)
    path = tmp_path / "sweep.csv"
    harness.emit_csv(table, path)
    rows = harness.read_csv(path)
    assert len(rows) == len(table.rows) == 2 * 1 * 2
    assert all(r.n_trials == 1 for r in rows)
    assert "phase_rmse" in {r.metric for r in table.rows}


def test_bound_names():
    base = harness.default_scenario(K=1, snr_db=20.0)
    f_s = base.pattern.f_s
    sources = (siggen.SourceTruth(theta=0.3, f_c=2.5 * f_s),
               siggen.SourceTruth(theta=-0.4, f_c=7.5 * f_s))
    inp = crb.crb_input_from_scenario(replace(base, sources=sources,
                                              n_snapshots=256))
    for bound in (crb.crb_phase(inp).crb_matrix,
                  crb.crb_phase(inp, full_structure=True).crb_matrix,
                  crb.freq_crb_numerical(inp),
                  crb.freq_crb_numerical(inp, full_structure=True)):
        assert bound.shape == (2, 2) and np.all(np.diag(bound).real > 0)
    # the benchmark counts a bound table that raises SubnyqError as failed
    with pytest.raises(errors.SubnyqError):
        crb.crb_input_from_scenario(replace(base, snr_db=None))


def test_traced_call_paths(monkeypatch):
    # the benchmark times each layer by wrapping these attributes; a call
    # that stops going through one makes its metric read 0
    fired = set()
    for module, names in TRACED.items():
        for name in names:
            original = getattr(module, name)

            def spy(*args, _f=original, _name=f"{module.__name__}.{name}", **kwargs):
                fired.add(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
    base = replace(harness.default_scenario(K=2, snr_db=20.0), n_snapshots=256)
    # the simplified output is assembled on its own only when JDFSD-full,
    # whose full output holds it, is not run
    for algorithms in (("JDFPI", "JDFSDPJ"), harness.ALGORITHM_NAMES):
        table = harness.run_sweep(harness.SweepConfig(
            base=base, sweep_variable="snr_db", sweep_values=(20.0,),
            n_trials=1, algorithms=algorithms))
        assert not any(r.failed for r in table.records)
    assert fired == {f"{module.__name__}.{name}"
                     for module, names in TRACED.items() for name in names}
