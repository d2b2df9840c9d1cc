"""Command-line interface: subcommands, flags, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subnyq
from subnyq import harness
from subnyq.cli import EXIT_CONFIG, EXIT_ESTIMATION, EXIT_IO, EXIT_OK, main
from subnyq.harness import read_csv
from subnyq.siggen import load_snapshots


def scenario_json(tmp_path, **overrides):
    data = {
        "geometry": {"M": 6, "d": 0.5, "c_prop": 1.0},
        "pattern": {"L": 11, "offsets": [0, 1, 4, 6], "f_N": 1.0},
        "sources": [
            {"theta": 0.5, "f_c": 0.31},
            {"theta": -0.7, "f_c": 0.79},
        ],
        "snr_db": 20.0,
        "n_snapshots": 256,
        "rng_seed": 1,
    }
    data.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def python(*args):
    """A fresh interpreter on this checkout's subnyq: LAPACK writes its
    complaints to the process's stderr, which capsys does not see."""
    src = Path(subnyq.__file__).parents[1]
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)


def sweep_json(tmp_path, variable="snr_db", values=(10.0, 20.0), **overrides):
    data = {
        "base": json.loads((tmp_path / "scenario.json").read_text()),
        "sweep_variable": variable,
        "sweep_values": list(values),
        "n_trials": 2,
        "algorithms": ["JDFSDPJ"],
        "master_seed": 5,
    }
    data.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_single_runs_both_algorithms(tmp_path, capsys):
    config = scenario_json(tmp_path)
    assert main(["single", "--config", config]) == EXIT_OK
    out = capsys.readouterr().out
    assert "JDFPI" in out and "JDFSDPJ" in out


def test_single_algorithm_selection(tmp_path, capsys):
    config = scenario_json(tmp_path)
    assert main(["single", "--config", config,
                 "--algorithms", "JDFSDPJ"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "JDFSDPJ" in out and "JDFPI" not in out


def test_single_seed_override_changes_nothing_but_noise(tmp_path, capsys):
    config = scenario_json(tmp_path)
    main(["single", "--config", config, "--seed", "3"])
    first = capsys.readouterr().out
    main(["single", "--config", config, "--seed", "3"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("algorithms,structures", [
    ("JDFPI,JDFSDPJ", ["assemble_snapshots"]),
    ("JDFSD-full,JDFPI", ["assemble_full_snapshots"]),
])
def test_single_synthesizes_once(capsys, monkeypatch, algorithms, structures):
    # the listed algorithms share one receiver output and one covariance per
    # structure, and print what each prints when it runs alone
    alone = ""
    for name in algorithms.split(","):
        main(["single", "--seed", "3", "--algorithms", name])
        alone += capsys.readouterr().out
    calls = []
    for name in ("assemble_snapshots", "assemble_full_snapshots",
                 "sample_covariance"):
        monkeypatch.setattr(harness, name, lambda *a, _f=getattr(harness, name),
                            _name=name: calls.append(_name) or _f(*a))
    assert main(["single", "--seed", "3", "--algorithms", algorithms]) == EXIT_OK
    assert capsys.readouterr().out == alone
    covariances = ["sample_covariance"] * (1 + ("JDFSD-full" in algorithms))
    assert sorted(calls) == sorted(structures + covariances)


def test_unknown_algorithm_is_config_error(tmp_path, capsys):
    config = scenario_json(tmp_path)
    # the whole list is checked before any algorithm runs
    for names in ("NOPE", "JDFSDPJ,NOPE"):
        assert main(["single", "--config", config,
                     "--algorithms", names]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "configuration error" in captured.err and captured.out == ""


def test_coincident_coset_columns_are_config_error(tmp_path, capsys):
    # columns l and l + 4 of this pattern's coset matrix are identical
    config = scenario_json(tmp_path, pattern={"L": 12, "offsets": [0, 3, 6, 9]})
    assert main(["single", "--config", config]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "coincide" in err and "Traceback" not in err


@pytest.mark.parametrize("command,sweep", [
    ("crb", None),
    ("sweep-snr", {}),
    ("sweep-k", {"variable": "n_sources", "values": (1, 2)}),
], ids=["crb", "sweep_snr", "sweep_k"])
def test_coincident_sources_bound_is_config_error(tmp_path, capsys, command, sweep):
    # two sources at the same DOA and carrier: the bound is undefined
    same = {"theta": 0.3, "f_c": 0.177}
    config = scenario_json(tmp_path, sources=[same, same])
    if sweep is not None:
        config = sweep_json(tmp_path, **sweep)
    assert main([command, "--config", config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_zero_amplitude_source_bound_is_config_error(tmp_path, capsys):
    # a silent source in a noisy scenario has no bound
    config = scenario_json(tmp_path, sources=[
        {"theta": 0.5, "f_c": 0.31},
        {"theta": -0.7, "f_c": 0.79, "amplitude": 0.0},
    ])
    assert main(["crb", "--config", config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_weak_source_bound_is_finite(tmp_path, capsys):
    # a source 126 dB below the other still has a bound of its own: the
    # phase bound is singular only through the geometry
    config = scenario_json(tmp_path, sources=[
        {"theta": 0.5, "f_c": 0.31},
        {"theta": -0.7, "f_c": 0.79, "amplitude": 5e-7},
    ])
    assert main(["crb", "--config", config]) == EXIT_OK
    captured = capsys.readouterr()
    rows = [line.split()[1:] for line in captured.out.splitlines()[1:]]
    assert len(rows) == 2 and np.all(np.isfinite(np.array(rows, dtype=float)))
    assert captured.err == ""


@pytest.mark.parametrize("command,scenario,sweep", [
    ("single", {"geometry": {"M": 6.9, "d": 0.5, "c_prop": 1.0}}, None),
    ("single", {"pattern": {"L": 11, "offsets": [0, 1.5, 4, 6]}}, None),
    ("single", {"n_snapshots": 256.5}, None),
    ("sweep-k", {}, {"variable": "n_sources", "values": (1, 2.7)}),
    ("sweep-snr", {}, {"n_trials": 2.5}),
], ids=["M", "offset", "n_snapshots", "n_sources_value", "n_trials"])
def test_fractional_integer_is_config_error(tmp_path, capsys, command, scenario,
                                            sweep):
    config = scenario_json(tmp_path, **scenario)
    if sweep is not None:
        config = sweep_json(tmp_path, **sweep)
    assert main([command, "--config", config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "integer" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command,scenario,sweep", [
    # float() would read these as d = 1, theta = 0.5 rad and 20 dB
    ("crb", {"geometry": {"M": 6, "d": True, "c_prop": 1.0},
             "sources": [{"theta": "0.5", "f_c": 0.31}, {"theta": -0.7, "f_c": 0.79}],
             "snr_db": "20"}, None),
    ("crb", {"geometry": {"M": 6, "d": 0.5, "c_prop": "1"}}, None),
    ("crb", {"pattern": {"L": 11, "offsets": [0, 1, 4, 6], "f_N": True}}, None),
    ("single", {"sources": [{"theta": True, "f_c": 0.31}]}, None),
    ("single", {"sources": [{"theta": 0.5, "f_c": 0.31, "amplitude": True}]}, None),
    ("single", {"sources": [{"theta": 0.5, "f_c": 0.31, "amplitude": [1, "0"]}]},
     None),
    ("single", {"sources": [{"theta": 0.5, "f_c": 0.31, "envelope": "noise",
                             "bandwidth": "0.01"}]}, None),
    ("single", {"snr_db": True}, None),
    ("sweep-snr", {}, {"values": ["10"]}),
], ids=["d_theta_snr", "c_prop_string", "f_N_true", "theta_true", "amplitude_true",
        "amplitude_part_string", "bandwidth_string", "snr_true", "sweep_value_string"])
def test_non_number_real_field_is_config_error(tmp_path, capsys, command, scenario,
                                               sweep):
    config = scenario_json(tmp_path, **scenario)
    if sweep is not None:
        config = sweep_json(tmp_path, **sweep)
    assert main([command, "--config", config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "number" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("names", [",", " ", ""], ids=["comma", "blank", "empty"])
def test_empty_algorithm_list_is_config_error(tmp_path, capsys, names):
    # a sweep rejected it already; `single` ran nothing and exited 0
    config = scenario_json(tmp_path)
    assert main(["single", "--config", config, "--algorithms", names]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "at least one algorithm" in captured.err and captured.out == ""


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_is_config_error(tmp_path, capsys, workers):
    scenario_json(tmp_path)
    config = sweep_json(tmp_path)
    assert main(["sweep-snr", "--config", config,
                 "--workers", workers]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "workers" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["single", "crb", "sweep-snr"])
def test_no_sources_is_config_error(tmp_path, capsys, command):
    config = scenario_json(tmp_path, sources=[])
    if command == "sweep-snr":
        config = sweep_json(tmp_path)
    assert main([command, "--config", config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["single", "sweep-snr"])
def test_repeated_algorithm_is_config_error(tmp_path, capsys, command):
    config = scenario_json(tmp_path)
    if command == "sweep-snr":
        config = sweep_json(tmp_path)
    assert main([command, "--config", config,
                 "--algorithms", "JDFSDPJ,JDFSDPJ"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "more than once" in captured.err and captured.out == ""


def test_repeated_sweep_value_is_config_error(tmp_path, capsys):
    scenario_json(tmp_path)
    config = sweep_json(tmp_path, values=(20, 20.0))
    assert main(["sweep-snr", "--config", config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "more than once" in captured.err and captured.out == ""


# each fails the size check before any array is allocated
@pytest.mark.parametrize("command", ["single", "crb"])
@pytest.mark.parametrize("overrides", [
    {"n_snapshots": 1e300},
    {"n_snapshots": 2**62},
    {"pattern": {"L": 1e300, "offsets": [0, 1, 4, 6], "f_N": 1.0}},
], ids=["n_snapshots_1e300", "n_snapshots_2_62", "L_1e300"])
def test_sizes_beyond_numpy_limit_are_config_errors(tmp_path, capsys, command,
                                                    overrides):
    config = scenario_json(tmp_path, **overrides)
    assert main([command, "--config", config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "size limit" in captured.err and captured.out == ""


# sizes below numpy's limit can still exceed memory; a stand-in builder
# raises as such an allocation would, so nothing large is allocated
@pytest.mark.parametrize("command,builder", [
    ("single", "subnyq.estimators.build_B"),
    ("sweep-snr", "subnyq.estimators.build_B"),
    ("crb", "subnyq.crb.build_G_selected"),
    ("dump-snapshots", "subnyq.cli.assemble_snapshots"),
])
def test_memory_error_is_config_error(tmp_path, capsys, monkeypatch, command,
                                      builder):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(builder, out_of_memory)
    config = scenario_json(tmp_path)
    if command == "sweep-snr":
        config = sweep_json(tmp_path, algorithms=["JDFPI"])
    args = [command, "--config", config]
    if command == "dump-snapshots":
        args += ["--out", str(tmp_path / "w.snyq")]
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "do not fit in memory" in captured.err and captured.out == ""


# JSON's 1e400 parses to float("inf"), which json.dumps writes as Infinity
INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("command,scenario,sweep", [
    ("single", {"geometry": {"M": INF, "d": 0.5, "c_prop": 1.0}}, None),
    ("single", {"geometry": {"M": 6, "d": NAN, "c_prop": 1.0}}, None),
    ("single", {"n_snapshots": INF}, None),
    ("single", {"snr_db": NAN}, None),
    ("single", {"sources": [{"theta": 0.5, "f_c": 0.31, "amplitude": [INF, 0]}]},
     None),
    ("single", {"sources": [{"theta": 0.5, "f_c": 0.31, "envelope": "noise",
                             "bandwidth": INF}]}, None),
    ("single", {"rng_seed": -1}, None),
    ("sweep-snr", {}, {"values": [NAN]}),
    ("sweep-snr", {}, {"values": [None]}),
    ("sweep-snr", {}, {"master_seed": -1}),
    ("sweep-snr", {}, {"n_trials": INF}),
], ids=["M_inf", "d_nan", "n_snapshots_inf", "snr_nan", "amplitude_inf",
        "bandwidth_inf", "rng_seed_negative", "sweep_value_nan", "sweep_value_null",
        "master_seed_negative", "n_trials_inf"])
def test_non_finite_or_negative_numbers_are_config_errors(tmp_path, capsys, command,
                                                          scenario, sweep):
    config = scenario_json(tmp_path, **scenario)
    if sweep is not None:
        config = sweep_json(tmp_path, **sweep)
    assert main([command, "--config", config]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


@pytest.mark.parametrize("snr_db", [-4000.0, 4000.0, -3000.0, 3000.0])
def test_extreme_snr_is_config_error(tmp_path, snr_db):
    # the noise power over- or underflows, or the Fisher matrix does; LAPACK
    # writes its complaints to the process's stderr, hence the subprocess
    proc = python("-m", "subnyq.cli", "crb", "--config",
                  scenario_json(tmp_path, snr_db=snr_db))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("configuration error")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


@pytest.mark.parametrize("snr_db", [-3070.0, -3080.0])
def test_single_at_overflowing_noise_is_config_error(tmp_path, snr_db):
    # the power ratio is finite, but noise of about 1e307 overflows the
    # sample covariance, which no eigensolver takes
    proc = python("-m", "subnyq.cli", "single", "--config",
                  scenario_json(tmp_path, snr_db=snr_db))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("configuration error")
    assert "overflows the sample covariance" in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


@pytest.mark.parametrize("command", ["single", "crb", "sweep-snr", "dump-snapshots"])
@pytest.mark.parametrize("overrides, named", [
    ({"snr_db": -3085.0}, "SNR -3085.0 dB"),
    ({"sources": [{"theta": 0.5, "f_c": 0.31, "amplitude": 1e200}]}, "amplitude (1e+200+0j)"),
])
def test_overflowing_power_is_config_error(tmp_path, command, overrides, named):
    # at -3085 dB the power ratio 3.2e-309 is finite but the noise power is
    # not; an amplitude of 1e200 has no finite power |a|^2
    config = scenario_json(tmp_path, **overrides)
    out = tmp_path / "snapshots.bin"
    args = {"sweep-snr": ["--config", sweep_json(tmp_path)],
            "dump-snapshots": ["--config", config, "--out", str(out)]}
    proc = python("-m", "subnyq.cli", command, *args.get(command, ["--config", config]))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("configuration error") and named in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""
    assert not out.exists()


def test_import_loads_no_process_pool():
    # the pool's modules load only when a sweep runs with workers > 1
    proc = python("-c", "import sys, subnyq, subnyq.cli; print(sorted(m for m in "
                  "('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_package_import_loads_no_numpy():
    # the package re-exports nothing, so `subnyq.cli` runs before numpy loads
    proc = python("-c", "import sys, subnyq; print('numpy' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout == "False\n"


BLAS_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("outside", [{}, {"OPENBLAS_NUM_THREADS": "4"}],
                         ids=["unset", "openblas_4"])
def test_cli_import_sets_unset_blas_variables(outside):
    # a fresh interpreter, since this one loaded numpy and subnyq.cli
    # already; a value set outside wins, each unset one becomes "1"
    src = Path(subnyq.__file__).parents[1]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_CAPS}
    code = f"import os, subnyq.cli; print([os.environ.get(n) for n in {BLAS_CAPS}])"
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**env, **outside, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == f"{[outside.get(n, '1') for n in BLAS_CAPS]}\n"


def test_import_loads_no_numpy_polynomial():
    # the phase search builds its rooting maps from integer binomials, so
    # neither the import nor a search loads numpy.polynomial
    proc = python("-c", "import sys, numpy as np, subnyq, subnyq.cli; "
                  "a = subnyq.model.build_A([0.5], 4); "
                  "subnyq.estimators.music_spatial(a @ a.conj().T + np.eye(4), 1); "
                  "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_single_rejects_unidentifiable_jdfpi(tmp_path, capsys):
    # columns 0, 2 and 4 of this coset matrix are dependent: the bands of
    # two sources are not determined by the branch data
    pattern = {"L": 6, "offsets": [0, 1, 3]}
    sources = [{"theta": 0.3, "f_c": 0.4 / 6}, {"theta": -0.5, "f_c": 4.4 / 6}]
    config = scenario_json(tmp_path, pattern=pattern, sources=sources,
                           geometry={"M": 4, "d": 0.5, "c_prop": 1.0})
    for algorithms in ("JDFPI", "JDFSDPJ,JDFPI"):
        assert main(["single", "--config", config,
                     "--algorithms", algorithms]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "cannot identify K=2 bands" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
    assert main(["single", "--config", config, "--algorithms", "JDFSDPJ"]) == EXIT_OK


def test_misspelt_key_is_config_error(tmp_path, capsys):
    # misspelt keys used to be dropped: in place of the right ones, the run
    # took N = 4096 at 10 dB and exited 0
    config = scenario_json(tmp_path, n_snapshot=256, snr=0)
    assert main(["single", "--config", config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "'n_snapshot'" in captured.err
    assert captured.out == ""


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["single", "--config", str(path)]) == EXIT_CONFIG


def test_missing_config_file_is_io_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["single", "--config", missing]) == EXIT_IO
    assert "I/O error" in capsys.readouterr().err


def test_estimation_failure_exit_code(tmp_path, capsys):
    # a zero-amplitude noiseless source yields all-zero snapshots, on which
    # every pipeline step fails
    config = scenario_json(
        tmp_path, snr_db=None,
        sources=[{"theta": 0.5, "f_c": 0.31, "amplitude": 0.0}],
    )
    assert main(["single", "--config", config,
                 "--algorithms", "JDFPI"]) == EXIT_ESTIMATION
    assert "failed at step" in capsys.readouterr().err


def test_sweep_snr_writes_csv(tmp_path, capsys):
    scenario_json(tmp_path)
    sweep = sweep_json(tmp_path)
    out = tmp_path / "result.csv"
    assert main(["sweep-snr", "--config", sweep, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert {r.sweep_value for r in rows} == {10.0, 20.0}
    assert {r.algorithm for r in rows} == {"JDFSDPJ"}


def test_sweep_snr_stdout_when_no_out(tmp_path, capsys):
    scenario_json(tmp_path)
    sweep = sweep_json(tmp_path, values=(20.0,))
    assert main(["sweep-snr", "--config", sweep]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("sweep_var,")
    assert "JDFSDPJ" in out


@pytest.mark.parametrize("command,variable,values", [
    ("sweep-snr", "snr_db", (10.0, 20.0)),
    ("sweep-k", "n_sources", (1, 2)),
])
def test_sweep_stdout_equals_out_file(tmp_path, capsys, command, variable, values):
    scenario_json(tmp_path)
    sweep = sweep_json(tmp_path, variable=variable, values=values)
    out = tmp_path / "r.csv"
    assert main([command, "--config", sweep, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main([command, "--config", sweep]) == EXIT_OK
    assert capsys.readouterr().out == out.read_text()


def test_sweep_trials_and_algorithms_overrides(tmp_path):
    scenario_json(tmp_path)
    sweep = sweep_json(tmp_path, values=(20.0,))
    out = tmp_path / "r.csv"
    assert main(["sweep-snr", "--config", sweep, "--out", str(out),
                 "--trials", "1", "--algorithms", "JDFPI,JDFSDPJ"]) == EXIT_OK
    rows = read_csv(out)
    assert {r.algorithm for r in rows} == {"JDFPI", "JDFSDPJ"}
    assert all(r.n_trials == 1 for r in rows)


def test_sweep_k_checks_variable(tmp_path, capsys):
    scenario_json(tmp_path)
    sweep = sweep_json(tmp_path, variable="snr_db")
    assert main(["sweep-k", "--config", sweep]) == EXIT_CONFIG


def test_sweep_k_runs(tmp_path):
    scenario_json(tmp_path)
    sweep = sweep_json(tmp_path, variable="n_sources", values=(1, 2))
    out = tmp_path / "k.csv"
    assert main(["sweep-k", "--config", sweep, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert {r.sweep_value for r in rows} == {1.0, 2.0}


def test_crb_subcommand(tmp_path, capsys):
    config = scenario_json(tmp_path)
    assert main(["crb", "--config", config]) == EXIT_OK
    out = capsys.readouterr().out
    assert "phase_std(sim)" in out
    # noiseless scenarios have no bound
    noiseless = scenario_json(tmp_path, snr_db=None)
    assert main(["crb", "--config", noiseless]) == EXIT_CONFIG


def test_crb_takes_no_seed(capsys):
    # the bounds draw nothing: a seed would be accepted and ignored
    with pytest.raises(SystemExit) as info:
        main(["crb", "--seed", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_dump_snapshots_round_trip(tmp_path, capsys):
    config = scenario_json(tmp_path)
    out = tmp_path / "w.snyq"
    assert main(["dump-snapshots", "--config", config, "--out", str(out),
                 "--seed", "42"]) == EXIT_OK
    W, seed = load_snapshots(out)
    assert seed == 42
    assert W.shape == (6 + 4 - 1, 256)
    assert np.all(np.isfinite(W))


def test_dump_snapshots_unwritable_path_is_io_error(tmp_path, capsys):
    config = scenario_json(tmp_path)
    bad = str(tmp_path / "no_such_dir" / "w.snyq")
    assert main(["dump-snapshots", "--config", config, "--out", bad]) == EXIT_IO


def test_default_scenario_used_without_config(capsys):
    assert main(["crb"]) == EXIT_OK
    assert "freq_std" in capsys.readouterr().out
