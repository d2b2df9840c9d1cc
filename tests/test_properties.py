"""Property-based tests over the valid scenario space (Hypothesis)."""

import contextlib
import io
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from helpers import random_scenario  # noqa: E402
from subnyq.cli import (  # noqa: E402
    EXIT_CONFIG,
    EXIT_ESTIMATION,
    EXIT_IO,
    EXIT_OK,
    main,
)
from subnyq.estimators import (  # noqa: E402
    jdfpi,
    jdfsd_full,
    jdfsdpj,
    sample_covariance,
)
from subnyq.harness import (  # noqa: E402
    ALGORITHM_NAMES,
    SweepConfig,
    format_csv,
    match_estimates,
    run_sweep,
    run_trial,
)
from subnyq.siggen import assemble_full_snapshots, assemble_snapshots  # noqa: E402


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_noiseless_exact_recovery_for_every_pipeline(seed):
    config = random_scenario(np.random.default_rng(seed), snr_db=None,
                             n_snapshots=128)
    bands = sorted(config.band_of(k) for k in range(config.n_sources))
    W, full = assemble_snapshots(config), assemble_full_snapshots(config)
    R = sample_covariance(W)
    for result in (jdfpi(W, R, config), jdfsdpj(W, R, config),
                   jdfsd_full(full, sample_covariance(full), config)):
        phase_err, freq_err = match_estimates(config, result)
        assert np.max(np.abs(phase_err)) < 1e-6, result.algorithm
        assert np.max(np.abs(freq_err)) < 1e-8 * config.pattern.f_N, result.algorithm
        assert sorted(result.band) == bands, result.algorithm


# low-SNR trials may warn about pairing; only the CSV bytes matter here
@pytest.mark.filterwarnings("ignore:pairing confidence low")
@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sweep_csv_identical_at_one_and_two_workers(seed):
    rng = np.random.default_rng(seed)
    config = SweepConfig(
        base=random_scenario(rng, snr_db=10.0, n_snapshots=64),
        sweep_variable="snr_db", sweep_values=(0.0, 20.0), n_trials=2,
        algorithms=("JDFPI", "JDFSDPJ", "JDFSD-full"),
        master_seed=int(rng.integers(2**31)),
    )
    assert (format_csv(run_sweep(config, workers=1))
            == format_csv(run_sweep(config, workers=2)))


# low-SNR trials may warn about pairing; the records are compared
@pytest.mark.filterwarnings("ignore:pairing confidence low")
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       snr_db=st.sampled_from([-10.0, -5.0, 0.0, 10.0, 30.0, None]),
       n_snapshots=st.sampled_from([64, 128, 256, 512]),
       size=st.integers(min_value=2, max_value=6))
def test_block_records_equal_single_trial_records(seed, snr_db, n_snapshots, size):
    # a block of trials run through the pipelines together gives, field for
    # field and bit for bit, the record run_trial gives for each seed alone
    rng = np.random.default_rng(seed)
    base = random_scenario(rng, snr_db=snr_db, n_snapshots=n_snapshots)
    seeds = [int(s) for s in rng.integers(0, 2**63, size)]
    for algorithm in ALGORITHM_NAMES:
        block = run_trial(base, algorithm, seeds, sweep_value=1.5, trial_index=7)
        assert len(block) == size
        for i, (got, s) in enumerate(zip(block, seeds)):
            want = run_trial(base, algorithm, s, sweep_value=1.5, trial_index=7 + i)
            assert ((got.sweep_value, got.algorithm, got.trial_index, got.seed,
                     got.failed, got.failure_step)
                    == (want.sweep_value, want.algorithm, want.trial_index, want.seed,
                        want.failed, want.failure_step))
            for a, b in ((got.phase_errors, want.phase_errors),
                         (got.freq_errors, want.freq_errors)):
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)


# A small valid scenario (M=4, P=3, L=7, N=64, two tones) and sweep around
# it; each CLI example replaces one field with a drawn JSON value.
CLI_SCENARIO = {
    "geometry": {"M": 4, "d": 0.5, "c_prop": 1.0},
    "pattern": {"L": 7, "offsets": [0, 1, 3], "f_N": 1.0},
    "sources": [{"theta": 0.4, "f_c": 0.2}, {"theta": -0.6, "f_c": 0.66}],
    "snr_db": 20.0,
    "n_snapshots": 64,
    "rng_seed": 1,
}
CLI_SCENARIO_FIELDS = (
    (), ("geometry",), ("geometry", "M"), ("geometry", "d"),
    ("geometry", "c_prop"), ("pattern",), ("pattern", "L"),
    ("pattern", "offsets"), ("pattern", "offsets", 1), ("pattern", "f_N"),
    ("sources",), ("sources", 0), ("sources", 0, "theta"),
    ("sources", 0, "f_c"), ("sources", 0, "amplitude"),
    ("sources", 0, "envelope"), ("sources", 0, "bandwidth"), ("snr_db",),
    ("n_snapshots",), ("rng_seed",),
)
CLI_SWEEP_FIELDS = (
    (), ("sweep_variable",), ("sweep_values",), ("sweep_values", 0),
    ("n_trials",), ("algorithms",), ("algorithms", 0), ("master_seed",),
) + tuple(("base",) + field for field in CLI_SCENARIO_FIELDS)
# a field whose number sets a size: larger drawn numbers are left out, so
# no example asks for more than 2 trials or 512 snapshots
CLI_SIZE_CAPS = {"n_trials": 2, "n_snapshots": 512}
# json.dumps has no way to write this literal; it is spliced in as text
HUGE = "__1e400__"
# fields that take a number; every other value there must exit 2, except
# the documented null snr_db (noiseless) and [re, im] amplitude
NUMBER_FIELDS = {"M", "d", "c_prop", "L", "f_N", "theta", "f_c", "amplitude",
                 "bandwidth", "snr_db", "n_snapshots", "rng_seed", "n_trials",
                 "master_seed"}
NUMBER_LISTS = {"offsets", "sweep_values"}

json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-3, max_value=40),
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, HUGE]),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_leaves,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=6,
)


def cli_config(command, path, value):
    """The base JSON config of `command` with the field at `path` replaced."""
    scenario = json.loads(json.dumps(CLI_SCENARIO))
    if command == "sweep-snr":
        config = {"base": scenario, "sweep_variable": "snr_db",
                  "sweep_values": [10.0, 30.0], "n_trials": 2,
                  "algorithms": ["JDFPI", "JDFSDPJ"], "master_seed": 3}
    elif command == "sweep-k":
        config = {"base": scenario, "sweep_variable": "n_sources",
                  "sweep_values": [1, 2], "n_trials": 2,
                  "algorithms": ["JDFSDPJ", "JDFSD-full"], "master_seed": 3}
    else:
        config = scenario
    if not path:
        return value
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def too_large(path, value):
    cap = CLI_SIZE_CAPS.get(path[-1] if path else None)
    if cap is None or isinstance(value, bool) or value == HUGE:
        return False
    try:
        return float(value) > cap
    except (TypeError, ValueError):
        return False


def is_number(value):
    return value == HUGE or (isinstance(value, (int, float))
                             and not isinstance(value, bool))


def wrongly_typed(path, value):
    """True if `value` at `path` is no number in a number field: a string,
    a boolean, an object, or null or a list where the layout allows none."""
    if not path or not (path[-1] in NUMBER_FIELDS or isinstance(path[-1], int)
                        and len(path) > 1 and path[-2] in NUMBER_LISTS):
        return False
    if is_number(value) or value is None and path[-1] == "snr_db":
        return False
    return not (path[-1] == "amplitude" and isinstance(value, list)
                and len(value) == 2 and all(map(is_number, value)))


def run_cli(command, path, value, tmp):
    """Exit code of `command` on its base config with `path` replaced."""
    config = tmp / "config.json"
    config.write_text(json.dumps(cli_config(command, path, value))
                      .replace(json.dumps(HUGE), "1e400"))
    argv = [command, "--config", str(config)]
    if command == "dump-snapshots":
        argv += ["--out", str(tmp / "w.snyq")]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


DOCUMENTED_EXITS = (EXIT_OK, EXIT_CONFIG, EXIT_ESTIMATION, EXIT_IO)


def check_exit(code, path, value):
    if wrongly_typed(path, value):
        assert code == EXIT_CONFIG
    else:
        assert code in DOCUMENTED_EXITS


@pytest.mark.parametrize("command", ["single", "crb", "dump-snapshots"])
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(path=st.sampled_from(CLI_SCENARIO_FIELDS), value=json_values)
@example(path=("sources",), value=[])
@example(path=("geometry", "d"), value=True)
@example(path=("sources", 0, "theta"), value="0.5")
@example(path=("snr_db",), value="20")
@example(path=("sources", 0, "amplitude"), value=False)
def test_scenario_commands_exit_with_a_documented_code(command, path, value,
                                                       tmp_path_factory):
    assume(not too_large(path, value))
    code = run_cli(command, path, value, tmp_path_factory.mktemp("cli"))
    check_exit(code, path, value)


# low-SNR trials may warn about pairing; only the exit code matters here
@pytest.mark.filterwarnings("ignore:pairing confidence low")
@pytest.mark.parametrize("command", ["sweep-snr", "sweep-k"])
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(path=st.sampled_from(CLI_SWEEP_FIELDS), value=json_values)
@example(path=("base", "sources"), value=[])
@example(path=("sweep_values", 0), value="10")
@example(path=("base", "pattern", "f_N"), value=True)
def test_sweep_commands_exit_with_a_documented_code(command, path, value,
                                                    tmp_path_factory):
    assume(not too_large(path, value))
    code = run_cli(command, path, value, tmp_path_factory.mktemp("cli"))
    check_exit(code, path, value)
