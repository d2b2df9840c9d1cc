"""Golden-output regression: two small seeded sweeps reproduce a checked-in CSV.

A change that alters outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from subnyq.harness import (
    ALGORITHM_NAMES,
    SweepConfig,
    default_scenario,
    default_sweep,
    format_csv,
    read_csv,
    run_sweep,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_sweeps.csv"


def golden_sweeps():
    """The default SNR sweep at 10/20/30 dB (N=4096, JDFPI and JDFSDPJ) and
    the source-count sweep at N=256 with all three algorithms; master seed 0,
    3 trials per point."""
    snr = replace(default_sweep("snr_db"), sweep_values=(10, 20, 30), n_trials=3)
    base = replace(default_scenario(K=3, snr_db=20.0), n_snapshots=256)
    count = SweepConfig(base=base, sweep_variable="n_sources",
                        sweep_values=(1, 2, 3), n_trials=3,
                        algorithms=ALGORITHM_NAMES, master_seed=0)
    return snr, count


def golden_csv() -> str:
    """`format_csv` of both sweeps under one header."""
    snr, count = (format_csv(run_sweep(config)) for config in golden_sweeps())
    return snr + count.split("\n", 1)[1]


def _by_key(path):
    return {(r.sweep_variable, r.sweep_value, r.algorithm, r.metric): r
            for r in read_csv(path)}


def test_sweeps_match_golden_output(tmp_path):
    path = tmp_path / "sweeps.csv"
    path.write_text(golden_csv())
    got, want = _by_key(path), _by_key(GOLDEN)
    assert got.keys() == want.keys()
    for key, w in want.items():
        g = got[key]
        assert (g.n_trials, g.n_success) == (w.n_trials, w.n_success), key
        np.testing.assert_allclose(g.rmse, w.rmse, rtol=1e-9, err_msg=str(key))
        np.testing.assert_allclose(g.crb, w.crb, rtol=1e-12, err_msg=str(key))


if __name__ == "__main__":
    GOLDEN.write_text(golden_csv())
