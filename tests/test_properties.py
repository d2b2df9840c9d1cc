"""Property-based tests over the valid scenario space (Hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import random_scenario  # noqa: E402
from subnyq.estimators import jdfpi, jdfsd_full, jdfsdpj  # noqa: E402
from subnyq.harness import (  # noqa: E402
    SweepConfig,
    format_csv,
    match_estimates,
    run_sweep,
)
from subnyq.siggen import assemble_full_snapshots, assemble_snapshots  # noqa: E402


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_noiseless_exact_recovery_for_every_pipeline(seed):
    config = random_scenario(np.random.default_rng(seed), snr_db=None,
                             n_snapshots=128)
    bands = sorted(config.band_of(k) for k in range(config.n_sources))
    snap = assemble_snapshots(config)
    for result in (jdfpi(snap, config), jdfsdpj(snap, config),
                   jdfsd_full(assemble_full_snapshots(config), config)):
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
