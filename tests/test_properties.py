"""Property-based tests over the valid scenario space (Hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import random_scenario  # noqa: E402
from subnyq.estimators import jdfpi, jdfsd_full, jdfsdpj  # noqa: E402
from subnyq.harness import match_estimates  # noqa: E402
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
