"""subnyq: joint DOA / carrier-frequency estimation from a simplified
multi-coset sub-Nyquist array receiver, with CRB evaluation and a Monte
Carlo RMSE harness.

Each public name lives in one module, listed in that module's `__all__`:
`subnyq.model` (array geometry, coset pattern, steering, phase/DOA),
`subnyq.siggen` (scenarios and snapshot synthesis), `subnyq.estimators`
(the JDFPI, JDFSDPJ and JDFSD-full pipelines), `subnyq.crb` (the bounds),
`subnyq.harness` (trials, sweeps, CSV), `subnyq.errors` and `subnyq.cli`.
This module imports none of them, so `import subnyq` loads no numpy.
"""

__version__ = "0.1.0"

# BLAS thread variables: the pool's workers run with them at 1, and the
# `subnyq` command sets each one the user left unset to 1 before numpy loads
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
