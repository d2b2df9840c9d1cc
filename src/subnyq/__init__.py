"""subnyq: joint DOA / carrier-frequency estimation from a simplified
multi-coset sub-Nyquist array receiver, with CRB evaluation and a Monte
Carlo RMSE harness."""

from .crb import CrbInput, CrbResult, crb_phase, freq_crb_numerical
from .errors import (
    ConfigError,
    EmptySupportError,
    EstimationError,
    PeakCountError,
    RankDeficiencyError,
    SubnyqError,
)
from .estimators import (
    EstimationResult,
    jdfpi,
    jdfsd_full,
    jdfsdpj,
    music_spatial,
    residual_frequency,
)
from .harness import (
    SweepConfig,
    default_scenario,
    default_sweep,
    emit_csv,
    match_estimates,
    run_sweep,
    run_trial,
)
from .model import (
    ArrayGeometry,
    MultiCosetPattern,
    doa_from_phase,
    phase_from_doa,
)
from .siggen import (
    ScenarioConfig,
    SourceTruth,
    assemble_full_snapshots,
    assemble_snapshots,
)

__version__ = "0.1.0"
