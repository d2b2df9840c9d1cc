"""Monte Carlo harness: seeded trials, RMSE sweeps, CRB columns, CSV output."""

import csv
import io
import itertools
import os
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from . import BLAS_THREAD_VARIABLES
from .crb import crb_input_from_scenario, crb_phase, freq_crb_numerical
from .errors import ConfigError, EstimationError
from .estimators import EstimationResult, jdfpi, jdfsd_full, jdfsdpj, sample_covariance
from .model import (
    ArrayGeometry,
    MultiCosetPattern,
    _integer,
    _real,
    check_identifiable,
    selected_channel_columns,
)
from .siggen import (
    ScenarioConfig,
    SourceTruth,
    _draws,
    assemble_full_snapshots,
    assemble_snapshots,
)

__all__ = [
    "ALGORITHM_NAMES",
    "SweepConfig",
    "TrialRecord",
    "ResultRow",
    "ResultTable",
    "check_algorithms",
    "default_scenario",
    "default_sweep",
    "match_estimates",
    "derive_trial_seed",
    "trial_output",
    "run_algorithm",
    "run_trial",
    "run_sweep",
    "format_csv",
    "emit_csv",
    "read_csv",
    "scenario_from_dict",
    "sweep_from_dict",
]

# each pipeline's receiver structure: True for all M*P channels
_FULL_STRUCTURE = {"JDFPI": False, "JDFSDPJ": False, "JDFSD-full": True}
ALGORITHM_NAMES = tuple(_FULL_STRUCTURE)
SWEEP_VARIABLES = ("snr_db", "n_sources")


def check_algorithms(names, scenarios=()) -> None:
    """Raise ConfigError unless there is at least one name, every name is
    one of ALGORITHM_NAMES and none is repeated, and JDFPI, if named, can
    identify the bands of every one of `scenarios` (`check_identifiable`)."""
    if not names:
        raise ConfigError("need at least one algorithm")
    for name in names:
        if name not in ALGORITHM_NAMES:
            raise ConfigError(
                f"unknown algorithm {name!r}; choose from {ALGORITHM_NAMES}")
    if len(set(names)) < len(names):
        raise ConfigError(f"algorithm listed more than once: {tuple(names)}")
    if "JDFPI" in names:
        for scenario in scenarios:
            check_identifiable(scenario.pattern, scenario.n_sources)


def trial_output(scenario: ScenarioConfig, algorithms, draws=None) -> dict:
    """Receiver output of one seeded trial and its sample covariance, as an
    (output, covariance) pair per receiver structure the `algorithms` use,
    keyed like `_point_bounds` (True for the full structure).

    With a full-structure pipeline, the simplified output W is the full
    output's selected rows, which agree bit-exactly with `assemble_snapshots`
    for the same seed, and its covariance is still taken of W itself.  The
    algorithms of a trial share these arrays: consumers must not modify them.
    `draws`, if given, is the trial's random numbers drawn ahead of time,
    `siggen._draws` for the channel count of the output built here (M*P
    with the full structure, else M+P-1); the output is assembled in them.
    """
    structures = {_FULL_STRUCTURE[algorithm] for algorithm in algorithms}
    if True in structures:
        full = assemble_full_snapshots(scenario, draws)
        M, P = scenario.geom.M, scenario.pattern.P
        outputs = {True: full, False: full[selected_channel_columns(M, P)]}
    else:
        outputs = {False: assemble_snapshots(scenario, draws)}
    return {s: (outputs[s], sample_covariance(outputs[s])) for s in structures}


def run_algorithm(name: str, scenario: ScenarioConfig,
                  output=None) -> EstimationResult:
    """Run pipeline `name` on `scenario`'s receiver output.

    `output` is a zero-argument callable returning the `trial_output` of
    `scenario` (same seed) for a list of algorithms that includes `name`;
    without it the output is assembled here.
    """
    check_algorithms((name,))
    outputs = output() if output else trial_output(scenario, (name,))
    X, R = outputs[_FULL_STRUCTURE[name]]
    # looked up at call time, so a pipeline replaced on this module is run
    pipeline = {"JDFPI": jdfpi, "JDFSDPJ": jdfsdpj, "JDFSD-full": jdfsd_full}[name]
    return pipeline(X, R, scenario)


def default_scenario(K: int = 3, snr_db: float | None = 10.0) -> ScenarioConfig:
    """Reference scenario in normalized units (f_N = 1): M=8 sensors at
    half-Nyquist-wavelength spacing, L=13 bands, P=5 branches, K tone sources
    in well-separated bands, N=4096 snapshots, seed 0."""
    geom = ArrayGeometry(M=8, d=0.5, c_prop=1.0)
    # Offsets chosen to minimize the max column coherence of the coset
    # matrix (0.456 for 5 of 13), which keeps the bands' steering columns
    # far apart for every pipeline.
    pattern = MultiCosetPattern(L=13, offsets=(0, 1, 4, 7, 9), f_N=1.0)
    f_s = pattern.f_s
    all_sources = (
        SourceTruth(theta=np.deg2rad(40.0), f_c=(2 + 0.30) * f_s),
        SourceTruth(theta=np.deg2rad(-30.0), f_c=(6 + 0.55) * f_s),
        SourceTruth(theta=np.deg2rad(55.0), f_c=(10 + 0.72) * f_s),
    )
    if not 1 <= K <= len(all_sources):
        raise ConfigError(f"default scenario supports 1..{len(all_sources)} sources")
    return ScenarioConfig(
        geom=geom, pattern=pattern, sources=all_sources[:K],
        snr_db=snr_db, n_snapshots=4096, rng_seed=0,
    )


@dataclass(frozen=True)
class SweepConfig:
    """One Monte Carlo experiment: a scenario swept over SNR or source count."""

    base: ScenarioConfig
    sweep_variable: str
    sweep_values: tuple
    n_trials: int = 500
    algorithms: tuple[str, ...] = ("JDFPI", "JDFSDPJ")
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        for name in ("n_trials", "master_seed"):
            object.__setattr__(self, name, _integer(getattr(self, name)))
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"sweep variable must be one of {SWEEP_VARIABLES}, "
                f"got {self.sweep_variable!r}"
            )
        if not self.sweep_values:
            raise ConfigError("sweep needs at least one value")
        if self.n_trials < 1:
            raise ConfigError(f"need n_trials >= 1, got {self.n_trials}")
        if self.master_seed < 0:
            raise ConfigError(
                f"master seed must be non-negative, got {self.master_seed}")
        # validates each value; a repeated point would be run twice and
        # counted twice in its rows
        points = [_scenario_for_value(self.base, self.sweep_variable, value)
                  for value in self.sweep_values]
        if len(set(points)) < len(points):
            raise ConfigError(
                f"sweep value listed more than once: {self.sweep_values}")
        check_algorithms(self.algorithms, points)


def _scenario_for_value(base: ScenarioConfig, variable: str, value) -> ScenarioConfig:
    if variable == "snr_db":
        return replace(base, snr_db=_real(value))
    k = _integer(value)
    if not 1 <= k <= len(base.sources):
        raise ConfigError(
            f"n_sources sweep value {k} outside 1..{len(base.sources)}"
        )
    return replace(base, sources=base.sources[:k])


def default_sweep(variable: str = "snr_db") -> SweepConfig:
    """The default scenario at 20 dB swept over SNR (-10..30 dB in 5 dB
    steps) or source count (1..3), 500 trials, JDFPI and JDFSDPJ."""
    values = tuple(range(-10, 31, 5)) if variable == "snr_db" else (1, 2, 3)
    return SweepConfig(base=default_scenario(K=3, snr_db=20.0),
                       sweep_variable=variable, sweep_values=values)


@dataclass(frozen=True)
class TrialRecord:
    sweep_value: object
    algorithm: str
    trial_index: int
    seed: int
    phase_errors: np.ndarray | None = None
    freq_errors: np.ndarray | None = None
    failed: bool = False
    failure_step: str | None = None


@dataclass(frozen=True)
class ResultRow:
    sweep_variable: str
    sweep_value: object
    algorithm: str
    metric: str  # "phase_rmse" or "freq_rmse"
    rmse: float
    crb: float
    n_success: int
    n_trials: int


@dataclass(frozen=True)
class ResultTable:
    sweep_variable: str
    rows: tuple[ResultRow, ...]
    records: tuple[TrialRecord, ...] = field(repr=False, default=())


def _wrap_phase(phi):
    """Wrap to (-pi, pi]."""
    out = np.mod(np.asarray(phi, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


def match_estimates(scenario: ScenarioConfig, result: EstimationResult):
    """Optimal truth-to-estimate assignment; returns (phase, frequency) errors
    per true source.

    Minimizes the sum of squared errors with phase normalized by pi and
    frequency by one band width.  The cost separates per (truth, estimate)
    pair, so the Hungarian method solves it exactly for any K.
    """
    K = scenario.n_sources
    if result.n_sources != K:
        raise ConfigError(
            f"estimate count {result.n_sources} does not match truth count {K}"
        )
    true_phi = scenario.phases()
    true_f = np.array([s.f_c for s in scenario.sources])
    dphi = _wrap_phase(result.phi[None, :] - true_phi[:, None]) / np.pi
    df = (result.f[None, :] - true_f[:, None]) / scenario.pattern.f_s
    perm = _min_cost_assignment(dphi**2 + df**2)
    phase_err = _wrap_phase(result.phi[perm] - true_phi)
    freq_err = result.f[perm] - true_f
    return phase_err, freq_err


def _min_cost_assignment(cost: np.ndarray) -> list[int]:
    """Column assigned to each row of a square cost matrix, minimizing the sum.

    Kuhn-Munkres (Kuhn, Naval Res. Logist. Q. 1955; Munkres, J. SIAM 1957)
    in its O(n^3) shortest-augmenting-path form: rows join the matching one
    at a time, each along a path of least reduced cost, with row and column
    potentials keeping every reduced cost non-negative.  Plain lists, since
    n is the source count.  Column 0 of `match`, `way`, `v` is the root of
    each path; rows are numbered from 1 there.
    """
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains NaN or infinite entries")
    rows = cost.tolist()
    n = len(rows)
    inf = float("inf")
    u, v = [0.0] * (n + 1), [0.0] * (n + 1)
    match, way = [0] * (n + 1), [0] * (n + 1)  # match[j]: row on column j
    for i in range(1, n + 1):
        match[0], j0 = i, 0
        dist, used = [inf] * (n + 1), [False] * (n + 1)
        while match[j0]:
            used[j0] = True
            i0, delta, j1 = match[j0], inf, 0
            row = rows[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    reduced = row[j - 1] - u[i0] - v[j]
                    if reduced < dist[j]:
                        dist[j], way[j] = reduced, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0:  # augment: shift each row on the path to its new column
            match[j0] = match[way[j0]]
            j0 = way[j0]
    perm = [0] * n
    for j in range(1, n + 1):
        perm[match[j] - 1] = j - 1
    return perm


def derive_trial_seed(master_seed: int, sweep_index: int, trial_index: int) -> int:
    """Seed of one (sweep point, trial); every algorithm of the trial shares it."""
    ss = np.random.SeedSequence(
        entropy=master_seed, spawn_key=(sweep_index, trial_index)
    )
    return int(ss.generate_state(1, np.uint64)[0])


def run_trial(scenario: ScenarioConfig, algorithm: str, seed: int,
              sweep_value=None, trial_index: int = 0,
              output=None) -> TrialRecord:
    """One seeded trial; estimation failures are recorded, not raised.

    `output` (see `run_algorithm`) shares the receiver output of
    `scenario.with_seed(seed)` with the other algorithms run on the same
    trial; without it the output is assembled for this call alone.  A
    scenario that already carries `seed` is used as it is.
    """
    scen = scenario.with_seed(seed)
    if sweep_value is None:
        sweep_value = scen.snr_db
    try:
        result = run_algorithm(algorithm, scen, output)
    except EstimationError as exc:
        return TrialRecord(
            sweep_value=sweep_value, algorithm=algorithm, trial_index=trial_index,
            seed=seed, failed=True, failure_step=exc.step or type(exc).__name__,
        )
    phase_err, freq_err = match_estimates(scen, result)
    return TrialRecord(
        sweep_value=sweep_value, algorithm=algorithm, trial_index=trial_index,
        seed=seed, phase_errors=phase_err, freq_errors=freq_err,
    )


def _run_task(task, draws=None) -> list[TrialRecord]:
    """Every algorithm of one (sweep point, trial), on one shared receiver
    output and covariance, computed inside the first `run_trial` call.

    `draws`, if given, is a zero-argument callable returning the trial's
    random numbers (see `trial_output`); it is called there too."""
    scenario, algorithms, seed, value, trial_index = task
    scenario = scenario.with_seed(seed)
    output = cache(lambda: trial_output(scenario, algorithms, draws and draws()))
    return [run_trial(scenario, algorithm, seed, sweep_value=value,
                      trial_index=trial_index, output=output)
            for algorithm in algorithms]


def _point_bounds(scenario: ScenarioConfig, algorithms) -> dict:
    """(phase, frequency) bound columns of one sweep point, keyed by
    receiver structure (full or not; JDFPI and JDFSDPJ share one): RMS over
    the per-source diagonals, NaN for a noiseless scenario."""
    structures = {_FULL_STRUCTURE[algorithm] for algorithm in algorithms}
    if scenario.sigma2 <= 0:
        return dict.fromkeys(structures, (float("nan"), float("nan")))
    inp = crb_input_from_scenario(scenario)
    bounds = {}
    for full in structures:
        phase_crb = crb_phase(inp, full_structure=full).crb_matrix
        freq_crb = freq_crb_numerical(inp, full_structure=full)
        bounds[full] = (float(np.sqrt(np.mean(np.diag(phase_crb).real))),
                        float(np.sqrt(np.mean(np.diag(freq_crb).real))))
    return bounds


def run_sweep(config: SweepConfig, workers: int = 1) -> ResultTable:
    """Run every (sweep value, trial, algorithm) and aggregate RMSE per point.

    Every point's bounds are computed first, so a point whose bound is
    undefined raises before any trial runs.  Each (sweep value, trial) is
    synthesized once and every algorithm runs on the same snapshots; records
    come in (sweep value, trial, algorithm) order.  Deterministic in
    `config` (including `master_seed`); any worker count produces the
    identical table because each trial's seed depends only on its indices
    and records are aggregated in task order.

    `workers` must be at least 1; the process pool is capped at the CPU
    count, and one worker runs in this process.  Tasks are derived as they
    run.  Serially that is one task ahead: a fill thread draws each trial's
    random numbers while the trial before it runs, so one extra noise block
    is held (`_run_serial`).  The pool takes one window at a time, in
    workers spawned with single-threaded BLAS (`_run_pool`).  No thread or
    process outlives the call.  On KeyboardInterrupt the completed records
    are aggregated into a partial table that is returned via the
    exception's `partial` attribute.

    Spawned workers start by importing the caller's main module, so a
    script that calls `run_sweep(..., workers=2)` must do so under
    `if __name__ == "__main__":`; at module level each worker would run the
    sweep again on import, and the call fails with `BrokenProcessPool`.
    """
    if workers < 1:
        raise ConfigError(f"need workers >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    points = [(_scenario_for_value(config.base, config.sweep_variable, value), value)
              for value in config.sweep_values]
    bounds = [_point_bounds(scenario, config.algorithms) for scenario, _ in points]
    tasks = ((scenario, config.algorithms,
              derive_trial_seed(config.master_seed, s_idx, trial), value, trial)
             for s_idx, (scenario, value) in enumerate(points)
             for trial in range(config.n_trials))

    records: list[TrialRecord] = []
    try:
        if workers > 1:
            _run_pool(tasks, workers, records)
        else:
            _run_serial(tasks, records)
    except KeyboardInterrupt as exc:
        exc.partial = _aggregate(config, records, bounds)
        raise

    return _aggregate(config, records, bounds)


# Each runner imports its own executor, so `import subnyq.harness` loads neither.

def _run_serial(tasks, records: list) -> None:
    """Run `tasks` in this thread, each one's random numbers drawn on a fill
    thread while the task before it runs: numpy releases the GIL while it
    fills the noise block, and the estimators hold it.  The draws are the
    numbers a per-trial run makes, in its order; all else runs here."""
    from concurrent.futures import ThreadPoolExecutor

    fill = ThreadPoolExecutor(max_workers=1)

    def submit(task):
        scenario, algorithms, seed, value, trial = task
        scenario = scenario.with_seed(seed)
        full = any(_FULL_STRUCTURE[algorithm] for algorithm in algorithms)
        rows = selected_channel_columns(scenario.geom.M, scenario.pattern.P, full)
        draws = fill.submit(_draws, scenario, rows.size)
        return (scenario, algorithms, seed, value, trial), draws.result

    try:
        ahead = map(submit, tasks)
        current = next(ahead, None)
        while current:
            upcoming = next(ahead, None)
            records.extend(_run_task(*current))
            current = upcoming
    finally:
        # waits for the fill in flight, also on Ctrl-C; a queued one is dropped
        fill.shutdown(cancel_futures=True)


def _run_pool(tasks, workers: int, records: list) -> None:
    """Run `tasks` on `workers` spawned processes.  The BLAS thread
    variables (`subnyq.BLAS_THREAD_VARIABLES`) are 1 while the pool lives,
    so the workers' BLAS does not oversubscribe the cores on these small
    matrices; the caller's values come back afterwards."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    try:
        # map submits all it is given: one window, 32 chunks per worker
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            while window := list(itertools.islice(tasks, 128 * workers)):
                for group in pool.map(_run_task, window, chunksize=4):
                    records.extend(group)
    finally:
        for name in BLAS_THREAD_VARIABLES:
            os.environ.pop(name, None)
        os.environ.update({k: v for k, v in saved.items() if v is not None})


def _aggregate(config: SweepConfig, records, bounds) -> ResultTable:
    """Rows per (sweep value, algorithm, metric); `bounds` holds each
    point's `_point_bounds`."""
    rows = []
    for value, point_bounds in zip(config.sweep_values, bounds):
        for algorithm in config.algorithms:
            group = [r for r in records
                     if r.sweep_value == value and r.algorithm == algorithm]
            good = [r for r in group if not r.failed]
            phase_crb, freq_crb = point_bounds[_FULL_STRUCTURE[algorithm]]
            for metric, crb_val, key in (
                ("phase_rmse", phase_crb, "phase_errors"),
                ("freq_rmse", freq_crb, "freq_errors"),
            ):
                if good:
                    sq = np.concatenate([getattr(r, key) for r in good]) ** 2
                    rmse = float(np.sqrt(np.mean(sq)))
                else:
                    rmse = float("nan")
                rows.append(ResultRow(
                    sweep_variable=config.sweep_variable, sweep_value=value,
                    algorithm=algorithm, metric=metric, rmse=rmse, crb=crb_val,
                    n_success=len(good), n_trials=config.n_trials,
                ))
    return ResultTable(
        sweep_variable=config.sweep_variable,
        rows=tuple(rows), records=tuple(records),
    )


CSV_HEADER = ("sweep_var", "sweep_value", "algorithm", "metric",
              "rmse", "crb", "n_success", "n_trials")


def format_csv(table: ResultTable) -> str:
    """Deterministic CSV text: rows ordered by (sweep value, algorithm,
    metric), floats in full double-precision scientific notation."""
    rows = sorted(table.rows,
                  key=lambda r: (float(r.sweep_value), r.algorithm, r.metric))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([
            r.sweep_variable, _format_value(r.sweep_value), r.algorithm,
            r.metric, f"{r.rmse:.17e}", f"{r.crb:.17e}",
            r.n_success, r.n_trials,
        ])
    return out.getvalue()


def emit_csv(table: ResultTable, path) -> None:
    """Write `format_csv(table)` to `path`."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(format_csv(table))
    except OSError as exc:
        raise OSError(f"cannot write result table to {path}: {exc}") from exc


def _format_value(value) -> str:
    return repr(int(value)) if float(value).is_integer() else repr(float(value))


def read_csv(path):
    """Parse a file written by `emit_csv` back into ResultRow tuples."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_HEADER:
            raise ConfigError(f"{path}: unexpected CSV header {header}")
        for rec in reader:
            rows.append(ResultRow(
                sweep_variable=rec[0], sweep_value=float(rec[1]),
                algorithm=rec[2], metric=rec[3], rmse=float(rec[4]),
                crb=float(rec[5]), n_success=int(rec[6]), n_trials=int(rec[7]),
            ))
    return tuple(rows)


def _complex_from_json(value) -> complex:
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value]
    try:
        return complex(*map(_real, parts))
    except ConfigError:
        raise ConfigError(
            f"amplitude must be a number or [re, im], got {value!r}") from None


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a scenario from the documented JSON layout.  Each section goes
    to its dataclass, which supplies the defaults, converts the numbers and
    rejects an unknown key; only `amplitude` ([re, im]) is converted here."""
    try:
        geom_d = data["geometry"]
        pat_d = data["pattern"]
        src_l = data["sources"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"scenario config missing section: {exc}") from exc
    rest = {key: value for key, value in data.items()
            if key not in ("geometry", "pattern", "sources")}
    try:
        sources = tuple(
            SourceTruth(**(s | {"amplitude": _complex_from_json(s["amplitude"])}))
            if "amplitude" in s else SourceTruth(**s) for s in src_l)
        return ScenarioConfig(geom=ArrayGeometry(**geom_d),
                              pattern=MultiCosetPattern(**pat_d),
                              sources=sources, **rest)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid scenario config: {exc}") from exc


def sweep_from_dict(data: dict) -> SweepConfig:
    """Build a sweep from the documented JSON layout: `base` is a scenario
    (`scenario_from_dict`) and every other key goes to `SweepConfig`."""
    try:
        base = scenario_from_dict(data["base"])
        rest = {key: value for key, value in data.items() if key != "base"}
        return SweepConfig(base=base, **rest)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid sweep config: {exc}") from exc
