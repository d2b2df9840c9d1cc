"""Monte Carlo harness: seeded trials in blocks, RMSE sweeps, CRB columns, CSV output."""

import csv
import io
import itertools
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from . import BLAS_THREAD_VARIABLES
from .crb import crb_input_from_scenario, crb_phase, freq_crb_numerical
from .errors import ConfigError
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
BLOCK_BYTES = 5 * 2**18  # a sweep block holds as many trial_outputs as fit, at least two


def check_algorithms(names, scenarios=()) -> None:
    """Raise ConfigError unless there is at least one name, every name is
    one of ALGORITHM_NAMES and none is repeated, and JDFPI, if named, can
    identify the bands of every one of `scenarios` (`check_identifiable`);
    a bare string is no list of names."""
    if isinstance(names, str):
        raise ConfigError(f"algorithms must be a list of names, got {names!r}")
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
    keyed like `_point_bounds` (True for the full structure).  Given a
    block's `siggen._draws` for this output's structure (full if any
    algorithm's is), it gives the block's, stacked in that buffer.

    With a full-structure pipeline, the simplified output W is a view of
    the full output's first M+P-1 rows, `assemble_snapshots` bit for bit,
    and its covariance is still taken of W itself.  The algorithms of a
    trial share these arrays: consumers must not modify them.
    """
    check_algorithms(algorithms)
    structures = {_FULL_STRUCTURE[algorithm] for algorithm in algorithms}
    X = (assemble_full_snapshots if True in structures else assemble_snapshots)(
        scenario, draws)
    outputs = {True: X, False: X[..., :scenario.geom.M + scenario.pattern.P - 1, :]}
    return {s: (outputs[s], sample_covariance(outputs[s])) for s in structures}


def run_algorithm(name: str, scenario: ScenarioConfig, output=None):
    """Run pipeline `name` on `scenario`'s receiver output.

    `output` is the `trial_output` of `scenario` for a list of algorithms
    that includes `name`; without it the output is assembled here.  A
    block's output gives the pipeline's (results, errors).
    """
    check_algorithms((name,))
    output = output or trial_output(scenario, (name,))
    if (full := _FULL_STRUCTURE[name]) not in output:
        raise ConfigError(f"{name} needs the {'full' if full else 'simplified'} "
                          "structure's output, which this trial_output lacks")
    X, R = output[full]
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
        for name in ("sweep_values", "algorithms"):
            if isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a list, got {getattr(self, name)!r}")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "n_trials", _integer(self.n_trials, "n_trials", 1))
        object.__setattr__(self, "master_seed", _integer(self.master_seed, "master_seed", 0))
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"sweep variable must be one of {SWEEP_VARIABLES}, "
                f"got {self.sweep_variable!r}"
            )
        if not self.sweep_values:
            raise ConfigError("sweep needs at least one value")
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
        return replace(base, snr_db=_real(value, "sweep_values"))
    k = _integer(value, "sweep_values", 1)
    if k > len(base.sources):
        raise ConfigError(
            f"sweep_values: n_sources {k} outside 1..{len(base.sources)}")
    return replace(base, sources=base.sources[:k])


def default_sweep(variable: str = "snr_db") -> SweepConfig:
    """The default scenario at 20 dB swept over SNR (-10..30 dB in 5 dB
    steps) or source count (1..3), 500 trials, JDFPI and JDFSDPJ."""
    values = tuple(range(-10, 31, 5)) if variable == "snr_db" else (1, 2, 3)
    return SweepConfig(base=default_scenario(K=3, snr_db=20.0),
                       sweep_variable=variable, sweep_values=values)


@dataclass(frozen=True, slots=True)
class TrialRecord:
    sweep_value: object
    algorithm: str
    trial_index: int
    seed: int
    errors: np.ndarray | None = None  # 2 x K: phase, frequency
    failed: bool = False
    failure_step: str | None = None
    phase_errors = property(lambda self: None if self.errors is None else self.errors[0])
    freq_errors = property(lambda self: None if self.errors is None else self.errors[1])


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


def run_trial(scenario: ScenarioConfig, algorithm: str, seed,
              sweep_value=None, trial_index: int = 0, output=None):
    """One trial of `scenario` seeded with the integer `seed`; estimation
    failures are recorded, not raised.  A sequence of seeds (a list, tuple,
    range or 1-D array) is a block of trials numbered from `trial_index`,
    run together, and gives a list of records.  A seed that is not an
    integer >= 0 is a ConfigError.  `output`, called with no arguments,
    returns their block's `trial_output` for algorithms that include
    `algorithm`, one stacked trial per seed, or ConfigError."""
    block = isinstance(seed, Sequence) or np.ndim(seed) > 0
    seeds = [_integer(s, "seed", 0) for s in (seed if block else [seed])]
    if not seeds:
        raise ConfigError(f"need one or more seeds, got {seed!r}")
    if sweep_value is None:
        sweep_value = scenario.snr_db
    output = output() if output else trial_output(
        scenario, (algorithm,), _draws(scenario, seeds, _FULL_STRUCTURE.get(algorithm)))
    for X, _ in output.values():
        if X.ndim != 3 or len(X) != len(seeds):
            held = f"{len(X)} stacked trials" if X.ndim == 3 else "one unstacked trial"
            raise ConfigError(f"output holds {held} for {len(seeds)} seed(s)")
    outcomes = zip(seeds, *run_algorithm(algorithm, scenario, output))
    records = [TrialRecord(sweep_value, algorithm, trial_index + i, s, failed=True,
                           failure_step=error.step or type(error).__name__) if error
               else TrialRecord(sweep_value, algorithm, trial_index + i, s,
                                np.array(match_estimates(scenario, result)))
               for i, (s, result, error) in enumerate(outcomes)]
    return records if block else records[0]


def _run_task(task, draws=None) -> list[TrialRecord]:
    """Every algorithm of one block of a sweep point's trials, in (trial,
    algorithm) order, on one shared `trial_output`, built inside the first
    `run_trial` call from `draws()`, or from draws made there."""
    scenario, algorithms, seeds, value, first = task
    full = any(map(_FULL_STRUCTURE.get, algorithms))
    draws = draws or (lambda: _draws(scenario, seeds, full))
    output = cache(lambda: trial_output(scenario, algorithms, draws()))
    by_algorithm = [run_trial(scenario, algorithm, seeds, value, first, output)
                    for algorithm in algorithms]
    return [record for trial in zip(*by_algorithm) for record in trial]


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
    undefined raises before any trial runs.  Each point's trials run in
    blocks of as many trials as fit in BLOCK_BYTES of `trial_output`, and at
    least two, which share the estimators' per-call costs; each trial is
    synthesized once, every algorithm runs on the same snapshots, and
    records come in (sweep value, trial, algorithm) order.
    Deterministic in `config` (including `master_seed`); any worker count
    produces the identical table because each trial's seed depends only on
    its indices and records are aggregated in task order.

    `workers` must be at least 1; the process pool is capped at the CPU
    count, and one worker runs in this process.  Blocks are derived as they
    run.  Serially a fill thread draws each block's noise while the block
    before it runs (`_run_serial`), so two blocks' outputs are held, each
    BLOCK_BYTES or less, or two trials: a block's output is its noise
    buffer, and a full block's simplified rows are a view of it.  The pool
    takes one window of blocks at a time, in workers spawned with
    single-threaded BLAS (`_run_pool`).  No thread or process outlives the
    call.  On KeyboardInterrupt the records of the completed blocks are
    aggregated into a partial table, returned as the exception's `partial`.

    Spawned workers start by importing the caller's main module, so a
    script that calls `run_sweep(..., workers=2)` must do so under
    `if __name__ == "__main__":`; at module level each worker would run the
    sweep again on import, and the call fails with `BrokenProcessPool`.
    """
    workers = min(_integer(workers, "workers", 1), os.cpu_count() or 1)
    points = [(_scenario_for_value(config.base, config.sweep_variable, value), value)
              for value in config.sweep_values]
    bounds = [_point_bounds(scenario, config.algorithms) for scenario, _ in points]
    M, P, N = config.base.geom.M, config.base.pattern.P, config.base.n_snapshots
    rows = {selected_channel_columns(M, P, _FULL_STRUCTURE[name]).size
            for name in config.algorithms}
    size, n = max(2, BLOCK_BYTES // sum(16 * r * (N + r) for r in rows)), config.n_trials
    tasks = ((scenario, config.algorithms,
              [derive_trial_seed(config.master_seed, s_idx, trial)
               for trial in range(first, min(first + size, n))], value, first)
             for s_idx, (scenario, value) in enumerate(points)
             for first in range(0, n, size))

    records: list[TrialRecord] = []
    try:
        if workers > 1:
            _run_pool(tasks, workers, records)
        else:
            _run_serial(tasks, records, any(map(_FULL_STRUCTURE.get, config.algorithms)))
    except KeyboardInterrupt as exc:
        exc.partial = _aggregate(config, records, bounds)
        raise

    return _aggregate(config, records, bounds)


# Each runner imports its own executor, so `import subnyq.harness` loads neither.

def _run_serial(tasks, records: list, full_structure: bool) -> None:
    """Run `tasks` here, each block's `siggen._draws` (of `full_structure`)
    made on a fill thread while the block before it runs: numpy releases
    the GIL while it draws, and the estimators hold it.  All else runs
    here, so the fill thread calls no public function of the package."""
    from concurrent.futures import ThreadPoolExecutor

    fill = ThreadPoolExecutor(max_workers=1)
    try:  # a task is (scenario, algorithms, seeds, value, first trial)
        ahead = ((task, fill.submit(_draws, task[0], task[2], full_structure).result)
                 for task in tasks)
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
    """Parse a file written by `emit_csv` back into ResultRow tuples; a
    file that is not one is a ConfigError naming its path and line."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if tuple(header or ()) != CSV_HEADER:
                raise ConfigError(f"{path}: unexpected CSV header {header}")
            for variable, value, algorithm, metric, rmse, crb, n_success, n_trials in reader:
                rows.append(ResultRow(variable, float(value), algorithm, metric, float(rmse),
                                      float(crb), int(n_success), int(n_trials)))
        except (ValueError, csv.Error) as exc:
            raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from None
    return tuple(rows)


def _complex_from_json(value):
    """JSON's [re, im] amplitude as re + j im; `SourceTruth` converts others."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real(value[0], "amplitude"), _real(value[1], "amplitude"))
    return value


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
