"""Monte Carlo harness: seeded trials, RMSE sweeps, CRB columns, CSV output."""

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .crb import crb_input_from_scenario, crb_phase, freq_crb_numerical
from .errors import ConfigError, EstimationError
from .estimators import EstimationResult, jdfpi, jdfsd_full, jdfsdpj
from .model import ArrayGeometry, MultiCosetPattern, selected_channel_columns
from .siggen import (
    ScenarioConfig,
    SnapshotSet,
    SourceTruth,
    assemble_full_snapshots,
    assemble_snapshots,
)

__all__ = [
    "ALGORITHM_NAMES",
    "SweepConfig",
    "TrialData",
    "TrialRecord",
    "ResultRow",
    "ResultTable",
    "check_algorithms",
    "default_scenario",
    "default_sweep",
    "match_estimates",
    "derive_trial_seed",
    "run_algorithm",
    "run_trial",
    "run_sweep",
    "format_csv",
    "emit_csv",
    "read_csv",
    "scenario_from_dict",
    "sweep_from_dict",
]

ALGORITHM_NAMES = ("JDFPI", "JDFSDPJ", "JDFSD-full")
SWEEP_VARIABLES = ("snr_db", "n_sources")


def check_algorithms(names) -> None:
    """Raise ConfigError unless every name is one of ALGORITHM_NAMES and
    none is repeated."""
    for name in names:
        if name not in ALGORITHM_NAMES:
            raise ConfigError(
                f"unknown algorithm {name!r}; choose from {ALGORITHM_NAMES}")
    if len(set(names)) < len(names):
        raise ConfigError(f"algorithm listed more than once: {tuple(names)}")


class TrialData:
    """The receiver output of one seeded trial, assembled on first use.

    One instance is shared by every algorithm run on the trial, so they all
    see the same snapshots (common random numbers) and the trial is
    synthesized once.  When the full-structure output is among the
    `algorithms`, it is assembled and the simplified rows are taken from it;
    they agree bit-exactly with `assemble_snapshots` for the same seed.
    The arrays are shared: consumers must not modify them.
    """

    def __init__(self, scenario: ScenarioConfig, algorithms=()):
        self.scenario = scenario
        self._from_full = "JDFSD-full" in algorithms

    @cached_property
    def full(self) -> np.ndarray:
        return assemble_full_snapshots(self.scenario)

    @cached_property
    def snapshots(self) -> SnapshotSet:
        if not self._from_full:
            return assemble_snapshots(self.scenario)
        M, P = self.scenario.geom.M, self.scenario.pattern.P
        return SnapshotSet(W=self.full[selected_channel_columns(M, P)],
                           f_s=self.scenario.pattern.f_s, M=M, P=P)


def run_algorithm(name: str, scenario: ScenarioConfig,
                  data: TrialData | None = None) -> EstimationResult:
    """Run pipeline `name` on `scenario`'s snapshots.

    `data` must hold the realization of `scenario` (same seed); without it
    the snapshots are assembled here.
    """
    check_algorithms((name,))
    if data is None:
        data = TrialData(scenario)
    if name == "JDFPI":
        return jdfpi(data.snapshots, scenario)
    if name == "JDFSDPJ":
        return jdfsdpj(data.snapshots, scenario)
    return jdfsd_full(data.full, scenario)


def default_scenario(K: int = 3, snr_db: float | None = 10.0,
                     n_snapshots: int = 4096, rng_seed: int = 0) -> ScenarioConfig:
    """Reference scenario in normalized units (f_N = 1): M=8 sensors at
    half-Nyquist-wavelength spacing, L=13 bands, P=5 branches, K tone sources
    in well-separated bands."""
    geom = ArrayGeometry(M=8, d=0.5, c_prop=1.0)
    # Offsets chosen to minimize the max column coherence of the coset
    # matrix (0.456 for 5 of 13); high-coherence patterns break the greedy
    # band-support search.
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
        snr_db=snr_db, n_snapshots=n_snapshots, rng_seed=rng_seed,
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
        check_algorithms(self.algorithms)
        if not self.algorithms:
            raise ConfigError("sweep needs at least one algorithm")
        for value in self.sweep_values:
            scenario_for_value(self.base, self.sweep_variable, value)  # validates


def scenario_for_value(base: ScenarioConfig, variable: str, value) -> ScenarioConfig:
    if variable == "snr_db":
        return replace(base, snr_db=float(value))
    k = int(value)
    if not 1 <= k <= len(base.sources):
        raise ConfigError(
            f"n_sources sweep value {k} outside 1..{len(base.sources)}"
        )
    return replace(base, sources=base.sources[:k])


def default_sweep(variable: str = "snr_db", values=None, n_trials: int = 500,
                  algorithms=("JDFPI", "JDFSDPJ"), master_seed: int = 0,
                  snr_db: float = 20.0) -> SweepConfig:
    if values is None:
        values = tuple(range(-10, 31, 5)) if variable == "snr_db" else (1, 2, 3)
    base = default_scenario(K=3, snr_db=snr_db)
    return SweepConfig(
        base=base, sweep_variable=variable, sweep_values=tuple(values),
        n_trials=n_trials, algorithms=tuple(algorithms), master_seed=master_seed,
    )


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


def wrap_phase(phi):
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
    dphi = wrap_phase(result.phi[None, :] - true_phi[:, None]) / np.pi
    df = (result.f[None, :] - true_f[:, None]) / scenario.pattern.f_s
    perm = _min_cost_assignment(dphi**2 + df**2)
    phase_err = wrap_phase(result.phi[perm] - true_phi)
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
              data: TrialData | None = None) -> TrialRecord:
    """One seeded trial; estimation failures are recorded, not raised.

    `data` shares the snapshots of `scenario.with_seed(seed)` with the
    other algorithms run on the same trial; without it they are assembled
    for this call alone.
    """
    scen = scenario.with_seed(seed)
    if sweep_value is None:
        sweep_value = scen.snr_db
    try:
        result = run_algorithm(algorithm, scen, data)
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


def _run_task(task) -> list[TrialRecord]:
    """Every algorithm of one (sweep point, trial), on one shared data set."""
    scenario, algorithms, seed, value, trial_index = task
    data = TrialData(scenario.with_seed(seed), algorithms)
    return [run_trial(scenario, algorithm, seed, sweep_value=value,
                      trial_index=trial_index, data=data)
            for algorithm in algorithms]


def _point_bounds(scenario: ScenarioConfig, algorithms) -> dict:
    """(phase, frequency) bound columns of one sweep point, keyed by
    receiver structure (full or not; JDFPI and JDFSDPJ share one): RMS over
    the per-source diagonals, NaN for a noiseless scenario."""
    structures = {algorithm == "JDFSD-full" for algorithm in algorithms}
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

    Each point's bounds are computed first, so a point whose bound is
    undefined raises before any trial runs.  Each (sweep value, trial) is
    synthesized once and every algorithm runs on the same snapshots; records
    come in (sweep value, trial, algorithm) order.  Deterministic in
    `config` (including `master_seed`); any worker count produces the
    identical table because per-trial seeds are pre-derived and records are
    aggregated in task order.  On KeyboardInterrupt the completed records
    are aggregated into a partial table that is returned via the
    exception's `partial` attribute.
    """
    tasks, bounds = [], []
    for s_idx, value in enumerate(config.sweep_values):
        scenario = scenario_for_value(config.base, config.sweep_variable, value)
        bounds.append(_point_bounds(scenario, config.algorithms))
        for trial in range(config.n_trials):
            seed = derive_trial_seed(config.master_seed, s_idx, trial)
            tasks.append((scenario, config.algorithms, seed, value, trial))

    records: list[TrialRecord] = []
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for group in pool.map(_run_task, tasks, chunksize=4):
                    records.extend(group)
        else:
            for task in tasks:
                records.extend(_run_task(task))
    except KeyboardInterrupt as exc:
        exc.partial = _aggregate(config, records, bounds)
        raise

    return _aggregate(config, records, bounds)


def _aggregate(config: SweepConfig, records, bounds) -> ResultTable:
    """Rows per (sweep value, algorithm, metric); `bounds` holds each
    point's `_point_bounds`."""
    rows = []
    for value, point_bounds in zip(config.sweep_values, bounds):
        for algorithm in config.algorithms:
            group = [r for r in records
                     if r.sweep_value == value and r.algorithm == algorithm]
            good = [r for r in group if not r.failed]
            phase_crb, freq_crb = point_bounds[algorithm == "JDFSD-full"]
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
            r.sweep_variable, format_value(r.sweep_value), r.algorithm,
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


def format_value(value) -> str:
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
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(value[0], value[1])
    raise ConfigError(f"amplitude must be a number or [re, im], got {value!r}")


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a scenario from the documented JSON layout."""
    try:
        geom_d = data["geometry"]
        pat_d = data["pattern"]
        src_l = data["sources"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"scenario config missing section: {exc}") from exc
    try:
        geom = ArrayGeometry(
            M=int(geom_d["M"]), d=float(geom_d["d"]),
            c_prop=float(geom_d.get("c_prop", 3e8)),
        )
        pattern = MultiCosetPattern(
            L=int(pat_d["L"]), offsets=tuple(pat_d["offsets"]),
            f_N=float(pat_d.get("f_N", 1.0)),
        )
        sources = tuple(
            SourceTruth(
                theta=float(s["theta"]), f_c=float(s["f_c"]),
                amplitude=_complex_from_json(s.get("amplitude", 1.0)),
                envelope=s.get("envelope", "tone"),
                bandwidth=float(s.get("bandwidth", 0.0)),
            )
            for s in src_l
        )
        snr = data.get("snr_db", 10.0)
        return ScenarioConfig(
            geom=geom, pattern=pattern, sources=sources,
            snr_db=None if snr is None else float(snr),
            n_snapshots=int(data.get("n_snapshots", 4096)),
            rng_seed=int(data.get("rng_seed", 0)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid scenario config: {exc}") from exc


def sweep_from_dict(data: dict) -> SweepConfig:
    try:
        base = scenario_from_dict(data["base"])
        return SweepConfig(
            base=base,
            sweep_variable=data["sweep_variable"],
            sweep_values=tuple(data["sweep_values"]),
            n_trials=int(data.get("n_trials", 500)),
            algorithms=tuple(data.get("algorithms", ("JDFPI", "JDFSDPJ"))),
            master_seed=int(data.get("master_seed", 0)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid sweep config: {exc}") from exc
