#!/usr/bin/env python3
"""subnyq benchmark: Monte Carlo sweep throughput and bound-table rate.

Run from the repository root:

    python3 bench/run.py --workload snr_default --seed 1 --seconds 30 --trace 0

`--trace 0` times the named workload with tracing off and reports the
end-to-end metrics.  `--trace 1` runs the traced suite, which covers every
workload in one invocation (the pool speed-up and the tracing overhead are
ratios between passes), and reports the per-layer metrics.  Both modes run
the output and determinism checks.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`;
the exit code is 0 only when every check passed.  See bench/README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()

# Cap BLAS/OpenMP threads before numpy loads: with at most POOL_WORKERS
# processes on a 2-core machine, workers x threads stays within nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("snr_default", "short_full", "crb_curve")
POOL_WORKERS = 2           # process-pool size of the reference and pool sweeps
SWEEP_TRIALS = 10          # trials per (sweep value, algorithm) in one sweep
CURVE_K = (1, 2, 3)
CURVE_N = (1024, 4096, 16384)
SETUP_PROBES = 4           # set-ups in child processes spread over the run
CRITERION_5_DB = 3.0       # JDFSDPJ phase RMSE above the bound, at 20 and 30 dB
GAP_TRIALS = 40            # trials per point of the criterion-5 check sweep
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
PIPELINE_SPANS = {"JDFPI": "jdfpi", "JDFSDPJ": "jdfsdpj", "JDFSD-full": "jdfsd_full"}


# --------------------------------------------------------------- inputs ---

def load_library():
    """Import subnyq from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import subnyq.crb
        import subnyq.errors
        import subnyq.harness
        import subnyq.siggen
    except ImportError as exc:
        sys.exit(f"bench: cannot import subnyq from {SRC}: {exc}")
    if Path(subnyq.__file__).resolve().parent != SRC / "subnyq":
        sys.exit(f"bench: imported subnyq from {subnyq.__file__}, not {SRC}")
    return types.SimpleNamespace(harness=subnyq.harness, crb=subnyq.crb,
                                 siggen=subnyq.siggen, errors=subnyq.errors)


def sweep_config(lib, workload: str, seed: int):
    """The sweep a sweep workload repeats; `seed` is its master_seed."""
    h = lib.harness
    base = h.default_scenario(K=3, snr_db=20.0)
    if workload == "short_full":
        return h.SweepConfig(
            base=replace(base, n_snapshots=256), sweep_variable="n_sources",
            sweep_values=(1, 2, 3), n_trials=SWEEP_TRIALS,
            algorithms=("JDFPI", "JDFSDPJ", "JDFSD-full"), master_seed=seed)
    return h.SweepConfig(
        base=base, sweep_variable="snr_db", sweep_values=(10.0, 20.0, 30.0),
        n_trials=SWEEP_TRIALS, algorithms=("JDFPI", "JDFSDPJ"), master_seed=seed)


def curve_scenarios(lib, seed: int):
    """One seeded tone layout per K on the default array (distinct bands,
    DOAs within +-60 deg), each at every N of the curve."""
    base = lib.harness.default_scenario(K=1, snr_db=20.0)
    L, f_s = base.pattern.L, base.pattern.f_s
    rng = np.random.default_rng(seed)
    scenarios = []
    for K in CURVE_K:
        bands = rng.choice(L, size=K, replace=False)
        sources = tuple(
            lib.siggen.SourceTruth(theta=float(np.deg2rad(rng.uniform(-60.0, 60.0))),
                                   f_c=float((b + rng.uniform(0.1, 0.9)) * f_s))
            for b in bands
        )
        scenarios += [replace(base, sources=sources, n_snapshots=N) for N in CURVE_N]
    return scenarios


# ------------------------------------------------------------------ jobs ---

@dataclass
class SweepCall:
    seconds: float      # wall time of run_sweep
    table: object
    csv: bytes


@dataclass
class CurveCall:
    seconds: float
    tables: list        # per table: diagonals of phase sim/full, freq sim/full
    failed: int


def sweep_once(lib, config, workers: int, csv_path: Path) -> SweepCall:
    t0 = time.perf_counter()
    table = lib.harness.run_sweep(config, workers=workers)
    seconds = time.perf_counter() - t0
    lib.harness.emit_csv(table, csv_path)
    return SweepCall(seconds, table, csv_path.read_bytes())


def bound_table(lib, scenario):
    """The bound columns `subnyq crb` and the sweeps report, as diagonals."""
    crb = lib.crb
    inp = crb.crb_input_from_scenario(scenario)
    return tuple(np.diag(m).real for m in (
        crb.crb_phase(inp).crb_matrix,
        crb.crb_phase(inp, full_structure=True).crb_matrix,
        crb.freq_crb_numerical(inp),
        crb.freq_crb_numerical(inp, full_structure=True),
    ))


def curve_once(lib, scenarios) -> CurveCall:
    tables, failed = [], 0
    t0 = time.perf_counter()
    for scenario in scenarios:
        try:
            tables.append(bound_table(lib, scenario))
        except lib.errors.SubnyqError:
            failed += 1
    return CurveCall(time.perf_counter() - t0, tables, failed)


def repeat_for(seconds: float, job) -> list:
    """Call `job` back to back (closed loop) until `seconds` pass; at least once."""
    calls = []
    deadline = time.perf_counter() + seconds
    while not calls or time.perf_counter() < deadline:
        calls.append(job())
    return calls


def sweep_rate(call: SweepCall) -> float:
    return len(call.table.records) / call.seconds


def curve_rate(call: CurveCall) -> float:
    return len(call.tables) / call.seconds


# ---------------------------------------------------------------- checks ---

def check_sweep(config, call: SweepCall) -> list[str]:
    """Every attempted trial is accounted for in the table."""
    errors = []
    records = call.table.records
    expected = len(config.sweep_values) * len(config.algorithms) * config.n_trials
    if len(records) != expected:
        errors.append(f"{len(records)} trial records for {expected} attempted trials")
    for row in call.table.rows:
        group = [r for r in records
                 if r.sweep_value == row.sweep_value and r.algorithm == row.algorithm]
        good = sum(not r.failed for r in group)
        if (len(group), row.n_trials, row.n_success) != (config.n_trials,) * 2 + (good,):
            errors.append(f"{row.algorithm} at {row.sweep_value}: {len(group)} records, "
                          f"row says {row.n_success}/{row.n_trials}, {good} succeeded")
    return errors


def check_csv(lib, config, csv: bytes, csv_path: Path) -> list[str]:
    """The emitted CSV reads back with one row per (point, algorithm, metric)."""
    csv_path.write_bytes(csv)
    rows = lib.harness.read_csv(csv_path)
    expected = 2 * len(config.sweep_values) * len(config.algorithms)
    if len(rows) != expected or any(r.n_trials != config.n_trials for r in rows):
        return [f"CSV has {len(rows)} rows, expected {expected} "
                f"with n_trials={config.n_trials}"]
    return []


def check_phase_gap(lib, seed: int, workers: int) -> tuple[list[str], dict]:
    """Criterion 5 on its own untimed sweep: JDFSDPJ phase RMSE under 3 dB
    above the bound at 20 and 30 dB, over GAP_TRIALS trials per point."""
    config = lib.harness.SweepConfig(
        base=lib.harness.default_scenario(K=3, snr_db=20.0), sweep_variable="snr_db",
        sweep_values=(20.0, 30.0), n_trials=GAP_TRIALS, algorithms=("JDFSDPJ",),
        master_seed=seed)
    errors, gaps = [], {}
    for row in lib.harness.run_sweep(config, workers=workers).rows:
        if row.metric != "phase_rmse":
            continue
        gaps[row.sweep_value] = 20.0 * math.log10(row.rmse / row.crb)
        if not gaps[row.sweep_value] < CRITERION_5_DB:
            errors.append(f"JDFSDPJ phase RMSE {gaps[row.sweep_value]:+.2f} dB above "
                          f"the bound at {row.sweep_value:g} dB (limit {CRITERION_5_DB} dB)")
    return errors, gaps


def check_determinism(label: str, reference: bytes, calls) -> list[str]:
    differing = sum(c.csv != reference for c in calls)
    if differing:
        return [f"{label}: {differing} of {len(calls)} sweeps emitted CSV bytes "
                "different from the serial reference"]
    return []


def check_curve(calls) -> list[str]:
    """Every bound finite and positive; simplified >= full element-wise
    (criterion 7), for the phase and the frequency bounds."""
    errors = []
    for call in calls:
        if call.failed:
            errors.append(f"{call.failed} bound tables raised")
        for phase_sim, phase_full, freq_sim, freq_full in call.tables:
            cols = (phase_sim, phase_full, freq_sim, freq_full)
            if not all(np.all(np.isfinite(c)) and np.all(c > 0) for c in cols):
                errors.append("a bound is not finite and positive")
            for sim, full in ((phase_sim, phase_full), (freq_sim, freq_full)):
                if not np.all(sim >= full * (1.0 - 1e-9)):
                    errors.append("a simplified-structure bound is below the "
                                  "full-structure bound")
    return sorted(set(errors))


# ------------------------------------------------------ per-layer metrics ---

def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, int]:
    """Highest of TAIL_PERCENTILES with at least 10 samples beyond it
    (nearest rank), and that percentile; p50 when none has."""
    xs = sorted(values)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * len(xs))
        if len(xs) - rank >= 10:
            break
    return (xs[rank - 1] if xs else 0.0), pct


class SpanView:
    """Queries over one traced section's spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.spans = tracer.spans
        self.own = tracer.self_times()
        self.trials = max(1, sum(s[0] == "harness.run_trial" for s in self.spans))

    def durations(self, *names) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] in names]

    def ms_p50(self, *names) -> float:
        return p50([1e3 * x for x in self.durations(*names)])

    def self_ms_per_trial(self, *names) -> float:
        return 1e3 * sum(o for s, o in zip(self.spans, self.own) if s[0] in names) / self.trials

    def counted(self, *keys) -> tuple[int, float]:
        cells = [self.tracer.counts.get(k, [0, 0.0]) for k in keys]
        return sum(c[0] for c in cells), sum(c[1] for c in cells)


def sweep_layers(prefix: str, view: SpanView, config, notes: dict) -> dict:
    m = {}

    def put(name, value, unit):
        m[f"{prefix}.{name}"] = (value, unit)

    def put_timing(name, names):
        d = [1e3 * x for x in view.durations(*names)]
        value, pct = tail(d)
        put(f"{name}.ms_p50", p50(d), "ms")
        put(f"{name}.ms_tail", value, "ms")
        notes[f"{prefix}.{name}.ms_tail"] = f"p{pct} of {len(d)} calls"

    spans, n = view.spans, view.trials
    put("siggen.assemble_snapshots.ms_p50", view.ms_p50("siggen.assemble_snapshots"), "ms")
    if "JDFSD-full" in config.algorithms:
        put("siggen.assemble_full_snapshots.ms_p50",
            view.ms_p50("siggen.assemble_full_snapshots"), "ms")
    assembles = sum(s[0] in ("siggen.assemble_snapshots", "siggen.assemble_full_snapshots")
                    and s[4] >= 0 for s in spans)
    put("siggen.assemble_calls_per_trial", assembles / n, "count")
    calls, seconds = view.counted("estimators:model.joint_steering",
                                  "estimators:model.full_steering")
    put("model.steering_calls_per_trial", calls / n, "count")
    put("model.steering.ms_per_trial", 1e3 * seconds / n, "ms")
    for algorithm in config.algorithms:
        name = PIPELINE_SPANS[algorithm]
        put_timing(f"estimators.{name}", (f"estimators.{name}",))
    put("estimators.search.self_ms_per_trial", view.self_ms_per_trial(
        "estimators.jdfsdpj", "estimators.jdfsd_full", "estimators.music_spatial"), "ms")
    put("estimators.cov_eig.ms_per_trial", view.self_ms_per_trial(
        "estimators.sample_covariance", "estimators.decompose"), "ms")
    for stage in ("ctf_support", "ls_solve", "residual_frequency"):
        put(f"estimators.{stage}.ms_per_trial",
            view.self_ms_per_trial(f"estimators.{stage}"), "ms")
    put("crb.crb_phase.ms_p50", view.ms_p50("crb.crb_phase", "crb.crb_phase_full"), "ms")
    put("crb.freq_crb_numerical.ms_p50", view.ms_p50("crb.freq_crb_numerical"), "ms")
    if "JDFSD-full" in config.algorithms:
        put("crb.freq_crb_numerical_full.ms_p50",
            view.ms_p50("crb.freq_crb_numerical_full"), "ms")
    sweeps = [i for i, s in enumerate(spans) if s[0] == "harness.run_sweep"]
    points = max(1, len(sweeps) * len(config.sweep_values))
    crb_calls = [s for s in spans
                 if s[0].startswith("crb.") and s[3] in sweeps]
    put("crb.ms_per_sweep_point", 1e3 * sum(s[2] - s[1] for s in crb_calls) / points, "ms")
    put("crb.calls_per_sweep_point", len(crb_calls) / points, "count")
    put_timing("harness.run_trial", ("harness.run_trial",))
    put("harness.match_estimates.ms_per_trial",
        1e3 * sum(view.durations("harness.match_estimates")) / n, "ms")
    serial = []
    for i in sweeps:
        inside = sum(s[2] - s[1] for s in spans
                     if s[3] == i and s[0] == "harness.run_trial")
        serial.append(spans[i][2] - spans[i][1] - inside)
    put("harness.serial_s", p50(serial), "s")
    return m


def sweep_shares(view: SpanView) -> dict:
    """Share of summed run_trial time per stage."""
    total = sum(view.durations("harness.run_trial")) or 1.0
    in_trials = [(s, o) for s, o in zip(view.spans, view.own) if s[4] >= 0]

    def own(*names):
        return sum(o for s, o in in_trials if s[0] in names)

    stages = {
        "synthesis": sum(s[2] - s[1] for s, _ in in_trials
                         if s[0] in ("siggen.assemble_snapshots",
                                     "siggen.assemble_full_snapshots")),
        "search": own("estimators.jdfsdpj", "estimators.jdfsd_full",
                      "estimators.music_spatial"),
        "cov_eig": own("estimators.sample_covariance", "estimators.decompose"),
        "ctf_support": own("estimators.ctf_support"),
        "ls_solve": own("estimators.ls_solve"),
        "residual_frequency": own("estimators.residual_frequency"),
        "match_estimates": sum(view.durations("harness.match_estimates")),
    }
    stages["other"] = total - sum(stages.values())
    return {k: v / total for k, v in stages.items()}


def curve_shares(view: SpanView, wall: float) -> dict:
    stages = {
        "freq_crb_numerical": sum(view.durations("crb.freq_crb_numerical",
                                                 "crb.freq_crb_numerical_full")),
        "crb_phase": sum(view.durations("crb.crb_phase", "crb.crb_phase_full")),
        "crb_input_from_scenario": sum(view.durations("crb.crb_input_from_scenario")),
    }
    stages["other"] = wall - sum(stages.values())
    return {k: v / wall for k, v in stages.items()}


# ------------------------------------------------------------------ runs ---

@dataclass
class Outcome:
    metrics: dict       # name -> (value, unit)
    attempted: int
    failed: int
    errors: list
    lines: list         # human-readable report


def run_end_to_end(lib, workload: str, seed: int, seconds: float,
                   setup_s: float) -> Outcome:
    """Repeat the workload's job, untraced, for `seconds`.

    The window is cut into SETUP_PROBES + 1 equal parts with a set-up probe
    between parts, so the set-up samples spread over the same minute as the
    throughput samples: the machine's speed drifts on that scale.
    """
    csv_path = OUT_DIR / f"{workload}-seed{seed}.csv"
    lines, errors = [], []
    if workload == "crb_curve":
        scenarios = curve_scenarios(lib, seed)
        job, rate = (lambda: curve_once(lib, scenarios)), curve_rate
    else:
        config = sweep_config(lib, workload, seed)
        job, rate = (lambda: sweep_once(lib, config, 1, csv_path)), sweep_rate
    calls, setups = [], [setup_s]
    for part in range(SETUP_PROBES + 1):
        calls += repeat_for(seconds / (SETUP_PROBES + 1), job)
        if part < SETUP_PROBES:
            setups.append(probe_setup(workload, seed))
    rates = [rate(c) for c in calls]

    if workload == "crb_curve":
        attempted = sum(len(c.tables) + c.failed for c in calls)
        failed = sum(c.failed for c in calls)
        errors += check_curve(calls)
        lines.append(f"bound_tables_per_s {statistics.median(rates):.4f} tables/s "
                     f"(median of {len(calls)} curves of {len(scenarios)} tables)")
    else:
        attempted = sum(len(c.table.records) for c in calls)
        failed = sum(r.failed for c in calls for r in c.table.records)
        reference = sweep_once(lib, config, POOL_WORKERS, csv_path)   # untimed
        for call in [reference] + calls:
            errors += check_sweep(config, call)
        errors += check_csv(lib, config, reference.csv, csv_path)
        errors += check_determinism(workload, reference.csv, calls)
        if config.sweep_variable == "snr_db":
            gap_errors, gaps = check_phase_gap(lib, seed, POOL_WORKERS)
            errors += gap_errors
            lines.append("JDFSDPJ phase RMSE above bound: " + ", ".join(
                f"{g:+.2f} dB at {s:g} dB" for s, g in gaps.items()))
        lines.append(f"trials_per_s {statistics.median(rates):.4f} trials/s "
                     f"(median of {len(calls)} sweeps of {len(calls[0].table.records)} "
                     f"trials, workers=1)")
        lines.append(f"trial_failure_rate {failed / attempted:.4g} ratio "
                     f"({failed} of {attempted})")
    quartiles = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
    lines.append("per-call rate quartiles: " + ", ".join(f"{q:.4f}" for q in quartiles))
    lines.append("set-up samples (s): " + ", ".join(f"{x:.4f}" for x in setups))
    metrics = {
        "trials_or_tables_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return Outcome(metrics, attempted, failed, sorted(set(errors)), lines)


def run_traced(lib, workload: str, seed: int, seconds: float) -> Outcome:
    """Untraced and traced passes over every workload, in one process."""
    share = seconds / 10.0
    csv_path = OUT_DIR / f"trace-{workload}-seed{seed}.csv"
    snr = sweep_config(lib, "snr_default", seed)
    short = sweep_config(lib, "short_full", seed)
    scenarios = curve_scenarios(lib, seed)
    tracers = {name: Tracer() for name in ("snr_default", "short_full", "crb_curve")}

    snr_plain = repeat_for(share, lambda: sweep_once(lib, snr, 1, csv_path))
    with tracers["snr_default"]:
        snr_traced = repeat_for(2 * share, lambda: sweep_once(lib, snr, 1, csv_path))
    pool = repeat_for(share, lambda: sweep_once(lib, snr, POOL_WORKERS, csv_path))
    short_plain = repeat_for(share, lambda: sweep_once(lib, short, 1, csv_path))
    with tracers["short_full"]:
        short_traced = repeat_for(2 * share, lambda: sweep_once(lib, short, 1, csv_path))
    curve_plain = repeat_for(share, lambda: curve_once(lib, scenarios))
    with tracers["crb_curve"]:
        curve_traced = repeat_for(2 * share, lambda: curve_once(lib, scenarios))

    errors = []
    for config, calls in ((snr, snr_plain + snr_traced + pool),
                          (short, short_plain + short_traced)):
        for call in calls:
            errors += check_sweep(config, call)
        errors += check_csv(lib, config, calls[0].csv, csv_path)
        errors += check_determinism(config.sweep_variable + " sweep", calls[0].csv, calls)
    gap_errors, gaps = check_phase_gap(lib, seed, POOL_WORKERS)
    errors += gap_errors
    errors += check_curve(curve_plain + curve_traced)

    notes, lines, metrics = {}, [], {}
    views = {name: SpanView(t) for name, t in tracers.items()}
    metrics.update(sweep_layers("snr_default", views["snr_default"], snr, notes))
    metrics.update(sweep_layers("short_full", views["short_full"], short, notes))
    curve_view = views["crb_curve"]
    metrics["crb_curve.crb.crb_phase.ms_p50"] = (
        curve_view.ms_p50("crb.crb_phase", "crb.crb_phase_full"), "ms")
    for name in ("freq_crb_numerical", "freq_crb_numerical_full"):
        metrics[f"crb_curve.crb.{name}.ms_p50"] = (curve_view.ms_p50(f"crb.{name}"), "ms")

    def overhead(plain, traced, rate):
        untraced = statistics.median(rate(c) for c in plain)
        return 100.0 * (untraced / statistics.median(rate(c) for c in traced) - 1.0)

    for name, plain, traced, rate in (
            ("snr_default", snr_plain, snr_traced, sweep_rate),
            ("short_full", short_plain, short_traced, sweep_rate),
            ("crb_curve", curve_plain, curve_traced, curve_rate)):
        metrics[f"{name}.trace.overhead_pct"] = (overhead(plain, traced, rate), "%")
    speedup = (statistics.median(sweep_rate(c) for c in pool)
               / statistics.median(sweep_rate(c) for c in snr_plain))
    metrics["snr_default.harness.pool.speedup"] = (speedup, "ratio")
    metrics["snr_default.harness.pool.efficiency"] = (speedup / POOL_WORKERS, "ratio")

    shares = {
        "snr_default": sweep_shares(views["snr_default"]),
        "short_full": sweep_shares(views["short_full"]),
        "crb_curve": curve_shares(curve_view, sum(c.seconds for c in curve_traced)),
    }
    for name, stage in shares.items():
        lines.append(f"{name} time shares: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in sorted(stage.items(), key=lambda kv: -kv[1])))
    lines += [f"{k}: {v}" for k, v in notes.items()]
    lines.append("JDFSDPJ phase RMSE above bound: " + ", ".join(
        f"{g:+.2f} dB at {s:g} dB" for s, g in gaps.items()))
    lines.append(f"passes: snr_default {len(snr_plain)}+{len(snr_traced)} traced, "
                 f"pool {len(pool)}, short_full {len(short_plain)}+{len(short_traced)} "
                 f"traced, crb_curve {len(curve_plain)}+{len(curve_traced)} traced")

    trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(trace_path, "w") as fh:
        json.dump({name: t.as_dict() for name, t in tracers.items()}, fh)
    lines.append(f"trace written to {trace_path.relative_to(ROOT)}")

    sweeps = snr_plain + snr_traced + pool + short_plain + short_traced
    curves = curve_plain + curve_traced
    attempted = (sum(len(c.table.records) for c in sweeps)
                 + sum(len(c.tables) + c.failed for c in curves))
    failed = (sum(r.failed for c in sweeps for r in c.table.records)
              + sum(c.failed for c in curves))
    return Outcome(metrics, attempted, failed, sorted(set(errors)), lines)


# ------------------------------------------------------------- setup, env ---

def warm_up(lib, workload: str, seed: int) -> None:
    """One trial per algorithm, or one bound table, before timing starts."""
    if workload == "crb_curve":
        bound_table(lib, curve_scenarios(lib, seed)[0])
        return
    config = sweep_config(lib, workload, seed)
    for algorithm in config.algorithms:
        lib.harness.run_trial(config.base, algorithm, seed)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: import plus warm-up."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _blas(module) -> str | None:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = done.stdout.split()
    if done.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def environment() -> dict:
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(np), "scipy": _blas(scipy)},
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


# ------------------------------------------------------------------ main ---

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit "
                             "(used for the set-up probes)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    lib = load_library()
    warm_up(lib, args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(setup_s)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    if args.trace:
        outcome = run_traced(lib, args.workload, args.seed, args.seconds)
    else:
        outcome = run_end_to_end(lib, args.workload, args.seed, args.seconds, setup_s)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(),
              "loadavg_start": load_start, "loadavg_end": os.getloadavg()}

    for line in outcome.lines:
        print(line)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps(record))
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
