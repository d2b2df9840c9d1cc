"""Command-line interface.

Exit codes: 0 success, 2 configuration error (sizes that do not fit in
memory included), 3 estimation failure in `single` mode, 4 I/O error.

Importing this module sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to "1" in this process's environment where they are unset
(a value set outside wins), before numpy loads: the `subnyq` command's BLAS
runs one thread, since more buy nothing on these small matrices and take
the core a serial sweep's fill thread draws on.  pytest and library
callers load numpy first and keep their BLAS threads.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

from . import BLAS_THREAD_VARIABLES

for _name in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

from .crb import crb_input_from_scenario, crb_phase, freq_crb_numerical  # noqa: E402
from .errors import ConfigError, EstimationError, RankDeficiencyError  # noqa: E402
from .harness import (  # noqa: E402
    SweepConfig,
    check_algorithms,
    default_scenario,
    default_sweep,
    emit_csv,
    format_csv,
    run_algorithm,
    run_sweep,
    scenario_from_dict,
    sweep_from_dict,
    trial_output,
)
from .siggen import assemble_snapshots, dump_snapshots  # noqa: E402

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ESTIMATION = 3
EXIT_IO = 4


def _load_json(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _scenario_from_args(args):
    if args.config:
        return scenario_from_dict(_load_json(args.config))
    return default_scenario()


def _algorithms_from_args(args, default):
    if args.algorithms is None:
        return default
    return tuple(a.strip() for a in args.algorithms.split(",") if a.strip())


def _print_result(result, scenario):
    print(f"algorithm: {result.algorithm}")
    print("  #  phi_hat[rad]   band  f_res/f_N      f_hat/f_N      theta_hat[deg]")
    f_N = scenario.pattern.f_N
    for k in range(result.n_sources):
        theta = np.degrees(result.theta[k])
        theta_s = f"{theta:14.6f}" if np.isfinite(theta) else "     (aliased)"
        print(
            f"  {k}  {result.phi[k]:13.9f} {result.band[k]:5d}  "
            f"{result.f_residual[k] / f_N:13.9f}  {result.f[k] / f_N:13.9f} {theta_s}"
        )


def cmd_single(args):
    scenario = _scenario_from_args(args)
    if args.seed is not None:
        scenario = replace(scenario, rng_seed=args.seed)
    algorithms = _algorithms_from_args(args, ("JDFPI", "JDFSDPJ"))
    check_algorithms(algorithms, (scenario,))  # before any algorithm prints
    with np.errstate(over="ignore", invalid="ignore"):
        output = trial_output(scenario, algorithms)  # shared by every algorithm
    # an extreme noise power overflows the sample covariance, which no
    # eigensolver takes; a sweep's bounds reject it before any trial
    if not all(np.isfinite(R).all() for _, R in output.values()):
        raise ConfigError(f"noise power {scenario.sigma2:.3g} at SNR "
                          f"{scenario.snr_db} dB overflows the sample covariance")
    for name in algorithms:
        try:
            result = run_algorithm(name, scenario, output)
        except EstimationError as exc:
            print(f"algorithm {name} failed at step {exc.step}: {exc}",
                  file=sys.stderr)
            return EXIT_ESTIMATION
        _print_result(result, scenario)
    return EXIT_OK


def _sweep_from_args(args, variable):
    if args.config:
        sweep = sweep_from_dict(_load_json(args.config))
        if sweep.sweep_variable != variable:
            raise ConfigError(
                f"config sweeps {sweep.sweep_variable!r} but the subcommand "
                f"expects {variable!r}"
            )
    else:
        sweep = default_sweep(variable)
    overrides = {"algorithms": _algorithms_from_args(args, sweep.algorithms)}
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    return replace(sweep, **overrides)


def _run_and_emit(sweep: SweepConfig, args):
    try:
        table = run_sweep(sweep, workers=args.workers)
    except KeyboardInterrupt as exc:
        table = getattr(exc, "partial", None)
        if table is None or not args.out:
            raise
        print("interrupted; flushing partial results", file=sys.stderr)
    if args.out:
        emit_csv(table, args.out)
        print(f"wrote {len(table.rows)} rows to {args.out}")
    else:
        sys.stdout.write(format_csv(table))
    return EXIT_OK


def cmd_sweep_snr(args):
    return _run_and_emit(_sweep_from_args(args, "snr_db"), args)


def cmd_sweep_k(args):
    return _run_and_emit(_sweep_from_args(args, "n_sources"), args)


def cmd_crb(args):
    scenario = _scenario_from_args(args)
    inp = crb_input_from_scenario(scenario)
    sim = crb_phase(inp).per_source_std
    full = crb_phase(inp, full_structure=True).per_source_std
    freq = np.sqrt(np.diag(freq_crb_numerical(inp)).real) / scenario.pattern.f_N
    print("  #  phase_std(sim)   phase_std(full)  freq_std(sim)/f_N")
    for k in range(inp.n_sources):
        print(f"  {k}  {sim[k]:15.6e}  {full[k]:15.6e}  {freq[k]:15.6e}")
    return EXIT_OK


def cmd_dump_snapshots(args):
    scenario = _scenario_from_args(args)
    if args.seed is not None:
        scenario = replace(scenario, rng_seed=args.seed)
    W = assemble_snapshots(scenario)
    try:
        dump_snapshots(W, scenario.rng_seed, args.out)
    except OSError as exc:
        raise OSError(f"cannot write snapshots to {args.out}: {exc}") from exc
    print(f"wrote {W.shape[0]}x{W.shape[1]} snapshots to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subnyq",
        description="Joint DOA/frequency estimation from a simplified "
                    "multi-coset sub-Nyquist array receiver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        if out_required:
            p.add_argument("--out", required=True, help="output file path")

    p = sub.add_parser("single", help="run one trial and print the estimates")
    common(p)
    p.add_argument("--algorithms", help="comma list, e.g. JDFPI,JDFSDPJ")
    p.set_defaults(func=cmd_single)

    for name, func in (("sweep-snr", cmd_sweep_snr), ("sweep-k", cmd_sweep_k)):
        p = sub.add_parser(name, help=f"Monte Carlo RMSE sweep ({name[6:]})")
        common(p)
        p.add_argument("--out", help="CSV output path (stdout if omitted)")
        p.add_argument("--trials", type=int, help="trials per sweep point")
        p.add_argument("--algorithms", help="comma list of algorithms")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (at least 1; "
                            "capped at the CPU count)")
        p.set_defaults(func=func)

    p = sub.add_parser("crb", help="print the CRB table for a scenario")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_crb)

    p = sub.add_parser("dump-snapshots",
                       help="write the binary snapshot file for a scenario")
    common(p, out_required=True)
    p.set_defaults(func=cmd_dump_snapshots)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RankDeficiencyError as exc:
        # only the bounds get here (`single` reports its own estimation
        # failures, sweeps record them per trial); they are undefined for
        # sources the receiver cannot tell apart
        print(f"configuration error: bound undefined: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"configuration error: sizes do not fit in memory: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
