"""End-to-end acceptance checks for the receiver, estimators, bounds, and
harness.  Each test prints one `[acceptance] criterion N: PASS/FAIL` line.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import combined_matrix, fim_numerical, random_scenario, selection_matrix
from subnyq.crb import crb_input_from_scenario, crb_phase
from subnyq.estimators import jdfpi, jdfsdpj
from subnyq.harness import SweepConfig, default_scenario, emit_csv, match_estimates, run_sweep
from subnyq.model import build_B, build_G_selected, selected_channel_columns
from subnyq.crb import projector_complement
from subnyq.siggen import ScenarioConfig, assemble_snapshots


@pytest.fixture
def report(capsys):
    def _report(criterion: int, ok: bool, detail: str):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"\n[acceptance] criterion {criterion}: {status} - {detail}")
        assert ok, f"criterion {criterion}: {detail}"
    return _report


def _row(table, value, algorithm, metric):
    for r in table.rows:
        if (float(r.sweep_value) == float(value) and r.algorithm == algorithm
                and r.metric == metric):
            return r
    raise KeyError((value, algorithm, metric))


def _db(ratio: float) -> float:
    return 20.0 * np.log10(ratio)


@pytest.fixture(scope="module")
def snr_sweep():
    config = SweepConfig(
        base=default_scenario(K=3, snr_db=20.0),
        sweep_variable="snr_db", sweep_values=(10.0, 20.0, 30.0),
        n_trials=500, algorithms=("JDFPI", "JDFSDPJ"), master_seed=0,
    )
    start = time.perf_counter()
    table = run_sweep(config)
    return table, time.perf_counter() - start


@pytest.fixture(scope="module")
def source_count_sweep():
    config = SweepConfig(
        base=default_scenario(K=3, snr_db=20.0),
        sweep_variable="n_sources", sweep_values=(1, 2, 3),
        n_trials=500, algorithms=("JDFPI", "JDFSDPJ"), master_seed=0,
    )
    return run_sweep(config)


def test_criterion_01_structural_identities(report):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        config = random_scenario(rng, snr_db=None)
        geom, pattern = config.geom, config.pattern
        phis = config.phases()
        bands = [config.band_of(k) for k in range(config.n_sources)]

        B = build_B(pattern)
        worst = max(worst, np.max(np.abs(B @ B.conj().T - np.eye(pattern.P))))

        J = selection_matrix(geom.M, pattern.P)
        worst = max(worst, np.max(np.abs(J @ J.T - np.eye(J.shape[0]))))

        H = combined_matrix(phis, geom, pattern)
        rows = selected_channel_columns(geom.M, pattern.P)
        for k, phi in enumerate(phis):
            for l in (0, bands[k], pattern.L - 1):
                col = build_G_selected([phi], [l], geom, pattern, rows)[:, 0]
                worst = max(worst,
                            np.max(np.abs(H[:, k * pattern.L + l] - col)))

        H_sel = build_G_selected(phis, bands, geom, pattern, rows)
        P_c = projector_complement(H_sel)
        worst = max(worst, np.max(np.abs(P_c - P_c.conj().T)))
        worst = max(worst, np.max(np.abs(P_c @ P_c - P_c)))
        worst = max(worst, np.max(np.abs(P_c @ H_sel)))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-10 and elapsed < 10.0,
           f"100 random configs, worst identity deviation {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_02_noise_whiteness(report):
    n_snapshots = 100_000
    config = ScenarioConfig(
        geom=default_scenario().geom, pattern=default_scenario().pattern,
        sources=(), snr_db=0.0, n_snapshots=n_snapshots, rng_seed=202,
    )
    sigma2 = config.sigma2
    start = time.perf_counter()
    W = assemble_snapshots(config).W
    R = W @ W.conj().T / n_snapshots
    dev = float(np.max(np.abs(R - sigma2 * np.eye(R.shape[0]))))
    elapsed = time.perf_counter() - start
    limit = 5.0 * sigma2 / np.sqrt(n_snapshots)
    report(2, dev < limit and elapsed < 30.0,
           f"covariance deviation {dev:.2e} vs limit {limit:.2e} at "
           f"N={n_snapshots}, {elapsed:.1f}s")


def test_criterion_03_noiseless_exact_recovery(report):
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst_phi = worst_f = 0.0
    count = 0
    while count < 50:
        config = random_scenario(rng, snr_db=None, n_snapshots=256)
        if config.n_sources > config.pattern.P - 1:
            continue
        count += 1
        snap = assemble_snapshots(config)
        for pipeline in (jdfpi, jdfsdpj):
            result = pipeline(snap, config)
            phase_err, freq_err = match_estimates(config, result)
            worst_phi = max(worst_phi, float(np.max(np.abs(phase_err))))
            worst_f = max(worst_f,
                          float(np.max(np.abs(freq_err))) / config.pattern.f_N)
    elapsed = time.perf_counter() - start
    report(3, worst_phi < 1e-4 and worst_f < 1e-6 and elapsed < 120.0,
           f"50 noiseless scenarios x 2 pipelines, worst |dphi|={worst_phi:.2e}"
           f" rad, worst |df|/f_N={worst_f:.2e}, {elapsed:.1f}s")


def test_criterion_04_bound_cross_validation(report):
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        config = random_scenario(rng, snr_db=15.0, n_snapshots=256)
        inp = crb_input_from_scenario(config)
        analytic = crb_phase(inp).crb_matrix
        numeric = np.linalg.inv(fim_numerical(inp))
        worst = max(worst, float(np.linalg.norm(analytic - numeric)
                                 / np.linalg.norm(analytic)))
    elapsed = time.perf_counter() - start
    report(4, worst < 1e-4 and elapsed < 60.0,
           f"20 random scenarios, worst relative bound mismatch {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_05_phase_rmse_approaches_bound_with_snr(report, snr_sweep):
    table, elapsed = snr_sweep
    gaps = {}
    for snr in (20.0, 30.0):
        row = _row(table, snr, "JDFSDPJ", "phase_rmse")
        gaps[snr] = _db(row.rmse / row.crb)
    ok = all(gap < 3.0 for gap in gaps.values()) and elapsed < 600.0
    detail = ", ".join(f"{int(s)} dB SNR: {g:+.2f} dB above bound"
                       for s, g in gaps.items())
    report(5, ok, f"joint-search phase RMSE vs bound ({detail}), "
                  f"sweep took {elapsed:.0f}s")


def test_criterion_06_joint_search_beats_pairing_pipeline(report, snr_sweep):
    table, _ = snr_sweep
    joint = _row(table, 10.0, "JDFSDPJ", "phase_rmse").rmse
    paired = _row(table, 10.0, "JDFPI", "phase_rmse").rmse
    ok = joint < 0.95 * paired
    report(6, ok,
           f"at 10 dB SNR: joint-search RMSE {joint:.3e} vs pairing pipeline "
           f"{paired:.3e} ({(1 - joint / paired) * 100:.1f}% lower)")


def test_criterion_07_selected_structure_bound_dominates_full(report):
    rng = np.random.default_rng(707)
    ok = True
    min_margin = np.inf
    for _ in range(20):
        config = random_scenario(rng, snr_db=10.0, n_snapshots=256)
        inp = crb_input_from_scenario(config)
        sim = np.diag(crb_phase(inp).crb_matrix).real
        full = np.diag(crb_phase(inp, full_structure=True).crb_matrix).real
        ok &= bool(np.all(sim >= full * (1 - 1e-12)))
        ok &= bool(np.any(sim > full * (1 + 1e-9)))
        min_margin = min(min_margin, float(np.max(sim / full)))
    report(7, ok,
           f"20 random scenarios: selected-structure bound >= full-structure "
           f"bound element-wise, strict somewhere (smallest max ratio "
           f"{min_margin:.3f})")


def test_criterion_08_joint_search_robust_to_source_count(report,
                                                          source_count_sweep):
    table = source_count_sweep
    joint_rmse = {k: _row(table, k, "JDFSDPJ", "phase_rmse").rmse
                  for k in (1, 2, 3)}
    joint_gap = {k: _db(_row(table, k, "JDFSDPJ", "phase_rmse").rmse
                        / _row(table, k, "JDFSDPJ", "phase_rmse").crb)
                 for k in (1, 2, 3)}
    spread = _db(max(joint_rmse.values()) / min(joint_rmse.values()))
    pairing_rmse = {k: _row(table, k, "JDFPI", "phase_rmse").rmse
                    for k in (1, 2, 3)}
    pairing_spread = _db(max(pairing_rmse.values()) / min(pairing_rmse.values()))
    ok = spread < 3.0 and all(g < 3.0 for g in joint_gap.values())
    report(8, ok,
           f"joint-search RMSE spread across K=1..3: {spread:.2f} dB, "
           f"bound gaps {[f'{g:+.2f}' for g in joint_gap.values()]} dB; "
           f"pairing-pipeline spread {pairing_spread:.2f} dB (logged, "
           f"no threshold)")


def test_criterion_09_frequency_rmse_approaches_bound(report, snr_sweep):
    table, _ = snr_sweep
    gaps = {}
    for alg in ("JDFPI", "JDFSDPJ"):
        for snr in (20.0, 30.0):
            row = _row(table, snr, alg, "freq_rmse")
            gaps[(alg, snr)] = _db(row.rmse / row.crb)
    ok = all(g < 3.0 for g in gaps.values())
    detail = ", ".join(f"{a}@{int(s)}dB: {g:+.2f} dB"
                       for (a, s), g in gaps.items())
    report(9, ok, f"frequency RMSE above numerical bound ({detail})")


def test_criterion_10_deterministic_output(report, tmp_path):
    config = SweepConfig(
        base=replace(default_scenario(K=3, snr_db=20.0), n_snapshots=512),
        sweep_variable="snr_db", sweep_values=(10.0, 20.0),
        n_trials=5, algorithms=("JDFPI", "JDFSDPJ"), master_seed=11,
    )
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    emit_csv(run_sweep(config, workers=1), paths[0])
    emit_csv(run_sweep(config, workers=1), paths[1])
    emit_csv(run_sweep(config, workers=2), paths[2])
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2] and len(blobs[0]) > 0
    report(10, ok,
           "identical sweep config yields byte-identical CSV across two "
           "sequential runs and a 2-worker parallel run")
