"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The sweep battery (criteria 5 and 7) builds full desk-scale
radio maps (100 x 60 cells, 200 draws per cell) for five seed sets and is
the slow part of the suite.
"""

import gc
import hashlib
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from irsplan import audit
from irsplan.artifacts import write_trace_csv, write_trajectory_csv
from irsplan.channel import draw_channel, optimal_beamformer, optimal_snr_closed_form, snr
from irsplan.cli import main as cli_main
from irsplan.radiomap import build_map, load_map, save_map
from irsplan.scenario import (ALL_LINK_CLASSES, LinkClass, load_scenario,
                              motion_energy, scenario_overrides)
from irsplan.sco import ScoConfig, run
from irsplan.snrmodel import (ClassFit, SnrModel, fit, linearize_rate, load_model,
                              rate_gradient, save_model, slot_rate)
from irsplan.socp import solve_p4

from conftest import DESK_CONFIG
from helpers import (grid_search_k2, random_k2_subproblem, rate_app_position_gradient,
                     rate_app_position_hessian, rate_app_value, rate_hessian_distances)
from test_snrmodel import synthetic_map

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (11, 12, 13, 14, 15)
M_VALUES = (0, 16, 64, 128)
LOS = LinkClass(True, True)


def conclude(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module")
def desk():
    return load_scenario(DESK_CONFIG)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_hashes(writers: dict) -> dict:
    """SHA-256 of each artifact file ``name``, as ``writers[name](path)`` writes it."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in writers.items():
            path = Path(tmp) / name
            write(path)
            hashes[name] = sha256(path.read_bytes())
    return hashes


def run_battery(desk) -> dict:
    """Desk-scale experiment grid shared by criteria 5 and 7 and the golden record.

    For each seed set: one 100x60 / 200-draw map per element count, one fit,
    and runs at 2.0 Gbps for every M plus 2.5 Gbps at M in {0, 64}. Each cell
    also carries the SHA-256 of its map's ``avg_snr``; at seed 11 and M in
    {0, 64}, that of its map's ``map.csv`` and ``model.txt`` and of its own
    ``trajectory.csv`` and ``trace.csv``.
    """
    results = {}
    for seed in SEEDS:
        for m in M_VALUES:
            sc_m = scenario_overrides(desk, n_irs_elements=m)
            built = build_map(sc_m, nx=100, ny=60, draws_per_cell=200, seed=seed)
            model = fit(built, sc_m)
            pinned = seed == SEEDS[0] and m in (0, 64)
            if pinned:
                map_files = artifact_hashes({
                    "map.csv": lambda path: save_map(built, path),
                    "model.txt": lambda path: save_model(model, path)})
            rates = (2.0, 2.5) if m in (0, 64) else (2.0,)
            for rmin in rates:
                sc_run = scenario_overrides(sc_m, min_avg_rate=rmin * 1e9)
                t0 = time.perf_counter()
                outcome = run(sc_run, model, ScoConfig())
                results[(seed, m, rmin)] = {
                    "outcome": outcome,
                    "wall": time.perf_counter() - t0,
                    "scenario": sc_run,
                    "model": model,
                    "map_sha256": sha256(built.avg_snr.tobytes()),
                }
                if pinned:
                    results[(seed, m, rmin)]["map_artifact_sha256"] = map_files
                    results[(seed, m, rmin)]["artifact_sha256"] = artifact_hashes({
                        "trajectory.csv": lambda path: write_trajectory_csv(
                            path, outcome.trajectory, sc_run, model),
                        "trace.csv": lambda path: write_trace_csv(path, outcome.trace)})
            del built
            gc.collect()
    return results


@pytest.fixture(scope="module")
def battery(desk):
    return run_battery(desk)


def toolchain_versions() -> dict:
    """The numpy, scipy and BLAS builds whose arithmetic the golden record holds."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def golden_record(battery) -> dict:
    """The toolchain and what ``tests/golden.json`` holds of the battery: per cell
    its plan's counts and energy, the SHA-256 of its final trajectory's bytes and,
    for the seed-11 cells at M in {0, 64}, of its trajectory and trace files; per
    map the SHA-256 of its ``avg_snr`` bytes and, for those cells' maps, of its
    map and model files."""
    cells, maps, trajectories, artifacts = {}, {}, {}, {}
    for (seed, m, rmin), cell in sorted(battery.items()):
        outcome = cell["outcome"]
        key = f"seed={seed} M={m} rmin={rmin}"
        cells[key] = {
            "energy_j": repr(outcome.energy),
            "sco_iterations": len(outcome.trace) - 1,
            "ipm_iterations": sum(rec.solution.conic.iterations for rec in outcome.trace
                                  if rec.solution.conic is not None),
            "stop_reason": outcome.stop_reason,
            "initial_path": outcome.init_label,
        }
        maps[f"seed={seed} M={m}"] = cell["map_sha256"]
        trajectories[key] = sha256(outcome.trajectory.tobytes())
        if "artifact_sha256" in cell:
            artifacts[f"seed={seed} M={m}"] = cell["map_artifact_sha256"]
            artifacts[key] = cell["artifact_sha256"]
    return {"versions": toolchain_versions(), "cells": cells, "map_sha256": maps,
            "trajectory_sha256": trajectories, "artifact_sha256": artifacts}


# ---------------------------------------------------------------------------


def test_criterion_1_beamforming_optimality(desk):
    """Closed-form beamformer vs exhaustive 64-level phase grids (M <= 4)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    levels = np.exp(1j * np.arange(64) * 2 * math.pi / 64)
    worst_margin = 0.0
    worst_eq = 0.0
    for trial in range(100):
        m = int(rng.integers(0, 5))
        n = int(rng.integers(1, 5))
        sc = scenario_overrides(desk, n_irs_elements=m, n_antennas=n, obstacles=())
        q = rng.uniform([1, 1], [49, 29])
        link = LinkClass(bool(rng.integers(2)), bool(rng.integers(2)))
        d = draw_channel(q, sc, link, seed=trial)
        opt = snr(d, optimal_beamformer(d), sc)
        closed = optimal_snr_closed_form(d, d.d_ap, d.d_irs, sc)
        worst_eq = max(worst_eq, abs(opt - closed) / closed)

        if m == 0:
            grid_best = closed
        else:
            # reduction: the effective channel is k1*s(theta)*b + k2*conj(h_d)
            # with s(theta) = sum_j conj(h_r_j) a_j exp(i theta_j); enumerate s
            # over the full grid by outer sums and maximize the norm exactly
            k1 = d.path_gain_irs * math.sqrt(m * n) * d.gamma
            k2 = d.path_gain_direct
            coeffs = np.conj(d.fading_irs) * d.irs_response
            s_vals = coeffs[0] * levels
            for j in range(1, m):
                s_vals = (s_vals[:, None] + coeffs[j] * levels[None, :]).reshape(-1)
            cross = d.ap_response @ d.fading_direct
            h2 = float(np.sum(np.abs(d.fading_direct) ** 2))
            norms = (np.abs(k1 * s_vals) ** 2 + k2**2 * h2
                     + 2 * k1 * k2 * np.real(s_vals * cross))
            grid_best = float(norms.max()) * sc.snr_scale
        worst_margin = max(worst_margin, (grid_best - opt) / max(opt, 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst_margin <= 1e-3 and worst_eq <= 1e-9 and elapsed < 60.0
    conclude(1, ok, f"grid margin {worst_margin:.2e} (tol 1e-3), closed-form gap "
                    f"{worst_eq:.2e} (tol 1e-9), {elapsed:.1f}s (limit 60s)")


def test_criterion_2_energy_midpoint_convexity(desk):
    t0 = time.perf_counter()
    sc = scenario_overrides(desk, obstacles=())
    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(1000):
        a = rng.uniform([0, 0], [50, 30], size=(31, 2))
        b = rng.uniform([0, 0], [50, 30], size=(31, 2))
        mid = motion_energy((a + b) / 2, sc)
        avg = (motion_energy(a, sc) + motion_energy(b, sc)) / 2
        worst = max(worst, (mid - avg) / avg)
    elapsed = time.perf_counter() - t0
    conclude(2, worst <= 1e-9,
             f"1000 pairs, worst midpoint violation {worst:.2e} (tol 1e-9), "
             f"{elapsed:.1f}s")


def _random_params(rng):
    return ClassFit(
        gain_irs=float(rng.uniform(0.05, 5.0)),
        gain_cross=float(rng.uniform(0.05, 5.0)),
        gain_direct=float(rng.uniform(0.05, 5.0)),
        exp_irs=float(rng.uniform(1.0, 5.0)),
        exp_ap=float(rng.uniform(1.0, 5.0)),
    )


def test_criterion_3_distance_derivatives_and_convexity(desk):
    t0 = time.perf_counter()
    sc = scenario_overrides(desk, obstacles=())
    rng = np.random.default_rng(30)
    worst_g, worst_h = 0.0, 0.0
    for _ in range(50):
        model = SnrModel(fits={l: _random_params(rng) for l in ALL_LINK_CLASSES})
        d_ap, d_irs = rng.uniform(2.0, 60.0, size=2)
        h = 1e-5
        g = rate_gradient(model, LOS, d_ap, d_irs, sc)
        fd = np.array([
            (slot_rate(model, LOS, d_ap + h, d_irs, sc)
             - slot_rate(model, LOS, d_ap - h, d_irs, sc)) / (2 * h),
            (slot_rate(model, LOS, d_ap, d_irs + h, sc)
             - slot_rate(model, LOS, d_ap, d_irs - h, sc)) / (2 * h),
        ])
        worst_g = max(worst_g, float(np.max(np.abs(g - fd) / np.abs(fd))))
        hs = 1e-4
        hess = rate_hessian_distances(model, LOS, d_ap, d_irs, sc)
        fdh = np.zeros((2, 2))
        for i, delta in enumerate((np.array([hs, 0]), np.array([0, hs]))):
            gp = rate_gradient(model, LOS, d_ap + delta[0], d_irs + delta[1], sc)
            gm = rate_gradient(model, LOS, d_ap - delta[0], d_irs - delta[1], sc)
            fdh[:, i] = (gp - gm) / (2 * hs)
        fdh = 0.5 * (fdh + fdh.T)
        worst_h = max(worst_h, float(np.max(np.abs(hess - fdh)) / np.abs(fdh).max()))

    # positive definiteness over a 20x20 log grid of distances
    model = SnrModel(fits={l: _random_params(np.random.default_rng(31))
                           for l in ALL_LINK_CLASSES})
    grid = np.logspace(math.log10(0.5), 2.0, 20)
    min_eig = math.inf
    for d_ap in grid:
        for d_irs in grid:
            eig = np.linalg.eigvalsh(
                rate_hessian_distances(model, LOS, d_ap, d_irs, sc)
            ).min()
            min_eig = min(min_eig, float(eig))
    elapsed = time.perf_counter() - t0
    ok = worst_g <= 1e-4 and worst_h <= 1e-3 and min_eig > 0
    conclude(3, ok, f"50 points: grad err {worst_g:.1e} (tol 1e-4), hess err "
                    f"{worst_h:.1e} (tol 1e-3); min Hessian eig on 20x20 grid "
                    f"{min_eig:.3e} (> 0), {elapsed:.1f}s")


def test_criterion_4_position_concavity_and_minorant(desk):
    t0 = time.perf_counter()
    sc = scenario_overrides(desk, obstacles=())
    rng = np.random.default_rng(40)
    max_eig = -math.inf
    worst_fd = 0.0
    for _ in range(100):
        model = SnrModel(fits={l: _random_params(rng) for l in ALL_LINK_CLASSES})
        anchor = rng.uniform([1, 1], [49, 29])
        lin = linearize_rate(model, anchor[None, :], sc)
        q = rng.uniform([1, 1], [49, 29])[None]
        hess = rate_app_position_hessian(lin, q, sc)[0]
        max_eig = max(max_eig, float(np.linalg.eigvalsh(hess).max()))
        h = 1e-4
        fdh = np.zeros((2, 2))
        for i in range(2):
            dq = np.zeros(2)
            dq[i] = h
            fdh[:, i] = (rate_app_position_gradient(lin, q + dq, sc)[0]
                         - rate_app_position_gradient(lin, q - dq, sc)[0]) / (2 * h)
        fdh = 0.5 * (fdh + fdh.T)
        worst_fd = max(worst_fd, float(np.max(np.abs(hess - fdh)) / np.abs(fdh).max()))

    worst_minorant = -math.inf
    model = SnrModel(fits={l: _random_params(np.random.default_rng(41))
                           for l in ALL_LINK_CLASSES})
    for trial in range(100):
        rng2 = np.random.default_rng(4000 + trial)
        anchor_traj = rng2.uniform([1, 1], [49, 29], size=(31, 2))
        lins = linearize_rate(model, anchor_traj, sc)
        probe = rng2.uniform([1, 1], [49, 29], size=(31, 2))
        for approx, q in zip(rate_app_value(lins, probe, sc), probe):
            from irsplan.scenario import distances
            d_ap, d_irs = distances(q, sc)
            true = float(slot_rate(model, LOS, d_ap, d_irs, sc))
            gap = (approx - true) / max(abs(true), 1e-300)
            worst_minorant = max(worst_minorant, gap)
    elapsed = time.perf_counter() - t0
    ok = max_eig < 0 and worst_fd <= 1e-3 and worst_minorant <= 1e-9
    conclude(4, ok, f"position Hessian max eig {max_eig:.3e} (< 0), FD err "
                    f"{worst_fd:.1e} (tol 1e-3), minorant excess "
                    f"{worst_minorant:.2e} (tol 1e-9), {elapsed:.1f}s")


def test_criterion_5_descent_and_audit_on_every_run(desk, battery):
    failures = []
    # the configured scenario carries the published motion and algorithm
    # constants this criterion is defined at
    cfg = ScoConfig()
    if not (desk.n_slots == 30 and desk.slot_duration == 1.0 and desk.v_max == 3.0
            and desk.safety_level == 1.35
            and (desk.motor_v2, desk.motor_v1, desk.motor_v0) == (4.39, 24.67, 14.77)
            and cfg.trust_radius == 1.0 and cfg.epsilon == 0.01
            and cfg.n_it_max == 100):
        failures.append("configured constants drifted from the published set")

    slowest = 0.0
    for key, cell in battery.items():
        outcome = cell["outcome"]
        if outcome.status != "optimal":
            failures.append(f"{key}: status {outcome.status}")
            continue
        energies = [rec.solution.objective for rec in outcome.trace]
        if not all(b <= a + 1e-9 for a, b in zip(energies, energies[1:])):
            failures.append(f"{key}: energy trace not monotone")
        if len(outcome.trace) - 1 > cfg.n_it_max:
            failures.append(f"{key}: exceeded iteration cap")
        rep = audit.check_p3(outcome.trajectory, cell["scenario"], cell["model"])
        if not rep.ok:
            failures.append(f"{key}: final audit failed {rep.violations}")
        slowest = max(slowest, cell["wall"])
    if slowest >= 300.0:
        failures.append(f"slowest run {slowest:.1f}s over the 5-minute budget")
    conclude(5, not failures,
             f"{len(battery)} runs: non-increasing traces, audits, slowest "
             f"{slowest:.1f}s (limit 300s)" + ("; " + "; ".join(failures)
                                               if failures else ""))


def test_criterion_6_subproblem_matches_grid_search(desk):
    t0 = time.perf_counter()
    sc0 = scenario_overrides(desk, obstacles=())
    failures = []
    checked = 0
    seed = 0
    while checked < 20:
        sub = random_k2_subproblem(sc0, seed)
        seed += 1
        obj_grid, _ = grid_search_k2(sub, resolution=0.01)
        if not math.isfinite(obj_grid):
            continue
        sol = solve_p4(sub)
        sc = sub.scenario
        lipschitz = (2 * sc.motor_v2 * 2 * sc.max_step / sc.slot_duration
                     + 2 * sc.motor_v1)
        bound = max(0.01 * obj_grid, lipschitz * 0.01 * math.sqrt(2.0))
        if sol.status != "optimal":
            failures.append(f"instance {seed}: {sol.status}")
        elif not (sol.objective <= obj_grid + 1e-6 * max(1.0, obj_grid)
                  and obj_grid <= sol.objective + bound):
            failures.append(f"instance {seed}: solver {sol.objective:.6f} vs "
                            f"grid {obj_grid:.6f} (bound {bound:.4f})")
        elif audit.check_p4(sol.trajectory, sub):
            failures.append(f"instance {seed}: subproblem audit violations")
        checked += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"{elapsed:.0f}s over the 2-minute budget")
    conclude(6, not failures,
             f"20 K=2 instances within max(1%, grid bound) of 1 cm search, "
             f"{elapsed:.1f}s (limit 120s)"
             + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_7_figure_trends_across_element_counts(battery):
    trend_a = trend_coincide = trend_b = trend_c = 0
    details = []
    for seed in SEEDS:
        e = {(m, r): battery[(seed, m, r)]["outcome"].energy
             for m in M_VALUES for r in ((2.0, 2.5) if m in (0, 64) else (2.0,))}
        labels = {m: battery[(seed, m, 2.0)]["outcome"].init_label for m in M_VALUES}
        slack = 1e-9
        trend_a += (e[(0, 2.0)] >= e[(16, 2.0)] * (1 - slack)
                    and e[(16, 2.0)] >= e[(64, 2.0)] * (1 - slack))
        trend_coincide += abs(e[(64, 2.0)] - e[(128, 2.0)]) <= 0.02 * e[(64, 2.0)]
        trend_b += (e[(0, 2.5)] >= e[(0, 2.0)] * (1 - slack)
                    and e[(64, 2.5)] >= e[(64, 2.0)] * (1 - slack))
        trend_c += labels[0] == "MR" and labels[64] == "ME"
        details.append(
            f"seed {seed}: E(2.0)={e[(0, 2.0)]:.0f}/{e[(16, 2.0)]:.0f}"
            f"/{e[(64, 2.0)]:.0f}/{e[(128, 2.0)]:.0f} J, M0={labels[0]} "
            f"M64={labels[64]}, E(2.5)={e[(0, 2.5)]:.0f}/{e[(64, 2.5)]:.0f}"
        )
    counts = {"energy non-increasing in M": trend_a, "M64~M128 within 2%": trend_coincide,
              "energy grows with the requirement": trend_b,
              "init labels MR@M0 / ME@M64": trend_c}
    ok = all(v >= 4 for v in counts.values())
    conclude(7, ok, "trend seed-set counts " + str(counts) + "; " + "; ".join(details))


def test_battery_matches_the_golden_record(battery):
    # the record holds one toolchain's arithmetic: another numpy, scipy or BLAS
    # fails here, and tests/make_golden.py re-records only on purpose
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_record(battery)
    assert got["versions"] == golden["versions"], \
        f"toolchain {got['versions']} is not the golden record's {golden['versions']}"
    assert got == golden


def test_criterion_8_fit_recovery(desk):
    t0 = time.perf_counter()
    sc = scenario_overrides(desk, obstacles=())
    failures = []
    truth = ClassFit(1e-3, 1e-4, 1e-3, 2.0, 2.0)
    clean = fit(synthetic_map(sc, truth, nx=100, ny=60), sc).fit_for(LOS)
    worst_clean = max(
        abs(getattr(clean, name) - getattr(truth, name)) / getattr(truth, name)
        for name in ("gain_irs", "gain_cross", "gain_direct", "exp_irs", "exp_ap")
    )
    if worst_clean > 0.01:
        failures.append(f"noise-free recovery off by {worst_clean:.3f}")

    # Monte-Carlo noise: every parameter must stay statistically identifiable,
    # so the noisy check uses balanced gains (see decisions notes)
    truth_noisy = ClassFit(1e-3, 1e-3, 1e-3, 2.0, 2.0)
    worst_noisy = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        noisy_map = synthetic_map(sc, truth_noisy, nx=100, ny=60, noise_rng=rng,
                                  n_draws=200)
        got = fit(noisy_map, sc).fit_for(LOS)
        for name in ("gain_irs", "gain_cross", "gain_direct", "exp_irs", "exp_ap"):
            rel = abs(getattr(got, name) - getattr(truth_noisy, name)) / getattr(
                truth_noisy, name)
            worst_noisy = max(worst_noisy, rel)
    if worst_noisy > 0.10:
        failures.append(f"noisy recovery off by {worst_noisy:.3f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"{elapsed:.0f}s over the 1-minute budget")
    conclude(8, not failures,
             f"noise-free worst error {worst_clean:.2e} (tol 1%), 200-draw noise "
             f"worst error {worst_noisy:.3f} (tol 10%), {elapsed:.1f}s"
             + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_9_determinism_and_round_trips(desk, tmp_path):
    failures = []
    args = ["--grid", "40", "24", "--draws", "50", "--seed", "3"]
    digests = []
    for out in (tmp_path / "a", tmp_path / "b"):
        code = cli_main(["plan", "--config", DESK_CONFIG, "--out", str(out), *args])
        if code != 0:
            failures.append(f"plan exited {code}")
        digests.append({
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())
        })
    if digests[0] != digests[1]:
        failures.append("independent reruns differ")

    replay = tmp_path / "replay"
    code = cli_main(["plan", "--config", DESK_CONFIG, "--out", str(replay),
                     "--manifest", str(tmp_path / "a" / "summary.json")])
    replay_digest = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                     for f in sorted(replay.iterdir())}
    if code != 0 or replay_digest != digests[0]:
        failures.append("manifest replay differs")

    built = load_map(tmp_path / "a" / "map.csv")
    save_map(built, tmp_path / "map2.csv")
    if (tmp_path / "a" / "map.csv").read_bytes() != (tmp_path / "map2.csv").read_bytes():
        failures.append("radio-map round trip not byte-exact")
    model = load_model(tmp_path / "a" / "model.txt")
    save_model(model, tmp_path / "model2.txt")
    if (tmp_path / "a" / "model.txt").read_bytes() != (tmp_path / "model2.txt").read_bytes():
        failures.append("model round trip not byte-exact")
    from irsplan.artifacts import read_trajectory_csv
    if read_trajectory_csv(tmp_path / "a" / "trajectory.csv").shape != (31, 2):
        failures.append("trajectory round trip lost waypoints")
    conclude(9, not failures,
             "reruns, manifest replay and artifact round trips all byte-exact"
             + ("; " + "; ".join(failures) if failures else ""))
