import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import irsplan
from irsplan import artifacts, audit, radiomap, sco, snrmodel
from irsplan.cli import main
from irsplan.errors import FitFailureError
from irsplan.radiomap import load_map, save_map
from irsplan.scenario import load_scenario
from irsplan.snrmodel import load_model
from irsplan.socp import SubproblemSolution

from conftest import DESK_CONFIG, desk_config_with

SMALL = ["--grid", "40", "24", "--draws", "50", "--seed", "3"]


def tree_digest(path: Path) -> dict:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.iterdir()) if f.is_file()}


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    out = tmp_path_factory.mktemp("plan")
    code = main(["plan", "--config", DESK_CONFIG, "--out", str(out), *SMALL])
    assert code == 0
    return out


def test_map_verb_builds_loadable_file(tmp_path):
    out = tmp_path / "map.csv"
    assert main(["map", "--config", DESK_CONFIG, "--out", str(out), *SMALL]) == 0
    built = load_map(out)
    assert built.nx == 40 and built.ny == 24


def test_map_verb_default_workers_write_the_serial_bytes(tmp_path, monkeypatch):
    # the map verb builds on one thread per CPU the process may use
    args = ["--config", DESK_CONFIG, "--grid", "20", "12", "--draws", "20"]
    written = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(radiomap.os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)), raising=False)
        out = tmp_path / f"cpus{cpus}.csv"
        assert main(["map", *args, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1] == written[2]


def test_fit_verb_round_trips_model(tmp_path):
    map_path = tmp_path / "map.csv"
    main(["map", "--config", DESK_CONFIG, "--out", str(map_path), *SMALL])
    model_path = tmp_path / "model.txt"
    assert main(["fit", "--config", DESK_CONFIG, "--map", str(map_path),
                 "--out", str(model_path)]) == 0
    load_model(model_path)
    assert model_path.read_text().splitlines()[1].endswith(" fit_mode=per_class")


def test_fit_rejects_mismatched_map(tmp_path):
    map_path = tmp_path / "map.csv"
    main(["map", "--config", DESK_CONFIG, "--out", str(map_path), *SMALL])
    code = main(["fit", "--config", DESK_CONFIG, "--M", "16",
                 "--map", str(map_path), "--out", str(tmp_path / "m.txt")])
    assert code == 3


def test_plan_emits_complete_artifact_set(planned):
    names = {f.name for f in planned.iterdir()}
    assert {"map.csv", "model.txt", "trajectory.csv", "trace.csv",
            "summary.json"} <= names
    summary = json.loads((planned / "summary.json").read_text())
    result = summary["result"]
    assert result["status"] == "optimal"
    assert result["initial_solution"] in ("ME", "MR")
    assert result["final_energy_j"] > 0
    assert summary["scenario"]["fingerprint"]
    traj = artifacts.read_trajectory_csv(planned / "trajectory.csv")
    assert traj.shape == (31, 2)


def test_audit_verb_confirms_emitted_trajectory(planned):
    code = main(["audit", "--config", DESK_CONFIG,
                 "--trajectory", str(planned / "trajectory.csv"),
                 "--model", str(planned / "model.txt")])
    assert code == 0


def test_audit_verb_flags_requirement_change(planned):
    # same artifact audited against a higher requirement must fail (exit 2)
    code = main(["audit", "--config", DESK_CONFIG, "--rmin", "8.5",
                 "--trajectory", str(planned / "trajectory.csv"),
                 "--model", str(planned / "model.txt")])
    assert code == 2


def test_audit_verb_fails_a_non_finite_waypoint(planned, tmp_path, capsys):
    lines = (planned / "trajectory.csv").read_text().splitlines()
    parts = lines[4].split(",")                  # the row of waypoint k=1
    assert parts[0] == "1"
    parts[1:3] = ["nan", "nan"]
    lines[4] = ",".join(parts)
    edited = tmp_path / "trajectory.csv"
    edited.write_text("\n".join(lines) + "\n")
    assert main(["audit", "--config", DESK_CONFIG, "--trajectory", str(edited),
                 "--model", str(planned / "model.txt")]) == 2
    assert "audit FAIL" in capsys.readouterr().out
    report = audit.check_p3(artifacts.read_trajectory_csv(edited), load_scenario(DESK_CONFIG),
                            load_model(planned / "model.txt"))
    assert report.violations == ["slot 1: non-finite waypoint"]
    assert report.worst_violation == float("inf")


def test_audit_rejects_a_model_fitted_for_another_channel(planned, tmp_path, capsys):
    code = main(["audit", "--config", DESK_CONFIG, "--M", "16",
                 "--trajectory", str(planned / "trajectory.csv"),
                 "--model", str(planned / "model.txt")])
    assert code == 3
    assert "configuration error: model:" in capsys.readouterr().err
    # a model saved without a channel stamp fits any channel
    lines = (planned / "model.txt").read_text().splitlines()
    lines[1] = "# scenario=- fit_mode=per_class"
    unstamped = tmp_path / "model.txt"
    unstamped.write_text("\n".join(lines) + "\n")
    assert main(["audit", "--config", DESK_CONFIG, "--M", "16",
                 "--trajectory", str(planned / "trajectory.csv"),
                 "--model", str(unstamped)]) == 0


def test_infeasible_plan_exits_2_with_summary(tmp_path):
    out = tmp_path / "run"
    code = main(["plan", "--config", DESK_CONFIG, "--out", str(out),
                 "--rmin", "9.0", *SMALL])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["result"]["status"] == "infeasible"
    assert not (out / "trajectory.csv").exists()


def test_numerical_failure_writes_trace_and_exits_4(tmp_path, monkeypatch, capsys):
    # a real descent from a seed path of 1600 J whose first step reaches 1500 J
    # (the seed itself) and whose second fails at every trust radius
    solves = []

    def second_step_fails(sub):
        solves.append(sub.trust_radius)
        return SubproblemSolution(sub.prev_traj.copy(), 1500.0,
                                  "optimal" if len(solves) == 1 else "max-iter", conic=None)

    monkeypatch.setattr(sco, "motion_energy", lambda traj, scenario: 1600.0)
    monkeypatch.setattr(sco, "solve_p4", second_step_fails)
    out = tmp_path / "run"
    code = main(["plan", "--config", DESK_CONFIG, "--out", str(out), *SMALL])
    assert code == 4
    assert "subproblem failed at iteration 2" in capsys.readouterr().err
    assert solves[0] == solves[1] and len(solves) > 2     # step 2 ran down the schedule
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("# irsplan-trace")
    assert lines[2:] == ["0,1600.0,0.0,initial,0.0", "1,1500.0,0.0625,optimal,0.0"]
    assert not (out / "trajectory.csv").exists()


def test_unknown_config_key_exits_3(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 5\n")
    assert main(["map", "--config", str(bad), "--out", str(tmp_path / "m.csv")]) == 3


@pytest.mark.parametrize("edit,args,named", [
    (None, ["plan", "--rmin", "nan"], "min_avg_rate"),
    (None, ["plan", "--rmin", "inf"], "min_avg_rate"),
    (("n_slots", "inf"), ["plan"], "n_slots"), (("los_exponent", "x"), ["plan"], "los_exponent"),
    (("bandwidth_mhz", "-200.0"), ["plan"], "bandwidth_hz"),
    (None, ["sweep", "--M", "0", "--rmin", "nan"], "min_avg_rate"),
    (None, ["sweep", "--M", "-4", "--rmin", "2.0"], "n_irs_elements"),
    (("q_start", "-5 15.5"), ["plan"], "q_start"),
    (("z_ap", "0.5"), ["plan", "--rmin", "2.5"], "z_ap")],
    ids=["rmin-nan", "rmin-inf", "n_slots-inf", "los_exponent-x", "bandwidth-negative",
         "sweep-rmin-nan", "sweep-M-negative", "q_start-outside-workspace",
         "z_ap-at-robot-height"])
def test_non_finite_or_bad_scalar_exits_3_before_any_work(tmp_path, capsys, edit, args, named):
    config = desk_config_with(tmp_path, edit) if edit else DESK_CONFIG
    out = tmp_path / "run"
    verb, *flags = args
    assert main([verb, "--config", str(config), "--out", str(out), *SMALL, *flags]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and named in err
    assert not out.exists()


def test_slot_shorter_than_the_grid_spacing_plans(tmp_path):
    # the desk's 30 s deadline in 120 slots: one slot reaches 0.75 m, under the
    # initializer's 1 m grid spacing
    config = desk_config_with(tmp_path, ("n_slots", 120), ("slot_duration", 0.25))
    out = tmp_path / "run"
    assert main(["plan", "--config", str(config), "--out", str(out),
                 "--grid", "20", "12", "--draws", "20", "--seed", "11"]) == 0
    assert json.loads((out / "summary.json").read_text())["result"]["status"] == "optimal"
    traj = artifacts.read_trajectory_csv(out / "trajectory.csv")
    assert traj.shape == (121, 2)
    assert np.linalg.norm(np.diff(traj, axis=0), axis=1).max() <= 0.75 + audit.STEP_TOL


def test_malformed_config_line_exits_3_naming_its_line(tmp_path, capsys):
    lines = Path(DESK_CONFIG).read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith("v_max ="))
    lines[lineno - 1] = "v_max 3.0"
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["plan", "--config", str(bad), "--out", str(tmp_path / "run"), *SMALL]) == 3
    assert capsys.readouterr().err.startswith(f"configuration error: {bad}: line {lineno}: ")


def test_plan_never_imports_scipy_optimize(tmp_path):
    # scipy.optimize costs about 16 MB of resident memory per process
    script = ("import sys\n"
              "from irsplan.cli import main\n"
              f"code = main(['plan', '--config', {DESK_CONFIG!r}, '--out', {str(tmp_path)!r},"
              " '--grid', '20', '12', '--draws', '10', '--seed', '3'])\n"
              "print(code, 'scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(irsplan.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_only_a_cone_solve_imports_scipy(tmp_path):
    # scipy takes about 0.33 s and 32 MB per process (2-vCPU x86 host); only
    # conic.solve needs it
    script = (
        "import sys\n"
        "import irsplan\n"
        "from irsplan import artifacts, graphinit, snrmodel\n"
        "from irsplan.cli import main\n"
        "from irsplan.scenario import load_scenario\n"
        "seen = ['scipy' in sys.modules]\n"
        f"cfg, out = {DESK_CONFIG!r}, {str(tmp_path)!r}\n"
        "small = ['--draws', '10', '--seed', '3']\n"
        "codes = [main(['map', '--config', cfg, '--out', out + '/map.csv',"
        " '--grid', '10', '6', *small])]\n"
        "seen.append('scipy' in sys.modules)\n"
        "codes.append(main(['fit', '--config', cfg, '--map', out + '/map.csv',"
        " '--out', out + '/model.txt']))\n"
        "sc = load_scenario(cfg)\n"
        "model = snrmodel.load_model(out + '/model.txt')\n"
        "seed = graphinit.shortest_path(graphinit.build_graph(sc, mode='ME'))\n"
        "artifacts.write_trajectory_csv(out + '/trajectory.csv', seed, sc, model)\n"
        "codes.append(main(['audit', '--config', cfg, '--trajectory', out + '/trajectory.csv',"
        " '--model', out + '/model.txt']))\n"
        "seen.append('scipy' in sys.modules)\n"
        "codes.append(main(['plan', '--config', cfg, '--out', out + '/plan',"
        " '--grid', '20', '12', *small]))\n"
        "seen.append('scipy.sparse.linalg' in sys.modules)\n"
        "print(codes + seen)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(irsplan.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    # exit codes of map, fit, audit and plan, then scipy loaded after import,
    # map, audit and plan
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, False, False, False, True]"


def test_plan_reruns_byte_identically(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["plan", "--config", DESK_CONFIG, "--out", str(out), *SMALL]) == 0
    assert tree_digest(a) == tree_digest(b)


def test_manifest_replay_reproduces_run(planned, tmp_path):
    replay = tmp_path / "replay"
    code = main(["plan", "--config", DESK_CONFIG, "--out", str(replay),
                 "--manifest", str(planned / "summary.json")])
    assert code == 0
    assert tree_digest(replay) == tree_digest(planned)


@pytest.mark.parametrize("edit,named", [
    (None, "summary.json"),
    (lambda summary: summary["scenario"].pop("v_max"), "v_max"),
    (lambda summary: summary["scenario"].update(workspace="abc"), "workspace"),
    (lambda summary: summary["scenario"].update(v_max=2.0), "fingerprint"),
    (lambda summary: summary.update(scenario=[1]), "scenario"),
    (lambda summary: summary["map"].update(nx="abc"), "map"),
    (lambda summary: summary.update(map=5), "map"),
    (lambda summary: summary.update(map=[1, 2]), "map"),
    (lambda summary: summary.update(fit_mode="bogus"), "map")],
    ids=["not-json", "v_max-missing", "workspace-not-numeric", "v_max-edited",
         "scenario-not-an-object", "nx-not-numeric", "map-a-number", "map-a-list",
         "fit_mode-unknown"])
def test_bad_manifest_exits_3_naming_the_key(planned, tmp_path, capsys, edit, named):
    text = (planned / "summary.json").read_text()
    if edit is None:
        text = text[:len(text) // 2]
    else:
        summary = json.loads(text)
        edit(summary)
        text = json.dumps(summary)
    manifest = tmp_path / "summary.json"
    manifest.write_text(text)
    replay = tmp_path / "replay"
    code = main(["plan", "--config", DESK_CONFIG, "--out", str(replay),
                 "--manifest", str(manifest)])
    assert code == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not replay.exists()


def test_manifest_with_the_old_grid_spacing_replays(planned, tmp_path):
    # manifests written before the initializer worked out its grid spacing
    # carry it in their solver settings, which a replay does not read
    summary = json.loads((planned / "summary.json").read_text())
    summary["sco"]["grid_spacing"] = 1.0
    manifest = tmp_path / "summary.json"
    manifest.write_text(json.dumps(summary))
    replay = tmp_path / "replay"
    assert main(["plan", "--out", str(replay), "--manifest", str(manifest)]) == 0
    assert tree_digest(replay) == tree_digest(planned)


def test_manifest_replays_without_config(planned, tmp_path):
    replay = tmp_path / "replay"
    assert main(["plan", "--out", str(replay), "--manifest", str(planned / "summary.json")]) == 0
    assert tree_digest(replay) == tree_digest(planned)
    assert main(["plan", "--out", str(tmp_path / "neither")]) == 3   # needs one or the other


@pytest.mark.parametrize("verb,flags,named", [
    ("plan", ["--draws", "0"], "--draws"),
    ("plan", ["--grid", "1", "1"], "--grid"),
    ("plan", ["--seed", "-3"], "--seed"),
    ("plan", {"draws_per_cell": 0}, "draws_per_cell"),
    ("plan", ["--grid", "100", "50"], "--grid"),
    ("map", ["--grid", "100", "50"], "--grid"),
    ("sweep", ["--grid", "100", "50", "--M", "64", "--rmin", "2.0"], "--grid"),
    ("plan", {"nx": 100, "ny": 50}, "nx, ny")],
    ids=["plan-draws-0", "plan-grid-1x1", "plan-seed-negative", "manifest-draws-0",
         "plan-grid-not-square", "map-grid-not-square", "sweep-grid-not-square",
         "manifest-grid-not-square"])
def test_bad_map_setting_exits_3_naming_it_before_any_output(planned, tmp_path, capsys,
                                                              verb, flags, named):
    if isinstance(flags, dict):         # edits to the map block of a manifest
        summary = json.loads((planned / "summary.json").read_text())
        summary["map"].update(flags)
        manifest = tmp_path / "summary.json"
        manifest.write_text(json.dumps(summary))
        flags = ["--manifest", str(manifest)]
    out = tmp_path / "new" / "out"
    assert main([verb, "--config", DESK_CONFIG, "--out", str(out), *flags]) == 3
    err = capsys.readouterr().err
    assert f"configuration error: {named}:" in err and "Traceback" not in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv", [
    ["plan", "--config", "{missing}", "--out", "{out}"],
    ["plan", "--manifest", "{missing}", "--out", "{out}"],
    ["plan", "--config", DESK_CONFIG, "--model", "{missing}", "--out", "{out}"],
    ["plan", "--config", DESK_CONFIG, "--map", "{missing}", "--out", "{out}"],
    ["fit", "--config", DESK_CONFIG, "--map", "configs", "--out", "{out}/model.txt"],
    ["fit", "--config", DESK_CONFIG, "--map", "{missing}", "--out", "{out}/model.txt"],
    ["audit", "--config", DESK_CONFIG, "--trajectory", "{missing}", "--model", "{missing}"],
    ["audit", "--config", DESK_CONFIG, "--trajectory", "{empty}", "--model", "{model}"]],
    ids=["plan-config", "plan-manifest", "plan-model", "plan-map", "fit-map-is-a-directory",
         "fit-map", "audit-trajectory", "audit-empty-trajectory"])
def test_unreadable_input_file_exits_3_before_any_output(planned, tmp_path, capsys, argv):
    empty = tmp_path / "empty.csv"      # a trajectory file with its header lines only
    empty.write_text("".join((planned / "trajectory.csv").read_text().splitlines(True)[:3]))
    out = tmp_path / "new" / "out"
    assert main([arg.format(missing=tmp_path / "missing", out=out, empty=empty,
                            model=planned / "model.txt") for arg in argv]) == 3
    err = capsys.readouterr().err
    assert "configuration error:" in err and "Traceback" not in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--config", DESK_CONFIG, "--map", "{bad}", "--out", "{out}/model.txt"],
    ["plan", "--config", DESK_CONFIG, "--map", "{bad}", "--out", "{out}"]],
    ids=["fit", "plan"])
def test_map_with_a_nan_cell_size_exits_3(planned, tmp_path, capsys, argv):
    bad = tmp_path / "nan-cell.csv"
    save_map(dataclasses.replace(load_map(planned / "map.csv"), cell_size=math.nan), bad)
    out = tmp_path / "new" / "out"
    assert main([arg.format(bad=bad, out=out) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert "bad header" in err and "Traceback" not in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv", [
    ["plan", "--config", "{binary}", "--out", "{out}"],
    ["fit", "--config", DESK_CONFIG, "--map", "{binary}", "--out", "{out}/model.txt"]],
    ids=["plan-config", "fit-map"])
def test_non_utf8_input_file_exits_3_at_line_1(tmp_path, capsys, argv):
    binary = tmp_path / "binary"
    binary.write_bytes(bytes(range(256)) * 2)       # 0x80 cannot start a UTF-8 character
    out = tmp_path / "new" / "out"
    assert main([arg.format(binary=binary, out=out) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert f"configuration error: {binary}: line 1: not UTF-8 text" in err
    assert "Traceback" not in err
    assert not (tmp_path / "new").exists()


def test_usage_error_exits_3_and_help_exits_0(tmp_path, capsys):
    out = tmp_path / "out"
    for argv in (["map", "--config", DESK_CONFIG, "--out", str(out), "--rmin", "2.0"],
                 ["chart", "--config", DESK_CONFIG, "--out", str(out)],
                 ["plan", "--out", str(out)]):      # a plan needs --config or --manifest
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "configuration error: irsplan" in err and "Traceback" not in err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(["map", "--help"])
    assert exc.value.code == 0
    assert "--grid" in capsys.readouterr().out


def test_map_and_fit_create_the_directory_of_out(tmp_path):
    map_path, model_path = tmp_path / "maps" / "map.csv", tmp_path / "fits" / "a" / "model.txt"
    assert main(["map", "--config", DESK_CONFIG, "--out", str(map_path), *SMALL]) == 0
    assert main(["fit", "--config", DESK_CONFIG, "--map", str(map_path),
                 "--out", str(model_path)]) == 0
    assert load_map(map_path).nx == 40
    load_model(model_path)
    assert model_path.read_text().splitlines()[1].endswith(" fit_mode=per_class")


def test_single_cell_sweep_matches_plan(planned, tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", DESK_CONFIG, "--out", str(out),
                 "--M", "64", "--rmin", "2.0", *SMALL])
    assert code == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 2
    cell = out / "M64_rmin2"
    for name in ("trajectory.csv", "trace.csv", "model.txt"):
        assert (cell / name).read_bytes() == (planned / name).read_bytes()
    summary = json.loads((out / "M64_rmin2" / "summary.json").read_text())
    plan_summary = json.loads((planned / "summary.json").read_text())
    assert summary["result"] == plan_summary["result"]


def test_sweep_fits_each_element_count_once(tmp_path, monkeypatch):
    fitted = []
    real_fit = snrmodel.fit

    def counting_fit(radio_map, scenario, *args, **kwargs):
        fitted.append(scenario.n_irs_elements)
        return real_fit(radio_map, scenario, *args, **kwargs)

    monkeypatch.setattr(snrmodel, "fit", counting_fit)
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", DESK_CONFIG, "--out", str(out),
                 "--M", "0,64", "--rmin", "2.0,2.5,3.0", *SMALL])
    assert code == 0
    assert fitted == [0, 64]
    # each cell writes what a plan that loads and fits the saved map writes
    for m in (0, 64):
        for r in ("2", "2.5", "3"):
            cell, alone = out / f"M{m}_rmin{r}", tmp_path / f"plan_M{m}_rmin{r}"
            main(["plan", "--config", DESK_CONFIG, "--out", str(alone), "--M", str(m),
                  "--rmin", r, "--map", str(out / f"map_M{m}.csv")])
            assert tree_digest(cell) == tree_digest(alone)


@pytest.mark.parametrize("flag,value", [("--M", "0,x"), ("--M", ""), ("--rmin", ""),
                                        ("--rmin", "2.0,,2.5"), ("--rmin", "2.0,2.0000001"),
                                        ("--M", "64,64")])
def test_bad_sweep_axis_exits_3_naming_the_flag(tmp_path, capsys, flag, value):
    axes = {"--M": "64", "--rmin": "2.0", flag: value}
    code = main(["sweep", "--config", DESK_CONFIG, "--out", str(tmp_path / "sweep"),
                 "--M", axes["--M"], "--rmin", axes["--rmin"], *SMALL])
    assert code == 3
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not (tmp_path / "sweep").exists()


def test_sweep_continues_past_infeasible_cells(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", DESK_CONFIG, "--out", str(out),
                 "--M", "64", "--rmin", "2.0,9.0", *SMALL])
    assert code == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    statuses = {row.split(",")[2] for row in rows}
    assert statuses == {"optimal", "infeasible"}


def test_sweep_records_a_fit_failure_per_cell(tmp_path, monkeypatch):
    def failing_fit(*args, **kwargs):
        raise FitFailureError("no convergence")

    monkeypatch.setattr(snrmodel, "fit", failing_fit)
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", DESK_CONFIG, "--out", str(out),
                 "--M", "0", "--rmin", "2.0,2.5", "--grid", "10", "6", "--draws", "5"])
    assert code == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["error: FitFailureError"] * 2
    assert (out / "map_M0.csv").is_file()
