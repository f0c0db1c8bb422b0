import hashlib
import json
from pathlib import Path

import pytest

from irsplan import artifacts
from irsplan.cli import main
from irsplan.errors import SubproblemError
from irsplan.radiomap import load_map
from irsplan.sco import IterationRecord
from irsplan.snrmodel import load_model

from conftest import DESK_CONFIG

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


def test_fit_verb_round_trips_model(tmp_path):
    map_path = tmp_path / "map.csv"
    main(["map", "--config", DESK_CONFIG, "--out", str(map_path), *SMALL])
    model_path = tmp_path / "model.txt"
    assert main(["fit", "--config", DESK_CONFIG, "--map", str(map_path),
                 "--out", str(model_path)]) == 0
    model = load_model(model_path)
    assert model.fit_mode == "per_class"


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


def test_infeasible_plan_exits_2_with_summary(tmp_path):
    out = tmp_path / "run"
    code = main(["plan", "--config", DESK_CONFIG, "--out", str(out),
                 "--rmin", "9.0", *SMALL])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["result"]["status"] == "infeasible"
    assert not (out / "trajectory.csv").exists()


def test_numerical_failure_writes_trace_and_exits_4(tmp_path, monkeypatch):
    trace = [IterationRecord(iteration=0, energy=1500.0, improvement=0.0,
                             status="initial", max_violation=0.0, wall_time=0.0,
                             trust_radius=1.0),
             IterationRecord(iteration=1, energy=1400.0, improvement=0.0625,
                             status="optimal", max_violation=0.0, wall_time=0.1,
                             trust_radius=1.0)]

    def failing_run(*args, **kwargs):
        raise SubproblemError("subproblem failed at iteration 2", trace=trace)

    monkeypatch.setattr("irsplan.cli.run", failing_run)
    out = tmp_path / "run"
    code = main(["plan", "--config", DESK_CONFIG, "--out", str(out), *SMALL])
    assert code == 4
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("# irsplan-trace")
    assert lines[2:] == ["0,1500.0,0.0,initial,0.0", "1,1400.0,0.0625,optimal,0.0"]
    assert not (out / "trajectory.csv").exists()


def test_unknown_config_key_exits_3(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 5\n")
    assert main(["map", "--config", str(bad), "--out", str(tmp_path / "m.csv")]) == 3


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


def test_sweep_continues_past_infeasible_cells(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", DESK_CONFIG, "--out", str(out),
                 "--M", "64", "--rmin", "2.0,9.0", *SMALL])
    assert code == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    statuses = {row.split(",")[2] for row in rows}
    assert statuses == {"optimal", "infeasible"}
