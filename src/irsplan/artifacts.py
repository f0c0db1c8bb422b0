"""Trajectory / trace CSV artifacts and run summaries.

All floats are written with Python's shortest round-trip repr and files
carry a version header, so artifacts reload losslessly and reruns of the
same manifest reproduce every byte.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import FileFormatError, UnsupportedVersionError
from .scenario import Scenario, distances, los_class_batch
from .snrmodel import slot_rate

_TRAJ_TAG = "irsplan-trajectory"
_TRACE_TAG = "irsplan-trace"
_VERSION = 1

_TRAJ_COLUMNS = "k,x,y,step_length,slot_energy,slot_rate_bits_s,ap_class,irs_class"
_TRACE_COLUMNS = "iteration,energy,improvement,status,max_violation"


def write_trajectory_csv(path, traj, scenario: Scenario, model) -> None:
    """One row per slot with step, energy and fitted-rate accounting."""
    traj = np.asarray(traj, dtype=float)
    dt = scenario.slot_duration
    steps = np.linalg.norm(np.diff(traj, axis=0), axis=1)
    energies = (scenario.motor_v2 * steps**2 / dt + scenario.motor_v1 * steps
                + scenario.motor_v0 * dt)
    links = los_class_batch(traj, scenario)
    rates = slot_rate(model, links, *distances(traj, scenario), scenario)

    lines = [f"# {_TRAJ_TAG} v{_VERSION}",
             f"# scenario={scenario.fingerprint()}",
             _TRAJ_COLUMNS]
    rows = zip(traj.tolist(), [0.0, *steps.tolist()], [0.0, *energies.tolist()],
               rates.tolist(), links.ap_los.tolist(), links.irs_los.tolist())
    for k, ((x, y), step, energy, rate_k, ap, irs) in enumerate(rows):
        lines.append(
            f"{k},{x!r},{y!r},{step!r},{energy!r},{rate_k!r},"
            f"{'LOS' if ap else 'NLOS'},{'LOS' if irs else 'NLOS'}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectory_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(f"# {_TRAJ_TAG}"):
        raise FileFormatError(f"not a {_TRAJ_TAG} file", path=path, line=1)
    if lines[0].split()[-1] != f"v{_VERSION}":
        raise UnsupportedVersionError("unsupported trajectory version", path=path, line=1)
    rows = [ln for ln in lines[1:] if ln and not ln.startswith("#")]
    if not rows or rows[0] != _TRAJ_COLUMNS:
        raise FileFormatError("missing column header", path=path, line=3)
    points = []
    for lineno, row in enumerate(rows[1:], start=4):
        parts = row.split(",")
        if len(parts) != 8:
            raise FileFormatError("expected 8 fields", path=path, line=lineno)
        try:
            k = int(parts[0])
            points.append((float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise FileFormatError(f"bad number: {exc}", path=path, line=lineno) from None
        if k != len(points) - 1:
            raise FileFormatError("slot indices out of order", path=path, line=lineno)
    return np.array(points)


def write_trace_csv(path, trace) -> None:
    lines = [f"# {_TRACE_TAG} v{_VERSION}", _TRACE_COLUMNS]
    for rec in trace:
        lines.append(
            f"{rec.iteration},{rec.energy!r},{rec.improvement!r},{rec.status},"
            f"{rec.max_violation!r}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(path, payload: dict) -> None:
    """Deterministic JSON (sorted keys, no timestamps)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_summary(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def scenario_payload(scenario: Scenario) -> dict:
    """Every configuration value needed to rebuild the scenario exactly."""
    def roundtrip(x):
        return float(x)

    return {
        "workspace": [roundtrip(v) for v in scenario.workspace],
        "ap_pos": [roundtrip(v) for v in scenario.ap_pos],
        "irs_pos": [roundtrip(v) for v in scenario.irs_pos],
        "z_robot": scenario.z_robot,
        "z_ap": scenario.z_ap,
        "z_irs": scenario.z_irs,
        "obstacles": [
            {
                "center": [roundtrip(v) for v in obs.center],
                "shape": [[roundtrip(v) for v in row] for row in obs.shape],
                "height": obs.height,
            }
            for obs in scenario.obstacles
        ],
        "n_slots": scenario.n_slots,
        "slot_duration": scenario.slot_duration,
        "v_max": scenario.v_max,
        "safety_level": scenario.safety_level,
        "motor_v2": scenario.motor_v2,
        "motor_v1": scenario.motor_v1,
        "motor_v0": scenario.motor_v0,
        "tx_power_w": scenario.tx_power,
        "noise_power_w": scenario.noise_power,
        "bandwidth_hz": scenario.bandwidth_hz,
        "ref_gain": scenario.ref_gain,
        "n_antennas": scenario.n_antennas,
        "n_irs_elements": scenario.n_irs_elements,
        "q_start": [roundtrip(v) for v in scenario.q_start],
        "q_goal": [roundtrip(v) for v in scenario.q_goal],
        "min_avg_rate_bits_s": scenario.min_avg_rate,
        "los_exponent": scenario.los_exponent,
        "nlos_exponent": scenario.nlos_exponent,
        "fingerprint": scenario.fingerprint(),
    }


def scenario_from_payload(payload: dict) -> Scenario:
    from .scenario import Obstacle

    return Scenario(
        workspace=tuple(payload["workspace"]),
        ap_pos=np.array(payload["ap_pos"]),
        irs_pos=np.array(payload["irs_pos"]),
        z_robot=payload["z_robot"],
        z_ap=payload["z_ap"],
        z_irs=payload["z_irs"],
        obstacles=tuple(
            Obstacle(np.array(o["center"]), np.array(o["shape"]), o["height"])
            for o in payload["obstacles"]
        ),
        n_slots=payload["n_slots"],
        slot_duration=payload["slot_duration"],
        v_max=payload["v_max"],
        safety_level=payload["safety_level"],
        motor_v2=payload["motor_v2"],
        motor_v1=payload["motor_v1"],
        motor_v0=payload["motor_v0"],
        tx_power=payload["tx_power_w"],
        noise_power=payload["noise_power_w"],
        bandwidth_hz=payload["bandwidth_hz"],
        ref_gain=payload["ref_gain"],
        n_antennas=payload["n_antennas"],
        n_irs_elements=payload["n_irs_elements"],
        q_start=np.array(payload["q_start"]),
        q_goal=np.array(payload["q_goal"]),
        min_avg_rate=payload["min_avg_rate_bits_s"],
        los_exponent=payload["los_exponent"],
        nlos_exponent=payload["nlos_exponent"],
    )
