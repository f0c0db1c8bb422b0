"""Trajectory / trace CSV artifacts and run summaries.

All floats are written with Python's shortest round-trip repr and files
carry a version header, so artifacts reload losslessly and reruns of the
same manifest reproduce every byte.
"""

from __future__ import annotations

import json

import numpy as np

from . import textfile
from .errors import FileFormatError
from .scenario import Scenario, distances, los_class_batch, slot_energy
from .snrmodel import slot_rate

_TRAJ_COLUMNS = "k,x,y,step_length,slot_energy,slot_rate_bits_s,ap_class,irs_class"
_TRACE_COLUMNS = "iteration,energy,improvement,status,max_violation"


def write_trajectory_csv(path, traj, scenario: Scenario, model) -> None:
    """One row per slot with step, energy and fitted-rate accounting."""
    traj = np.asarray(traj, dtype=float)
    steps = np.linalg.norm(np.diff(traj, axis=0), axis=1)
    energies = slot_energy(steps, scenario)
    links = los_class_batch(traj, scenario)
    rates = slot_rate(model, links, *distances(traj, scenario), scenario)

    lines = [f"# scenario={scenario.fingerprint()}", _TRAJ_COLUMNS]
    rows = zip(traj.tolist(), [0.0, *steps.tolist()], [0.0, *energies.tolist()],
               rates.tolist(), links.ap_los.tolist(), links.irs_los.tolist())
    for k, ((x, y), step, energy, rate_k, ap, irs) in enumerate(rows):
        lines.append(
            f"{k},{x!r},{y!r},{step!r},{energy!r},{rate_k!r},"
            f"{'LOS' if ap else 'NLOS'},{'LOS' if irs else 'NLOS'}"
        )
    textfile.write(path, "trajectory", lines)


def read_trajectory_csv(path) -> np.ndarray:
    lines = textfile.read(path, "trajectory")
    # (line number, text) of each row, past blank and comment lines
    rows = [(lineno, row) for lineno, row in enumerate(lines, 1)
            if row and not row.startswith("#")]
    if not rows or rows[0][1] != _TRAJ_COLUMNS:
        raise FileFormatError("missing column header", path=path,
                              line=rows[0][0] if rows else len(lines))
    points = []
    for lineno, row in rows[1:]:
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
    if not points:
        raise FileFormatError("no waypoint rows", path=path, line=len(lines))
    return np.array(points)


def write_trace_csv(path, trace) -> None:
    """One row per ``sco.IterationRecord``, numbered by its index in the trace."""
    rows = [f"{k},{rec.solution.objective!r},{rec.improvement!r},{rec.solution.status},"
            f"{rec.audit_report.worst_violation!r}" for k, rec in enumerate(trace)]
    textfile.write(path, "trace", [_TRACE_COLUMNS, *rows])


def write_summary(path, payload: dict) -> None:
    """Deterministic JSON (sorted keys, no timestamps)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_summary(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            summary = json.load(fh)
        except ValueError as exc:
            raise FileFormatError(f"not JSON: {exc}", path=path) from None
    if not isinstance(summary, dict):
        raise FileFormatError("expected a JSON object", path=path)
    return summary
