"""Spatial grid of averaged beamforming-optimal SNR, with lossless persistence.

Cells tile the workspace exactly; each cell averages the optimal SNR of
``n_draws`` channel realizations drawn at its center, in the linear domain.
Per-cell seeds are ``seed XOR (iy * nx + ix)``. The seeds and what each
cell's seed stream draws are part of the file's meaning: format v2 draws the
three sufficient statistics of each draw (see ``channel.optimal_snr_samples``),
v1 drew full fading vectors, and v1 files are rejected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import textfile
from .channel import optimal_snr_samples
from .errors import ConfigError, FileFormatError
from .scenario import LinkClass, Scenario, distances, los_class_batch

_COLUMNS = "ix,iy,x,y,ap_class,irs_class,avg_opt_snr_linear,n_draws"


@dataclass(frozen=True)
class RadioMap:
    """Immutable grid of averaged optimal SNR values plus LOS labels."""

    nx: int
    ny: int
    cell_size: float
    origin: tuple                 # (xmin, ymin)
    avg_snr: np.ndarray           # (ny, nx) linear SNR
    n_draws: np.ndarray           # (ny, nx) int
    ap_los: np.ndarray            # (ny, nx) bool
    irs_los: np.ndarray           # (ny, nx) bool
    scenario_hash: str
    seed: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one cell per axis")
        for name in ("avg_snr", "n_draws", "ap_los", "irs_los"):
            arr = getattr(self, name)
            if arr.shape != (self.ny, self.nx):
                raise ValueError(f"{name} must have shape (ny, nx)")
        if not np.all(np.isfinite(self.avg_snr)) or np.any(self.avg_snr < 0):
            raise ValueError("averaged SNR must be finite and nonnegative")
        if np.any(self.n_draws < 1):
            raise ValueError("every cell needs at least one draw")

    def cell_centers(self) -> tuple:
        """(xs, ys) 1-D center coordinates along each axis."""
        return _cell_centers(self.nx, self.ny, self.cell_size, self.origin)

    def cell_grid(self) -> np.ndarray:
        """(ny * nx, 2) cell centers, row-major over (iy, ix) like the flattened arrays."""
        return _cell_grid(*self.cell_centers())


def _cell_centers(nx: int, ny: int, cell_size: float, origin) -> tuple:
    x0, y0 = origin
    return x0 + (np.arange(nx) + 0.5) * cell_size, y0 + (np.arange(ny) + 0.5) * cell_size


def _cell_grid(xs, ys) -> np.ndarray:
    return np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)


def check_map_settings(workspace, grid, draws: int, seed: int,
                       keys=("nx, ny", "draws_per_cell", "seed")) -> float | None:
    """The cell side of the map these settings build; ConfigError naming the key
    of the first bad one: a grid side below 2, fewer than one draw per cell, a
    negative seed, or cells that are not square on the workspace rectangle
    (not checked when ``workspace`` is None, where no map is built)."""
    for key, value, least in zip(keys, (min(grid), draws, seed), (2, 1, 0)):
        if value < least:
            raise ConfigError(f"must be at least {least}, got {value}", key=key)
    if workspace is None:
        return None
    nx, ny = grid
    xmin, xmax, ymin, ymax = workspace
    cell_x, cell_y = (xmax - xmin) / nx, (ymax - ymin) / ny
    if abs(cell_x - cell_y) > 1e-9:
        raise ConfigError(f"grid {nx}x{ny} does not tile the workspace with square cells "
                          f"({cell_x:.6g} vs {cell_y:.6g})", key=keys[0])
    return cell_x


def build_map(scenario: Scenario, nx: int, ny: int, draws_per_cell: int, seed: int) -> RadioMap:
    """Generate the radio map on an nx-by-ny grid of cell centers.

    The settings must pass ``check_map_settings``: in particular the (square)
    cell size must tile the workspace exactly. Each cell is classified
    geometrically, then averages ``draws_per_cell`` closed-form optimal SNR
    samples from its own seeded stream, whose seed ``seed ^ cell`` (cells
    numbered row-major) is part of format v2.

    The cells are filled in one serial loop: each cell's small numpy operations
    hold the GIL, so a pool of row threads built the desk map no faster, for
    about 50% more CPU time (README).
    """
    cell_x = check_map_settings(scenario.workspace, (nx, ny), draws_per_cell, seed)
    origin = scenario.workspace[0], scenario.workspace[2]
    grid = _cell_grid(*_cell_centers(nx, ny, cell_x, origin))
    ap_los, irs_los = los_class_batch(grid, scenario)
    links = [LinkClass(*pair) for pair in zip(ap_los.tolist(), irs_los.tolist())]
    d_ap, d_irs = (d.tolist() for d in distances(grid, scenario))

    avg = np.empty(nx * ny)
    for cell, link in enumerate(links):
        samples = optimal_snr_samples(d_ap[cell], d_irs[cell], scenario, link,
                                      draws_per_cell, seed ^ cell)
        avg[cell] = samples.sum() / draws_per_cell      # bitwise samples.mean()

    return RadioMap(
        nx=nx, ny=ny, cell_size=cell_x, origin=origin,
        avg_snr=avg.reshape(ny, nx), n_draws=np.full((ny, nx), draws_per_cell, dtype=np.int64),
        ap_los=ap_los.reshape(ny, nx), irs_los=irs_los.reshape(ny, nx),
        scenario_hash=scenario.channel_fingerprint(), seed=seed,
    )


# ---------------------------------------------------------------------------
# Persistence. Versioned header, one CSV row per cell in row-major order, floats
# written with Python's shortest round-trip repr so that load(save(m)) == m exactly.


def _row_labels(nx: int, ny: int, cell_size: float, origin) -> list:
    """The ``ix,iy,x,y`` text that opens each cell's row, in the file's row order."""
    xs, ys = ([repr(v) for v in axis.tolist()]
              for axis in _cell_centers(nx, ny, cell_size, origin))
    return [f"{ix},{iy},{xs[ix]},{ys[iy]}" for iy in range(ny) for ix in range(nx)]


def save_map(radio_map: RadioMap, path) -> None:
    lines = [
        f"# nx={radio_map.nx} ny={radio_map.ny} cell_size={radio_map.cell_size!r}"
        f" xmin={radio_map.origin[0]!r} ymin={radio_map.origin[1]!r}",
        f"# scenario={radio_map.scenario_hash} seed={radio_map.seed}",
        _COLUMNS,
    ]
    # the row-major cells column by column, each value as a plain Python number
    labels = _row_labels(radio_map.nx, radio_map.ny, radio_map.cell_size, radio_map.origin)
    ap, irs = ([("NLOS", "LOS")[v] for v in los.ravel().tolist()]
               for los in (radio_map.ap_los, radio_map.irs_los))
    snr = [repr(v) for v in radio_map.avg_snr.ravel().tolist()]
    draws = radio_map.n_draws.ravel().tolist()
    lines += [f"{label},{ap[k]},{irs[k]},{snr[k]},{draws[k]}"
              for k, label in enumerate(labels)]
    textfile.write(path, "radiomap", lines)


def _cell_number(text: str, parse, least, **where):
    """``parse(text)`` if it is a finite number at least ``least``, else FileFormatError."""
    try:
        value = parse(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= least):
        raise FileFormatError(f"expected a finite number at least {least}, got {text}", **where)
    return value


def load_map(path) -> RadioMap:
    """The map saved at ``path``. Its rows must come in the order save_map writes
    them, each opening with its cell's ``ix,iy,x,y`` exactly as written there."""
    lines = textfile.read(path, "radiomap")
    if len(lines) < 4:
        raise FileFormatError("truncated header", path=path, line=len(lines))

    try:
        geo = textfile.header_fields(lines[1], 2, path)
        meta = textfile.header_fields(lines[2], 3, path)
        nx, ny = int(geo["nx"]), int(geo["ny"])
        if min(nx, ny) < 1:
            raise ValueError(f"grid {nx}x{ny} has no cells")
        cell = float(geo["cell_size"])
        origin = (float(geo["xmin"]), float(geo["ymin"]))
        scenario_hash = meta["scenario"]
        seed = int(meta["seed"])
        if not (0 < cell < math.inf and all(map(math.isfinite, origin)) and seed >= 0):
            raise ValueError(f"cell_size={cell!r}, xmin={origin[0]!r}, ymin={origin[1]!r} "
                             f"or seed={seed} is out of range")
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"bad header: {exc}", path=path, line=2) from None

    if lines[3] != _COLUMNS:
        raise FileFormatError("unexpected column header", path=path, line=4,
                              field=lines[3])

    rows = lines[4:]
    if len(rows) != nx * ny:
        raise FileFormatError(
            f"expected {nx * ny} cell rows, found {len(rows)} (truncated or padded)",
            path=path, line=len(lines),
        )

    cells = []          # (avg_snr, n_draws, ap_los, irs_los) of each cell in turn
    labels = _row_labels(nx, ny, cell, origin)
    for lineno, row, label in zip(itertools.count(5), rows, labels):
        parts = row.split(",")
        if len(parts) != 8:
            raise FileFormatError("expected 8 fields", path=path, line=lineno)
        for name, got, want in zip(_COLUMNS.split(","), parts, label.split(",")):
            if got != want:
                raise FileFormatError(f"expected {want} (cells in row-major order), "
                                      f"got {got}", path=path, line=lineno, field=name)
        for name, pos in (("ap_class", 4), ("irs_class", 5)):
            if parts[pos] not in ("LOS", "NLOS"):
                raise FileFormatError("class must be LOS or NLOS", path=path,
                                      line=lineno, field=name)
        cell_snr = _cell_number(parts[6], float, 0.0, path=path, line=lineno,
                                field="avg_opt_snr_linear")
        cell_draws = _cell_number(parts[7], int, 1, path=path, line=lineno, field="n_draws")
        cells.append((cell_snr, cell_draws, parts[4] == "LOS", parts[5] == "LOS"))

    avg, draws, ap_los, irs_los = (np.array(col).reshape(ny, nx) for col in zip(*cells))
    return RadioMap(nx=nx, ny=ny, cell_size=cell, origin=origin, avg_snr=avg,
                    n_draws=draws, ap_los=ap_los, irs_los=irs_los,
                    scenario_hash=scenario_hash, seed=seed)
