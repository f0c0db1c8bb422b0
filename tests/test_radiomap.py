import dataclasses
import sys

import numpy as np
import pytest

from irsplan import radiomap, textfile
from irsplan.channel import optimal_snr_samples
from irsplan.cli import main
from irsplan.errors import ConfigError, FileFormatError, UnsupportedVersionError
from irsplan.radiomap import build_map, load_map, save_map
from irsplan.scenario import LinkClass, distances, scenario_overrides

from conftest import DESK_CONFIG, point_class


def test_single_draw_cell_equals_that_draws_optimal_snr(empty_scenario):
    built = build_map(empty_scenario, nx=5, ny=3, draws_per_cell=1, seed=40)
    xs, ys = built.cell_centers()
    for iy in range(3):
        for ix in range(5):
            center = np.array([xs[ix], ys[iy]])
            link = point_class(center, empty_scenario)
            expected = optimal_snr_samples(*distances(center, empty_scenario),
                                           empty_scenario, link, 1, 40 ^ (iy * 5 + ix))[0]
            assert built.avg_snr[iy, ix] == expected


def test_same_seed_identical_maps(desk_scenario):
    a = build_map(desk_scenario, nx=10, ny=6, draws_per_cell=5, seed=8)
    b = build_map(desk_scenario, nx=10, ny=6, draws_per_cell=5, seed=8)
    assert a.equals(b)


def test_parallel_build_matches_serial(desk_scenario, monkeypatch):
    # the pool has one thread per CPU the process may use; 15 rows do not divide
    # evenly among 2 or 3, and a short switch interval interleaves the row threads
    # as often as possible
    maps, pools = [], []
    real_pool = radiomap.ThreadPoolExecutor
    monkeypatch.setattr(radiomap, "ThreadPoolExecutor",
                        lambda max_workers: pools.append(max_workers) or real_pool(max_workers))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(radiomap.os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)), raising=False)
            maps.append(build_map(desk_scenario, nx=25, ny=15, draws_per_cell=5, seed=8))
    finally:
        sys.setswitchinterval(interval)
    assert pools == [1, 2, 3]
    assert maps[0].equals(maps[1])
    assert maps[0].equals(maps[2])


def test_grid_must_tile_workspace_squarely(desk_scenario):
    with pytest.raises(ConfigError, match="^nx, ny: "):
        build_map(desk_scenario, nx=70, ny=60, draws_per_cell=1, seed=0)


@pytest.mark.parametrize("settings,key", [
    ({"seed": -1}, "seed"),
    ({"draws_per_cell": 0}, "draws_per_cell"),
    ({"nx": 1, "ny": 1}, "nx, ny")],
    ids=["seed-negative", "draws-0", "grid-1x1"])
def test_bad_map_setting_is_a_config_error_naming_it(desk_scenario, settings, key):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        build_map(desk_scenario, **{"nx": 10, "ny": 6, "draws_per_cell": 1, "seed": 0,
                                    **settings})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_map_rejects_a_non_finite_cell(small_map, value):
    avg_snr = small_map.avg_snr.copy()
    avg_snr[3, 5] = value
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(small_map, avg_snr=avg_snr)


def test_ap_adjacent_cell_beats_shadowed_far_cell(small_map):
    # desk map, M = 64, 50 draws: monotone decay plus blockage
    xs, ys = small_map.cell_centers()
    ap_ix = int(np.argmin(np.abs(xs - 25.0)))
    ap_iy = int(np.argmin(np.abs(ys - 29.0)))
    assert small_map.ap_los[ap_iy, ap_ix]
    shadowed = np.argwhere(~small_map.ap_los & ~small_map.irs_los)
    assert shadowed.size, "desk layout should contain doubly-shadowed cells"
    worst = min((small_map.avg_snr[iy, ix] for iy, ix in shadowed))
    assert small_map.avg_snr[ap_iy, ap_ix] > 10 * worst


def test_round_trip_is_lossless(small_map, tmp_path):
    path = tmp_path / "map.csv"
    save_map(small_map, path)
    again = load_map(path)
    assert small_map.equals(again)
    # and byte-stable across a second save
    save_map(again, tmp_path / "map2.csv")
    assert (tmp_path / "map.csv").read_bytes() == (tmp_path / "map2.csv").read_bytes()


def test_every_saved_field_is_a_plain_number_or_a_class(small_map, tmp_path):
    path = tmp_path / "map.csv"
    save_map(small_map, path)
    xs, ys = small_map.cell_centers()
    rows = path.read_text().splitlines()[4:]
    assert len(rows) == small_map.nx * small_map.ny
    for row in rows:
        ix, iy, x, y, ap, irs, snr, draws = row.split(",")
        ix, iy = int(ix), int(iy)
        assert (float(x), float(y)) == (xs[ix], ys[iy])
        assert float(snr) == small_map.avg_snr[iy, ix]
        assert int(draws) == small_map.n_draws[iy, ix]
        assert ap in ("LOS", "NLOS") and irs in ("LOS", "NLOS")


@pytest.mark.parametrize("edit,field", [("x", "x"), ("swap", "ix")],
                         ids=["edited-x", "swapped-rows"])
def test_rows_must_label_their_cells_in_save_order(small_map, tmp_path, edit, field):
    path = tmp_path / "map.csv"
    save_map(small_map, path)
    lines = path.read_text().splitlines()
    if edit == "x":
        parts = lines[10].split(",")
        parts[2:4] = ["999.0", "-5"]
        lines[10] = ",".join(parts)
    else:
        lines[10], lines[11] = lines[11], lines[10]
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="row-major order") as err:
        load_map(tmp_path / "bad.csv")
    assert (err.value.line, err.value.field) == (11, field)


def test_a_header_without_cells_is_a_format_error(small_map, tmp_path):
    path = tmp_path / "map.csv"
    save_map(small_map, path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace(f"nx={small_map.nx} ", "nx=0 ")
    (tmp_path / "empty.csv").write_text("\n".join(lines[:4]) + "\n")      # and no rows
    with pytest.raises(FileFormatError, match="bad header") as err:
        load_map(tmp_path / "empty.csv")
    assert err.value.line == 2


def test_truncated_file_fails_with_line_info(small_map, tmp_path):
    path = tmp_path / "map.csv"
    save_map(small_map, path)
    lines = path.read_text().splitlines()
    (tmp_path / "trunc.csv").write_text("\n".join(lines[:-7]) + "\n")
    with pytest.raises(FileFormatError, match="truncated|rows"):
        load_map(tmp_path / "trunc.csv")


def test_version_mismatch_is_explicit(small_map, tmp_path):
    path = tmp_path / "map.csv"
    save_map(small_map, path)
    current = f"irsplan-radiomap v{textfile.VERSIONS['radiomap']}"
    text = path.read_text()
    assert text.startswith(f"# {current}\n")
    (tmp_path / "v9.csv").write_text(text.replace(current, "irsplan-radiomap v9", 1))
    with pytest.raises(UnsupportedVersionError):
        load_map(tmp_path / "v9.csv")


def test_v1_map_is_rejected_by_name(small_map, tmp_path):
    # v1 cells averaged another seed stream: reading one as v2 would mix two maps
    path = tmp_path / "map.csv"
    save_map(small_map, path)
    text = path.read_text().replace("irsplan-radiomap v2", "irsplan-radiomap v1", 1)
    (tmp_path / "v1.csv").write_text(text)
    with pytest.raises(UnsupportedVersionError, match="v1.*v2"):
        load_map(tmp_path / "v1.csv")


def test_malformed_field_names_line_and_field(small_map, tmp_path):
    path = tmp_path / "map.csv"
    save_map(small_map, path)
    lines = path.read_text().splitlines()
    parts = lines[10].split(",")
    parts[6] = "not-a-number"
    lines[10] = ",".join(parts)
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_map(tmp_path / "bad.csv")
    assert err.value.line == 11


def test_doubling_draws_stays_within_three_standard_errors(desk_scenario):
    sc = scenario_overrides(desk_scenario, n_irs_elements=16)
    n = 150
    map_a = build_map(sc, nx=20, ny=12, draws_per_cell=n, seed=100)
    map_b = build_map(sc, nx=20, ny=12, draws_per_cell=2 * n, seed=900)
    xs, ys = map_a.cell_centers()
    ok = 0
    total = 0
    for iy in range(12):
        for ix in range(20):
            center = np.array([xs[ix], ys[iy]])
            link = LinkClass(bool(map_a.ap_los[iy, ix]), bool(map_a.irs_los[iy, ix]))
            sa = optimal_snr_samples(*distances(center, sc), sc, link, n,
                                     100 ^ (iy * 20 + ix))
            sb = optimal_snr_samples(*distances(center, sc), sc, link, 2 * n,
                                     900 ^ (iy * 20 + ix))
            assert sa.mean() == pytest.approx(map_a.avg_snr[iy, ix], rel=1e-12)
            se = np.sqrt(sa.var(ddof=1) / n + sb.var(ddof=1) / (2 * n))
            ok += abs(map_a.avg_snr[iy, ix] - map_b.avg_snr[iy, ix]) <= 3 * se
            total += 1
    assert ok / total >= 0.99


def test_variance_shrinks_with_draw_count(desk_scenario):
    # sample-variance oracle: per-cell estimator variance scales like 1/draws
    link = point_class([25.0, 15.0], desk_scenario)
    d_ap, d_irs = distances([25.0, 15.0], desk_scenario)
    singles = np.array([
        optimal_snr_samples(d_ap, d_irs, desk_scenario, link, 1, 1000 + i)[0]
        for i in range(200)
    ])
    hundreds = np.array([
        optimal_snr_samples(d_ap, d_irs, desk_scenario, link, 200, 5000 + i).mean()
        for i in range(40)
    ])
    ratio = singles.var(ddof=1) / hundreds.var(ddof=1)
    assert 50 < ratio < 800    # ~200 expected, wide band for sampling noise


@pytest.mark.parametrize("field,value", [("avg_opt_snr_linear", "nan"),
                                         ("avg_opt_snr_linear", "inf"),
                                         ("avg_opt_snr_linear", "-1.0"),
                                         ("n_draws", "0"),
                                         ("n_draws", "x")])
def test_bad_cell_value_is_a_format_error(small_map, tmp_path, capsys, field, value):
    path = tmp_path / "map.csv"
    save_map(small_map, path)
    lines = path.read_text().splitlines()
    parts = lines[10].split(",")
    parts[6 if field == "avg_opt_snr_linear" else 7] = value
    lines[10] = ",".join(parts)
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_map(tmp_path / "bad.csv")
    assert (err.value.line, err.value.field) == (11, field)
    code = main(["fit", "--config", DESK_CONFIG, "--map", str(tmp_path / "bad.csv"),
                 "--out", str(tmp_path / "model.txt")])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
