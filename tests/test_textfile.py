import pytest

from irsplan import textfile
from irsplan.artifacts import read_trajectory_csv, write_trajectory_csv
from irsplan.conic import dump_problem, load_problem
from irsplan.errors import FileFormatError, UnsupportedVersionError
from irsplan.radiomap import load_map, save_map
from irsplan.snrmodel import load_model, save_model

from conftest import straight_line
from helpers import random_certified_socp


@pytest.fixture(scope="module")
def artifact_io(small_map, fitted_model, desk_scenario):
    """kind -> (write a valid file of that kind to a path, its reader)."""
    problem, _ = random_certified_socp(3)
    trajectory = straight_line(desk_scenario)
    return {
        "radiomap": (lambda path: save_map(small_map, path), load_map),
        "snrmodel": (lambda path: save_model(fitted_model, path), load_model),
        "trajectory": (lambda path: write_trajectory_csv(path, trajectory, desk_scenario,
                                                         fitted_model),
                       read_trajectory_csv),
        "conicproblem": (lambda path: dump_problem(problem, path), load_problem),
    }


@pytest.mark.parametrize("kind", ["radiomap", "snrmodel", "trajectory", "conicproblem"])
def test_reader_takes_only_its_own_header_at_its_own_version(artifact_io, tmp_path, kind):
    write, read = artifact_io[kind]
    write(tmp_path / "file.txt")
    header, body = (tmp_path / "file.txt").read_text().split("\n", 1)
    version = textfile.VERSIONS[kind]
    assert header == f"# irsplan-{kind} v{version}"
    read(tmp_path / "file.txt")

    (tmp_path / "draft.txt").write_text(f"# irsplan-{kind}-draft v{version}\n{body}")
    with pytest.raises(FileFormatError) as err:
        read(tmp_path / "draft.txt")
    assert err.value.line == 1 and not isinstance(err.value, UnsupportedVersionError)

    (tmp_path / "v9.txt").write_text(f"# irsplan-{kind} v9\n{body}")
    with pytest.raises(UnsupportedVersionError, match=f"v9 .*expected v{version}") as err:
        read(tmp_path / "v9.txt")
    assert err.value.line == 1


def test_blocks_group_keys_under_tags_with_their_line_numbers():
    lines = ["# a comment", "a = 1   # and another", "", "[one]", "b = x = y", "  c=2  ",
             "[two]", "[one]", "a = 3"]
    assert textfile.blocks(lines, 5, "f.cfg") == [
        (5, None, {"a": (6, "1")}),
        (8, "[one]", {"b": (9, "x = y"), "c": (10, "2")}),
        (11, "[two]", {}),
        (12, "[one]", {"a": (13, "3")})]


@pytest.mark.parametrize("lines,line,field", [
    (["a = 1", "[t]", "b = 2", "b = 3"], 4, "b"),
    (["[t]", "= 1"], 2, "= 1"),
    (["a = 1", "b"], 2, "b")],
    ids=["repeated-key", "no-key", "no-equals"])
def test_blocks_reject_a_repeated_key_or_a_line_that_is_neither(lines, line, field):
    with pytest.raises(FileFormatError) as err:
        textfile.blocks(lines, 1, "f.cfg")
    assert (err.value.path, err.value.line, err.value.field) == ("f.cfg", line, field)


@pytest.mark.parametrize("kind,line,key", [("radiomap", 2, "nx"), ("radiomap", 3, "seed"),
                                           ("snrmodel", 2, "scenario")],
                         ids=["map-nx", "map-seed", "model-scenario"])
def test_header_rejects_a_key_given_twice(artifact_io, tmp_path, kind, line, key):
    write, read = artifact_io[kind]
    write(tmp_path / "file.txt")
    lines = (tmp_path / "file.txt").read_text().splitlines()
    lines[line - 1] = lines[line - 1].replace("# ", f"# {key}=99 ", 1)
    (tmp_path / "file.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        read(tmp_path / "file.txt")
    assert (err.value.line, err.value.field) == (line, key)


def test_trajectory_error_names_its_line_past_a_blank_line(artifact_io, tmp_path):
    write, read = artifact_io["trajectory"]
    write(tmp_path / "trajectory.csv")
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    lines.insert(5, "")                     # line 6 is blank
    fields = lines[10].split(",")           # line 11
    fields[1] = "x"
    lines[10] = ",".join(fields)
    (tmp_path / "blank.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        read(tmp_path / "blank.csv")
    assert err.value.line == 11


@pytest.mark.parametrize("edit,line", [
    (lambda lines: [*lines[:2], "", lines[2].replace("step_length", "step_lenght"),
                    *lines[3:]], 4),
    (lambda lines: lines[:2], 2)],
    ids=["misspelt-past-a-blank-line", "no-rows"])
def test_trajectory_header_error_names_the_header_line(artifact_io, tmp_path, edit, line):
    write, read = artifact_io["trajectory"]
    write(tmp_path / "trajectory.csv")
    lines = edit((tmp_path / "trajectory.csv").read_text().splitlines())
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="missing column header") as err:
        read(tmp_path / "bad.csv")
    assert err.value.line == line
