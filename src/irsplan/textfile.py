"""The versioned header of every artifact text file, written and checked in one place.

Each file starts with the line ``# irsplan-<kind> v<N>``; its body is the
business of the module that owns the kind. A layout change bumps that kind's
entry in ``VERSIONS``, so a reader never parses a body it does not know.
"""

from __future__ import annotations

from .errors import FileFormatError, UnsupportedVersionError

# every artifact format and its current version
VERSIONS = {"radiomap": 2, "snrmodel": 1, "trajectory": 1, "trace": 1, "conicproblem": 1}


def write(path, kind: str, lines) -> None:
    """Write the header of ``kind``, then ``lines``, each followed by a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# irsplan-{kind} v{VERSIONS[kind]}\n")
        fh.writelines(f"{line}\n" for line in lines)


def read(path, kind: str) -> list:
    """Every line of a ``kind`` file, header first, so index + 1 is the line number.

    FileFormatError unless line 1 is ``kind``'s header; UnsupportedVersionError
    if it is, but for another version.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    tag, _, version = (lines[0] if lines else "").rpartition(" ")
    if tag != f"# irsplan-{kind}" or not version.startswith("v"):
        raise FileFormatError(f"not an irsplan-{kind} file", path=path, line=1)
    if version != f"v{VERSIONS[kind]}":
        raise UnsupportedVersionError(
            f"unsupported version {version} (expected v{VERSIONS[kind]})", path=path, line=1)
    return lines


def header_fields(line: str, lineno: int, path) -> dict:
    """The ``key=value`` tokens of a ``# ...`` metadata line, as a dict of strings."""
    out = {}
    for token in line.lstrip("# ").split():
        if "=" not in token:
            raise FileFormatError("malformed header token", path=path, line=lineno,
                                  field=token)
        key, value = token.split("=", 1)
        out[key] = value
    return out
