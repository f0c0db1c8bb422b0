"""The text formats shared by irsplan's files, written and checked in one place.

Each artifact file starts with the line ``# irsplan-<kind> v<N>``; its body is
the business of the module that owns the kind. A layout change bumps that
kind's entry in ``VERSIONS``, so a reader never parses a body it does not know.
The scenario config and the model file share the grammar that ``blocks`` reads.
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


def read_lines(path) -> list:
    """Every line of a UTF-8 text file; FileFormatError at line 1 if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not UTF-8 text (byte {exc.start}: {exc.reason})",
                              path=path, line=1) from None


def read(path, kind: str) -> list:
    """Every line of a ``kind`` file, header first, so index + 1 is the line number.

    FileFormatError unless line 1 is ``kind``'s header; UnsupportedVersionError
    if it is, but for another version.
    """
    lines = read_lines(path)
    tag, _, version = (lines[0] if lines else "").rpartition(" ")
    if tag != f"# irsplan-{kind}" or not version.startswith("v"):
        raise FileFormatError(f"not an irsplan-{kind} file", path=path, line=1)
    if version != f"v{VERSIONS[kind]}":
        raise UnsupportedVersionError(
            f"unsupported version {version} (expected v{VERSIONS[kind]})", path=path, line=1)
    return lines


def header_fields(line: str, lineno: int, path) -> dict:
    """The ``key=value`` tokens of a ``# ...`` metadata line, as a dict of strings.

    FileFormatError at a token without ``=`` and at a key given twice.
    """
    out = {}
    for token in line.lstrip("# ").split():
        if "=" not in token:
            raise FileFormatError("malformed header token", path=path, line=lineno,
                                  field=token)
        key, value = token.split("=", 1)
        if key in out:
            raise FileFormatError("repeated key", path=path, line=lineno, field=key)
        out[key] = value
    return out


def blocks(lines, first: int, path) -> list:
    """``[(lineno, tag, {key: (lineno, value)})]`` of ``lines``, the first being line ``first``.

    The first entry, tag None, holds the lines above the first ``[tag]``; ``#``
    starts a comment. FileFormatError at a line that is neither a tag nor
    ``key = value``, and at a key repeated in its block.
    """
    out = [(first, None, {})]
    for lineno, line in enumerate(lines, start=first):
        line = line.split("#", 1)[0].strip()
        key, sep, value = (part.strip() for part in line.partition("="))
        if line.startswith("["):
            out.append((lineno, line, {}))
        elif line and not (sep and key):
            raise FileFormatError("expected 'key = value'", path=path, line=lineno, field=line)
        elif key in out[-1][2]:
            raise FileFormatError("repeated key", path=path, line=lineno, field=key)
        elif line:
            out[-1][2][key] = (lineno, value)
    return out
