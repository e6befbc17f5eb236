"""Plain-text persistence for universes.

Format (line-oriented, diff-friendly):

    quineset-universe 1
    atoms u,v
    depth 3
    max-sets 100000
    0,1
    0,2
    ...

The header carries the format version, the atom names (atoms take ids
0..k-1 implicitly), and the build depth and cap when known. Each body line
is one composite set in id order: its member ids, comma-separated, in
strictly increasing order. Members always precede their set, so
re-interning the records in order reproduces identical ids. The loader
verifies that, and rejects as a format error a record that is out of
order, repeats an id or does not intern to a fresh set. A file written by
:func:`dumps_universe` loads and dumps back byte for byte.
"""

from __future__ import annotations

from pathlib import Path

from .core import Universe
from .errors import UniverseFormatError, WorkbenchError

MAGIC = "quineset-universe 1"


def dumps_universe(universe: Universe) -> str:
    lines = [MAGIC, "atoms " + ",".join(universe.atom_names)]
    if universe.build_depth is not None:
        lines.append(f"depth {universe.build_depth}")
    if universe.max_sets is not None:
        lines.append(f"max-sets {universe.max_sets}")
    sets = universe.member_sets
    for sid in range(len(universe.atom_names), len(universe)):
        lines.append(",".join(map(str, sorted(sets[sid]))))
    return "\n".join(lines) + "\n"


def loads_universe(text: str) -> Universe:
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise UniverseFormatError(f"missing header line {MAGIC!r}")
    if len(lines) < 2 or not lines[1].startswith("atoms "):
        raise UniverseFormatError("missing atoms line")
    names = lines[1][len("atoms "):].split(",")
    depth: int | None = None
    max_sets: int | None = None
    row = 2
    while row < len(lines) and lines[row].split(" ", 1)[0] in ("depth", "max-sets"):
        key, _, value = lines[row].partition(" ")
        try:
            parsed = int(value)
        except ValueError:
            raise UniverseFormatError(f"line {row + 1}: bad {key} value {value!r}") from None
        if key == "depth":
            if parsed < 0:
                raise UniverseFormatError(f"line {row + 1}: depth {parsed} is negative")
            depth = parsed
        else:
            if parsed < len(names):
                raise UniverseFormatError(
                    f"line {row + 1}: max-sets {parsed} is below the {len(names)} atoms"
                )
            max_sets = parsed
        row += 1
    try:
        universe = Universe(names, max_sets=max_sets)
    except (WorkbenchError, ValueError) as exc:
        raise UniverseFormatError(f"bad atom list: {exc}") from exc
    universe.build_depth = depth
    for lineno in range(row, len(lines)):
        line = lines[lineno]
        try:
            members = [int(part) for part in line.split(",")]
        except ValueError:
            raise UniverseFormatError(
                f"line {lineno + 1}: not a member-id list: {line!r}"
            ) from None
        expected = len(universe)
        try:
            sid = universe.intern(members)
        except WorkbenchError as exc:
            raise UniverseFormatError(f"line {lineno + 1}: {exc}") from exc
        # intern takes ids in any order and with repeats; a record lists
        # each id once, in order, so that it dumps back to the same line.
        if len(universe.member_sets[sid]) != len(members) or members != sorted(members):
            raise UniverseFormatError(
                f"line {lineno + 1}: member ids are not strictly increasing: {line!r}"
            )
        if sid != expected:
            raise UniverseFormatError(
                f"line {lineno + 1}: record does not intern to a fresh set"
            )
    return universe


def save_universe(universe: Universe, path: str | Path) -> None:
    Path(path).write_text(dumps_universe(universe), encoding="ascii")


def load_universe(path: str | Path) -> Universe:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise UniverseFormatError(f"{path}: not an ASCII universe file: {exc}") from exc
    return loads_universe(text)
