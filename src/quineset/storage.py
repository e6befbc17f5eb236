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
re-interning the records in order reproduces identical ids.

The loader accepts only what :func:`dumps_universe` writes: ASCII text
with ``\n`` line ends, a newline after the last line, the ``depth`` and
``max-sets`` lines at most once each and in that order, and every number in
plain decimal (no sign, space, underscore or leading zero). It rejects as a
format error, naming the line, any other spelling and a record that is out
of order, repeats an id or does not intern to a fresh set. So a file that
loads dumps back byte for byte.

One function, :func:`_record_line`, spells the record of a member mask; the
dumper writes it and the loader holds each record to it. Once a record's
ids have passed the spelling rules and the unknown-id check, the record
equals the spelling of its mask (the OR of its ids' bits) exactly when
its ids are strictly increasing. Each record is interned by one call to
:meth:`Universe.intern_mask` with that mask, before the order is judged,
so a record past the cap reports the cap. The unknown-id check compares
spellings with the universe's size as text, so an id too long for
``int()`` is reported like any other.

A file that is exactly what :func:`~quineset.builder.build` writes for its
header is built again instead of read record by record. When the header
carries both ``depth`` and ``max-sets``, the loader works out the built
size in closed form (each stage maps n sets to 2**n - 1), and only when
the atoms and records add up to it does it build that config and compare
the dump with the text, one string compare. Every other file, and a build
that fails, goes through the record loop under the rules above, in the
same order and with the same messages.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from pathlib import Path

from .builder import BuildConfig, build
from .core import Universe, ids_of
from .errors import UniverseFormatError, WorkbenchError

MAGIC = "quineset-universe 1"


# The ids of the set bits of each byte value, comma-separated, as the low
# and as the high byte of a 16-bit mask.
_LOW_TEXT = tuple(",".join(map(str, ids_of(b))) for b in range(256))
_HIGH_TEXT = tuple(",".join(map(str, ids_of(b << 8))) for b in range(256))


def _record_line(mask: int) -> str:
    """The record of a member mask: its ids in increasing order, comma-separated."""
    if mask >= 0x10000:
        return ",".join(map(str, ids_of(mask)))
    low, high = _LOW_TEXT[mask & 0xFF], _HIGH_TEXT[mask >> 8]
    return f"{low},{high}" if low and high else low or high


def dumps_universe(universe: Universe) -> str:
    lines = [MAGIC, "atoms " + ",".join(universe.atom_names)]
    if universe.build_depth is not None:
        lines.append(f"depth {universe.build_depth}")
    if universe.max_sets is not None:
        lines.append(f"max-sets {universe.max_sets}")
    lines += map(_record_line, universe.member_sets[len(universe.atom_names):])
    return "\n".join(lines) + "\n"


def _rebuilt(names: list[str], depth: int, max_sets: int, sets: int, text: str) -> Universe | None:
    """The universe ``build`` makes for this header, when it dumps exactly as ``text``.

    ``sets`` is the number of sets the file holds, its atoms and records.
    """
    # Each stage closes a domain of n sets to 2**n - 1, so the built size
    # follows from the atom count alone. It stops at a fixed point (one
    # atom), and a stage past the cap or the file's sets rules the build
    # out, so a header of any depth costs a few steps.
    size = len(names)
    for _ in range(depth):
        grown = 2**size - 1
        if grown == size:
            break
        if grown > min(max_sets, sets):
            return None
        size = grown
    if size != sets:
        return None
    try:
        universe, _ = build(BuildConfig(names, depth, max_sets))
    except WorkbenchError:
        return None
    return universe if dumps_universe(universe) == text else None


def loads_universe(text: str) -> Universe:
    lines = text.split("\n")
    if not text.isascii() or "\r" in text:
        lineno = next(i for i, line in enumerate(lines, 1) if not line.isascii() or "\r" in line)
        raise UniverseFormatError(f"line {lineno}: not ASCII text with \\n line ends")
    # Every line ends in "\n", so the split leaves one empty string last.
    if lines.pop():
        raise UniverseFormatError(f"line {len(lines) + 1}: no newline at end of file")
    if not lines or lines[0] != MAGIC:
        raise UniverseFormatError(f"line 1: missing header line {MAGIC!r}")
    if len(lines) < 2 or not lines[1].startswith("atoms "):
        raise UniverseFormatError("line 2: missing atoms line")
    names = lines[1][len("atoms "):].split(",")
    depth: int | None = None
    max_sets: int | None = None
    row = 2
    for key in ("depth", "max-sets"):
        if row == len(lines) or lines[row].partition(" ")[0] != key:
            continue
        value = lines[row][len(key) + 1:]
        try:
            parsed = int(value)
        except ValueError:
            parsed = None
        if parsed is None or str(parsed) != value:
            raise UniverseFormatError(f"line {row + 1}: bad {key} value {value!r}")
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
        raise UniverseFormatError(f"line 2: bad atom list: {exc}") from exc
    universe.build_depth = depth
    if depth is not None and max_sets is not None:
        built = _rebuilt(names, depth, max_sets, len(names) + len(lines) - row, text)
        if built is not None:
            return built
    # Each record must intern to a fresh set, so the universe holds ``sid``
    # sets when the record that should make set ``sid`` is read, and
    # ``sid + skew`` is its line number.
    skew = row + 1 - len(names)
    intern_mask = universe.intern_mask
    # The member bit, 1 << id, of each spelling of an existing id met in a
    # record that passed the spelling rules. A record made only of these
    # passes them too, so it skips them.
    spelled: dict[str, int] = {}
    bit_of = spelled.__getitem__
    for sid, line in enumerate(lines[row:], len(names)):
        parts = line.split(",")
        try:
            mask = reduce(or_, map(bit_of, parts))
        except KeyError:
            # int() also takes signs, spaces, underscores and leading zeros,
            # none of which dumps back the same; the text is ASCII, so
            # isdigit means 0-9.
            if not all(part.isdigit() and (part[0] != "0" or part == "0") for part in parts):
                raise UniverseFormatError(f"line {sid + skew}: not a member-id list: {line!r}")
            # A plain decimal names an existing id exactly when it sorts,
            # by length and then by text, below the universe's size, so an
            # unknown id is named, the least first as intern would, without
            # an int() of a spelling that may pass int()'s 4300-digit limit.
            size = str(sid)
            unknown = [part for part in parts if (len(part), part) >= (len(size), size)]
            if unknown:
                least = min(unknown, key=lambda part: (len(part), part))
                raise UniverseFormatError(
                    f"line {sid + skew}: {least} is not a set id of this universe"
                )
            bits = [1 << int(part) for part in parts]
            spelled.update(zip(parts, bits))
            mask = reduce(or_, bits)
        try:
            found = intern_mask(mask)
        except WorkbenchError as exc:
            raise UniverseFormatError(f"line {sid + skew}: {exc}") from exc
        if _record_line(mask) != line:
            raise UniverseFormatError(
                f"line {sid + skew}: member ids are not strictly increasing: {line!r}"
            )
        if found != sid:
            raise UniverseFormatError(f"line {sid + skew}: record does not intern to a fresh set")
    return universe


def save_universe(universe: Universe, path: str | Path) -> None:
    Path(path).write_bytes(dumps_universe(universe).encode("ascii"))


def load_universe(path: str | Path) -> Universe:
    # Bytes are decoded as they are, without newline translation; a byte past
    # ASCII becomes a lone surrogate, which loads_universe reports by line.
    return loads_universe(Path(path).read_bytes().decode("ascii", "surrogateescape"))
