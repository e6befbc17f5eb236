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
loader holds each record to it, and the dumper writes it for every universe
but a built one (below). Once a record's ids have passed the spelling rules
and the unknown-id check, the record equals the spelling of its mask (the
OR of its ids' bits) exactly when its ids are strictly increasing. The
unknown-id check compares spellings with the universe's size as text, so an
id too long for ``int()`` is reported like any other. The record loop reads
records until one breaks a rule, then interns the masks read, that record's
included when only its order is wrong, by one call to
:meth:`Universe.intern_fresh`. That call stops at the first record that is
not a fresh set and reports the cap at the first fresh one past it. So each
fault is named as a loop that interned one record at a time, before judging
its order, would name it: a record past the cap reports the cap, and the
first faulty record wins.

A built universe has one closed form: ``2**domain - 1`` sets, the atoms
and then every other mask below ``2**domain`` in increasing order
(:meth:`Universe.intern_closed`). Its records are :func:`_built_records`,
written from the atom count and the domain alone. The dumper writes them
for a universe that is that form, :meth:`Universe.closed_domain`, and
every other universe record by record: a written universe whose sets
happen to be in the form gets the same bytes either way. The loader
spots the form by content, whatever the header says. It counts the record
lines, without splitting the file, and takes the form when there are at
least two atoms, the atoms and records add up to ``2**domain - 1`` within
any cap, and the text after the header is those records, one string
compare. It then makes the form by one :meth:`Universe.intern_closed`
call. A single atom has no closed form to load: its first record would be
the set of its own id. Every other file goes through the record loop
under the rules above, in the same order and with the same messages.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from pathlib import Path

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
    atoms, domain = len(universe.atom_names), universe.closed_domain()
    if domain is not None:
        return "\n".join(lines) + "\n" + _built_records(atoms, domain)
    lines += map(_record_line, universe.member_sets[atoms:])
    return "\n".join(lines) + "\n"


def _built_records(atoms: int, domain: int) -> str:
    """The records ``build`` writes for ``atoms`` atoms, up to its stage over ``domain`` sets.

    After a stage over the ids ``0..n-1`` the universe holds exactly the
    masks ``1..2**n - 1`` (see :meth:`Universe.intern_closed`), so the next
    stage appends those whose greatest id is ``n`` or more. Over all stages
    the records are thus the subsets of the ids below ``domain``, grouped by
    greatest id ``m`` and in mask order within a group, except that the
    first stage's singletons are the atoms. The subsets whose greatest id is
    ``m`` are ``m`` alone, then each smaller subset followed by ``,m``.
    """
    lower = ""  # every nonempty subset of the ids below m, one line each
    blocks: list[str] = []
    for m in range(domain):
        raised = lower.replace("\n", f",{m}\n")
        block = f"{m}\n" + raised
        # In the first stage m alone is an atom, not a record.
        blocks.append(raised if m < atoms else block)
        if m + 1 < domain:
            lower += block
    return "".join(blocks)


def loads_universe(text: str) -> Universe:
    if not text.isascii() or "\r" in text:
        lineno = next(i for i, line in enumerate(text.split("\n"), 1)
                      if not line.isascii() or "\r" in line)
        raise UniverseFormatError(f"line {lineno}: not ASCII text with \\n line ends")
    if not text.endswith("\n") and text:
        lineno = text.count("\n") + 1
        raise UniverseFormatError(f"line {lineno}: no newline at end of file")
    # The header is at most four lines. The records are split only when
    # they are read one by one.
    lines = text.split("\n", 4)
    lines.pop()
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
    start = sum(map(len, lines[:row])) + row
    atoms = len(names)
    total = atoms + text.count("\n", start)
    domain = total.bit_length()
    if (atoms > 1 and total & (total + 1) == 0 and (max_sets is None or total <= max_sets)
            and text[start:] == _built_records(atoms, domain)):
        universe.intern_closed(domain)
        return universe
    records = text[start:].split("\n")
    records.pop()
    # Each record must intern to a fresh set, so the universe holds ``sid``
    # sets when the record that should make set ``sid`` is read, and
    # ``sid + skew`` is its line number.
    skew = row + 1 - len(names)
    # The records read are interned by one call at the end. The first
    # record found at fault stops the reading; its fault is reported unless
    # an earlier record passes the cap or does not intern to a fresh set.
    masks: list[int] = []
    fault: tuple[int, str] | None = None
    # The member bit, 1 << id, of each spelling of an existing id met in a
    # record that passed the spelling rules. A record made only of these
    # passes them too, so it skips them.
    spelled: dict[str, int] = {}
    bit_of = spelled.__getitem__
    for sid, line in enumerate(records, len(names)):
        parts = line.split(",")
        try:
            mask = reduce(or_, map(bit_of, parts))
        except KeyError:
            # int() also takes signs, spaces, underscores and leading zeros,
            # none of which dumps back the same; the text is ASCII, so
            # isdigit means 0-9.
            if not all(part.isdigit() and (part[0] != "0" or part == "0") for part in parts):
                fault = sid + skew, f"not a member-id list: {line!r}"
                break
            # A plain decimal names an existing id exactly when it sorts,
            # by length and then by text, below the universe's size, so an
            # unknown id is named, the least first as intern would, without
            # an int() of a spelling that may pass int()'s 4300-digit limit.
            size = str(sid)
            unknown = [part for part in parts if (len(part), part) >= (len(size), size)]
            if unknown:
                least = min(unknown, key=lambda part: (len(part), part))
                fault = sid + skew, f"{least} is not a set id of this universe"
                break
            bits = [1 << int(part) for part in parts]
            spelled.update(zip(parts, bits))
            mask = reduce(or_, bits)
        # A record is interned before its order is judged, so a fresh record
        # past the cap reports the cap.
        masks.append(mask)
        if _record_line(mask) != line:
            fault = sid + skew, f"member ids are not strictly increasing: {line!r}"
            break
    try:
        fresh = universe.intern_fresh(masks)
    except WorkbenchError as exc:
        raise UniverseFormatError(f"line {len(universe) + skew}: {exc}") from exc
    # The line of the first record that did not intern to a fresh set, or
    # the line after the last that did; a fault up to there stands.
    stop = len(universe) + skew
    if fault is not None and fault[0] <= stop:
        raise UniverseFormatError("line %d: %s" % fault)
    if fresh < len(masks):
        raise UniverseFormatError(f"line {stop}: record does not intern to a fresh set")
    return universe


def save_universe(universe: Universe, path: str | Path) -> None:
    Path(path).write_bytes(dumps_universe(universe).encode("ascii"))


def load_universe(path: str | Path) -> Universe:
    # Bytes are decoded as they are, without newline translation; a byte past
    # ASCII becomes a lone surrogate, which loads_universe reports by line.
    return loads_universe(Path(path).read_bytes().decode("ascii", "surrogateescape"))
