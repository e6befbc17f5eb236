"""Canonical finite sets over self-membered atoms.

A :class:`Universe` interns every set exactly once, so two ids are equal
exactly when their member sets are equal. It stores each set once, as an
int mask whose bit ``i`` is set when id ``i`` is a member, and finds a set
from that mask: by arithmetic in its closed prefix (below), and in an index
from masks to ids past it. A built universe grows stage by stage, each
set's members taken from the stage before, so its masks are small ints. A
mask is as wide as its set's highest member id, so a file of sets with
late members, such as a long chain of nested singletons, holds bits with
the square of its length. :func:`ids_of` lists a mask's ids in increasing
order; :meth:`Universe.member_set` and :meth:`Universe.members`
build a frozenset or a sorted tuple from it on demand. Atoms are the only
self-membered objects: atom ``i`` is the mask ``1 << i``, its sole member is
itself, and the singleton of an atom, having the same mask, is the atom.
There is no empty set.

Interning is the only write, and it needs a single writer. A build's
closed form is fixed by two ints, its atom count and its domain: the
atoms, then every other mask below ``2**domain`` in increasing order, which
over the ids ``0..domain-1`` are every nonempty subset.
:meth:`Universe.intern_closed` alone makes it, for the builder's stages and
the loader's closed-form files: from the atoms alone or from a closed form,
it appends the masks not interned yet (:func:`absent_masks`) by one
``extend``, with no lookup per mask and no index entry (below). Every other
write goes through one append rule, which takes a list of new, distinct
masks and appends them in order, by one ``extend`` and one index
``update``, up to the cap. Three methods feed it, and each leaves out a set
already interned, which keeps its id. :meth:`Universe.intern` validates
any member collection, :meth:`Universe.intern_mask` takes a set's member
mask (the constructors that compute one), and :meth:`Universe.intern_fresh`
takes a list of masks that should all be new (the loader's records) and
stops at the first that is not. Each write admits only members that
already exist, so a new set never holds its own id: the atoms are the only
individuals, and :meth:`Universe.individuals` is their mask, set once.

Every other method here is a read, and so are the checks in
:mod:`quineset.verifier` and :mod:`quineset.peano` on a universe made by
the builder (or loaded from a file it wrote): they may run from any number
of threads at once while nothing interns. The checks share the membership
columns, :meth:`Universe.member_columns`: the same facts as ``member_sets``
stored transposed, one mask of ids per member id. Beside them are kept the
mask of the ids that are members of some set,
:meth:`Universe.occurring_members`, and the mask of the transitive ids,
:meth:`Universe.transitive_ids`, worked out from the columns. All three are
kept per universe size and published together by one assignment, so a
concurrent reader sees a whole set of them or computes its own. While a
universe is exactly the closed form :meth:`Universe.intern_closed` made
(:meth:`Universe.closed_domain`), built or loaded, it needs no pass over
its sets for them: each column is a periodic bit pattern cut at the atoms'
masks (:func:`_closed_columns`), worked out from those two ints. Any other
universe, one that grew after that call or that no call left in closed
form, transposes every member mask (:func:`_columns`).

The closed form stays the universe's closed prefix as it grows, and within
it a set's id follows from its mask and the atom count ``k`` alone: mask
``1 << i`` with ``i < k`` is atom ``i``, and any other mask ``m`` below
``2**domain`` is id ``k + m - 1 - min(k, m.bit_length())``, after the atoms
and the other masks below it. So the index holds only the masks past the
prefix: :meth:`Universe.intern_closed` empties it, so a build or a
closed-form load leaves it empty, and no later write adds a mask below
``2**domain`` to it, since every such mask is interned already. So the
checks read two counts with no pass over the sets:
:meth:`Universe.closed_size`, the prefix's size, which stays valid as the
universe grows, and :meth:`Universe.distinct_masks`, that size plus the
index's.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_right
from functools import reduce
from itertools import chain, compress, count
from operator import and_, gt, or_
from typing import Collection, Iterable, Iterator

from .errors import (
    AtomsEqual,
    CapExceeded,
    DuplicateAtomName,
    EmptyAtomName,
    EmptySetForbidden,
    InvalidAtomName,
    NotAtom,
    UnknownAtom,
    UnknownId,
)

SetId = int

# The one identifier grammar: atom names, formula variables and the atom
# names inside set literals. The reserved words are the formula keywords.
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
RESERVED_NAMES = frozenset({"forall", "exists", "in", "notin"})
# Most levels a formula or a set literal may nest, which keeps their
# recursive parsers, printers and the evaluator inside the interpreter's stack.
MAX_NESTING = 100

# The set bits of each byte value, as positions in the low and in the high
# byte of a 16-bit mask.
_LOW_BYTE = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
_HIGH_BYTE = tuple(tuple(i + 8 for i in range(8) if b >> i & 1) for b in range(256))


# Binary digits as the bytes 0 and 1, for ``compress``.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
# Entry ``b``: each byte value as the ASCII digit of its bit ``b``.
_BIT_DIGITS = tuple(bytes(48 | x >> b & 1 for x in range(256)) for b in range(8))


def ids_of(mask: int) -> tuple[SetId, ...]:
    """The ids whose bits are set in ``mask``, in increasing order."""
    if mask < 0x10000:
        return _LOW_BYTE[mask & 0xFF] + _HIGH_BYTE[mask >> 8]
    width = mask.bit_length()
    if mask.bit_count() << 5 < width:
        # Fewer than one bit in 32 set: take the highest set bit off at a time.
        ids: list[SetId] = []
        while mask:
            top = mask.bit_length() - 1
            ids.append(top)
            mask ^= 1 << top
        ids.reverse()
        return tuple(ids)
    return tuple(iter_ids(mask))


def iter_ids(mask: int) -> Iterator[SetId]:
    """The ids of :func:`ids_of`, read lazily, for a loop that may stop early."""
    return at_ids(count(), mask)


def at_ids(items: Iterable, mask: int) -> Iterator:
    """The items at the ids of ``mask``, in increasing id order, read lazily.

    One pass in C writes a binary digit per bit, the lowest first, and
    ``compress`` keeps the items whose digit is 1; it stops at the end of
    ``items`` or of the digits.
    """
    return compress(items, bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES))


def mask_of(ids: Iterable[SetId]) -> int:
    """The mask with the bit of each of ``ids`` set; ids must be ints from 0."""
    return reduce(or_, map((1).__lshift__, ids), 0)


def absent_masks(present: Iterable[int], total: int) -> Iterator[int]:
    """The ints ``1..total`` that are not in ``present``, in increasing order.

    They are the gaps between the sorted ints of ``present`` that lie in
    ``1..total``, one ``range`` each (a repeat makes an empty one), so the
    cost is a sort of ``present`` and a ``chain`` of ranges, with no test
    per int.
    """
    edges = sorted(present)
    edges = edges[bisect_right(edges, 0):bisect_right(edges, total)]
    return chain.from_iterable(map(range, map((1).__add__, [0, *edges]), [*edges, total + 1]))


def _columns(masks: list[int]) -> list[int]:
    """Entry ``v``: the mask of the indexes ``i`` whose ``masks[i]`` has bit ``v``.

    There is one entry per bit below the widest mask's ``bit_length()``.
    The low 16 bits of the masks are packed into an ``array('H')``, whose
    bytes split into a low and a high plane; each of those columns is then
    one ``translate`` of a reversed plane into binary digits and one
    ``int(…, 2)``. The bits past 16, which only masks of late members such
    as a chain's have, are added from the ids of each mask of 2**16 or
    wider, one mask at a time.
    """
    width = max(masks).bit_length()
    packed = array("H", masks if width <= 16 else [ms & 0xFFFF for ms in masks])
    if sys.byteorder == "big":
        packed.byteswap()
    raw = packed.tobytes()
    # The low and the high byte of each mask, the last index first.
    planes = raw[::2][::-1], raw[1::2][::-1]
    columns = [int(planes[v >> 3].translate(_BIT_DIGITS[v & 7]), 2) for v in range(min(width, 16))]
    if width > 16:
        columns += [0] * (width - 16)
        for i in compress(count(), map((0xFFFF).__lt__, masks)):
            for v in ids_of(masks[i] >> 16):
                columns[v + 16] |= 1 << i
    return columns


def _closed_columns(atoms: int, domain: int) -> list[int]:
    """:func:`_columns` of a build's closed form, from its atom count and domain alone.

    That form is ``2**domain - 1`` sets: the atoms' masks ``1 << i``, then
    every other mask ``1..2**domain - 1`` in increasing order
    (:meth:`Universe.intern_closed`). Over every int ``0..2**domain - 1`` in
    turn, bit ``v`` runs ``2**v`` zeros, then ``2**v`` ones, again and
    again: one periodic pattern, the one above it (all ones above the top)
    XOR itself shifted down by ``2**v``. The composites are the ints
    between one atom's mask and the next, and past the last up to
    ``2**domain``: column ``v`` is the pattern cut at the atoms' masks,
    one AND up to each gap's end and a shift to its place, from id
    ``atoms`` on; atom ``v``, when there is one, adds its own bit. No
    member mask is read.
    """
    edges = [*map((1).__lshift__, range(atoms)), 1 << domain]
    columns = []
    pattern = (1 << (1 << domain)) - 1
    for v in reversed(range(domain)):
        pattern ^= pattern >> (1 << v)
        column = 1 << v if v < atoms else 0
        offset = atoms
        for a, b in zip(edges, edges[1:]):
            column |= (pattern & (1 << b) - 1) >> a + 1 << offset
            offset += b - a - 1
        columns.append(column)
    return columns[::-1]


class Universe:
    """Append-only interning table of finite sets over a fixed atom list.

    Ids are dense indexes into the table. Atoms occupy ids ``0..k-1`` in the
    order their names were given; every composite is registered after all of
    its members, so a member's id is always smaller than its set's id. A
    set is found from its member mask by arithmetic in the closed prefix,
    the build's closed form the sets begin with, and in an index past it.
    """

    def __init__(self, atom_names: Iterable[str], *, max_sets: int | None = None):
        names = list(atom_names)
        if not names:
            raise ValueError("a universe needs at least one atom")
        seen: set[str] = set()
        for name in names:
            if name == "":
                raise EmptyAtomName("atom names must be nonempty")
            if not NAME_RE.fullmatch(name) or name in RESERVED_NAMES:
                raise InvalidAtomName(f"{name!r} is not a usable atom name")
            if name in seen:
                raise DuplicateAtomName(f"atom name {name!r} given twice")
            seen.add(name)
        self.max_sets = max_sets
        self.build_depth: int | None = None
        # member_sets[i] is set i's member mask; read-only. Atom i's sole
        # member is itself.
        self.member_sets: list[int] = [1 << i for i in range(len(names))]
        # Each mask past the closed prefix to its id; a mask below 2**domain
        # of that prefix is looked up by arithmetic (_closed_id).
        self._index: dict[int, SetId] = {ms: i for i, ms in enumerate(self.member_sets)}
        # The universe size the kept membership columns, occurring members
        # and transitive ids were worked out for; replaced whole, never mutated.
        self._columns: tuple[int, tuple[int, ...], int, int] = (0, (), 0, 0)
        # The domain of the closed form the sets begin with, of 2**domain - 1
        # sets, or 0 before intern_closed makes one; set by that call alone.
        self._closed = 0
        # The self-membered ids: no write can add one to the atoms.
        self._individuals = (1 << len(names)) - 1
        self._atom_ids: dict[str, SetId] = dict(zip(names, range(len(names))))

    def _append(self, fresh: list[int]) -> None:
        """The one append rule: append ``fresh``, in order, up to the cap.

        The masks must be new and distinct member masks, each of ids that
        exist before its own place. They are appended by one ``extend`` of
        the table and one ``update`` of the index. When they would pass the
        cap, those that fit are appended and :class:`CapExceeded` names one
        set past it. Every write after the atoms goes through here, except
        :meth:`intern_closed`.
        """
        sets = self.member_sets
        sid = len(sets)
        room = len(fresh) if self.max_sets is None else max(self.max_sets - sid, 0)
        full = len(fresh) > room
        if full:
            fresh = fresh[:room]
        sets += fresh
        self._index.update(zip(fresh, range(sid, len(sets))))
        if full:
            raise CapExceeded(required=len(sets) + 1, max_sets=self.max_sets)

    def __len__(self) -> int:
        return len(self.member_sets)

    def ids(self) -> range:
        return range(len(self.member_sets))

    @property
    def atoms(self) -> tuple[SetId, ...]:
        return tuple(self._atom_ids.values())

    @property
    def atom_names(self) -> tuple[str, ...]:
        return tuple(self._atom_ids)

    def atom_id(self, name: str) -> SetId:
        try:
            return self._atom_ids[name]
        except KeyError:
            raise UnknownAtom(f"no atom named {name!r}") from None

    def _check_id(self, sid: SetId) -> None:
        if not isinstance(sid, int) or not 0 <= sid < len(self.member_sets):
            raise UnknownId(f"{sid!r} is not a set id of this universe")

    def is_atom(self, sid: SetId) -> bool:
        """True when ``sid`` is one of the named atoms."""
        self._check_id(sid)
        # Atoms occupy ids 0..k-1, in the order of their names.
        return sid < len(self._atom_ids)

    def intern(self, members: Iterable[SetId]) -> SetId:
        """Return the canonical id for the given member collection.

        A singleton of an atom is the atom itself. An empty collection
        raises, since a memberless set does not exist here.
        """
        ms = frozenset(members)
        if not ms:
            raise EmptySetForbidden("a set needs at least one member")
        self._check_ids(ms)
        return self.intern_mask(mask_of(ms))

    def _check_ids(self, ms: Collection[SetId]) -> None:
        # A non-int is named first, the least by its repr, since it need not
        # compare with ints. Once every member is an int, the least and
        # greatest bound them all; the per-member scan below only runs to
        # name the least bad id.
        if not all(map(int.__instancecheck__, ms)):
            self._check_id(min((m for m in ms if not isinstance(m, int)), key=repr))
        if not (min(ms) >= 0 and max(ms) < len(self.member_sets)):
            for m in sorted(ms):
                self._check_id(m)

    def intern_closed(self, domain: int) -> None:
        """Extend the atoms alone, or a closed form, to the build's closed form over ``domain``.

        That form is ``2**domain - 1`` sets: the atoms, then every other
        mask below ``2**domain`` in increasing order. Over the ids
        ``0..domain-1`` they are every nonempty subset, so a build stage over
        ``n`` sets is the call with ``domain = n``. The masks not interned
        yet are appended by one ``extend`` of :func:`absent_masks`, with no
        pass for repeats and no index entry: every mask below ``2**domain``
        is then at the id :meth:`lookup_mask` works out, so the index
        empties, and ``domain`` is kept as the closed prefix, which no later
        write but this call changes. When the form's ``2**domain - 1`` sets
        exceed the cap, nothing is interned. Raises :class:`ValueError`,
        interning nothing, unless the universe is its atoms alone or exactly
        a closed form, ``domain`` is at least its size, and ``domain`` is 1
        over one atom, whose mask 2 would be a set that holds itself.
        """
        sets = self.member_sets
        n, k = len(sets), len(self._atom_ids)
        if not (n == k or self.closed_domain() is not None) or domain < n or k == 1 < domain:
            raise ValueError(f"no closed form over {domain} extends these {n} sets")
        total = (1 << domain) - 1
        if self.max_sets is not None and total > self.max_sets:
            raise CapExceeded(required=total, max_sets=self.max_sets)
        sets += absent_masks(sets, total)
        self._index = {}
        self._closed = domain

    def closed_domain(self) -> int | None:
        """The domain of the closed form the universe is, with nothing after it, else ``None``.

        Only :meth:`intern_closed` makes that form, so a universe whose sets
        are in it for any other reason is not taken as one.
        """
        domain = self._closed
        return domain if len(self.member_sets) == (1 << domain) - 1 else None

    def closed_size(self) -> int:
        """How many sets the closed prefix holds: ``2**domain - 1``, or 0 before :meth:`intern_closed`.

        Unlike :meth:`closed_domain` it stays valid once the universe grows
        past the form: ids below it are every mask below ``2**domain``, in
        the order :meth:`lookup_mask` works out, and no later id repeats one.
        """
        return (1 << self._closed) - 1

    def distinct_masks(self) -> int:
        """How many distinct member masks the sets have, with no pass over them.

        The closed prefix's masks are distinct, and the index keeps each
        mask past it once, at its first id; so this is their two sizes.
        """
        return self.closed_size() + len(self._index)

    def intern_fresh(self, masks: list[int]) -> int:
        """Intern ``masks`` in order, each as a new set, up to the first that is not; how many were.

        These are the loader's records. A mask already interned, or one that
        repeats an earlier mask, stops the call before it. The cap applies
        as in :meth:`intern_mask`: the masks that fit are interned and
        :class:`CapExceeded` names one set past it. Raises, interning
        nothing, unless every mask is a positive int whose bits are ids
        below its own place, counting from ``len(self)``.
        """
        n = len(self.member_sets)
        if not (all(map(int.__instancecheck__, masks)) and min(masks, default=1) > 0
                and not any(map(gt, map(int.bit_length, masks), count(n)))):
            for place, mask in enumerate(masks, n):
                if not isinstance(mask, int) or mask < 0 or mask.bit_length() > place:
                    raise UnknownId(f"{mask!r} is not a member mask of this universe")
                if not mask:
                    raise EmptySetForbidden("a set needs at least one member")
        # Every mask below 2**domain of the closed prefix is interned.
        index, prefix = self._index, 1 << self._closed
        if (len(set(masks)) < len(masks) or min(masks, default=prefix) < prefix
                or not index.keys().isdisjoint(masks)):
            seen: set[int] = set()
            for i, mask in enumerate(masks):
                if mask < prefix or mask in index or mask in seen:
                    masks = masks[:i]
                    break
                seen.add(mask)
        self._append(masks)
        return len(masks)

    def intern_mask(self, mask: int) -> SetId:
        """Intern the set whose member mask is ``mask``, by the same rule as :meth:`intern`.

        The cap applies. Raises, interning nothing, unless ``mask`` is a
        positive int whose bits are all ids of this universe.
        """
        if not isinstance(mask, int) or mask < 0 or mask.bit_length() > len(self.member_sets):
            raise UnknownId(f"{mask!r} is not a member mask of this universe")
        if not mask:
            raise EmptySetForbidden("a set needs at least one member")
        if not mask >> self._closed:
            return self._closed_id(mask)
        sid = self._index.get(mask)
        if sid is None:
            sid = len(self.member_sets)
            self._append([mask])
        return sid

    def lookup_mask(self, mask: int) -> SetId | None:
        """The id of the set whose member mask is ``mask``, if interned; never interns.

        A positive int below ``2**domain`` of the closed prefix is found by
        arithmetic (:meth:`_closed_id`), any other mask in the index.
        """
        if isinstance(mask, int) and mask > 0 and not mask >> self._closed:
            return self._closed_id(mask)
        return self._index.get(mask)

    def _closed_id(self, mask: int) -> SetId:
        """The id of a positive int ``mask`` below ``2**domain`` of the closed prefix.

        Mask ``1 << i`` with ``i`` below the atom count ``k`` is atom ``i``.
        Any other mask ``m`` follows the atoms and the other masks below it:
        ``m - 1`` of them, less the ``min(k, m.bit_length())`` atoms' masks
        among them.
        """
        k = len(self._atom_ids)
        width = mask.bit_length()
        if width <= k and mask == 1 << width - 1:
            return width - 1
        return k + mask - 1 - min(k, width)

    def member_mask(self, sid: SetId) -> int:
        """The member mask of ``sid``: bit ``i`` is set when id ``i`` is a member."""
        self._check_id(sid)
        return self.member_sets[sid]

    def members(self, sid: SetId) -> tuple[SetId, ...]:
        """Sorted member ids; an atom's members are itself."""
        self._check_id(sid)
        return ids_of(self.member_sets[sid])

    def member_set(self, sid: SetId) -> frozenset[SetId]:
        """The member ids as a frozenset, built on each call."""
        return frozenset(self.members(sid))

    def is_member(self, x: SetId, s: SetId) -> bool:
        self._check_id(x)
        self._check_id(s)
        return bool(self.member_sets[s] >> x & 1)

    def is_individual(self, s: SetId) -> bool:
        """True when ``s`` is a member of itself (see :meth:`individuals`)."""
        self._check_id(s)
        return bool(self.member_sets[s] >> s & 1)

    def individuals(self) -> int:
        """The mask of the self-membered ids.

        No write makes a set that holds its own id, so these are the atoms,
        ids ``0..k-1``, and the mask is set once, when the universe is made.
        """
        return self._individuals

    def is_subset(self, s: SetId, t: SetId) -> bool:
        self._check_id(s)
        self._check_id(t)
        ms = self.member_sets[s]
        return ms & self.member_sets[t] == ms

    def _kept_columns(self) -> tuple[int, tuple[int, ...], int, int]:
        """The kept columns, occurring members and transitive ids, for every id so far."""
        kept = self._columns
        sets = self.member_sets
        n = len(sets)
        if kept[0] != n:
            domain = self.closed_domain()
            columns = tuple(_columns(sets) if domain is None
                            else _closed_columns(len(self._atom_ids), domain))
            occurring = mask_of(compress(count(), columns))
            # A set that holds v is intransitive unless it is in the column
            # of each member of v as well.
            transitive = ((1 << n) - 1) ^ reduce(or_, (
                columns[v] ^ reduce(and_, map(columns.__getitem__, ids_of(sets[v])), columns[v])
                for v in ids_of(occurring)
            ), 0)
            kept = self._columns = n, columns, occurring, transitive
        return kept

    def member_columns(self) -> tuple[int, ...]:
        """The membership columns: entry ``v`` is the mask of the ids that have ``v`` as a member.

        There is one entry per bit below the widest member mask's
        ``bit_length()``. The columns are the member masks transposed, so
        a filter on member masks is a few operations on them. They are kept
        per universe size: a universe that has grown since gets new ones,
        published with :meth:`occurring_members` and :meth:`transitive_ids`
        by one assignment, so a reader never sees a partly built set. While
        the universe is the closed form :meth:`intern_closed` made, with
        nothing after it (:meth:`closed_domain`), the columns come from its
        atom count and domain alone (:func:`_closed_columns`); otherwise
        every member mask is transposed (:func:`_columns`).
        """
        return self._kept_columns()[1]

    def occurring_members(self) -> int:
        """The mask of the ids that are a member of some set: those with a nonzero column."""
        return self._kept_columns()[2]

    def transitive_ids(self) -> int:
        """The mask of the transitive ids among every id interned so far.

        A set is transitive when each member's mask lies within its own.
        The mask is worked out from :meth:`member_columns` and kept with
        them.
        """
        return self._kept_columns()[3]

    def is_transitive(self, s: SetId) -> bool:
        """True when every member of ``s`` is also a subset of ``s``."""
        self._check_id(s)
        return bool(self.transitive_ids() >> s & 1)

    def cardinality(self, s: SetId) -> int:
        self._check_id(s)
        return self.member_sets[s].bit_count()


def ensure_distinct_atoms(universe: Universe, a1: SetId, a2: SetId) -> None:
    """Validate that ``a1`` and ``a2`` are two different atoms."""
    for x in (a1, a2):
        if not universe.is_atom(x):
            raise NotAtom(f"set {x} is not an atom")
    if a1 == a2:
        raise AtomsEqual("two distinct atoms are required")
