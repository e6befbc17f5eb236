"""Canonical finite sets over self-membered atoms.

A :class:`Universe` interns every set exactly once, so two ids are equal
exactly when their member sets are equal. It stores each set once, as the
frozenset of its member ids, and that same frozenset keys the index from
extensions to ids. Atoms are the only self-membered objects: each atom's
sole member is itself, and the singleton of an atom collapses back to the
atom at interning time. There is no empty set.

Interning is the only write, and it needs a single writer. After the
atoms, every write goes through one append rule: a set already in the index keeps its id, and
a new one is appended if the universe is under its cap. Three methods feed
it: :meth:`Universe.intern` validates any member collection,
:meth:`Universe.intern_subsets` interns every nonempty subset of an id list
(the builder's stages and ``powerset``), and :meth:`Universe.intern_record`
takes a record already in file form (the loader). Every other method here
is a read, and so are the checks in :mod:`quineset.verifier` and
:mod:`quineset.peano` on a universe made by the builder (or loaded from a
file it wrote): they may run from any number of threads at once while
nothing interns. The two columns the checks share,
:meth:`Universe.transitivity` and :meth:`Universe.individuals`, are kept
per universe size and each published by one assignment, so a concurrent
reader sees a whole column or computes its own.
"""

from __future__ import annotations

import re
from typing import AbstractSet, Collection, Iterable

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


class Universe:
    """Append-only interning table of finite sets over a fixed atom list.

    Ids are dense indexes into the table. Atoms occupy ids ``0..k-1`` in the
    order their names were given; every composite is registered after all of
    its members, so a member's id is always smaller than its set's id.
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
        # member_sets[i] is set i's members, the same frozenset that keys it
        # in _index; read-only. Atom i's sole member is itself.
        self.member_sets: list[frozenset[SetId]] = [frozenset((i,)) for i in range(len(names))]
        self._index: dict[frozenset[SetId], SetId] = {
            ms: i for i, ms in enumerate(self.member_sets)
        }
        # Memoised is_transitive column and (size, self-membered ids below
        # it); each replaced whole, never mutated.
        self._transitive: list[bool] = []
        self._individuals: tuple[int, frozenset[SetId]] = (0, frozenset())
        self._atom_ids: dict[str, SetId] = dict(zip(names, range(len(names))))

    def _add(self, ms: frozenset[SetId]) -> SetId:
        """The one append rule: the id of ``ms`` if interned, else a fresh id under the cap.

        ``ms`` must already be a valid member set of existing ids. Every
        write after the atoms goes through here.
        """
        found = self._index.get(ms)
        if found is not None:
            return found
        sid = len(self.member_sets)
        if self.max_sets is not None and sid >= self.max_sets:
            raise CapExceeded(required=sid + 1, max_sets=self.max_sets)
        self.member_sets.append(ms)
        self._index[ms] = sid
        return sid

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
        return self._add(ms)

    def _check_ids(self, ms: Collection[SetId]) -> None:
        # Once every member is an int, the least and greatest bound them all;
        # the per-member scan below only runs to name the first bad id.
        if not (
            all(map(int.__instancecheck__, ms))
            and min(ms) >= 0
            and max(ms) < len(self.member_sets)
        ):
            for m in sorted(ms):
                self._check_id(m)

    def intern_subsets(self, ids: Iterable[SetId]) -> list[SetId]:
        """Intern every nonempty subset of ``ids``; their ids, in mask order.

        Entry ``mask - 1`` is the subset holding ``ids[i]`` exactly when bit
        ``i`` of ``mask`` is set, so ids are interned in the same order as a
        loop over masks would intern them. Singletons of atoms collapse onto
        the atoms. When the ``2**len(ids) - 1`` subsets alone exceed the cap,
        nothing is interned.
        """
        ids = list(ids)
        if ids:
            self._check_ids(ids)
        count = (1 << len(ids)) - 1
        if self.max_sets is not None and count > self.max_sets:
            raise CapExceeded(required=count, max_sets=self.max_sets)
        # subsets[mask] is the canonical member set of subset ``mask``. The
        # masks whose top bit is bit k are the masks below 2**k plus that
        # bit, in order, so each subset is one union of a subset built
        # earlier and the singleton of ids[k].
        sets = self.member_sets
        add = self._add
        subsets: list[frozenset[SetId]] = [frozenset()]
        interned: list[SetId] = []
        for m in ids:
            single = frozenset((m,))
            fresh = [add(ms | single) for ms in subsets]
            interned += fresh
            subsets += map(sets.__getitem__, fresh)
        return interned

    def intern_record(self, record: list[int]) -> SetId | None:
        """Intern a record in file form: existing ids, each once, in increasing order.

        The record is a list of ints. Its set is appended by the same rule
        as in :meth:`intern`; the cap applies. Returns ``None``,
        interning nothing, for a list in any other form: :meth:`intern`
        takes those, and names the fault of any it rejects.
        """
        ms = frozenset(record)
        if not (
            ms
            and record[0] >= 0
            and record[-1] < len(self.member_sets)
            and len(ms) == len(record)
            and record == sorted(record)
        ):
            return None
        return self._add(ms)

    def lookup(self, extension: AbstractSet[SetId]) -> SetId | None:
        """The id of the set whose members are exactly ``extension``, if interned.

        Never interns. A singleton of an atom finds the atom, as in
        :meth:`intern`; an empty or unknown extension finds nothing.
        """
        return self._index.get(frozenset(extension))

    def members(self, sid: SetId) -> tuple[SetId, ...]:
        """Sorted, duplicate-free member ids; an atom's members are itself."""
        return tuple(sorted(self.member_set(sid)))

    def member_set(self, sid: SetId) -> frozenset[SetId]:
        self._check_id(sid)
        return self.member_sets[sid]

    def is_member(self, x: SetId, s: SetId) -> bool:
        self._check_id(x)
        return x in self.member_set(s)

    def is_individual(self, s: SetId) -> bool:
        """True when ``s`` is a member of itself (see :meth:`individuals`)."""
        return s in self.member_set(s)

    def individuals(self) -> frozenset[SetId]:
        """The self-membered ids interned so far; read-only.

        These are the atoms, plus any self-membered composite a test fixture
        installed past :meth:`intern`, so they are not assumed to be ids
        ``0..k-1``. Kept per universe size like :meth:`transitivity`: only ids
        interned since the last call are tested, and the new set is
        published with one assignment.
        """
        size, ids = self._individuals
        sets = self.member_sets
        n = len(sets)
        if size < n:
            ids = ids.union(i for i in range(size, n) if i in sets[i])
            self._individuals = (n, ids)
        return ids

    def is_subset(self, s: SetId, t: SetId) -> bool:
        return self.member_set(s) <= self.member_set(t)

    def transitivity(self) -> list[bool]:
        """Column of :meth:`is_transitive` over every id interned so far; read-only.

        Sets never change once interned, so entries are computed once. The
        column is extended by building a longer list and publishing it with
        one assignment, so a reader never sees a partly built column.
        """
        column = self._transitive
        sets = self.member_sets
        if len(column) < len(sets):
            column = column + [
                all(sets[m] <= sets[s] for m in sets[s])
                for s in range(len(column), len(sets))
            ]
            self._transitive = column
        return column

    def is_transitive(self, s: SetId) -> bool:
        """True when every member of ``s`` is also a subset of ``s``."""
        self._check_id(s)
        column = self._transitive
        if s >= len(column):
            column = self.transitivity()
        return column[s]

    def cardinality(self, s: SetId) -> int:
        return len(self.member_set(s))


def ensure_distinct_atoms(universe: Universe, a1: SetId, a2: SetId) -> None:
    """Validate that ``a1`` and ``a2`` are two different atoms."""
    for x in (a1, a2):
        if not universe.is_atom(x):
            raise NotAtom(f"set {x} is not an atom")
    if a1 == a2:
        raise AtomsEqual("two distinct atoms are required")
