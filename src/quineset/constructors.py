"""Set constructors: pairing, union, powerset, and criterion-based selection.

Each returns the id of the set it describes and interns that set when it is
not there yet, so it needs exclusive access to the universe while it may
grow it. On a universe closed under the construction (any universe made by
the builder, for the sets a check asks for) nothing is interned and the call
is a read.

:func:`specify` computes each criterion's comprehension ``{x : φ(x)}`` once
per universe and size, lazily: it evaluates the criterion only at members
no earlier call on that universe has seen, and selects by one frozenset
intersection. The memo costs at most two sets of ids for each of at most
256 criteria per universe, is keyed weakly by the universe, and is dropped
whole by the first call after the universe grows.
Concurrent calls that intern nothing may share it (see :func:`specify`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .core import SetId, Universe
from .formula import Classification, Formula, classify, compile_criterion


def pair(universe: Universe, s: SetId, t: SetId) -> SetId:
    """The pair {s, t}; {s, s} is the singleton of s."""
    return universe.intern((s, t))


def singleton(universe: Universe, s: SetId) -> SetId:
    """The singleton {s}; for an atom this is the atom itself."""
    return universe.intern((s,))


def union_members(universe: Universe, s: SetId) -> frozenset[SetId]:
    """The members of the union of the members of ``s``; interns nothing."""
    sets = universe.member_sets
    return frozenset().union(*map(sets.__getitem__, universe.member_set(s)))


def union_all(universe: Universe, s: SetId) -> SetId:
    """The union of the members of ``s``; never empty, since every member has a member."""
    return universe.intern(union_members(universe, s))


def binary_union(universe: Universe, s: SetId, t: SetId) -> SetId:
    return union_all(universe, pair(universe, s, t))


def powerset(universe: Universe, s: SetId) -> SetId:
    """The set of all nonempty subsets of ``s``; always contains ``s`` itself.

    A set of n members has 2**n - 1 nonempty subsets, so this honours the
    universe's ``max_sets`` cap the same way the stage builder does.
    """
    return universe.intern(universe.intern_subsets(universe.members(s)))


class NoSetReason(Enum):
    NO_WITNESS = "no-witness"
    CONTRADICTORY_CRITERION = "contradictory-criterion"


@dataclass(frozen=True)
class Specified:
    set_id: SetId


@dataclass(frozen=True)
class NoSet:
    reason: NoSetReason


SpecifyOutcome = Specified | NoSet


class _Comprehension:
    """The ids at which one criterion has been evaluated, and those where it held."""

    __slots__ = ("known", "true")

    def __init__(self) -> None:
        self.known: set[SetId] = set()
        self.true: set[SetId] = set()


# At most this many criteria are remembered per universe (as many as
# compile_criterion caches); one more clears them all.
_MAX_COMPREHENSIONS = 256

# Per universe: the size its memos hold for (quantifiers range over the ids
# below it) and one memo per compiled criterion. Weakly keyed, so an entry
# dies with its universe.
_comprehensions: weakref.WeakKeyDictionary[
    Universe, tuple[int, dict[Callable, _Comprehension]]
] = weakref.WeakKeyDictionary()


def specify(universe: Universe, s: SetId, criterion: Formula, var: str) -> SpecifyOutcome:
    """Select the members of ``s`` satisfying a one-variable criterion.

    Returns ``Specified(v)`` where v's members are exactly the qualifying
    members of ``s``, provided at least one member qualifies. Otherwise no
    set exists: the reason is ``CONTRADICTORY_CRITERION`` when the criterion
    holds of nothing in the whole universe (mutually exclusive properties
    specify no set), and ``NO_WITNESS`` when it merely misses every member
    of ``s``.

    The criterion is evaluated only at members of ``s`` that no earlier
    call with it on this universe, at this size, has evaluated, so a call
    never evaluates more than ``len(s)`` ids, and a scan over every set
    evaluates each id about once. A universe remembers at most 256
    criteria, each as at most two sets of ids, and the first call after it
    grows forgets all of them. The selection is looked up and interned only when
    missing. Calls that intern nothing may run from several threads at
    once: an id joins the true set before the known set, so every id a
    call finds known has its verdict in place.
    """
    fn = compile_criterion(criterion, var)
    n = len(universe)
    mem = universe.member_set(s)
    entry = _comprehensions.get(universe)
    if entry is None or entry[0] != n:
        entry = _comprehensions[universe] = (n, {})
    memos = entry[1]
    memo = memos.get(fn)
    if memo is None:
        if len(memos) >= _MAX_COMPREHENSIONS:
            memos.clear()
        memo = memos[fn] = _Comprehension()
    todo = mem - memo.known
    if todo:
        sets = universe.member_sets
        env: dict[str, SetId] = {}
        for m in todo:
            env[var] = m
            if fn(env, n, sets):
                memo.true.add(m)
        memo.known |= todo
    chosen = mem & memo.true
    if len(chosen) == len(mem):
        return Specified(s)
    if chosen:
        found = universe.lookup(chosen)
        return Specified(universe.intern(chosen) if found is None else found)
    if classify(universe, criterion, var) is Classification.CONTRADICTORY:
        return NoSet(NoSetReason.CONTRADICTORY_CRITERION)
    return NoSet(NoSetReason.NO_WITNESS)
