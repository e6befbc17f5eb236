"""Set constructors: pairing, union, powerset, and criterion-based selection.

Each returns the id of the set it describes and interns that set when it is
not there yet, so it needs exclusive access to the universe while it may
grow it. On a universe closed under the construction (any universe made by
the builder, for the sets a check asks for) nothing is interned and the call
is a read.

None of them keeps state between calls: :func:`specify` selects afresh
from the member mask of the set it is given, by its criterion's compiled
selector.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import or_

from .core import SetId, Universe
from .formula import Formula, compile_criterion


def pair(universe: Universe, s: SetId, t: SetId) -> SetId:
    """The pair {s, t}; {s, s} is the singleton of s."""
    return universe.intern((s, t))


def singleton(universe: Universe, s: SetId) -> SetId:
    """The singleton {s}; for an atom this is the atom itself."""
    return universe.intern((s,))


def union_members(universe: Universe, s: SetId) -> int:
    """The member mask of the union of the members of ``s``; interns nothing."""
    return reduce(or_, map(universe.member_sets.__getitem__, universe.members(s)), 0)


def union_all(universe: Universe, s: SetId) -> SetId:
    """The union of the members of ``s``; never empty, since every member has a member."""
    return universe.intern_mask(union_members(universe, s))


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


@dataclass(frozen=True, slots=True)
class Specified:
    set_id: SetId


@dataclass(frozen=True, slots=True)
class NoSet:
    reason: NoSetReason


SpecifyOutcome = Specified | NoSet


def specify(universe: Universe, s: SetId, criterion: Formula, var: str) -> SpecifyOutcome:
    """Select the members of ``s`` satisfying a one-variable criterion.

    Returns ``Specified(v)`` where v's members are exactly the qualifying
    members of ``s``, provided at least one member qualifies. Otherwise no
    set exists: the reason is ``CONTRADICTORY_CRITERION`` when the criterion
    holds of nothing in the whole universe (mutually exclusive properties
    specify no set), and ``NO_WITNESS`` when it merely misses every member
    of ``s``.

    The criterion's selector (see :func:`~quineset.formula.compile_criterion`)
    is called once on the member mask of ``s``, and once more on every id
    only when no member qualifies. The selection is interned by
    :meth:`~quineset.core.Universe.intern_mask`, which adds it only when
    missing.
    """
    select = compile_criterion(criterion, var)
    sets = universe.member_sets
    n = len(sets)
    individuals = universe.individuals()
    chosen = select(sets, n, individuals, universe.member_mask(s))
    if chosen:
        return Specified(universe.intern_mask(chosen))
    if select(sets, n, individuals, (1 << n) - 1):
        return NoSet(NoSetReason.NO_WITNESS)
    return NoSet(NoSetReason.CONTRADICTORY_CRITERION)
