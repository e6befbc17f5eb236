"""Successor chains grown from a two-atom base, checked as number sequences.

The successor of s is s together with {s}. Atoms are fixed points of it,
which is exactly why a usable first number has to be a pair of two distinct
atoms: from there the chain climbs forever without repeating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .constructors import pair, union_members
from .core import SetId, Universe, ensure_distinct_atoms, ids_of
from .errors import MalformedSequence, UnknownId
from .verifier import CheckResult, Report


@dataclass(frozen=True)
class NumberSequence:
    base: SetId
    elements: tuple[SetId, ...]


def successor(universe: Universe, s: SetId) -> SetId:
    """s together with its singleton; preserves transitivity.

    Interns the successor only, not the singleton {s}.
    """
    universe.members(s)  # raises UnknownId unless s is a set id
    return universe.intern_mask(universe.member_sets[s] | 1 << s)


def sequence(universe: Universe, a1: SetId, a2: SetId, n: int) -> NumberSequence:
    """The chain base, succ(base), ..., of length ``n`` with base {a1, a2}."""
    ensure_distinct_atoms(universe, a1, a2)
    if n < 1:
        raise ValueError("sequence length must be at least 1")
    base = pair(universe, a1, a2)
    elements = [base]
    while len(elements) < n:
        elements.append(successor(universe, elements[-1]))
    return NumberSequence(base, tuple(elements))


def check_peano(universe: Universe, seq: NumberSequence) -> Report:
    """Verify the number-sequence laws for one chain.

    Covers the five counting laws (base present, successor steps, successor
    injectivity, base not a successor, pairwise distinctness) plus the chain
    structure: every element is transitive with transitive members, and the
    union of each element is the previous one.

    Successors and unions are compared as member masks, so the check interns
    nothing.
    """
    if not seq.elements:
        raise MalformedSequence("a sequence needs at least one element")
    try:
        for sid in (seq.base, *seq.elements):
            universe.members(sid)
    except UnknownId as exc:
        raise MalformedSequence(str(exc)) from exc
    n = len(universe)
    sets = universe.member_sets
    elements = seq.elements
    length = len(elements)
    pairs = length * (length - 1) // 2
    steps = list(zip(elements, elements[1:]))
    # The member mask of each element's successor, e together with {e}.
    succs = [sets[e] | 1 << e for e in elements]
    first = CheckResult.first
    results = [
        first("base-in-sequence", 1, n, "b = e",
              [{"b": seq.base, "e": elements[0]}] if seq.base != elements[0] else ()),
        first("successor-chain", length - 1, n,
              "forall w. ((w in y) <-> ((w in e) | (w = e)))",
              ({"e": e, "y": y} for (e, y), se in zip(steps, succs) if se != sets[y])),
        first("successor-injective", pairs, n,
              "(forall w. (((w in x) | (w = x)) <-> ((w in y) | (w = y)))) -> (x = y)",
              ({"x": x, "y": y}
               for (x, sx), (y, sy) in combinations(zip(elements, succs), 2)
               if sx == sy and x != y)),
        first("base-not-successor", length, n,
              "!(forall w. ((w in b) <-> ((w in e) | (w = e))))",
              ({"e": e, "b": seq.base}
               for e, se in zip(elements, succs) if se == sets[seq.base])),
        first("elements-distinct", pairs, n, "x != y",
              ({"x": x, "y": y} for x, y in combinations(elements, 2) if x == y)),
        first("transitive-chain", length, n,
              "(forall u. ((u in s) -> (forall w. ((w in u) -> (w in s))))) & "
              "(forall u. ((u in s) -> (forall w. ((w in u) -> "
              "(forall z. ((z in w) -> (z in u)))))))",
              ({"s": e} for e in elements
               if not (universe.is_transitive(e)
                       and all(universe.is_transitive(m) for m in ids_of(sets[e]))))),
        first("union-inverse", length - 1, n,
              "forall x. ((exists m. ((m in s) & (x in m))) <-> (x in t))",
              ({"s": s, "t": t} for t, s in steps if union_members(universe, s) != sets[t])),
    ]
    return Report.of(universe, results)


def check_sequences_distinct(
    universe: Universe, first: NumberSequence, second: NumberSequence
) -> CheckResult:
    """No element of one chain appears in the other (bases included)."""
    return CheckResult.first(
        "sequences-distinct", len(first.elements) * len(second.elements), len(universe),
        "x != y",
        ({"x": x, "y": y} for x in first.elements for y in second.elements if x == y),
    )
