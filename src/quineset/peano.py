"""Successor chains grown from a two-atom base, checked as number sequences.

The successor of s is s together with {s}. Atoms are fixed points of it,
which is exactly why a usable first number has to be a pair of two distinct
atoms: from there the chain climbs forever without repeating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .constructors import pair, union_members
from .core import SetId, Universe, ensure_distinct_atoms
from .errors import MalformedSequence, UnknownId
from .verifier import CheckResult, Report, Status


@dataclass(frozen=True)
class NumberSequence:
    base: SetId
    elements: tuple[SetId, ...]


def successor(universe: Universe, s: SetId) -> SetId:
    """s together with its singleton; preserves transitivity.

    Interns the successor only, not the singleton {s}.
    """
    return universe.intern(universe.member_set(s) | {s})


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

    Successors and unions are compared as member sets, so the check interns
    nothing.
    """
    if not seq.elements:
        raise MalformedSequence("a sequence needs at least one element")
    try:
        for sid in (seq.base, *seq.elements):
            universe.member_set(sid)
    except UnknownId as exc:
        raise MalformedSequence(str(exc)) from exc
    n = len(universe)
    sets = universe.member_sets
    elements = seq.elements
    length = len(elements)
    results: list[CheckResult] = []

    if seq.base == elements[0]:
        results.append(CheckResult("base-in-sequence", Status.HOLDS, 1))
    else:
        results.append(
            CheckResult.failure("base-in-sequence", 1, n, "b = e", b=seq.base, e=elements[0])
        )

    # The member set of each element's successor, e together with {e}.
    succs = [sets[e] | {e} for e in elements]

    step_result = CheckResult("successor-chain", Status.HOLDS, length - 1)
    for k in range(length - 1):
        if succs[k] != sets[elements[k + 1]]:
            step_result = CheckResult.failure(
                "successor-chain", length - 1, n,
                "forall w. ((w in y) <-> ((w in e) | (w = e)))",
                e=elements[k], y=elements[k + 1],
            )
            break
    results.append(step_result)

    pairs = length * (length - 1) // 2
    inj_result = CheckResult("successor-injective", Status.HOLDS, pairs)
    for (x, sx), (y, sy) in combinations(zip(elements, succs), 2):
        if sx == sy and x != y:
            inj_result = CheckResult.failure(
                "successor-injective", pairs, n,
                "(forall w. (((w in x) | (w = x)) <-> ((w in y) | (w = y)))) -> (x = y)",
                x=x, y=y,
            )
            break
    results.append(inj_result)

    base_result = CheckResult("base-not-successor", Status.HOLDS, length)
    for e, se in zip(elements, succs):
        if se == sets[seq.base]:
            base_result = CheckResult.failure(
                "base-not-successor", length, n,
                "!(forall w. ((w in b) <-> ((w in e) | (w = e))))",
                e=e, b=seq.base,
            )
            break
    results.append(base_result)

    distinct_result = CheckResult("elements-distinct", Status.HOLDS, pairs)
    for x, y in combinations(elements, 2):
        if x == y:
            distinct_result = CheckResult.failure(
                "elements-distinct", pairs, n, "x != y", x=x, y=y
            )
            break
    results.append(distinct_result)

    structure_result = CheckResult("transitive-chain", Status.HOLDS, length)
    for e in elements:
        if not universe.is_transitive(e) or not all(
            universe.is_transitive(m) for m in sets[e]
        ):
            structure_result = CheckResult.failure(
                "transitive-chain", length, n,
                "(forall u. ((u in s) -> (forall w. ((w in u) -> (w in s))))) & "
                "(forall u. ((u in s) -> (forall w. ((w in u) -> "
                "(forall z. ((z in w) -> (z in u)))))))",
                s=e,
            )
            break
    results.append(structure_result)

    union_result = CheckResult("union-inverse", Status.HOLDS, length - 1)
    for k in range(length - 1):
        if union_members(universe, elements[k + 1]) != sets[elements[k]]:
            union_result = CheckResult.failure(
                "union-inverse", length - 1, n,
                "forall x. ((exists m. ((m in s) & (x in m))) <-> (x in t))",
                s=elements[k + 1], t=elements[k],
            )
            break
    results.append(union_result)

    return Report.of(universe, results, n)


def check_sequences_distinct(
    universe: Universe, first: NumberSequence, second: NumberSequence
) -> CheckResult:
    """No element of one chain appears in the other (bases included)."""
    scanned = len(first.elements) * len(second.elements)
    for x in first.elements:
        for y in second.elements:
            if x == y:
                return CheckResult.failure(
                    "sequences-distinct", scanned, len(universe), "x != y", x=x, y=y
                )
    return CheckResult("sequences-distinct", Status.HOLDS, scanned)
