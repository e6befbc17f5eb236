"""Exhaustive checking of structural laws over a built universe.

Every law is declared once, in :data:`LAWS`: its name, its suite, a direct
Python scan and a closed formula oracle. :func:`run_suite` runs the laws of
one suite and :func:`check_dual_paths` cross-checks each scan against its
oracle. Scans return data instead of raising; failures carry a witness
whose formula re-evaluates to false under the witness bindings, so a
reported failure can always be reproduced in isolation. A scan that looks
for one counterexample yields the bindings of each and lets
:meth:`CheckResult.first` turn the first into the verdict.

Scans are reads with one signature, ``_check_*(universe)``,
``check_*(universe)`` or ``check_*(universe, a1, a2)``. Each decides its
law over the ids below ``len(universe)`` by mask algebra on ``member_sets``,
the self-membered ids' mask ``individuals()`` and the kept
``transitivity()`` column, looking up rather than interning any set it
must name. A subset test is written ``a & b == a`` and a difference
``a ^ (a & b)``, so that no negative operand spans the universe; the one
negation, ``rest & -rest``, keeps only the lowest bit of ``rest``. A set
missing from the universe is named by a witness written over member sets
instead, or, for a subset that separation must select, is itself the
failure. subset-derivations calls ``specify`` only for a selection it has
found among the scanned sets, so that call interns nothing either.

Members precede their sets, so the least non-individual member of a set
shares no non-individual with it: it is minimal for regularity and, in a
transitive set, a set of individuals for theorem1. Both scans test it
first, one mask test per set, and look at the other members only when it
fails, as it can in a universe whose members come after their sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable

from .constructors import specify, union_members
from .core import SetId, Universe, ensure_distinct_atoms, ids_of
from .formula import Formula, Member, Not, evaluate, format_formula, free_vars, parse


class Status(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Witness:
    """Bindings plus a formula that evaluates false at them (domain pinned)."""

    bindings: tuple[tuple[str, SetId], ...]
    formula: str
    domain: int


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: Status
    scanned: int
    witness: Witness | None = None

    @classmethod
    def failure(
        cls, name: str, scanned: int, domain: int, formula: str, **bindings: SetId
    ) -> CheckResult:
        """A failed check whose witness binds ``bindings`` in ``formula``."""
        witness = Witness(tuple(sorted(bindings.items())), formula, domain)
        return cls(name, Status.FAILS, scanned, witness)

    @classmethod
    def first(
        cls,
        name: str,
        scanned: int,
        domain: int,
        formula: str,
        failures: Iterable[dict[str, SetId]],
    ) -> CheckResult:
        """Holds over ``scanned``, or fails at the first bindings ``failures`` yields.

        ``failures`` is read lazily, so a scan written as a generator stops
        at its first counterexample.
        """
        bindings = next(iter(failures), None)
        if bindings is None:
            return cls(name, Status.HOLDS, scanned)
        return cls.failure(name, scanned, domain, formula, **bindings)


@dataclass(frozen=True)
class Report:
    atoms: tuple[str, ...]
    size: int
    depth: int | None
    results: tuple[CheckResult, ...]

    @classmethod
    def of(cls, universe: Universe, results) -> Report:
        """The report of ``results`` over every set of ``universe``."""
        return cls(universe.atom_names, len(universe), universe.build_depth, tuple(results))

    @property
    def passed(self) -> bool:
        return all(r.status is not Status.FAILS for r in self.results)

    def to_dict(self) -> dict:
        results = []
        for r in self.results:
            entry: dict = {
                "name": r.name,
                "status": r.status.value,
                "scanned": r.scanned,
            }
            if r.witness is not None:
                entry["witness"] = {
                    "bindings": dict(r.witness.bindings),
                    "formula": r.witness.formula,
                    "domain": r.witness.domain,
                }
            results.append(entry)
        return {
            "universe": {"atoms": list(self.atoms), "size": self.size},
            "depth": self.depth,
            "results": results,
        }


def witness_reproduces(universe: Universe, witness: Witness) -> bool:
    """True when re-evaluating the witness still exhibits the failure."""
    value = evaluate(
        universe,
        parse(witness.formula),
        dict(witness.bindings),
        domain_size=witness.domain,
    )
    return value is False


def _transitive_mask(universe: Universe, n: int) -> int:
    """The mask of the transitive ids below ``n``."""
    column = universe.transitivity()[:n]
    # One binary digit per id, the highest id first.
    return int("0" + "".join(map("01".__getitem__, reversed(column))), 2)


# ---------------------------------------------------------------------------
# Formula oracles: the closed formulas each scan must agree with.

def _transitive(v: str) -> str:
    return f"(forall m. ((m in {v}) -> (forall x. ((x in m) -> (x in {v})))))"


def _members_transitive(v: str) -> str:
    return (
        f"(forall m. ((m in {v}) -> "
        f"(forall y. ((y in m) -> (forall z. ((z in y) -> (z in m)))))))"
    )


EQUALITY_FORMULA = "forall s. forall t. ((s = t) -> (forall u. ((s in u) <-> (t in u))))"

INDIVIDUALS_FORMULA = "forall s. ((s in s) -> (forall u. ((u in s) -> (u = s))))"

NO_EMPTY_FORMULA = "forall s. (exists u. (((u in s) & (u in u)) | ((u in s) & (u notin u))))"

REGULARITY_FORMULA = (
    "forall s. ((exists u. ((u in s) & (u notin u))) -> "
    "(exists v. ((v in s) & ((v notin v) & "
    "(forall u. (((u in v) & (u in s)) -> (u in u)))))))"
)

RUSSELL_FORMULA = "!(exists s. (forall u. ((u in s) <-> (u notin u))))"

RUSSELL_EQUIVALENCE_FORMULA = (
    "(forall s. (exists u. (((u in s) & (u in u)) | ((u notin s) & (u notin u)))))"
    f" <-> ({RUSSELL_FORMULA})"
)

_DERIVATION_A = (
    "(forall s. ((exists u. ((u in s) & (u notin u))) -> "
    "(exists v. ((forall u. ((u in v) <-> ((u in s) & (u notin u)))) & "
    "((v notin v) & (v notin s))))))"
)
_DERIVATION_B = (
    "(forall s. ((exists u. ((u in s) & (u in u))) -> "
    "(exists v. ((forall u. ((u in v) <-> ((u in s) & (u in u)))) & "
    "((v notin v) | ((v in v) & (v in s)))))))"
)
_DERIVATION_C = "((exists w. (w notin w)) -> (!(exists s. (forall u. (u in s)))))"

DERIVATIONS_FORMULA = f"({_DERIVATION_A} & ({_DERIVATION_B} & {_DERIVATION_C}))"

THEOREM1_FORMULA = (
    "forall s. ((exists u. ((u in s) & (u notin u))) -> "
    f"({_transitive('s')} -> "
    "(exists v. ((v in s) & ((v notin v) & (forall u. ((u in v) -> (u in u))))))))"
)

# Free variables A, B name the two distinguished atoms, P their pair.
PAIR_CLAIM_FORMULA = (
    "forall s. (((A in s) & ((B in s) & "
    f"({_transitive('s')} & "
    "(forall w. (((w in s) & (w in w)) -> ((w = A) | (w = B))))))) -> "
    "((forall m. (((m in s) & ((m notin m) & (forall x. ((x in m) -> (x in x))))) "
    "-> (m = P))) & ((P in s) | (P = s))))"
)

TRICHOTOMY_FORMULA = (
    "forall s. ((s notin s) -> "
    f"(({_transitive('s')} & {_members_transitive('s')}) -> "
    "(forall t. ((t notin t) -> "
    f"(({_transitive('t')} & {_members_transitive('t')}) -> "
    "((forall w. ((((w in s) | (w in t)) & (w in w)) -> ((w = A) | (w = B)))) -> "
    "((s in t) | ((s = t) | (t in s)))))))))"
)


def _in_union(x: str) -> str:
    return f"(exists t. ((t in s) & ({x} in t)))"


# The union lemma's conclusions, each as a witness formula over the union U
# when it has an id and as the oracle's own clause over s alone when not.
_UNION_CLAUSES = (
    ("forall x. ((x in U) -> (forall y. ((y in x) -> (y in U))))",
     f"(forall x. ({_in_union('x')} -> (forall y. ((y in x) -> {_in_union('y')}))))"),
    ("forall x. ((x in U) -> (forall y. ((y in x) -> "
     "(forall z. ((z in y) -> (z in x))))))",
     f"(forall x. ({_in_union('x')} -> (forall y. ((y in x) -> "
     "(forall z. ((z in y) -> (z in x)))))))"),
    ("s notin U", "(!(exists t. ((t in s) & (s in t))))"),
    ("(U = s) | (forall x. ((x in s) <-> ((x in U) | (x = U))))",
     f"((forall x. ({_in_union('x')} <-> (x in s))) | "
     f"(forall x. ((x in s) <-> ({_in_union('x')} | "
     f"(forall y. ((y in x) <-> {_in_union('y')}))))))"),
)

UNION_LEMMA_FORMULA = (
    "forall s. (((s notin s) & "
    f"({_transitive('s')} & {_members_transitive('s')})) -> "
    f"({_UNION_CLAUSES[0][1]} & ({_UNION_CLAUSES[1][1]} & "
    f"({_UNION_CLAUSES[2][1]} & {_UNION_CLAUSES[3][1]}))))"
)


# ---------------------------------------------------------------------------
# Axiom scans.

def _check_equality_substitution(universe: Universe) -> CheckResult:
    n = len(universe)
    # Canonical interning makes equal ids interchangeable by construction;
    # the scan verifies the model side: no two ids share an extension.
    # ``seen`` maps each extension to the first id that has it.
    sets = universe.member_sets
    seen: dict[int, SetId] = {}
    return CheckResult.first(
        "equality-substitution", n, n,
        "(forall u. ((u in s) <-> (u in t))) -> (s = t)",
        ({"s": seen[sets[t]], "t": t} for t in range(n) if seen.setdefault(sets[t], t) != t),
    )


def _check_individuals(universe: Universe) -> CheckResult:
    n = len(universe)
    sets = universe.member_sets
    return CheckResult.first(
        "individuals-axiom", n, n,
        "((s in s) & (u in s)) -> (u = s)",
        ({"s": s, "u": next(u for u in ids_of(sets[s]) if u != s)}
         for s in ids_of(universe.individuals()) if sets[s] != 1 << s),
    )


def _check_no_empty(universe: Universe) -> CheckResult:
    n = len(universe)
    sets = universe.member_sets
    return CheckResult.first(
        "no-empty-set", n, n, "exists u. (u in s)", ({"s": s} for s in range(n) if not sets[s])
    )


def _check_regularity(universe: Universe) -> CheckResult:
    n = len(universe)
    sets = universe.member_sets
    individuals = universe.individuals()

    # ``rest`` is the non-individual members of s, and a member is minimal
    # when it shares none of them. Members precede their sets, so the least
    # of them is minimal, and one test decides s unless members come late.
    return CheckResult.first(
        "regularity", n, n,
        "(exists u. ((u in s) & (u notin u))) -> "
        "(exists v. ((v in s) & ((v notin v) & "
        "(forall u. (((u in v) & (u in s)) -> (u in u))))))",
        ({"s": s} for s in range(n)
         if (rest := (ms := sets[s]) ^ (ms & individuals))
         and sets[(rest & -rest).bit_length() - 1] & rest
         and all(sets[v] & rest for v in ids_of(rest))),
    )


# ---------------------------------------------------------------------------
# Named checks.

def check_russell(universe: Universe) -> CheckResult:
    """No set collects exactly the non-self-membered sets."""
    n = len(universe)
    sets = universe.member_sets
    non_individuals = ((1 << n) - 1) ^ universe.individuals()
    return CheckResult.first(
        "russell", n, n,
        "!(forall u. ((u in s) <-> (u notin u)))",
        ({"s": s} for s in range(n) if sets[s] == non_individuals),
    )


def check_russell_equivalence(universe: Universe) -> CheckResult:
    """Both sides of the paradox-elimination biconditional, computed separately."""
    n = len(universe)
    sets = universe.member_sets
    individuals = universe.individuals()
    non_individuals = ((1 << n) - 1) ^ individuals
    # Some u has (u in s) <-> (u in u): an individual in s or a
    # non-individual outside it.
    lhs = all(ms & individuals or ms & non_individuals != non_individuals for ms in sets)
    rhs = non_individuals not in sets
    if lhs != rhs:
        return CheckResult.failure("russell-equivalence", n, n, RUSSELL_EQUIVALENCE_FORMULA)
    return CheckResult("russell-equivalence", Status.HOLDS, n)


# The two criteria subset-derivations selects by.
_NOT_SELF = Not(Member("x", "x"))
_IN_SELF = Member("x", "x")


def check_subset_derivations(universe: Universe) -> CheckResult:
    """Selected-subset facts: the non-individual part of any set is a subset
    but never a member; the individual part is an individual member or not an
    individual; and (wherever a non-individual exists) no set is universal.

    A set whose members are all individuals, or all non-individuals, selects
    itself, and then no clause can fail: were ``s`` in ``s`` it would be an
    individual member of itself. Only a mixed set needs ``specify``, and only
    once its selection is known to be among the scanned sets, so that
    ``specify`` finds it and interns nothing. A selection missing from them
    is a failure at ``s``.
    """
    name = "subset-derivations"
    n = len(universe)
    sets = universe.member_sets
    every = (1 << n) - 1
    individuals = universe.individuals()
    has_non_individual = individuals != every
    lookup = universe.lookup_mask
    for s in range(n):
        mem = sets[s]
        own = mem & individuals
        rest = mem ^ own
        if rest and own:
            found = lookup(rest)
            if found is None or found >= n:
                return CheckResult.failure(
                    name, n, n,
                    "exists v. (forall u. ((u in v) <-> ((u in s) & (u notin u))))",
                    s=s,
                )
            v = specify(universe, s, _NOT_SELF, "x").set_id
            if sets[v] & mem != sets[v]:
                return CheckResult.failure(
                    name, n, n, "forall u. ((u in v) -> (u in s))", v=v, s=s
                )
            if sets[v] >> v & 1:
                return CheckResult.failure(name, n, n, "v notin v", v=v)
            if mem >> v & 1:
                return CheckResult.failure(name, n, n, "v notin s", v=v, s=s)
            found = lookup(own)
            if found is None or found >= n:
                return CheckResult.failure(
                    name, n, n,
                    "exists v. (forall u. ((u in v) <-> ((u in s) & (u in u))))",
                    s=s,
                )
            w = specify(universe, s, _IN_SELF, "x").set_id
            if sets[w] >> w & 1 and not mem >> w & 1:
                return CheckResult.failure(
                    name, n, n,
                    "(w notin w) | ((w in w) & (w in s))",
                    w=w, s=s,
                )
        if has_non_individual and mem & every == every:
            return CheckResult.failure(name, n, n, "exists u. (u notin s)", s=s)
    return CheckResult(name, Status.HOLDS, n)


def check_theorem1(universe: Universe) -> CheckResult:
    """Every transitive set with a non-individual member also has a member
    that is a non-individual set of individuals."""
    n = len(universe)
    sets = universe.member_sets
    individuals = universe.individuals()
    qualifying = 0
    for s in compress(range(n), universe.transitivity()):
        ms = sets[s]
        rest = ms ^ (ms & individuals)
        if not rest:
            continue
        qualifying += 1
        # The least non-individual member witnesses: its members precede it
        # and, s being transitive, lie in s, so they are individuals.
        least = sets[(rest & -rest).bit_length() - 1]
        if least & individuals == least:
            continue
        if not any(sets[v] & individuals == sets[v] for v in ids_of(rest)):
            return CheckResult.failure(
                "theorem1", qualifying, n,
                "(exists u. ((u in s) & (u notin u))) -> "
                "(exists v. ((v in s) & ((v notin v) & "
                "(forall u. ((u in v) -> (u in u))))))",
                s=s,
            )
    if qualifying == 0:
        return CheckResult("theorem1", Status.NOT_APPLICABLE, 0)
    return CheckResult("theorem1", Status.HOLDS, qualifying)


def check_pair_membership_claim(universe: Universe, a1: SetId, a2: SetId) -> CheckResult:
    """For transitive sets whose individuals are exactly the two given atoms:
    the atoms' pair is the only possible non-individual set of individuals in
    the set, and the pair belongs to the set's successor."""
    ensure_distinct_atoms(universe, a1, a2)
    n = len(universe)
    sets = universe.member_sets
    atoms = 1 << a1 | 1 << a2
    p = universe.lookup_mask(atoms)
    if p is None:
        # A qualifying set is the pair or, members preceding their sets, has
        # it as its first non-individual member; so without the pair no set
        # qualifies.
        return CheckResult("pair-membership", Status.NOT_APPLICABLE, 0)
    individuals = universe.individuals()
    qualifying = 0
    for s in compress(range(n), universe.transitivity()):
        ms = sets[s]
        if ms & individuals != atoms:
            continue
        qualifying += 1
        # The members that are not individuals are all but the two atoms.
        for m in ids_of(ms ^ atoms):
            if sets[m] & individuals == sets[m] and m != p:
                return CheckResult.failure(
                    "pair-membership", qualifying, n, "m = P", m=m, P=p
                )
        # P is in the successor s | {s}.
        if not (ms >> p & 1 or p == s):
            return CheckResult.failure(
                "pair-membership", qualifying, n, "(P in s) | (P = s)", P=p, s=s
            )
    if qualifying == 0:
        return CheckResult("pair-membership", Status.NOT_APPLICABLE, 0)
    return CheckResult("pair-membership", Status.HOLDS, qualifying)


def check_trichotomy(universe: Universe, a1: SetId, a2: SetId) -> CheckResult:
    """Membership trichotomy for pairs of transitive sets with transitive
    members whose individual members all lie in the given atom pair."""
    ensure_distinct_atoms(universe, a1, a2)
    n = len(universe)
    sets = universe.member_sets
    atoms = 1 << a1 | 1 << a2
    individuals = universe.individuals()
    transitive = _transitive_mask(universe, n)
    qualifying = [
        i
        for i in compress(range(n), universe.transitivity())
        if sets[i] & transitive == sets[i] and sets[i] & individuals | atoms == atoms
    ]
    pairs = 0
    for idx, s in enumerate(qualifying):
        for t in qualifying[idx:]:
            pairs += 1
            if sets[s] >> s & 1 or sets[t] >> t & 1:
                continue
            if not (sets[t] >> s & 1 or s == t or sets[s] >> t & 1):
                return CheckResult.failure(
                    "trichotomy", pairs, n,
                    "(s in t) | ((s = t) | (t in s))",
                    s=s, t=t,
                )
    if pairs == 0:
        return CheckResult("trichotomy", Status.NOT_APPLICABLE, 0)
    return CheckResult("trichotomy", Status.HOLDS, pairs)


def check_union_lemma(universe: Universe) -> CheckResult:
    """For every non-individual transitive set with transitive members, its
    union is again transitive with transitive members, does not contain the
    set, and the set is either its own union or the union's successor."""
    n = len(universe)
    sets = universe.member_sets
    transitive = _transitive_mask(universe, n)
    individuals = universe.individuals()
    qualifying = 0
    for s in compress(range(n), universe.transitivity()):
        mem = sets[s]
        if mem >> s & 1 or mem & transitive != mem:
            continue
        qualifying += 1
        # With only self-membered members, U = s: transitivity gives U <= s
        # and self-membership s <= U.
        if mem & individuals == mem:
            continue
        union = union_members(universe, s)
        if union == mem:
            # U = s, which qualified: transitive, with transitive members,
            # and not a member of itself.
            continue
        u = universe.lookup_mask(union)
        # Members of the union are members of members of s, so below n.
        clauses = (
            all(sets[x] & union == sets[x] for x in ids_of(union)),
            union & transitive == union,
            not union >> s & 1,
            u is not None and mem == union | 1 << u,
        )
        for holds, (over_u, over_s) in zip(clauses, _UNION_CLAUSES):
            if not holds:
                if u is None:
                    return CheckResult.failure("union-lemma", qualifying, n, over_s, s=s)
                return CheckResult.failure("union-lemma", qualifying, n, over_u, s=s, U=u)
    if qualifying == 0:
        return CheckResult("union-lemma", Status.NOT_APPLICABLE, 0)
    return CheckResult("union-lemma", Status.HOLDS, qualifying)


# ---------------------------------------------------------------------------
# The law table, and the checks assembled from it.

PairAtoms = tuple[SetId, SetId]


@dataclass(frozen=True)
class Law:
    """One law: its scan over ``(universe, pair_atoms)`` and its oracle.

    Scans are reached through this module's globals at call time, so a
    wrapper installed on a ``check_*`` function sees every call.
    """

    name: str
    suite: str
    scan: Callable[[Universe, PairAtoms | None], CheckResult]
    oracle: Formula
    needs_pair: bool = False

    @cached_property
    def dual_name(self) -> str:
        """The name of this law's result in :func:`check_dual_paths`."""
        return f"dualpath-{self.name}"


LAWS = (
    Law("equality-substitution", "axioms",
        lambda u, ab: _check_equality_substitution(u), parse(EQUALITY_FORMULA)),
    Law("individuals-axiom", "axioms",
        lambda u, ab: _check_individuals(u), parse(INDIVIDUALS_FORMULA)),
    Law("no-empty-set", "axioms",
        lambda u, ab: _check_no_empty(u), parse(NO_EMPTY_FORMULA)),
    Law("regularity", "axioms",
        lambda u, ab: _check_regularity(u), parse(REGULARITY_FORMULA)),
    Law("russell", "russell",
        lambda u, ab: check_russell(u), parse(RUSSELL_FORMULA)),
    Law("russell-equivalence", "russell",
        lambda u, ab: check_russell_equivalence(u), parse(RUSSELL_EQUIVALENCE_FORMULA)),
    Law("subset-derivations", "derivations",
        lambda u, ab: check_subset_derivations(u), parse(DERIVATIONS_FORMULA)),
    Law("theorem1", "theorem1",
        lambda u, ab: check_theorem1(u), parse(THEOREM1_FORMULA)),
    Law("trichotomy", "trichotomy",
        lambda u, ab: check_trichotomy(u, *ab), parse(TRICHOTOMY_FORMULA), needs_pair=True),
    Law("pair-membership", "trichotomy",
        lambda u, ab: check_pair_membership_claim(u, *ab), parse(PAIR_CLAIM_FORMULA),
        needs_pair=True),
    Law("union-lemma", "union-lemma",
        lambda u, ab: check_union_lemma(u), parse(UNION_LEMMA_FORMULA)),
)

SUITES = (*dict.fromkeys(law.suite for law in LAWS), "all")

# Suites that cannot run without an atom pair; ``all`` skips the pair laws.
PAIR_SUITES = frozenset(law.suite for law in LAWS if law.needs_pair)


def check_dual_paths(
    universe: Universe,
    a1: SetId | None = None,
    a2: SetId | None = None,
) -> Report:
    """Cross-check every scan against evaluating its formula oracle.

    A scan agrees with its formula when the formula is true exactly when the
    scan does not fail (a vacuous scan matches a vacuously true formula).
    The pair-dependent checks run only when two atoms are supplied; their
    oracles bind the atoms as ``A`` and ``B`` and the atoms' pair as ``P``.
    """
    n = len(universe)
    pair_atoms = None
    names: dict[str, SetId | None] = {}
    if a1 is not None and a2 is not None:
        ensure_distinct_atoms(universe, a1, a2)
        pair_atoms = (a1, a2)
        names = {"A": a1, "B": a2, "P": universe.lookup_mask(1 << a1 | 1 << a2)}
    results = []
    for law in LAWS:
        if law.needs_pair and pair_atoms is None:
            continue
        name = law.dual_name
        env = {var: names[var] for var in free_vars(law.oracle)}
        if None in env.values():
            # The universe lacks the pair P, so no set qualifies for the
            # pair scan (see check_pair_membership_claim).
            results.append(CheckResult(name, Status.NOT_APPLICABLE, 0))
            continue
        formula_true = evaluate(universe, law.oracle, env, domain_size=n)
        scan_true = law.scan(universe, pair_atoms).status is not Status.FAILS
        if formula_true == scan_true:
            results.append(CheckResult(name, Status.HOLDS, n))
        else:
            text = format_formula(law.oracle)
            reproducer = f"(!{text})" if formula_true else text
            results.append(CheckResult.failure(name, n, n, reproducer, **env))
    return Report.of(universe, results)


def run_suite(
    universe: Universe,
    suite: str,
    pair_atoms: PairAtoms | None = None,
) -> Report:
    """Assemble the named suite of checks into one report.

    The suites in :data:`PAIR_SUITES` need two distinct atoms; ``all``
    silently skips the pair laws when none are supplied.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if pair_atoms is None and suite in PAIR_SUITES:
        raise ValueError(f"the {suite} suite needs an atom pair")
    results = [
        law.scan(universe, pair_atoms)
        for law in LAWS
        if suite in (law.suite, "all") and (pair_atoms is not None or not law.needs_pair)
    ]
    return Report.of(universe, results)
