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
the self-membered ids' mask ``individuals()``, and the universe's kept
membership columns: ``member_columns()``, entry ``v`` the mask of the sets
that hold ``v``, with ``occurring_members()`` and ``transitive_ids()``
beside them. It looks up rather than interns any set it must name. A
subset test is written ``a & b == a`` and a difference ``a ^ (a & b)``, so
that no negative operand spans the universe; the one negation,
``m & -m``, keeps only the lowest bit of ``m``. A set missing from the
universe is named by a witness written over member sets instead, or, for
a subset that separation must select, is itself the failure.

No scan loops over every id. A set is found by one ``lookup_mask`` and a
class of sets by the columns; a loop visits only the sets a filter leaves,
and tests only the clauses a lookup does not settle. equality-substitution
and no-empty-set test the whole list of member masks in C, checking the
model side without trusting the index. subset-derivations has no loop over
the sets at all: ``map`` splits the mixed sets' masks into their two
parts, and each distinct part is looked up once. It calls ``specify`` once
per distinct non-individual part found, on that part's own id, so the call
interns nothing either. The lookups alone decide; the call stays while the
benchmark's trace tallies it (ROADMAP item 1).

Six scans are filters on member masks and run on the columns, with no loop
over the sets: regularity, russell-equivalence, theorem1, pair-membership,
and the qualifying sets of trichotomy and union-lemma. The mask of the
sets whose member mask meets ``k`` is the union of the columns of the ids
of ``k``, and only ids that are some set's member have a column to read,
so each filter is a few operations on masks as wide as the universe, one
per member id. A scan that fails names the least failing set, and counts
the qualifying sets up to it, as a loop over the sets in id order would;
the detail of its witness is worked out for that one set. trichotomy
then loops over pairs of qualifying sets, and union-lemma over the
qualifying sets that have a non-individual member.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from itertools import islice, repeat
from operator import and_, or_, xor
from typing import Callable, Iterable

from .constructors import specify, union_members
from .core import SetId, Universe, at_ids, ensure_distinct_atoms, ids_of, iter_ids
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

# Some member of s is not an individual.
_HAS_NON_INDIVIDUAL = "(exists u. ((u in s) & (u notin u)))"

# The regularity scan's witness: s has such a member but none is minimal.
_REGULARITY_AT_S = (
    f"{_HAS_NON_INDIVIDUAL} -> "
    "(exists v. ((v in s) & ((v notin v) & "
    "(forall u. (((u in v) & (u in s)) -> (u in u))))))"
)

REGULARITY_FORMULA = f"forall s. ({_REGULARITY_AT_S})"

RUSSELL_FORMULA = "!(exists s. (forall u. ((u in s) <-> (u notin u))))"

RUSSELL_EQUIVALENCE_FORMULA = (
    "(forall s. (exists u. (((u in s) & (u in u)) | ((u notin s) & (u notin u)))))"
    f" <-> ({RUSSELL_FORMULA})"
)

_DERIVATION_A = (
    f"(forall s. ({_HAS_NON_INDIVIDUAL} -> "
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

# A member of s is a non-individual set of individuals.
_INDIVIDUALS_SET_MEMBER = (
    "(exists v. ((v in s) & ((v notin v) & (forall u. ((u in v) -> (u in u))))))"
)

THEOREM1_FORMULA = (
    f"forall s. ({_HAS_NON_INDIVIDUAL} -> "
    f"({_transitive('s')} -> {_INDIVIDUALS_SET_MEMBER}))"
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
    # Distinct masks decide it at once; only a repeated one is looked for,
    # ``seen`` mapping each extension to the first id that has it.
    sets = universe.member_sets
    seen: dict[int, SetId] = {}
    return CheckResult.first(
        "equality-substitution", n, n,
        "(forall u. ((u in s) <-> (u in t))) -> (s = t)",
        () if len(set(sets)) == n else
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
        "no-empty-set", n, n, "exists u. (u in s)",
        ({"s": s} for s in range(n) if not sets[s]) if not all(sets) else (),
    )


def _meets(universe: Universe, k: int) -> int:
    """The mask of the ids whose member mask meets ``k``: the union of its ids' columns."""
    columns = universe.member_columns()
    return reduce(or_, map(columns.__getitem__, ids_of(k & universe.occurring_members())), 0)


def _non_individual_members(universe: Universe) -> int:
    """The mask of the non-individuals that are a member of some set."""
    occurring = universe.occurring_members()
    return occurring ^ (occurring & universe.individuals())


def _sets_of_individuals(universe: Universe) -> int:
    """The mask of the non-individuals that are a member of some set and hold only individuals."""
    rest = _non_individual_members(universe)
    # A member of a set is itself a member of some set, so a set of
    # individuals is one whose mask does not meet ``rest``.
    return rest ^ (rest & _meets(universe, rest))


def _lowest(mask: int) -> SetId:
    """The least id of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _count_to(mask: int, s: SetId) -> int:
    """How many ids of ``mask`` are at most ``s``."""
    return (mask & (2 << s) - 1).bit_count()


def _check_regularity(universe: Universe) -> CheckResult:
    n = len(universe)
    sets = universe.member_sets
    columns = universe.member_columns()
    rest = _non_individual_members(universe)
    # A set with a non-individual member v passes when v is minimal: none
    # of v's non-individual members is in the set too.
    minimal = 0
    for v in ids_of(rest):
        held = columns[v]
        minimal |= held ^ (held & _meets(universe, sets[v] & rest))
    failures = _meets(universe, rest) ^ minimal
    return CheckResult.first(
        "regularity", n, n, _REGULARITY_AT_S,
        ({"s": _lowest(failures)},) if failures else (),
    )


# ---------------------------------------------------------------------------
# Named checks.

def check_russell(universe: Universe) -> CheckResult:
    """No set collects exactly the non-self-membered sets."""
    n = len(universe)
    s = universe.lookup_mask(((1 << n) - 1) ^ universe.individuals())
    return CheckResult.first(
        "russell", n, n,
        "!(forall u. ((u in s) <-> (u notin u)))",
        () if s is None else ({"s": s},),
    )


def check_russell_equivalence(universe: Universe) -> CheckResult:
    """Both sides of the paradox-elimination biconditional, computed separately."""
    n = len(universe)
    columns = universe.member_columns()
    every = (1 << n) - 1
    non_individuals = every ^ universe.individuals()
    # Some u has (u in s) <-> (u in u): an individual in s or a
    # non-individual outside it. No set holds every non-individual when
    # one of them is no set's member.
    holding_all = 0
    if non_individuals & universe.occurring_members() == non_individuals:
        holding_all = reduce(and_, map(columns.__getitem__, ids_of(non_individuals)), every)
    lhs = holding_all & _meets(universe, universe.individuals()) == holding_all
    rhs = universe.lookup_mask(non_individuals) is None
    if lhs != rhs:
        return CheckResult.failure("russell-equivalence", n, n, RUSSELL_EQUIVALENCE_FORMULA)
    return CheckResult("russell-equivalence", Status.HOLDS, n)


# The criterion subset-derivations selects the non-individual part by.
_NOT_SELF = Not(Member("x", "x"))


def _first_missing(universe: Universe, parts: list[int]) -> tuple[int, list[SetId | None]]:
    """Where in ``parts`` the first mask that no set has is, or ``len(parts)``; and
    the id of each distinct mask of ``parts``, in the order of their first place.

    Each distinct mask is looked up once, so the first missing one is the
    first ``None``, and one ``index`` finds its first place.
    """
    distinct = dict.fromkeys(parts)
    found = list(map(universe.lookup_mask, distinct))
    if None not in found:
        return len(parts), found
    return parts.index(list(distinct)[found.index(None)]), found


def check_subset_derivations(universe: Universe) -> CheckResult:
    """Selected-subset facts: the non-individual part of any set is a subset
    but never a member; the individual part is an individual member or not an
    individual; and (wherever a non-individual exists) no set is universal.

    A set whose members are all individuals, or all non-individuals, selects
    itself, and then no clause can fail: were ``s`` in ``s`` it would be an
    individual member of itself. So only the mixed sets are read, and each
    part of one is looked up: a part missing from the universe is a failure
    at ``s``, the non-individual part's clause first. A found id's member
    mask is the part, which lies within ``s``; so the subset clause holds,
    and the individual part, were it in itself, would be an individual
    member of ``s``. The Russell content needs no test either. The found
    non-individual part ``v`` holds no individual, so it is not in itself,
    since a self-membered id is an individual (:meth:`Universe.individuals`).
    So ``v`` is no individual, and were it in ``s`` it would be in ``s``'s
    non-individual part, ``v`` itself. A universal set, where a
    non-individual exists, is mixed, and its non-individual part would be
    the set of every non-individual, itself among them; so that part's
    lookup fails first.

    There is no loop over the sets. ``map`` splits the mixed sets' masks
    into their two parts, and :func:`_first_missing` looks each distinct
    part up once and finds the first set whose part is missing. ``specify``
    is called once per distinct non-individual part found up to the failing
    set, or in all, on the part's own id: its members are all
    non-individuals, so it selects that id again and interns nothing. The
    lookups decide; the call stays only because the benchmark's trace
    tallies it (ROADMAP item 1).
    """
    name = "subset-derivations"
    n = len(universe)
    individuals = universe.individuals()
    mixed = _meets(universe, individuals) & _meets(universe, _non_individual_members(universe))
    masks = list(at_ids(universe.member_sets, mixed))
    owns = list(map(and_, masks, repeat(individuals)))
    rests = list(map(xor, masks, owns))
    rest_at, rest_ids = _first_missing(universe, rests)
    own_at, _ = _first_missing(universe, owns)
    at = min(rest_at, own_at)
    met = len(rest_ids)
    if at < len(masks):
        # The parts up to the failing set, less its own when that is missing.
        met = len(dict.fromkeys(rests[:at + 1])) - (at == rest_at)
    for v in rest_ids[:met]:
        specify(universe, v, _NOT_SELF, "x")
    if at == len(masks):
        return CheckResult(name, Status.HOLDS, n)
    s = next(islice(iter_ids(mixed), at, None))
    selects = "u notin u" if at == rest_at else "u in u"
    return CheckResult.failure(
        name, n, n, f"exists v. (forall u. ((u in v) <-> ((u in s) & ({selects}))))", s=s
    )


def check_theorem1(universe: Universe) -> CheckResult:
    """Every transitive set with a non-individual member also has a member
    that is a non-individual set of individuals."""
    n = len(universe)
    qualifying = universe.transitive_ids() & _meets(universe, _non_individual_members(universe))
    if not qualifying:
        return CheckResult("theorem1", Status.NOT_APPLICABLE, 0)
    holding = _meets(universe, _sets_of_individuals(universe))
    failures = qualifying ^ (qualifying & holding)
    if failures:
        s = _lowest(failures)
        return CheckResult.failure(
            "theorem1", _count_to(qualifying, s), n,
            f"{_HAS_NON_INDIVIDUAL} -> {_INDIVIDUALS_SET_MEMBER}",
            s=s,
        )
    return CheckResult("theorem1", Status.HOLDS, qualifying.bit_count())


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
    columns = universe.member_columns()
    # The individuals among a qualifying set's members are the two atoms.
    qualifying = universe.transitive_ids() & columns[a1] & columns[a2]
    qualifying ^= qualifying & _meets(universe, universe.individuals() ^ atoms)
    if not qualifying:
        return CheckResult("pair-membership", Status.NOT_APPLICABLE, 0)
    # A set fails holding a non-individual set of individuals other than P,
    # or when P is neither in it nor it.
    others = _sets_of_individuals(universe)
    others ^= others & 1 << p
    successors = (columns[p] if p < len(columns) else 0) | 1 << p
    failures = qualifying & _meets(universe, others) | qualifying ^ (qualifying & successors)
    if not failures:
        return CheckResult("pair-membership", Status.HOLDS, qualifying.bit_count())
    s = _lowest(failures)
    scanned = _count_to(qualifying, s)
    if sets[s] & others:
        m = _lowest(sets[s] & others)
        return CheckResult.failure("pair-membership", scanned, n, "m = P", m=m, P=p)
    return CheckResult.failure("pair-membership", scanned, n, "(P in s) | (P = s)", P=p, s=s)


def check_trichotomy(universe: Universe, a1: SetId, a2: SetId) -> CheckResult:
    """Membership trichotomy for pairs of transitive sets with transitive
    members whose individual members all lie in the given atom pair."""
    ensure_distinct_atoms(universe, a1, a2)
    n = len(universe)
    sets = universe.member_sets
    atoms = 1 << a1 | 1 << a2
    transitive = universe.transitive_ids()
    occurring = universe.occurring_members()
    # Transitive sets none of whose members is intransitive or an
    # individual other than the two atoms.
    qualifying = ids_of(transitive ^ (transitive & _meets(
        universe, occurring ^ (occurring & transitive) | universe.individuals() ^ atoms)))
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
    transitive = universe.transitive_ids()
    individuals = universe.individuals()
    occurring = universe.occurring_members()
    # Transitive non-individuals none of whose members is intransitive.
    qualifying = transitive ^ (transitive & individuals)
    qualifying ^= qualifying & _meets(universe, occurring ^ (occurring & transitive))
    if not qualifying:
        return CheckResult("union-lemma", Status.NOT_APPLICABLE, 0)
    # With only self-membered members, U = s: transitivity gives U <= s
    # and self-membership s <= U. So only the sets with a non-individual
    # member are looked at.
    for s in iter_ids(qualifying & _meets(universe, _non_individual_members(universe))):
        mem = sets[s]
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
                scanned = _count_to(qualifying, s)
                if u is None:
                    return CheckResult.failure("union-lemma", scanned, n, over_s, s=s)
                return CheckResult.failure("union-lemma", scanned, n, over_u, s=s, U=u)
    return CheckResult("union-lemma", Status.HOLDS, qualifying.bit_count())


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
        """The name of this law's result in :func:`check_dual_paths`.

        Cached, so that every report names a law with one shared string:
        a caller that keeps many reports keeps each name once.
        """
        return f"dualpath-{self.name}"

    @cached_property
    def oracle_vars(self) -> frozenset[str]:
        """The oracle's free variables, the names of the two atoms and their pair; worked out once."""
        return free_vars(self.oracle)


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
    Raises :class:`ValueError` when only one atom is.
    """
    if (a1 is None) != (a2 is None):
        raise ValueError("the pair checks need two atoms, not one")
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
        env = {var: names[var] for var in law.oracle_vars}
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
