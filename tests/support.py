"""Independent reference models used as test oracles.

Nothing here touches the interning machinery under test: sets are modelled
as frozensets over atom-name strings (an atom's sole member is itself, and a
singleton of an atom collapses onto the atom), and formulas are evaluated by
a plain recursive walk with copied environments.
"""

from functools import reduce
from itertools import combinations, compress
from operator import or_
from random import Random

from hypothesis import strategies as st

from quineset import (
    And,
    BuildConfig,
    Equal,
    Exists,
    Forall,
    Iff,
    Implies,
    Member,
    Not,
    Or,
    Universe,
    build,
    union_all,
)
from quineset.core import ensure_distinct_atoms, mask_of
from quineset.errors import CapExceeded
from quineset.verifier import (
    RUSSELL_EQUIVALENCE_FORMULA,
    CheckResult,
    Status,
    _HAS_NON_INDIVIDUAL,
    _INDIVIDUALS_SET_MEMBER,
    _REGULARITY_AT_S,
    _UNION_CLAUSES,
)

# --- frozenset model of the set theory ------------------------------------

def collapse(members):
    items = frozenset(members)
    if len(items) == 1:
        (only,) = items
        if isinstance(only, str):
            return only
    return items


def model_members(rep):
    if isinstance(rep, str):
        return frozenset([rep])
    return rep


def nonempty_subsets(domain):
    elems = list(domain)
    for size in range(1, len(elems) + 1):
        for combo in combinations(elems, size):
            yield collapse(combo)


def close_once(domain):
    out = set(domain)
    out.update(nonempty_subsets(domain))
    return out


def model_counts(atom_names, depth):
    """Cumulative universe sizes per stage, computed in the frozenset model."""
    domain = set(atom_names)
    counts = [len(domain)]
    for _ in range(depth):
        domain = close_once(domain)
        counts.append(len(domain))
    return counts


def model_powerset(rep):
    return collapse(nonempty_subsets(model_members(rep)))


def model_union(rep):
    merged = set()
    for m in model_members(rep):
        merged.update(model_members(m))
    return collapse(merged)


def rep_of(universe, sid):
    """Translate a universe id into the frozenset model."""
    if universe.is_atom(sid):
        return universe.atom_names[sid]
    return frozenset(rep_of(universe, m) for m in universe.member_set(sid))


# --- reference constructions: one intern per subset mask ----------------------

def _intern_masks(universe, base):
    """Intern each nonempty subset of ``base`` by its own ``intern`` call, in mask order."""
    return [
        universe.intern([m for i, m in enumerate(base) if mask >> i & 1])
        for mask in range(1, 1 << len(base))
    ]


def enumerated_index(member_sets):
    """The lookups a universe with ``member_sets`` must answer: each mask to its id.

    A repeated mask, which only a written universe has, keeps its first id.
    """
    index = {}
    for i, ms in enumerate(member_sets):
        index.setdefault(ms, i)
    return index


def assert_lookups_agree(universe):
    """``lookup_mask`` finds each member mask at the first id that has it, and no other mask.

    The other masks tried are 0, -1 and, for every power of two up to two
    past the widest mask, the masks one below it, at it and one past it, so
    masks just past a closed prefix are among them.
    """
    index = enumerated_index(universe.member_sets)
    assert list(map(universe.lookup_mask, index)) == list(index.values())
    width = max(universe.member_sets).bit_length()
    probes = {0, -1, *(p + d for p in map((1).__lshift__, range(width + 2)) for d in (-1, 0, 1))}
    for mask in sorted(probes - index.keys()):
        assert universe.lookup_mask(mask) is None, mask


def reference_build(config):
    """``(universe, counts, fixed_point_stage)`` built one subset mask at a time."""
    universe = Universe(config.atom_names, max_sets=config.max_sets)
    counts = [len(universe)]
    for stage in range(1, config.depth + 1):
        n = len(universe)
        closure = (1 << n) - 1
        if closure > config.max_sets:
            raise CapExceeded(required=closure, max_sets=config.max_sets, stage=stage)
        _intern_masks(universe, range(n))
        counts.append(len(universe))
        if len(universe) == n:
            return universe, counts, stage
    return universe, counts, None


def reference_powerset(universe, s):
    """The powerset of ``s``, its subsets interned one mask at a time."""
    base = universe.members(s)
    count = (1 << len(base)) - 1
    if universe.max_sets is not None and count > universe.max_sets:
        raise CapExceeded(required=count, max_sets=universe.max_sets)
    return universe.intern(_intern_masks(universe, base))


# --- reference formula evaluator -------------------------------------------

def reference_eval(universe, f, env, domain=None):
    """Naive recursive evaluator; the production one must agree with this."""
    n = len(universe) if domain is None else domain
    ext = [universe.member_set(i) for i in universe.ids()]

    def ev(node, scope):
        if isinstance(node, Member):
            return scope[node.lhs] in ext[scope[node.rhs]]
        if isinstance(node, Equal):
            return scope[node.lhs] == scope[node.rhs]
        if isinstance(node, Not):
            return not ev(node.body, scope)
        if isinstance(node, And):
            return ev(node.lhs, scope) and ev(node.rhs, scope)
        if isinstance(node, Or):
            return ev(node.lhs, scope) or ev(node.rhs, scope)
        if isinstance(node, Implies):
            return (not ev(node.lhs, scope)) or ev(node.rhs, scope)
        if isinstance(node, Iff):
            return ev(node.lhs, scope) == ev(node.rhs, scope)
        if isinstance(node, Forall):
            return all(ev(node.body, {**scope, node.var: i}) for i in range(n))
        if isinstance(node, Exists):
            return any(ev(node.body, {**scope, node.var: i}) for i in range(n))
        raise TypeError(node)

    return ev(f, dict(env))


# --- random formula generation ----------------------------------------------

VARIABLES = ("s", "t", "u", "v", "w")


def random_formula(rng: Random, depth: int = 4):
    leaf_kind = rng.randrange(2)
    if depth <= 0 or rng.random() < 0.3:
        a, b = rng.choice(VARIABLES), rng.choice(VARIABLES)
        return Member(a, b) if leaf_kind == 0 else Equal(a, b)
    kind = rng.randrange(7)
    if kind == 0:
        return Not(random_formula(rng, depth - 1))
    if kind == 1:
        return And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 2:
        return Or(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 3:
        return Implies(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 4:
        return Iff(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 5:
        return Forall(rng.choice(VARIABLES), random_formula(rng, depth - 1))
    return Exists(rng.choice(VARIABLES), random_formula(rng, depth - 1))


# --- fixture helpers ----------------------------------------------------------

def write_set(universe, mask, sid=None):
    """Write the set of member mask ``mask`` into the tables, at id ``sid`` or after the last set.

    Interning refuses a member that is not there yet, a repeated extension
    and a set that holds itself; this writes the mask as it comes. A mask
    that holds its own id joins the individuals' mask, which the universe
    sets to the atoms when it is made. The index keeps each mask past the
    closed prefix at its first id; a mask of the prefix is looked up by
    arithmetic. So a write inside the prefix drops it and puts its masks
    back into the index, and a write over a set drops the kept columns.
    """
    sets = universe.member_sets
    domain = universe._closed
    if sid is None:
        sid = len(sets)
        sets.append(mask)
        if not 0 < mask < 1 << domain:
            universe._index.setdefault(mask, sid)
    else:
        sets[sid] = mask
        universe._columns = (0, (), 0, 0)
        if sid < (1 << domain) - 1:
            universe._closed = domain = 0
        universe._index = index = {}
        for i in range((1 << domain) - 1, len(sets)):
            if not 0 < sets[i] < 1 << domain:
                index.setdefault(sets[i], i)
    universe._individuals = universe._individuals & ~(1 << sid) | (mask >> sid & 1) << sid


def inject_self_membered(universe, extra_member):
    """Install an illegal composite that holds itself and ``extra_member``, past every check."""
    new_id = len(universe)
    write_set(universe, 1 << extra_member | 1 << new_id)
    assert_lookups_agree(universe)
    return new_id


def written_universe(atoms, masks):
    """A universe holding ``masks`` after its atoms, each written as it comes (:func:`write_set`)."""
    universe = Universe(atoms)
    for mask in masks:
        write_set(universe, mask)
    assert_lookups_agree(universe)
    return universe


@st.composite
def small_universes(draw):
    """A built universe grown by random sets, successors and unions, and
    sometimes by self-membered composites."""
    atoms = ("a", "b", "c")[: draw(st.integers(1, 3))]
    depth = draw(st.integers(0, 2 if len(atoms) <= 2 else 1))
    universe, _ = build(BuildConfig(atoms, depth))
    for _ in range(draw(st.integers(0, 10))):
        n = len(universe)
        kind = draw(st.sampled_from(["set", "set", "successor", "successor", "union", "inject"]))
        x = draw(st.integers(0, n - 1))
        if kind == "set":
            universe.intern(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4)))
        elif kind == "successor":
            universe.intern(universe.member_set(x) | {x})
        elif kind == "union":
            union_all(universe, x)
        else:
            inject_self_membered(universe, x)
    return universe


@st.composite
def well_founded_universes(draw):
    """Up to 64 sets over 1-3 atoms, each composite a random set of 1-4 earlier ids.

    Members precede their sets, but the stages are not full, so laws that
    need a closure property of full stages can fail here.
    """
    universe = Universe(("a", "b", "c")[: draw(st.integers(1, 3))])
    for _ in range(draw(st.integers(0, 61))):
        n = len(universe)
        universe.intern(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4)))
    return universe


@st.composite
def written_universes(draw):
    """1-8 composites over 1-3 atoms whose members are any ids, later ones included.

    A composite may hold a set after it, repeat an extension or hold
    itself (see :func:`written_universe`).
    """
    atoms = ("a", "b", "c")[: draw(st.integers(1, 3))]
    count = draw(st.integers(1, 8))
    ids = st.integers(0, len(atoms) + count - 1)
    return written_universe(atoms, [
        mask_of(draw(st.sets(ids, min_size=1, max_size=4))) for _ in range(count)
    ])


def lowest_bit_ids(mask):
    """The ids of ``mask``'s set bits in increasing order, taking the lowest bit off at a time."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return tuple(ids)


def reference_dumps(universe):
    """The text ``dumps_universe`` writes: the header, then one record per set after the atoms.

    Each record is spelled from its own ids, one set at a time.
    """
    lines = ["quineset-universe 1", "atoms " + ",".join(universe.atom_names)]
    if universe.build_depth is not None:
        lines.append(f"depth {universe.build_depth}")
    if universe.max_sets is not None:
        lines.append(f"max-sets {universe.max_sets}")
    for ms in universe.member_sets[len(universe.atom_names):]:
        lines.append(",".join(map(str, lowest_bit_ids(ms))))
    return "".join(line + "\n" for line in lines)


# --- reference scans: one loop over the sets per law ----------------------------

def _transitive_column(universe):
    """Entry ``s``: whether every member's mask of set ``s`` lies within its own."""
    sets = universe.member_sets
    return [all(sets[m] & ms == sets[m] for m in lowest_bit_ids(ms)) for ms in sets]


def _reference_regularity(universe):
    n = len(universe)
    sets = universe.member_sets
    individuals = universe.individuals()
    return CheckResult.first(
        "regularity", n, n, _REGULARITY_AT_S,
        ({"s": s} for s in range(n)
         if (rest := (ms := sets[s]) ^ (ms & individuals))
         and all(sets[v] & rest for v in lowest_bit_ids(rest))),
    )


def _reference_russell(universe):
    n = len(universe)
    sets = universe.member_sets
    non_individuals = ((1 << n) - 1) ^ universe.individuals()
    return CheckResult.first(
        "russell", n, n,
        "!(forall u. ((u in s) <-> (u notin u)))",
        ({"s": s} for s in range(n) if sets[s] == non_individuals),
    )


def _reference_russell_equivalence(universe):
    n = len(universe)
    sets = universe.member_sets
    individuals = universe.individuals()
    non_individuals = ((1 << n) - 1) ^ individuals
    lhs = all(ms & individuals or ms & non_individuals != non_individuals for ms in sets)
    rhs = non_individuals not in sets
    if lhs != rhs:
        return CheckResult.failure("russell-equivalence", n, n, RUSSELL_EQUIVALENCE_FORMULA)
    return CheckResult("russell-equivalence", Status.HOLDS, n)


def _reference_subset_derivations(universe):
    # Every set, every clause, each part found by a lookup and no ``specify``.
    name = "subset-derivations"
    n = len(universe)
    sets = universe.member_sets
    every = (1 << n) - 1
    individuals = universe.individuals()
    for s in range(n):
        mem = sets[s]
        own = mem & individuals
        rest = mem ^ own
        if rest and own:
            v = universe.lookup_mask(rest)
            if v is None or v >= n:
                return CheckResult.failure(
                    name, n, n,
                    "exists v. (forall u. ((u in v) <-> ((u in s) & (u notin u))))",
                    s=s,
                )
            if sets[v] & mem != sets[v]:
                return CheckResult.failure(
                    name, n, n, "forall u. ((u in v) -> (u in s))", v=v, s=s
                )
            if sets[v] >> v & 1:
                return CheckResult.failure(name, n, n, "v notin v", v=v)
            if mem >> v & 1:
                return CheckResult.failure(name, n, n, "v notin s", v=v, s=s)
            w = universe.lookup_mask(own)
            if w is None or w >= n:
                return CheckResult.failure(
                    name, n, n,
                    "exists v. (forall u. ((u in v) <-> ((u in s) & (u in u))))",
                    s=s,
                )
            if sets[w] >> w & 1 and not mem >> w & 1:
                return CheckResult.failure(
                    name, n, n, "(w notin w) | ((w in w) & (w in s))", w=w, s=s
                )
        if individuals != every and mem & every == every:
            return CheckResult.failure(name, n, n, "exists u. (u notin s)", s=s)
    return CheckResult(name, Status.HOLDS, n)


def _reference_theorem1(universe):
    n = len(universe)
    sets = universe.member_sets
    individuals = universe.individuals()
    qualifying = 0
    for s in compress(range(n), _transitive_column(universe)):
        ms = sets[s]
        rest = ms ^ (ms & individuals)
        if not rest:
            continue
        qualifying += 1
        if not any(sets[v] & individuals == sets[v] for v in lowest_bit_ids(rest)):
            return CheckResult.failure(
                "theorem1", qualifying, n,
                f"{_HAS_NON_INDIVIDUAL} -> {_INDIVIDUALS_SET_MEMBER}",
                s=s,
            )
    if qualifying == 0:
        return CheckResult("theorem1", Status.NOT_APPLICABLE, 0)
    return CheckResult("theorem1", Status.HOLDS, qualifying)


def _reference_pair_membership(universe, a1, a2):
    ensure_distinct_atoms(universe, a1, a2)
    n = len(universe)
    sets = universe.member_sets
    atoms = 1 << a1 | 1 << a2
    p = universe.lookup_mask(atoms)
    if p is None:
        return CheckResult("pair-membership", Status.NOT_APPLICABLE, 0)
    individuals = universe.individuals()
    qualifying = 0
    for s in compress(range(n), _transitive_column(universe)):
        ms = sets[s]
        if ms & individuals != atoms:
            continue
        qualifying += 1
        for m in lowest_bit_ids(ms ^ atoms):
            if sets[m] & individuals == sets[m] and m != p:
                return CheckResult.failure(
                    "pair-membership", qualifying, n, "m = P", m=m, P=p
                )
        if not (ms >> p & 1 or p == s):
            return CheckResult.failure(
                "pair-membership", qualifying, n, "(P in s) | (P = s)", P=p, s=s
            )
    if qualifying == 0:
        return CheckResult("pair-membership", Status.NOT_APPLICABLE, 0)
    return CheckResult("pair-membership", Status.HOLDS, qualifying)


def _reference_trichotomy(universe, a1, a2):
    ensure_distinct_atoms(universe, a1, a2)
    n = len(universe)
    sets = universe.member_sets
    atoms = 1 << a1 | 1 << a2
    individuals = universe.individuals()
    column = _transitive_column(universe)
    transitive = mask_of(compress(range(n), column))
    qualifying = [
        i
        for i in compress(range(n), column)
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


def _reference_union_lemma(universe):
    n = len(universe)
    sets = universe.member_sets
    column = _transitive_column(universe)
    transitive = mask_of(compress(range(n), column))
    individuals = universe.individuals()
    qualifying = 0
    for s in compress(range(n), column):
        mem = sets[s]
        if mem >> s & 1 or mem & transitive != mem:
            continue
        qualifying += 1
        if mem & individuals == mem:
            continue
        union = reduce(or_, map(sets.__getitem__, lowest_bit_ids(mem)), 0)
        if union == mem:
            continue
        u = universe.lookup_mask(union)
        clauses = (
            all(sets[x] & union == sets[x] for x in lowest_bit_ids(union)),
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


def reference_scans(universe, pair_atoms=None):
    """The results of the column and lookup scans, each found by a loop over the sets.

    These are the per-set scans that membership columns and lookups
    replaced, reading member masks and a transitivity column worked out
    here set by set; the pair laws run only when ``pair_atoms`` is given.
    """
    results = [
        _reference_regularity(universe),
        _reference_russell(universe),
        _reference_russell_equivalence(universe),
        _reference_subset_derivations(universe),
        _reference_theorem1(universe),
    ]
    if pair_atoms is not None:
        results += [_reference_trichotomy(universe, *pair_atoms),
                    _reference_pair_membership(universe, *pair_atoms)]
    return [*results, _reference_union_lemma(universe)]


# --- law verdicts straight from member sets -----------------------------------

def model_verdicts(universe, pair_atoms=None):
    """``{law: (status, scanned)}`` for every scan, from the laws' definitions.

    Each set is read as the frozenset of its member ids, and every quantifier
    is a plain loop over the ids, so self-membered composites installed by
    :func:`inject_self_membered` are covered too. ``scanned`` follows the
    scans' counting: the whole domain for the axioms, the Russell checks and
    subset-derivations, and otherwise the qualifying sets (pairs, for
    trichotomy) up to and including the first that fails.
    """
    n = len(universe)
    ids = range(n)
    ext = [frozenset(universe.member_set(i)) for i in ids]

    def ind(x):
        return x in ext[x]

    def transitive(x):
        return all(ext[m] <= ext[x] for m in ext[x])

    def find(extension):
        # The id of the set below n with this extension, or None.
        return next((i for i in ids if ext[i] == extension), None)

    def whole(fails):
        return ("fails" if fails else "holds", n)

    def over(candidates, fails):
        count = 0
        for c in candidates:
            count += 1
            if fails(c):
                return ("fails", count)
        return ("holds", count) if count else ("not-applicable", 0)

    russell_sets = [s for s in ids if all((u in ext[s]) == (not ind(u)) for u in ids)]
    has_non_individual = any(not ind(i) for i in ids)

    def derivation_fails(s):
        # A selection missing from the universe is a failure: its set does
        # not exist among the ids below n.
        if any(not ind(u) for u in ext[s]):
            v = find(frozenset(u for u in ext[s] if not ind(u)))
            if v is None or v in ext[v] or v in ext[s]:
                return True
        if any(ind(u) for u in ext[s]):
            w = find(frozenset(u for u in ext[s] if ind(u)))
            if w is None or (w in ext[w] and w not in ext[s]):
                return True
        return has_non_individual and all(i in ext[s] for i in ids)

    def union_lemma_fails(s):
        union = frozenset(x for m in ext[s] for x in ext[m])
        if union == ext[s]:
            return False
        u_id = find(union)
        return (
            not all(ext[x] <= union for x in union)
            or not all(transitive(x) for x in union)
            or s in union
            or u_id is None
            or ext[s] != union | {u_id}
        )

    verdicts = {
        "equality-substitution": whole(len(set(ext)) < n),
        "individuals-axiom": whole(
            any(ind(s) and any(u != s for u in ext[s]) for s in ids)
        ),
        "no-empty-set": whole(any(not ext[s] for s in ids)),
        "regularity": whole(any(
            any(not ind(u) for u in ext[s])
            and not any(
                not ind(v) and all(ind(u) for u in ext[v] if u in ext[s])
                for v in ext[s]
            )
            for s in ids
        )),
        "russell": whole(bool(russell_sets)),
        "russell-equivalence": whole(
            all(any((u in ext[s]) == ind(u) for u in ids) for s in ids)
            != (not russell_sets)
        ),
        "subset-derivations": whole(any(derivation_fails(s) for s in ids)),
        "theorem1": over(
            [s for s in ids if transitive(s) and any(not ind(u) for u in ext[s])],
            lambda s: not any(
                not ind(v) and all(ind(x) for x in ext[v]) for v in ext[s]
            ),
        ),
        "union-lemma": over(
            [s for s in ids
             if not ind(s) and transitive(s) and all(transitive(m) for m in ext[s])],
            union_lemma_fails,
        ),
    }
    if pair_atoms is not None:
        a1, a2 = pair_atoms
        p = find(frozenset(pair_atoms))
        verdicts["pair-membership"] = over(
            [s for s in ids
             if transitive(s) and {w for w in ext[s] if ind(w)} == {a1, a2}],
            lambda s: any(
                not ind(m) and all(ind(x) for x in ext[m]) and m != p for m in ext[s]
            ) or not (p in ext[s] or p == s),
        )
        qualifying = [
            i for i in ids
            if transitive(i) and all(transitive(m) for m in ext[i])
            and all(w in pair_atoms for w in ext[i] if ind(w))
        ]
        verdicts["trichotomy"] = over(
            [(s, t) for k, s in enumerate(qualifying) for t in qualifying[k:]],
            lambda st: not ind(st[0]) and not ind(st[1])
            and not (st[0] in ext[st[1]] or st[0] == st[1] or st[1] in ext[st[0]]),
        )
    return verdicts
