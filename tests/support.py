"""Independent reference models used as test oracles.

Nothing here touches the interning machinery under test: sets are modelled
as frozensets over atom-name strings (an atom's sole member is itself, and a
singleton of an atom collapses onto the atom), and formulas are evaluated by
a plain recursive walk with copied environments.
"""

from itertools import combinations
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
from quineset.errors import CapExceeded

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

def inject_self_membered(universe, extra_member):
    """Install an illegal composite that contains itself, past every check.

    Writes the universe's tables directly, the way ``Universe`` appends a
    set's member mask, since interning rightly refuses a set that contains
    itself; and adds the new id to the individuals' mask, which the universe
    sets to the atoms when it is made.
    """
    new_id = len(universe)
    mask = 1 << extra_member | 1 << new_id
    universe.member_sets.append(mask)
    universe._index[mask] = new_id
    universe._individuals |= 1 << new_id
    return new_id


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
