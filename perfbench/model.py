"""Reference model of the theory, sharing no code with quineset.

A set is an atom name (a ``str``) or a ``frozenset`` of sets. An atom's only
member is itself, a singleton of an atom collapses onto the atom, and there
is no empty set. Universes are built from atom names alone; laws are decided
by scans written directly from their statements; formulas are evaluated by a
naive recursive walk that copies its environment at every quantifier step.

Every verdict the benchmark accepts from quineset is compared with this
module, so it is kept plain rather than fast.
"""

from __future__ import annotations

import re
from itertools import combinations

# --- sets ----------------------------------------------------------------


def collapse(items):
    """The set with exactly these members; ``{a}`` for an atom ``a`` is ``a``."""
    found = frozenset(items)
    if not found:
        raise ValueError("there is no empty set")
    if len(found) == 1:
        (only,) = found
        if isinstance(only, str):
            return only
    return found


_ATOM_MEMBERS: dict = {}


def members(x):
    if isinstance(x, str):
        found = _ATOM_MEMBERS.get(x)
        if found is None:
            found = _ATOM_MEMBERS[x] = frozenset((x,))
        return found
    return x


def is_individual(x):
    """x is a member of itself; only atoms are."""
    return isinstance(x, str)


def is_transitive(x):
    ms = members(x)
    return all(members(m) <= ms for m in ms)


def union_all(x):
    merged = set()
    for m in members(x):
        merged |= members(m)
    return collapse(merged)


def successor(x):
    """x together with {x}."""
    return collapse(members(x) | members(collapse((x,))))


class Universe:
    """Every set over ``atoms`` up to ``depth`` closure stages."""

    def __init__(self, atoms, depth):
        self.atoms = tuple(atoms)
        domain = list(self.atoms)
        seen = set(domain)
        self.counts = [len(domain)]
        for _ in range(depth):
            base = list(domain)
            for size in range(1, len(base) + 1):
                for combo in combinations(base, size):
                    rep = collapse(combo)
                    if rep not in seen:
                        seen.add(rep)
                        domain.append(rep)
            self.counts.append(len(domain))
        self.sets = domain
        self.index = seen

    def __len__(self):
        return len(self.sets)


UNIVERSES = {
    "uv3": (("u", "v"), 3),
    "oae2": (("o", "a", "e"), 2),
    "abcd2": (("a", "b", "c", "d"), 2),
    "flat16": (tuple(f"a{i}" for i in range(16)), 1),
    # uv3 built with its size as the cap, which leaves checks no room for
    # scratch sets.
    "capped127": (("u", "v"), 3),
}
CAPS = {"capped127": 127}


def closed_form_size(atom_count, depth):
    """Size after ``depth`` stages: each stage maps n sets to 2**n - 1."""
    n = atom_count
    for _ in range(depth):
        n = (1 << n) - 1
    return n


# --- literals --------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def format_literal(x):
    if isinstance(x, str):
        return x
    return "{" + ",".join(sorted(format_literal(m) for m in x)) + "}"


def parse_literal(text):
    pos = 0

    def value():
        nonlocal pos
        if text.startswith("{", pos):
            pos += 1
            items = [value()]
            while text.startswith(",", pos):
                pos += 1
                items.append(value())
            if not text.startswith("}", pos):
                raise ValueError(f"bad literal {text!r} at {pos}")
            pos += 1
            return collapse(items)
        match = _NAME.match(text, pos)
        if match is None:
            raise ValueError(f"bad literal {text!r} at {pos}")
        pos = match.end()
        return match.group()

    result = value()
    if pos != len(text):
        raise ValueError(f"trailing input in literal {text!r}")
    return result


# --- formulas --------------------------------------------------------------
# A formula is a tuple: ("in", x, y), ("=", x, y), ("not", f), (op, f, g) for
# op in "and", "or", "->", "<->", and (q, var, f) for q in "forall", "exists".

_TOKEN = re.compile(r"\s*(<->|->|!=|[A-Za-z][A-Za-z0-9_]*|[()!&|=.])")
_KEYWORDS = {"forall", "exists", "in", "notin"}


def parse_formula(text):
    tokens = []
    pos = 0
    while text[pos:].strip():
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"bad formula {text!r} at {pos}")
        tokens.append(match.group(1))
        pos = match.end()
    at = 0

    def peek():
        return tokens[at] if at < len(tokens) else None

    def take(expected=None):
        nonlocal at
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"bad formula {text!r}: expected {expected!r}, got {tok!r}")
        at += 1
        return tok

    def ident():
        tok = take()
        if tok in _KEYWORDS or not _NAME.fullmatch(tok):
            raise ValueError(f"bad formula {text!r}: {tok!r} is not a variable")
        return tok

    def iff():
        left = impl()
        while peek() == "<->":
            take()
            left = ("<->", left, impl())
        return left

    def impl():
        left = disj()
        if peek() == "->":
            take()
            return ("->", left, impl())
        return left

    def disj():
        left = conj()
        while peek() == "|":
            take()
            left = ("or", left, conj())
        return left

    def conj():
        left = unary()
        while peek() == "&":
            take()
            left = ("and", left, unary())
        return left

    def unary():
        tok = peek()
        if tok == "!":
            take()
            return ("not", unary())
        if tok in ("forall", "exists"):
            take()
            var = ident()
            take(".")
            return (tok, var, unary())
        if tok == "(":
            take()
            inner = iff()
            take(")")
            return inner
        lhs = ident()
        op = take()
        rhs = ident()
        if op == "in":
            return ("in", lhs, rhs)
        if op == "notin":
            return ("not", ("in", lhs, rhs))
        if op == "=":
            return ("=", lhs, rhs)
        if op == "!=":
            return ("not", ("=", lhs, rhs))
        raise ValueError(f"bad formula {text!r}: unknown relation {op!r}")

    result = iff()
    if at != len(tokens):
        raise ValueError(f"bad formula {text!r}: trailing {peek()!r}")
    return result


_INFIX = {"and": "&", "or": "|", "->": "->", "<->": "<->"}


def format_formula(f):
    op = f[0]
    if op in ("in", "="):
        return f"({f[1]} {op} {f[2]})"
    if op == "not":
        return f"(!{format_formula(f[1])})"
    if op in _INFIX:
        return f"({format_formula(f[1])} {_INFIX[op]} {format_formula(f[2])})"
    return f"({op} {f[1]}. {format_formula(f[2])})"


class BudgetExceeded(Exception):
    pass


def evaluate(f, env, domain):
    """Truth of ``f`` with quantifiers over ``domain``; ``env`` binds free variables."""
    return evaluate_counted(f, env, domain)[0]


def evaluate_counted(f, env, domain, budget=None):
    """``(truth, steps)``: steps counts the quantifier instances visited.

    Going past ``budget`` steps raises :class:`BudgetExceeded`.
    """
    steps = 0

    def ev(node, scope):
        nonlocal steps
        op = node[0]
        if op == "in":
            return scope[node[1]] in members(scope[node[2]])
        if op == "=":
            return scope[node[1]] == scope[node[2]]
        if op == "not":
            return not ev(node[1], scope)
        if op == "and":
            return ev(node[1], scope) and ev(node[2], scope)
        if op == "or":
            return ev(node[1], scope) or ev(node[2], scope)
        if op == "->":
            return (not ev(node[1], scope)) or ev(node[2], scope)
        if op == "<->":
            return ev(node[1], scope) == ev(node[2], scope)
        want = op == "exists"
        for x in domain:
            steps += 1
            if budget is not None and steps > budget:
                raise BudgetExceeded
            if ev(node[2], {**scope, node[1]: x}) == want:
                return want
        return not want

    return ev(f, dict(env)), steps


# --- laws ------------------------------------------------------------------
# Each scan returns (status, count). For "holds" and "not-applicable" the
# count is what quineset must report as scanned; for "fails" it is an upper
# bound, since quineset stops at its first counterexample.

HOLDS, FAILS, NOT_APPLICABLE = "holds", "fails", "not-applicable"

AXIOM_LAWS = ("equality-substitution", "individuals-axiom", "no-empty-set", "regularity")
PAIR_LAWS = ("trichotomy", "pair-membership")
LAWS = AXIOM_LAWS + (
    "russell", "russell-equivalence", "subset-derivations", "theorem1",
) + PAIR_LAWS + ("union-lemma",)
SUITES = {
    "axioms": AXIOM_LAWS,
    "trichotomy": PAIR_LAWS,
    "all": LAWS,
}


def _verdict(ok, count):
    return (HOLDS if ok else FAILS, count)


def _qualified(count, ok):
    if count == 0:
        return (NOT_APPLICABLE, 0)
    return _verdict(ok, count)


def law_verdicts(universe, pair_atoms):
    """Every law's (status, count) on ``universe``; ``pair_atoms`` are two atom names."""
    sets = universe.sets
    n = len(sets)
    a1, a2 = pair_atoms
    non_individuals = frozenset(x for x in sets if not is_individual(x))
    has_non_individual = bool(non_individuals)
    transitive = {x for x in sets if is_transitive(x)}
    out = {}

    out["equality-substitution"] = _verdict(
        len({members(x) for x in sets}) == n, n)
    out["individuals-axiom"] = _verdict(
        all(members(x) == {x} for x in sets if is_individual(x)), n)
    out["no-empty-set"] = _verdict(all(members(x) for x in sets), n)

    def regular(s):
        ms = members(s)
        if all(is_individual(u) for u in ms):
            return True
        return any(
            not is_individual(v) and all(is_individual(u) for u in members(v) & ms)
            for v in ms
        )

    out["regularity"] = _verdict(all(regular(s) for s in sets), n)
    russell_holds = not any(members(s) == non_individuals for s in sets)
    out["russell"] = _verdict(russell_holds, n)
    lhs = all(any((u in members(s)) == is_individual(u) for u in sets) for s in sets)
    out["russell-equivalence"] = _verdict(lhs == russell_holds, n)

    def derivations_hold(s):
        ms = members(s)
        outside = [u for u in ms if not is_individual(u)]
        if outside:
            v = collapse(outside)
            if not (members(v) <= ms) or is_individual(v) or v in ms:
                return False
        inside = [u for u in ms if is_individual(u)]
        if inside:
            w = collapse(inside)
            if is_individual(w) and w not in ms:
                return False
        return not (has_non_individual and all(x in ms for x in sets))

    out["subset-derivations"] = _verdict(all(derivations_hold(s) for s in sets), n)

    theorem1 = [
        s for s in transitive if any(not is_individual(u) for u in members(s))
    ]
    out["theorem1"] = _qualified(len(theorem1), all(
        any(
            not is_individual(v) and all(is_individual(x) for x in members(v))
            for v in members(s)
        )
        for s in theorem1
    ))

    atom_pair = {a1, a2}
    tri = [
        s for s in sets
        if s in transitive
        and all(m in transitive for m in members(s))
        and all(w in atom_pair for w in members(s) if is_individual(w))
    ]
    tri_ok = all(
        is_individual(s) or is_individual(t)
        or s in members(t) or s == t or t in members(s)
        for i, s in enumerate(tri) for t in tri[i:]
    )
    out["trichotomy"] = _qualified(len(tri) * (len(tri) + 1) // 2, tri_ok)

    p = collapse((a1, a2))
    claim = [
        s for s in transitive
        if {w for w in members(s) if is_individual(w)} == atom_pair
    ]
    out["pair-membership"] = _qualified(len(claim), all(
        all(
            is_individual(m) or not all(is_individual(x) for x in members(m)) or m == p
            for m in members(s)
        )
        and p in members(successor(s))
        for s in claim
    ))

    lemma = [
        s for s in transitive
        if not is_individual(s) and all(m in transitive for m in members(s))
    ]

    def union_lemma_holds(s):
        merged = union_all(s)
        return (
            is_transitive(merged)
            and all(is_transitive(m) for m in members(merged))
            and s not in members(merged)
            and (merged == s or s == successor(merged))
        )

    out["union-lemma"] = _qualified(len(lemma), all(union_lemma_holds(s) for s in lemma))
    return out


def peano_chain(a1, a2, length):
    chain = [collapse((a1, a2))]
    while len(chain) < length:
        chain.append(successor(chain[-1]))
    return chain


def peano_verdicts(length):
    """What each peano check must report on a well-formed chain of ``length``."""
    pairs = length * (length - 1) // 2
    counts = {
        "base-in-sequence": 1,
        "successor-chain": length - 1,
        "successor-injective": pairs,
        "base-not-successor": length,
        "elements-distinct": pairs,
        "transitive-chain": length,
        "union-inverse": length - 1,
    }
    return {law: (HOLDS, n) for law, n in counts.items()}
