"""First-order formulas over set membership: AST, parser, printer, evaluator.

Surface syntax, whitespace-insensitive, with precedence ! > & > | > -> > <->:

    formula := iff
    iff     := impl { "<->" impl }
    impl    := or [ "->" impl ]                 (right-associative)
    or      := and { "|" and }
    and     := unary { "&" unary }
    unary   := "!" unary | quant | atom
    quant   := ("forall" | "exists") ident "." unary
    atom    := "(" formula ")" | ident ("in" | "notin" | "=" | "!=") ident

``x notin y`` is sugar for ``!(x in y)`` and ``x != y`` for ``!(x = y)``;
both survive printing. A formula nests at most
:data:`~quineset.core.MAX_NESTING` levels: no path from its root down to an
atomic formula passes more subformulas, the atomic one included, and no
point of its text lies inside more parentheses. Deeper input is a syntax
error, which keeps the recursive parser, printer and evaluator inside the
interpreter's stack. The printer puts one pair of parentheses around each
subformula, so the printed form of any formula that parses parses again.

A quantifier binds exactly the unary that follows the dot, so in
``forall u. (u in u) & (u in s)`` the second ``u`` is free.

Semantics are classical and two-valued. Quantifiers range over every set id
of a universe (or over an explicitly pinned domain size). Formulas and
environments are immutable values; evaluation is pure.

The evaluator writes each formula once as the source of one Python
function, whose parameters are the member masks, the range of ids the
quantifiers scan and the free variables' set ids. A quantifier is an
``all`` or ``any`` over a generator, and ``x in y`` is the bit
``sets[y] >> x & 1``. Every variable in the text is a generated name, so
nothing a formula names reaches ``exec``, and each quantifier has a name of
its own, so a variable it shadows lives on outside the generator. The text
opens one bracket per formula level, which Python compiles within the
limit :func:`parse` holds text to; a formula built in code past it is
refused, its depth measured before anything recurses through it. One
cache, keyed on the formula, serves every evaluation.

A one-variable criterion compiles instead to a selector, which takes a
mask of ids and returns the mask of those at which the criterion holds
(:func:`compile_criterion`). Without quantifiers that is mask algebra
alone; with them, one comprehension over the ids whose test is the
expression above. ``specify`` and :func:`classify` each decide a whole set
by one call. Selectors have a cache of their own, keyed on the criterion
and its variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Mapping

from .core import MAX_NESTING, NAME_RE, RESERVED_NAMES, SetId, Universe, ids_of, mask_of
from .errors import FormulaSyntaxError, UnboundVariable, WorkbenchError, WrongArity

# A compiled criterion: (member_sets, n, individuals, M) to the selected mask.
Selector = Callable[[list[int], int, int, int], int]


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Member(Formula):
    lhs: str
    rhs: str


@dataclass(frozen=True)
class Equal(Formula):
    lhs: str
    rhs: str


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Iff(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


Env = Mapping[str, SetId]

_TOKEN_RE = re.compile(rf"<->|->|!=|{NAME_RE.pattern}|[()!&|=.]")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((match.group(), pos))
        pos = match.end()
    return tokens


# Binary operators by precedence, loosest first; only "->" groups to the right.
_BINARY = {"<->": (1, Iff), "->": (2, Implies), "|": (3, Or), "&": (4, And)}


class _Parser:
    # Precedence climbing: each production returns its formula with its
    # depth, the most subformulas on one path from its root. A left-grouping
    # chain adds depth without recursing, so depth is checked as nodes are
    # made. Recursion is bounded before it happens: ``parens`` counts the
    # open parentheses, and ``above`` the enclosing "!", quantifier and "->"
    # operators, each of which puts one more level over what it encloses.

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.parens = 0
        self.above = 0

    def _peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def _here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def _advance(self) -> str:
        tok = self.tokens[self.pos][0]
        self.pos += 1
        return tok

    def _expect(self, tok: str) -> None:
        if self._peek() != tok:
            raise FormulaSyntaxError(
                f"expected {tok!r} but found {self._peek()!r}", self._here()
            )
        self.pos += 1

    def _ident(self, what: str) -> str:
        tok = self._peek()
        if tok is None or not NAME_RE.fullmatch(tok) or tok in RESERVED_NAMES:
            raise FormulaSyntaxError(f"expected {what} but found {tok!r}", self._here())
        return self._advance()

    def _limit(self, level: int, pos: int) -> None:
        if level > MAX_NESTING:
            raise FormulaSyntaxError(f"formula nests deeper than {MAX_NESTING} levels", pos)

    def formula(self, min_prec: int = 1) -> tuple[Formula, int]:
        left, depth = self._unary()
        while self._peek() in _BINARY and _BINARY[self._peek()][0] >= min_prec:
            pos = self._here()
            prec, kind = _BINARY[self._advance()]
            if kind is Implies:
                self.above += 1
                self._limit(self.above + 1, pos)
                right, right_depth = self.formula(prec)
                self.above -= 1
            else:
                right, right_depth = self.formula(prec + 1)
            depth = 1 + max(depth, right_depth)
            self._limit(depth, pos)
            left = kind(left, right)
        return left, depth

    def _unary(self) -> tuple[Formula, int]:
        tok = self._peek()
        if tok not in ("!", "forall", "exists"):
            return self._atom()
        pos = self._here()
        self._advance()
        self.above += 1
        self._limit(self.above + 1, pos)
        if tok == "!":
            body, depth = self._unary()
            node = Not(body)
        else:
            var = self._ident("a variable")
            self._expect(".")
            body, depth = self._unary()
            node = Forall(var, body) if tok == "forall" else Exists(var, body)
        self.above -= 1
        self._limit(depth + 1, pos)
        return node, depth + 1

    def _atom(self) -> tuple[Formula, int]:
        if self._peek() == "(":
            self.parens += 1
            self._limit(self.parens, self._here())
            self._advance()
            inner = self.formula()
            self._expect(")")
            self.parens -= 1
            return inner
        lhs = self._ident("a variable or '('")
        op = self._peek()
        if op not in ("in", "notin", "=", "!="):
            raise FormulaSyntaxError(
                f"expected 'in', 'notin', '=' or '!=' but found {op!r}", self._here()
            )
        self._advance()
        rhs = self._ident("a variable")
        if op == "in":
            return Member(lhs, rhs), 1
        if op == "notin":
            return Not(Member(lhs, rhs)), 2
        if op == "=":
            return Equal(lhs, rhs), 1
        return Not(Equal(lhs, rhs)), 2


def parse(text: str) -> Formula:
    """Parse surface syntax into a formula AST."""
    parser = _Parser(text)
    result, _depth = parser.formula()
    if parser.pos < len(parser.tokens):
        raise FormulaSyntaxError(
            f"unexpected trailing input {parser._peek()!r}", parser._here()
        )
    return result


def format_formula(f: Formula) -> str:
    """Canonical fully parenthesized text; ``parse(format_formula(f)) == f``."""
    if isinstance(f, Member):
        return f"({f.lhs} in {f.rhs})"
    if isinstance(f, Equal):
        return f"({f.lhs} = {f.rhs})"
    if isinstance(f, Not):
        body = f.body
        if isinstance(body, Member):
            return f"({body.lhs} notin {body.rhs})"
        if isinstance(body, Equal):
            return f"({body.lhs} != {body.rhs})"
        return f"(!{format_formula(body)})"
    if isinstance(f, And):
        return f"({format_formula(f.lhs)} & {format_formula(f.rhs)})"
    if isinstance(f, Or):
        return f"({format_formula(f.lhs)} | {format_formula(f.rhs)})"
    if isinstance(f, Implies):
        return f"({format_formula(f.lhs)} -> {format_formula(f.rhs)})"
    if isinstance(f, Iff):
        return f"({format_formula(f.lhs)} <-> {format_formula(f.rhs)})"
    if isinstance(f, Forall):
        return f"(forall {f.var}. {format_formula(f.body)})"
    if isinstance(f, Exists):
        return f"(exists {f.var}. {format_formula(f.body)})"
    raise TypeError(f"not a formula node: {f!r}")


def free_vars(f: Formula) -> frozenset[str]:
    """Exactly the variables with a free occurrence, under lexical binding."""
    if isinstance(f, (Member, Equal)):
        return frozenset((f.lhs, f.rhs))
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return free_vars(f.lhs) | free_vars(f.rhs)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula node: {f!r}")


def _emit(f: Formula, scope: dict[str, str], top: int) -> str:
    # The Python expression for ``f``. ``scope`` maps each variable in scope
    # to its generated name; a quantifier binds ``v{top}``, which nothing in
    # its scope reads, and its body is emitted with ``top + 1``. Each node
    # opens one bracket, a membership test's ``sets[...]`` included, so the
    # text nests exactly as deep as the formula, and a bracketed operand is
    # never regrouped (``==`` would chain). A membership test gives the
    # member's bit, 0 or 1, and a connective may pass it on; so every result
    # is 0, 1, False or True, and two compare equal exactly when they have
    # the same truth.
    kind = type(f)
    if kind is Member:
        return f"sets[{scope[f.rhs]}] >> {scope[f.lhs]} & 1"
    if kind is Equal:
        return f"({scope[f.lhs]} == {scope[f.rhs]})"
    if kind is Not:
        return f"(not {_emit(f.body, scope, top)})"
    if kind is Forall or kind is Exists:
        var = f"v{top}"
        body = _emit(f.body, {**scope, f.var: var}, top + 1)
        return f"{'all' if kind is Forall else 'any'}({body} for {var} in R)"
    a, b = _emit(f.lhs, scope, top), _emit(f.rhs, scope, top)
    if kind is And:
        return f"({a} and {b})"
    if kind is Or:
        return f"({a} or {b})"
    if kind is Implies:
        return f"(not {a} or {b})"
    if kind is Iff:
        return f"({a} == {b})"
    raise TypeError(f"not a formula node: {f!r}")


def _check_depth(f: Formula) -> None:
    # Refuses ``f`` when it nests deeper than parse allows. The walk keeps
    # its own stack of (node, level) pairs instead of recursing, so it runs
    # before anything hashes ``f`` or recurses through it.
    stack = [(f, 1)]
    while stack:
        g, level = stack.pop()
        kind = type(g)
        if kind is Not or kind is Forall or kind is Exists:
            stack.append((g.body, level + 1))
        elif kind is And or kind is Or or kind is Implies or kind is Iff:
            stack += (g.lhs, level + 1), (g.rhs, level + 1)
        else:
            continue
        if level == MAX_NESTING:
            raise WorkbenchError(f"formula nests deeper than {MAX_NESTING} levels")


@lru_cache(maxsize=256)
def _function(f: Formula) -> tuple[Callable[..., object], tuple[str, ...]]:
    """``f`` as the function ``f0(sets, R, *ids)``, and the free variables the ids bind, sorted.

    ``sets`` is the universe's list of member masks and ``R`` the range of
    ids the quantifiers scan. The result is a value to test for truth.
    Formulas are immutable and the function keeps no state, so it is made
    once per formula, which :func:`_check_depth` must have passed.
    """
    names = tuple(sorted(free_vars(f)))
    params = [f"v{i}" for i in range(len(names))]
    body = _emit(f, dict(zip(names, params)), len(names))
    namespace = {"__builtins__": {"all": all, "any": any}}
    exec(f"def f0(sets, R, {', '.join(params)}):\n    return {body}\n", namespace)
    return namespace["f0"], names


def evaluate(
    universe: Universe,
    f: Formula,
    env: Env | None = None,
    *,
    domain_size: int | None = None,
) -> bool:
    """Truth of ``f`` in ``universe`` under classical two-valued semantics.

    Every free variable of ``f`` must be bound to a set id in ``env``.
    Quantifiers range over the ids below ``domain_size``, which defaults to
    the current universe size; pinning it keeps a quantifier range fixed
    while other code grows the universe.
    """
    bindings = env or {}
    _check_depth(f)
    fn, names = _function(f)
    missing = [name for name in names if name not in bindings]
    if missing:
        raise UnboundVariable(missing[0])
    for sid in bindings.values():
        universe.members(sid)
    n = len(universe) if domain_size is None else domain_size
    return bool(fn(universe.member_sets, range(n), *[bindings[name] for name in names]))


def _emit_mask(f: Formula) -> str | None:
    # The mask of the ids in ``M`` at which a quantifier-free criterion
    # holds, or None when ``f`` has a quantifier. One variable is free, so
    # the atoms are ``x in x``, the self-membered ids ``I``, and ``x = x``.
    # Every operand lies within ``M``, so ``^ M`` is its complement there.
    # Each node opens one bracket, as in :func:`_emit`.
    kind = type(f)
    if kind is Member:
        return "(M & I)"
    if kind is Equal:
        return "M"
    if kind is Forall or kind is Exists:
        return None
    if kind is Not:
        a = _emit_mask(f.body)
        return None if a is None else f"({a} ^ M)"
    a, b = _emit_mask(f.lhs), _emit_mask(f.rhs)
    if a is None or b is None:
        return None
    if kind is And:
        return f"({a} & {b})"
    if kind is Or:
        return f"({a} | {b})"
    if kind is Implies:
        return f"({a} ^ M | {b})"
    if kind is Iff:
        return f"({a} ^ {b} ^ M)"
    raise TypeError(f"not a formula node: {f!r}")


@lru_cache(maxsize=256)
def _selector(f: Formula, var: str) -> Selector:
    names = sorted(free_vars(f))
    if names != [var]:
        raise WrongArity(f"criterion must have exactly the free variable {var!r}, got {names}")
    body = _emit_mask(f)
    if body is None:
        body = f"mask_of([v0 for v0 in ids_of(M) if {_emit(f, {var: 'v0'}, 1)}])"
        header = "R = range(n)\n    "
    else:
        header = ""
    namespace = {"__builtins__": {"all": all, "any": any, "range": range},
                 "ids_of": ids_of, "mask_of": mask_of}
    exec(f"def f0(sets, n, I, M):\n    {header}return {body}\n", namespace)
    return namespace["f0"]


def compile_criterion(f: Formula, var: str) -> Selector:
    """Check that ``var`` is the only free variable of ``f`` and compile it to a selector.

    The selector ``(member_sets, n, individuals, M)`` takes the universe's
    member masks, its size, the mask of its self-membered ids and a mask
    ``M`` of ids below ``n``, and returns the mask of the ids in ``M`` at
    which ``f`` holds, its quantifiers ranging over the ids below ``n``.
    A quantifier-free criterion is mask algebra alone: ``x in x`` selects
    ``M & individuals`` and ``x = x`` selects ``M``. Any other is one
    comprehension over the ids in ``M``. Selectors are cached on the
    criterion and the variable, and one serves any number of sets and
    threads, where :func:`evaluate` re-checks its bindings on every call.
    """
    _check_depth(f)
    return _selector(f, var)


class Classification(Enum):
    TAUTOLOGICAL = "tautological"
    CONTRADICTORY = "contradictory"
    CONTINGENT = "contingent"


def classify(universe: Universe, f: Formula, var: str) -> Classification:
    """Pointwise classification of a one-variable criterion over the universe.

    ``CONTRADICTORY`` means false of every set, ``TAUTOLOGICAL`` true of
    every set, ``CONTINGENT`` anything in between. The criterion's free
    variables must be exactly ``{var}``. Its selector is called once, on
    the mask of every id, and the selected mask decides.
    """
    select = compile_criterion(f, var)
    n = len(universe)
    every = (1 << n) - 1
    chosen = select(universe.member_sets, n, universe.individuals(), every)
    if not chosen:
        return Classification.CONTRADICTORY
    if chosen == every:
        return Classification.TAUTOLOGICAL
    return Classification.CONTINGENT
