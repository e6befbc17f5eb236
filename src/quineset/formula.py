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
environments are immutable values; evaluation is pure. Each node stores
its depth and its hash when it is made, computed from its children's, so
measuring or hashing a formula never walks it.

The evaluator writes each formula once as the source of one Python
function, whose parameters are the member masks, the range of ids the
quantifiers scan and the free variables' set ids. A quantifier is an
``all`` or ``any`` over a generator, and ``x in y`` is the bit
``sets[y] >> x & 1``. Every variable in the text is a generated name, so
nothing a formula names reaches ``exec``, and each quantifier has a name of
its own, so a variable it shadows lives on outside the generator. The text
opens one bracket per formula level, which Python compiles within the
limit :func:`parse` holds text to; a formula built in code past it is
refused when it is compiled, before anything recurses through it. One
cache, keyed on the formula, serves every evaluation, and a cache hit
costs one stored hash whatever the formula's size.

A one-variable criterion compiles instead to a selector, which takes a
mask of ids and returns the mask of those at which the criterion holds
(:func:`compile_criterion`). Without quantifiers that is mask algebra
alone; with them, one comprehension over the ids whose test is the
expression above. ``specify`` and :func:`classify` each decide a whole set
by one call. Selectors have a cache of their own, keyed on the criterion
and its variable, so a repeated call is one cache hit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Mapping

from .core import MAX_NESTING, NAME_RE, RESERVED_NAMES, SetId, Universe, ids_of, mask_of
from .errors import FormulaSyntaxError, UnboundVariable, WorkbenchError, WrongArity

# A compiled criterion: (member_sets, n, individuals, M) to the selected mask.
Selector = Callable[[list[int], int, int, int], int]


@dataclass(frozen=True, eq=False, slots=True)
class Formula:
    """A formula node: an immutable value, equal to a node of the same kind with equal parts.

    Each node works out two values once, when it is made, from the values
    its children stored: ``depth``, the most subformulas on one path from it
    down to an atomic formula, both ends included, and its hash. Neither
    ever recurses, so a formula of any depth is made, hashed and measured
    in constant time. A child that is not a formula node raises
    ``TypeError``. The stored hash is not pickled, since ``str`` hashes
    differ between processes: a node unpickles by being made again.
    """

    depth: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def _store(self, depth: int, *key: object) -> None:
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "_hash", hash((type(self), *key)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def _node(child: object) -> Formula:
    if not isinstance(child, Formula):
        raise TypeError(f"not a formula node: {child!r}")
    return child


class _Atomic(Formula):
    __slots__ = ()

    def __post_init__(self) -> None:
        self._store(1, self.lhs, self.rhs)


class _Connective(Formula):
    __slots__ = ()

    def __post_init__(self) -> None:
        lhs, rhs = _node(self.lhs), _node(self.rhs)
        self._store(1 + max(lhs.depth, rhs.depth), lhs._hash, rhs._hash)


class _Quantifier(Formula):
    __slots__ = ()

    def __post_init__(self) -> None:
        body = _node(self.body)
        self._store(1 + body.depth, self.var, body._hash)


def _node_class(cls: type) -> type:
    # Frozen and slotted, equal field by field as a dataclass is, and
    # hashed by the hash each node stores.
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node_class
class Member(_Atomic):
    lhs: str
    rhs: str


@_node_class
class Equal(_Atomic):
    lhs: str
    rhs: str


@_node_class
class Not(Formula):
    body: Formula

    def __post_init__(self) -> None:
        body = _node(self.body)
        self._store(1 + body.depth, body._hash)


@_node_class
class And(_Connective):
    lhs: Formula
    rhs: Formula


@_node_class
class Or(_Connective):
    lhs: Formula
    rhs: Formula


@_node_class
class Implies(_Connective):
    lhs: Formula
    rhs: Formula


@_node_class
class Iff(_Connective):
    lhs: Formula
    rhs: Formula


@_node_class
class Forall(_Quantifier):
    var: str
    body: Formula


@_node_class
class Exists(_Quantifier):
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
    # Precedence climbing. Each node knows its depth, so a left-grouping
    # chain, which adds depth without recursing, is checked as its nodes
    # are made. Recursion is bounded before it happens: ``parens`` counts
    # the open parentheses, and ``above`` the enclosing "!", quantifier and
    # "->" operators, each of which puts one more level over what it encloses.

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

    def formula(self, min_prec: int = 1) -> Formula:
        left = self._unary()
        while self._peek() in _BINARY and _BINARY[self._peek()][0] >= min_prec:
            pos = self._here()
            prec, kind = _BINARY[self._advance()]
            if kind is Implies:
                self.above += 1
                self._limit(self.above + 1, pos)
                right = self.formula(prec)
                self.above -= 1
            else:
                right = self.formula(prec + 1)
            left = kind(left, right)
            self._limit(left.depth, pos)
        return left

    def _unary(self) -> Formula:
        tok = self._peek()
        if tok not in ("!", "forall", "exists"):
            return self._atom()
        pos = self._here()
        self._advance()
        self.above += 1
        self._limit(self.above + 1, pos)
        if tok == "!":
            node = Not(self._unary())
        else:
            var = self._ident("a variable")
            self._expect(".")
            node = (Forall if tok == "forall" else Exists)(var, self._unary())
        self.above -= 1
        self._limit(node.depth, pos)
        return node

    def _atom(self) -> Formula:
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
            return Member(lhs, rhs)
        if op == "notin":
            return Not(Member(lhs, rhs))
        if op == "=":
            return Equal(lhs, rhs)
        return Not(Equal(lhs, rhs))


def parse(text: str) -> Formula:
    """Parse surface syntax into a formula AST."""
    parser = _Parser(text)
    result = parser.formula()
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
    # Refuses ``f`` when it nests deeper than parse allows: Python could
    # not compile its emitted text.
    try:
        depth = f.depth
    except AttributeError:
        raise TypeError(f"not a formula node: {f!r}") from None
    if depth > MAX_NESTING:
        raise WorkbenchError(f"formula nests deeper than {MAX_NESTING} levels")


@lru_cache(maxsize=256)
def _function(f: Formula) -> tuple[Callable[..., object], tuple[str, ...]]:
    """``f`` as the function ``f0(sets, R, *ids)``, and the free variables the ids bind, sorted.

    ``sets`` is the universe's list of member masks and ``R`` the range of
    ids the quantifiers scan. The result is a value to test for truth.
    Formulas are immutable and the function keeps no state, so it is made
    once per formula; a formula too deep to compile is refused here.
    """
    _check_depth(f)
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
