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
error, which keeps the recursive parser and evaluator inside the
interpreter's stack. The printer puts one pair of parentheses around each
subformula, so the printed form of any formula that parses parses again.

A quantifier binds exactly the unary that follows the dot, so in
``forall u. (u in u) & (u in s)`` the second ``u`` is free.

Semantics are classical and two-valued. Quantifiers range over every set id
of a universe (or over an explicitly pinned domain size). Formulas and
environments are immutable values; evaluation is pure. Each node stores
its depth and its hash when it is made, computed from its children's, so
measuring or hashing a formula never walks it.

Each kind declares its spelling and its emitted forms once, as constants
of its class. The parser's tables are built from them, and the printer,
:func:`free_vars` and both emitters read them with one case per family of
kinds: atomic, operator (``!`` and the connectives) and quantifier.

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


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Formula:
    """A formula node: an immutable value, equal to a node of the same kind with equal parts.

    Each node works out two values once, when it is made, from the values
    its children stored: ``depth``, the most subformulas on one path from it
    down to an atomic formula, both ends included, and its hash. Neither
    ever recurses, so a formula of any depth is made, hashed and measured
    in constant time. ``==`` and ``repr`` walk an explicit stack, so they
    too take a formula of any depth; ``repr`` is the dataclass form, each
    field by name. A child that is not a formula node raises
    ``TypeError``, and so does ``Formula()``: only the kinds below make
    nodes. The stored hash is not pickled, since ``str`` hashes differ
    between processes: a node unpickles by being made again.
    """

    depth: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kinds = ", ".join(kind.__name__ for kind in _KINDS)
        raise TypeError(f"Formula is not a node kind; make one of {kinds}")

    def _store(self, depth: int, *key: object) -> None:
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "_hash", hash((type(self), *key)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        # Pairs of nodes still to compare; equal nodes store equal hashes,
        # so a differing hash rejects a pair without reading its parts.
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a._hash != b._hash or type(a) is not type(b):
                return False
            if isinstance(a, _Atomic):
                if a.lhs != b.lhs or a.rhs != b.rhs:
                    return False
            elif isinstance(a, _Operator):
                for name in a.__match_args__:
                    todo.append((getattr(a, name), getattr(b, name)))
            else:
                if a.var != b.var:
                    return False
                todo.append((a.body, b.body))
        return True

    def __repr__(self) -> str:
        # As in format_formula: the nodes still to print and, between them,
        # the text that follows each, in reverse order.
        out: list[str] = []
        todo: list[Formula | str] = [self]
        while todo:
            node = todo.pop()
            if isinstance(node, str):
                out.append(node)
                continue
            kind = type(node).__qualname__
            if isinstance(node, _Atomic):
                out.append(f"{kind}(lhs={node.lhs!r}, rhs={node.rhs!r})")
            elif isinstance(node, _Operator):
                parts = node._parts()
                if len(parts) == 1:
                    out.append(f"{kind}(body=")
                    todo += [")", parts[0]]
                else:
                    out.append(f"{kind}(lhs=")
                    todo += [")", parts[1], ", rhs=", parts[0]]
            else:
                out.append(f"{kind}(var={node.var!r}, body=")
                todo += [")", node.body]
        return "".join(out)

    def _parts(self) -> tuple:
        # The node's fields in order, as its constructor takes them. A list,
        # not a generator, which would be left for the cycle collector.
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __reduce__(self) -> tuple:
        return type(self), self._parts()


def _node(child: object) -> Formula:
    if not isinstance(child, Formula):
        raise TypeError(f"not a formula node: {child!r}")
    return child


# Besides its spelling, each kind declares ``_py``, its Python expression
# for :func:`_emit`, and, unless it is a quantifier, ``_mask``, its mask
# algebra for :func:`_emit_mask`; both take the emitted operands in field order.

class _Atomic(Formula):
    # ``lhs _word rhs``, and ``lhs _negated rhs`` for its negation.
    __slots__ = ()

    def __post_init__(self) -> None:
        self._store(1, self.lhs, self.rhs)


class _Operator(Formula):
    # ``_symbol`` before its one operand or between its two.
    __slots__ = ()

    def __post_init__(self) -> None:
        depth, key = 0, []
        for name in self.__match_args__:
            part = _node(getattr(self, name))
            depth = max(depth, part.depth)
            key.append(part._hash)
        self._store(1 + depth, *key)


class _Quantifier(Formula):
    # ``_keyword var. body``.
    __slots__ = ()

    def __post_init__(self) -> None:
        body = _node(self.body)
        self._store(1 + body.depth, self.var, body._hash)


def _node_class(cls: type) -> type:
    # Frozen and slotted; equality, repr and the hash each node stores come
    # from Formula.
    return dataclass(frozen=True, eq=False, repr=False, slots=True)(cls)


@_node_class
class Member(_Atomic):
    _word, _negated = "in", "notin"
    _py, _mask = "sets[{1}] >> {0} & 1", "(M & I)"
    lhs: str
    rhs: str


@_node_class
class Equal(_Atomic):
    _word, _negated = "=", "!="
    _py, _mask = "({0} == {1})", "M"
    lhs: str
    rhs: str


@_node_class
class Not(_Operator):
    _symbol, _py, _mask = "!", "(not {0})", "({0} ^ M)"
    body: Formula


@_node_class
class And(_Operator):
    _symbol, _py, _mask = "&", "({0} and {1})", "({0} & {1})"
    lhs: Formula
    rhs: Formula


@_node_class
class Or(_Operator):
    _symbol, _py, _mask = "|", "({0} or {1})", "({0} | {1})"
    lhs: Formula
    rhs: Formula


@_node_class
class Implies(_Operator):
    _symbol, _py, _mask = "->", "(not {0} or {1})", "({0} ^ M | {1})"
    lhs: Formula
    rhs: Formula


@_node_class
class Iff(_Operator):
    # Operands that are truth values compare equal when they agree.
    _symbol, _py, _mask = "<->", Equal._py, "({0} ^ {1} ^ M)"
    lhs: Formula
    rhs: Formula


@_node_class
class Forall(_Quantifier):
    _keyword, _py = "forall", "all({1} for {0} in R)"
    var: str
    body: Formula


@_node_class
class Exists(_Quantifier):
    _keyword, _py = "exists", "any({1} for {0} in R)"
    var: str
    body: Formula


_KINDS = (Member, Equal, Not, And, Or, Implies, Iff, Forall, Exists)

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
_BINARY = {kind._symbol: (prec, kind) for prec, kind in enumerate((Iff, Implies, Or, And), 1)}
# Each relation word, with the atom it makes and whether that atom is negated.
_RELATIONS = {
    word: (atom, word == atom._negated)
    for atom in (Member, Equal) for word in (atom._word, atom._negated)
}
_QUANTIFIERS = {kind._keyword: kind for kind in (Forall, Exists)}


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
        if tok != Not._symbol and tok not in _QUANTIFIERS:
            return self._atom()
        pos = self._here()
        self._advance()
        self.above += 1
        self._limit(self.above + 1, pos)
        if tok == Not._symbol:
            node = Not(self._unary())
        else:
            var = self._ident("a variable")
            self._expect(".")
            node = _QUANTIFIERS[tok](var, self._unary())
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
        if op not in _RELATIONS:
            *words, last = map(repr, _RELATIONS)
            raise FormulaSyntaxError(
                f"expected {', '.join(words)} or {last} but found {op!r}", self._here()
            )
        self._advance()
        atom, negated = _RELATIONS[op]
        node = atom(lhs, self._ident("a variable"))
        return Not(node) if negated else node


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
    # An explicit stack, so a formula built in code prints at any depth.
    # It holds the nodes still to print and, between them, the text that
    # follows each, in reverse order; children were checked when made.
    out: list[str] = []
    todo: list[Formula | str] = [_node(f)]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        negated = isinstance(node, Not) and isinstance(node.body, _Atomic)
        atom = node.body if negated else node
        if isinstance(atom, _Atomic):
            out.append(f"({atom.lhs} {atom._negated if negated else atom._word} {atom.rhs})")
        elif isinstance(node, _Operator):
            # "!" goes before its one operand, a connective between its two.
            parts = node._parts()
            if len(parts) == 1:
                out.append(f"({node._symbol}")
                todo += [")", parts[0]]
            else:
                out.append("(")
                todo += [")", parts[1], f" {node._symbol} ", parts[0]]
        elif isinstance(node, _Quantifier):
            out.append(f"({node._keyword} {node.var}. ")
            todo += [")", node.body]
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return "".join(out)


def free_vars(f: Formula) -> frozenset[str]:
    """Exactly the variables with a free occurrence, under lexical binding."""
    # An explicit stack, so a formula built in code is read at any depth;
    # each node goes with the variables bound above it.
    free: set[str] = set()
    todo: list[tuple[Formula, frozenset[str]]] = [(f, frozenset())]
    while todo:
        node, bound = todo.pop()
        if isinstance(node, _Atomic):
            free.update({node.lhs, node.rhs} - bound)
        elif isinstance(node, _Operator):
            todo += [(part, bound) for part in node._parts()]
        elif isinstance(node, _Quantifier):
            todo.append((node.body, bound | {node.var}))
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return frozenset(free)


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
    if isinstance(f, _Atomic):
        return f._py.format(scope[f.lhs], scope[f.rhs])
    if isinstance(f, _Operator):
        return f._py.format(*[_emit(part, scope, top) for part in f._parts()])
    var = f"v{top}"
    return f._py.format(var, _emit(f.body, {**scope, f.var: var}, top + 1))


def _check_depth(f: Formula) -> None:
    # Refuses ``f`` when it nests deeper than parse allows: Python could
    # not compile its emitted text.
    if _node(f).depth > MAX_NESTING:
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
    if isinstance(f, _Atomic):
        return f._mask
    if isinstance(f, _Operator):
        parts = [_emit_mask(part) for part in f._parts()]
        return None if None in parts else f._mask.format(*parts)
    return None


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
