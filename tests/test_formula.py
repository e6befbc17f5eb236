import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from quineset import (
    And,
    Classification,
    Equal,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Member,
    Not,
    Or,
    Universe,
    classify,
    evaluate,
    format_formula,
    free_vars,
    parse,
)
from quineset.core import MAX_NESTING
from quineset.errors import FormulaSyntaxError, UnboundVariable, WorkbenchError, WrongArity
from quineset.formula import compile_criterion

from support import random_formula, reference_eval, small_universes

# The directory the quineset package under test is imported from.
SRC = str(Path(sys.modules["quineset"].__file__).resolve().parent.parent)

names = st.sampled_from(["s", "t", "u", "v", "w"])
leaves = st.builds(Member, names, names) | st.builds(Equal, names, names)
formulas = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(Iff, kids, kids),
        st.builds(Forall, names, kids),
        st.builds(Exists, names, kids),
    ),
    max_leaves=25,
)
# One to four quantifiers over two names in front of a formula, so a name is
# often bound again inside its own scope.
quantifier_prefixes = st.lists(
    st.tuples(st.sampled_from([Forall, Exists]), st.sampled_from(["s", "t"])),
    min_size=1,
    max_size=4,
)


def _under(prefix, body):
    for quantifier, var in reversed(prefix):
        body = quantifier(var, body)
    return body


prefixed_formulas = st.builds(_under, quantifier_prefixes, formulas)

# Two to four quantifiers over s and t, each name at least once, around a
# body whose truth turns on a leaf comparing s with t: should one name's
# binding stand for the other's, the leaf reads one set twice.
comparisons = st.sampled_from(
    [Member("s", "t"), Member("t", "s"), Equal("s", "t"), Not(Equal("s", "t"))]
)
s_t_leaves = st.builds(Member, st.sampled_from("st"), st.sampled_from("st"))
aliasing_formulas = st.builds(
    _under,
    quantifier_prefixes.filter(lambda p: len(p) >= 2 and len({var for _, var in p}) == 2),
    comparisons
    | st.builds(Not, comparisons)
    | st.builds(And, comparisons, s_t_leaves)
    | st.builds(Or, comparisons, s_t_leaves),
)

# Valid variable names that are also Python builtins, keywords or the
# emitter's own generated names.
python_names = st.sampled_from(
    ["all", "any", "range", "sets", "R", "v0", "f0", "lambda", "not", "return"]
)
python_named_formulas = st.recursive(
    st.builds(Member, python_names, python_names) | st.builds(Equal, python_names, python_names),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        st.builds(Iff, kids, kids),
        st.builds(Forall, python_names, kids),
        st.builds(Exists, python_names, kids),
    ),
    max_leaves=12,
)


# --- parsing ---------------------------------------------------------------

def test_parse_membership():
    assert parse("u in s") == Member("u", "s")


def test_parse_notin_sugar():
    assert parse("u notin u") == Not(Member("u", "u"))


def test_parse_quantified_disjunction():
    expected = Forall("s", Or(Member("s", "s"), Not(Member("s", "s"))))
    assert parse("forall s. (s in s | s notin s)") == expected


def test_parse_equality_sugar():
    assert parse("x != y") == Not(Equal("x", "y"))
    assert parse("x = y") == Equal("x", "y")


def test_quantifier_binds_following_unary_only():
    f = parse("forall u. (u in u) & (u in s)")
    assert f == And(Forall("u", Member("u", "u")), Member("u", "s"))


def test_implication_right_associative():
    f = parse("u in s -> u in t -> u in w")
    assert f == Implies(Member("u", "s"), Implies(Member("u", "t"), Member("u", "w")))


def test_precedence_and_over_or():
    f = parse("u in s & u in t | u in w")
    assert f == Or(And(Member("u", "s"), Member("u", "t")), Member("u", "w"))


@pytest.mark.parametrize(
    "text",
    ["u in", "in s", "forall . (u in s)", "(u in s", "u in s)", "u ? s", "forall in. (u in s)"],
)
def test_syntax_errors_have_positions(text):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(text)
    assert err.value.position >= 0


LIMIT = MAX_NESTING


def _mixed(cycles, leaf):
    # Right-nested "!", a quantifier and "->": three levels a cycle.
    quantifiers = ["forall", "exists"]
    return "".join(
        f"!{quantifiers[i % 2]} u. (u in u -> " for i in range(cycles)
    ) + leaf + ")" * cycles


@pytest.mark.parametrize("text", [
    "!" * (LIMIT - 1) + "u in u",
    "forall u. " * (LIMIT - 2) + "u notin u",
    "exists u. " * (LIMIT - 2) + "u notin u",
    "(" * LIMIT + "u in u" + ")" * LIMIT,
    " & ".join(["u in u"] * LIMIT),
    " | ".join(["u in u"] * LIMIT),
    " -> ".join(["u in u"] * LIMIT),
    " <-> ".join(["u in u"] * LIMIT),
    _mixed((LIMIT - 1) // 3, "u in u"),
], ids=["not", "forall", "exists", "parens", "and-chain", "or-chain", "implies-chain",
        "iff-chain", "mixed"])
def test_nesting_at_the_limit_parses_and_prints_back(text):
    f = parse(text)
    assert parse(format_formula(f)) == f
    assert evaluate(Universe(["a"]), f, {"u": 0}) in (True, False)


@pytest.mark.parametrize("text", [
    "!" * LIMIT + "u in u",
    "forall u. " * (LIMIT - 1) + "u notin u",
    "(" * (LIMIT + 1) + "u in u" + ")" * (LIMIT + 1),
    " & ".join(["u in u"] * (LIMIT + 1)),
    " -> ".join(["u in u"] * (LIMIT + 1)),
    " <-> ".join(["u in u"] * (LIMIT + 1)),
    _mixed((LIMIT - 1) // 3, "u notin u"),
    "!" * 3000 + "u in u",
    "(" * 3000,
], ids=["not", "forall", "parens", "and-chain", "implies-chain", "iff-chain", "mixed",
        "not-3000", "parens-3000"])
def test_nesting_past_the_limit_is_a_syntax_error(text):
    with pytest.raises(FormulaSyntaxError, match="nests deeper"):
        parse(text)


_BUILT_SHAPES = {
    "not": lambda f: Not(f),
    "forall": lambda f: Forall("v", f),
    "exists": lambda f: Exists("v", f),
    "and-chain": lambda f: And(f, Member("u", "u")),
    "or-chain": lambda f: Or(f, Member("u", "u")),
    "implies-chain": lambda f: Implies(f, Member("u", "u")),
    "iff-chain": lambda f: Iff(f, Member("u", "u")),
}


def _built(shape, depth, leaf=Member("u", "u")):
    # A formula built in code, ``depth`` levels deep, over ``leaf``.
    f = leaf
    for _ in range(depth - 1):
        f = _BUILT_SHAPES[shape](f)
    return f


@pytest.mark.parametrize("shape", _BUILT_SHAPES)
def test_formulas_built_at_the_limit_evaluate(shape):
    # The operator shapes compile to mask algebra, the quantifiers to a comprehension.
    u = Universe(["a"])
    f = _built(shape, LIMIT)
    expected = reference_eval(u, f, {"u": 0})
    assert evaluate(u, f, {"u": 0}) is expected
    select = compile_criterion(f, "u")
    assert select(u.member_sets, len(u), u.individuals(), 1) == int(expected)


_REFUSED = f"^formula nests deeper than {LIMIT} levels$"


def _built_until_refused(shape, depth):
    # Builds toward ``depth`` levels and returns the deepest formula made,
    # asserting that making the next level raised.
    f = Member("u", "u")
    with pytest.raises(WorkbenchError, match=_REFUSED):
        for _ in range(depth - 1):
            f = _BUILT_SHAPES[shape](f)
    return f


@pytest.mark.parametrize("depth", [LIMIT + 1, 250])
@pytest.mark.parametrize("shape", _BUILT_SHAPES)
def test_formulas_built_past_the_limit_are_refused(shape, depth):
    # Python cannot compile the emitted text of some 200 levels; making the
    # level past the limit parse holds text to raises, so no formula is
    # too deep to compile, and the levels below it still evaluate.
    u = Universe(["a"])
    f = _built_until_refused(shape, depth)
    assert f.depth == LIMIT
    assert evaluate(u, f, {"u": 0}) is reference_eval(u, f, {"u": 0})


@pytest.mark.parametrize("depth", [499, 5000])
@pytest.mark.parametrize("shape", _BUILT_SHAPES)
def test_formulas_built_far_past_the_limit_are_refused_before_hashing(shape, depth):
    # Each node stores its depth and hash when it is made, from its
    # children's, so the depth check walks nothing, and building thousands
    # of levels stops at the same level as building one past the limit.
    f = _built_until_refused(shape, depth)
    again = _built(shape, LIMIT)
    assert f.depth == LIMIT
    assert hash(f) == hash(again) and f == again


def _at_stack_depth(frames, call):
    # ``call()``, made with ``frames`` frames on the stack below it.
    here, below = sys._getframe(), 0
    while here is not None:
        here, below = here.f_back, below + 1
    if below >= frames:
        return call()
    return _at_stack_depth(frames, call)


@pytest.mark.parametrize("shape", _BUILT_SHAPES)
def test_formulas_at_the_limit_are_walked_from_a_deep_stack(shape):
    # Every walker recurses, a few frames a level, so a formula at the limit
    # takes some 400 frames at most, within the interpreter's default
    # limit of 1000 under a caller 500 frames deep. The leaf is one no
    # other test builds on, so nothing compiled before serves from a cache.
    u = Universe(["a"])
    f, again = _built(shape, LIMIT, Equal("u", "u")), _built(shape, LIMIT, Equal("u", "u"))
    expected = reference_eval(u, f, {"u": 0})

    def walk():
        assert parse(format_formula(f)) == f
        assert f == again and repr(f) == repr(again)
        assert free_vars(f) == {"u"}
        assert pickle.loads(pickle.dumps(f)) == f
        assert evaluate(u, f, {"u": 0}) is expected
        assert compile_criterion(f, "u")(u.member_sets, len(u), u.individuals(), 1) == expected

    assert sys.getrecursionlimit() == 1000
    _at_stack_depth(500, walk)


# --- nodes -----------------------------------------------------------------

def _reference_depth(f):
    if isinstance(f, (Member, Equal)):
        return 1
    if isinstance(f, (Not, Forall, Exists)):
        return 1 + _reference_depth(f.body)
    return 1 + max(_reference_depth(f.lhs), _reference_depth(f.rhs))


@given(st.randoms(use_true_random=False), st.integers(0, 8))
def test_nodes_store_their_depth_and_a_structural_hash(rng, depth):
    f = random_formula(rng, depth)
    assert f.depth == _reference_depth(f)
    again = parse(format_formula(f))
    assert again == f and again is not f
    assert hash(again) == hash(f)


def test_a_not_chain_is_made_and_hashed_to_the_limit_then_refused_by_every_family():
    u = Universe(["a"])
    f, g = _built("not", LIMIT), _built("not", LIMIT)
    assert f.depth == LIMIT
    assert hash(f) == hash(g)
    for deeper in [Not, lambda f: Or(Member("u", "u"), f), lambda f: Exists("v", f)]:
        with pytest.raises(WorkbenchError, match=_REFUSED):
            deeper(f)
    assert evaluate(u, f, {"u": 0}) is reference_eval(u, f, {"u": 0})


_LEAF = "Member(lhs='u', rhs='u')"
_UNDER = LIMIT - 1  # the nodes above the leaf of a formula at the limit


@pytest.mark.parametrize("shape,text,shown", [
    ("not", "(!" * (_UNDER - 1) + "(u notin u)" + ")" * (_UNDER - 1),
     "Not(body=" * _UNDER + _LEAF + ")" * _UNDER),
    ("and-chain", "(" * _UNDER + "(u in u)" + " & (u in u))" * _UNDER,
     "And(lhs=" * _UNDER + _LEAF + f", rhs={_LEAF})" * _UNDER),
    ("forall", "(forall v. " * _UNDER + "(u in u)" + ")" * _UNDER,
     "Forall(var='v', body=" * _UNDER + _LEAF + ")" * _UNDER),
], ids=["not", "and-chain", "forall"])
def test_a_chain_at_the_limit_prints_parses_back_and_lists_free_vars(shape, text, shown):
    # The printer, free_vars, == and repr all recurse, one case per family.
    f, g = _built(shape, LIMIT), _built(shape, LIMIT)
    assert format_formula(f) == text
    assert parse(text) == f
    assert free_vars(f) == {"u"}
    assert free_vars(Forall("u", _built(shape, LIMIT - 1))) == frozenset()
    assert f == g and not f != g
    assert f != _built(shape, LIMIT - 1)
    assert repr(f) == shown


def test_the_formula_base_class_makes_no_node():
    kinds = "Member, Equal, Not, And, Or, Implies, Iff, Forall, Exists"
    with pytest.raises(TypeError, match=f"^Formula is not a node kind; make one of {kinds}$"):
        Formula()


@pytest.mark.parametrize("make", [
    lambda bad: Not(bad),
    lambda bad: And(Member("u", "u"), bad),
    lambda bad: Forall("u", bad),
], ids=["not", "and", "forall"])
def test_a_child_that_is_not_a_formula_node_is_refused(make):
    with pytest.raises(TypeError, match=r"^not a formula node: 'u in u'$"):
        make("u in u")


@pytest.mark.parametrize("walk", [
    format_formula,
    free_vars,
    lambda f: evaluate(Universe(["a"]), f, {"u": 0}),
    lambda f: compile_criterion(f, "u"),
], ids=["format_formula", "free_vars", "evaluate", "compile_criterion"])
def test_a_walker_refuses_what_is_not_a_formula_node(walk):
    with pytest.raises(TypeError, match=r"^not a formula node: 'u in u'$"):
        walk("u in u")


def test_a_pickled_formula_hashes_as_one_made_in_this_process():
    # A stored hash would carry the pickling process's str hashes along;
    # the node is made again when it is unpickled.
    text = "forall s. ((s in t) <-> !(exists u. (u = s)))"
    script = (
        "import pickle, sys; from quineset import parse; "
        f"sys.stdout.buffer.write(pickle.dumps(parse({text!r})))"
    )
    env = {**os.environ, "PYTHONHASHSEED": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    data = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True).stdout
    f, here = pickle.loads(data), parse(text)
    assert f == here and hash(f) == hash(here)
    assert f.depth == here.depth == 5
    assert pickle.loads(pickle.dumps(here)) == here


# --- printing --------------------------------------------------------------

def test_format_atomic():
    assert format_formula(Member("u", "s")) == "(u in s)"
    assert format_formula(Not(Member("u", "u"))) == "(u notin u)"
    assert format_formula(Not(Equal("u", "v"))) == "(u != v)"


def test_format_parse_round_trip_examples():
    texts = [
        "(forall s. (exists u. ((u in s) <-> (u notin u))))",
        "(!((u in s) & (v != w)))",
    ]
    for text in texts:
        assert format_formula(parse(text)) == text


@given(formulas)
def test_parse_format_round_trip(f):
    assert parse(format_formula(f)) == f


@given(formulas)
def test_format_is_fixpoint(f):
    once = format_formula(f)
    assert format_formula(parse(once)) == once


# --- free variables ----------------------------------------------------------

def test_free_vars_atomic():
    assert free_vars(parse("u in s")) == {"u", "s"}


def test_free_vars_bound():
    assert free_vars(parse("forall u. (u in s)")) == {"s"}


def test_free_vars_shadow_escape():
    assert free_vars(parse("forall u. (u in u) & (u in s)")) == {"u", "s"}


# --- evaluation ----------------------------------------------------------------

def test_russell_formula_false(default_universe):
    f = parse("exists s. forall u. (u in s <-> u notin u)")
    assert evaluate(default_universe, f) is False


def test_definite_membership_formula_true(default_universe):
    f = parse("forall s. exists u. ((u in s & u in u) | (u notin s & u notin u))")
    assert evaluate(default_universe, f) is True


def test_every_set_has_member_formula(default_universe):
    assert evaluate(default_universe, parse("forall s. exists u. (u in s)")) is True


def test_unbound_variable():
    u = Universe(["a"])
    with pytest.raises(UnboundVariable):
        evaluate(u, parse("x in y"), {"x": 0})


def test_domain_size_pins_quantifiers():
    u = Universe(["a", "b"])
    p = u.intern([0, 1])
    f = parse("exists x. (x notin x)")
    assert evaluate(u, f, domain_size=2) is False
    assert evaluate(u, f) is True
    assert p == 2


def test_shadowed_quantifier():
    u = Universe(["a", "b"])
    f = parse("forall x. (exists x. (x in x))")
    assert evaluate(u, f) is True


def test_free_variable_read_after_a_quantifier_rebinds_it():
    # "forall x." stops at the composite {a,b}; the free x after it must
    # still be the bound atom, not the quantifier's last value.
    u = Universe(["a", "b"])
    u.intern([0, 1])
    f = parse("(forall x. (x in x)) | (x notin x)")
    assert evaluate(u, f, {"x": 0}) is False
    assert evaluate(u, f, {"x": 2}) is True


def test_three_nested_shadowings_of_one_name():
    # A free x and three quantifiers over x, each read after the one it
    # encloses: the innermost stops at the composite {a,b}, which no other
    # x may then be, since "x in x" holds only of atoms.
    u = Universe(["a", "b"])
    u.intern([0, 1])
    f = parse(
        "(exists x. ((exists x. ((exists x. (x notin x)) & (x in x))) & (x in x)))"
        " & (x in x)"
    )
    for x, truth in [(0, True), (1, True), (2, False)]:
        assert evaluate(u, f, {"x": x}) is truth
        assert reference_eval(u, f, {"x": x}) is truth


def test_evaluate_leaves_the_callers_env_unchanged():
    u = Universe(["a", "b"])
    u.intern([0, 1])
    env = {"x": 0, "y": 2}
    f = parse("(exists x. (exists y. (x in y))) & (x in y)")
    assert evaluate(u, f, env) is True
    assert env == {"x": 0, "y": 2}
    # A read-only mapping serves, so nothing is written to it.
    assert evaluate(u, f, MappingProxyType(env)) is True


@settings(deadline=None)
@given(small_universes(), formulas | prefixed_formulas, st.randoms())
def test_compiled_matches_reference(u, f, rng):
    # Universes of up to a few dozen sets, self-membered composites included;
    # both evaluators return a bool.
    env = {name: rng.randrange(len(u)) for name in free_vars(f)}
    assert evaluate(u, f, env) is reference_eval(u, f, env)


@settings(deadline=None)
@given(small_universes(), aliasing_formulas)
def test_nested_quantifiers_keep_their_own_bindings(u, f):
    assert evaluate(u, f, {}) is reference_eval(u, f, {})


@settings(deadline=None)
@given(small_universes(), python_named_formulas, st.randoms())
def test_python_names_are_plain_variables(u, f, rng):
    # No name reaches the emitted source, so each is a variable like any other.
    env = {name: rng.randrange(len(u)) for name in free_vars(f)}
    assert parse(format_formula(f)) == f
    assert evaluate(u, f, env) is reference_eval(u, f, env)


@settings(max_examples=40)
@given(formulas, formulas, st.randoms())
def test_connective_laws(p, q, rng):
    u = Universe(["a", "b"])
    u.intern([0, 1])
    env = {name: rng.randrange(len(u)) for name in free_vars(p) | free_vars(q)}
    assert evaluate(u, Not(Not(p)), env) == evaluate(u, p, env)
    assert evaluate(u, Not(And(p, q)), env) == evaluate(u, Or(Not(p), Not(q)), env)
    assert evaluate(u, Implies(p, q), env) == evaluate(u, Or(Not(p), q), env)
    assert evaluate(u, Iff(p, q), env) == evaluate(
        u, And(Implies(p, q), Implies(q, p)), env
    )


@settings(max_examples=40)
@given(formulas, names, st.randoms())
def test_quantifier_duality(f, var, rng):
    u = Universe(["a", "b"])
    u.intern([0, 1])
    env = {name: rng.randrange(len(u)) for name in free_vars(f) | {var}}
    assert evaluate(u, Not(Forall(var, f)), env) == evaluate(
        u, Exists(var, Not(f)), env
    )


# --- classification -----------------------------------------------------------

def test_classify_contradictory(shallow_universe):
    f = parse("u in u & u notin u")
    assert classify(shallow_universe, f, "u") is Classification.CONTRADICTORY


def test_classify_tautological(shallow_universe):
    f = parse("u in u | u notin u")
    assert classify(shallow_universe, f, "u") is Classification.TAUTOLOGICAL


def test_classify_contingent(shallow_universe):
    f = parse("u notin u")
    # oracle: pointwise evaluation splits atoms from composites
    truths = {
        sid: not shallow_universe.is_member(sid, sid)
        for sid in shallow_universe.ids()
    }
    assert True in truths.values() and False in truths.values()
    assert classify(shallow_universe, f, "u") is Classification.CONTINGENT


def test_classify_wrong_arity(shallow_universe):
    with pytest.raises(WrongArity):
        classify(shallow_universe, parse("u in s"), "u")
    with pytest.raises(WrongArity):
        classify(shallow_universe, parse("u in u"), "s")
