import copy
import threading

import pytest
from hypothesis import given, settings, strategies as st

from quineset import (
    And,
    Classification,
    Equal,
    Exists,
    Forall,
    Iff,
    Implies,
    Member,
    NoSet,
    NoSetReason,
    Not,
    Or,
    Specified,
    Universe,
    binary_union,
    classify,
    evaluate,
    free_vars,
    pair,
    parse,
    powerset,
    singleton,
    specify,
    union_all,
)
from quineset import constructors
from quineset.errors import CapExceeded, UnknownId, WrongArity
from quineset.formula import compile_criterion

from support import (
    model_powerset,
    model_union,
    reference_eval,
    reference_powerset,
    rep_of,
    small_universes,
)


def test_pair_of_distinct_atoms_is_not_individual():
    u = Universe(["u", "v"])
    p = pair(u, 0, 1)
    assert not u.is_individual(p)
    assert u.members(p) == (0, 1)


def test_pair_same_argument_is_singleton():
    u = Universe(["u", "v"])
    p = pair(u, 0, 1)
    assert pair(u, p, p) == singleton(u, p)


def test_pair_of_atom_with_itself_is_the_atom():
    u = Universe(["a"])
    assert pair(u, 0, 0) == 0


def test_pair_commutes(shallow_universe):
    u = shallow_universe
    for s in u.ids():
        for t in u.ids():
            assert pair(u, s, t) == pair(u, t, s)


def test_singleton_of_atom_is_atom():
    u = Universe(["a"])
    assert singleton(u, 0) == 0


def test_singleton_of_composite_is_new():
    u = Universe(["u", "v"])
    p = pair(u, 0, 1)
    box = singleton(u, p)
    assert box != p
    assert not u.is_member(box, box)


def test_singleton_collapse_idempotent():
    u = Universe(["a"])
    assert singleton(u, singleton(u, 0)) == 0


def test_singleton_law(default_universe):
    u = default_universe
    for s in list(u.ids()):
        box = singleton(u, s)
        assert u.is_member(s, box)
        assert (box == s) == u.is_individual(s)


def test_union_of_pair_of_atoms():
    u = Universe(["u", "v"])
    p = pair(u, 0, 1)
    assert union_all(u, p) == p  # each atom contributes itself


def test_union_of_successor_returns_base():
    u = Universe(["u", "v"])
    p = pair(u, 0, 1)
    s = u.intern([0, 1, p])
    assert union_all(u, s) == p


def test_union_of_atom():
    u = Universe(["a"])
    assert union_all(u, 0) == 0


def test_union_matches_model(shallow_universe):
    u = shallow_universe
    for sid in list(u.ids()):
        assert rep_of(u, union_all(u, sid)) == model_union(rep_of(u, sid))


def test_binary_union_idempotent():
    u = Universe(["u", "v"])
    p = pair(u, 0, 1)
    assert binary_union(u, p, p) == p


def test_binary_union_of_atoms():
    u = Universe(["u", "v"])
    assert binary_union(u, 0, 1) == pair(u, 0, 1)


def test_binary_union_successor():
    u = Universe(["u", "v"])
    p = pair(u, 0, 1)
    s = binary_union(u, p, singleton(u, p))
    assert u.members(s) == (0, 1, p)


def test_powerset_of_atom_is_atom():
    u = Universe(["a"])
    assert powerset(u, 0) == 0


def test_powerset_of_singleton():
    u = Universe(["u", "v"])
    p = pair(u, 0, 1)
    box = singleton(u, p)
    assert powerset(u, box) == singleton(u, box)


def test_powerset_of_pair_has_three_members():
    u = Universe(["u", "v"])
    p = pair(u, 0, 1)
    ps = powerset(u, p)
    assert u.cardinality(ps) == 3
    assert set(u.members(ps)) == {0, 1, p}


def test_powerset_matches_model(shallow_universe):
    u = shallow_universe
    for sid in list(u.ids()):
        assert rep_of(u, powerset(u, sid)) == model_powerset(rep_of(u, sid))


def test_powerset_contains_the_set(shallow_universe):
    u = shallow_universe
    for sid in list(u.ids()):
        assert u.is_member(sid, powerset(u, sid))


def test_powerset_monotone(shallow_universe):
    u = shallow_universe
    ids = list(u.ids())
    ps = {sid: powerset(u, sid) for sid in ids}
    for s in ids:
        for t in ids:
            if u.is_subset(s, t):
                assert u.is_subset(ps[s], ps[t])


def test_powerset_cap():
    u = Universe(["a", "b", "c"], max_sets=10)
    s = u.intern([0, 1, 2])
    top = u.intern([0, 1, 2, s])
    with pytest.raises(CapExceeded):
        powerset(u, top)


def _powerset_outcome(construct, universe, s):
    """The id ``construct`` returns, or its cap error, and the sets it leaves."""
    try:
        result = construct(universe, s)
    except CapExceeded as exc:
        result = ("cap", exc.required, exc.max_sets)
    return result, universe.member_sets


@settings(max_examples=100, deadline=None)
@given(small_universes(), st.data())
def test_powerset_matches_the_mask_by_mask_reference(universe, data):
    # Grown universes may hold self-membered composites; a drawn cap may
    # stop the subsets up front or part way through.
    universe.max_sets = data.draw(st.one_of(
        st.none(), st.integers(1, len(universe) + 3)))
    # Counted from the end, so draws favour the grown sets.
    s = len(universe) - 1 - data.draw(st.integers(0, len(universe) - 1))
    twin = copy.deepcopy(universe)
    assert _powerset_outcome(powerset, universe, s) == _powerset_outcome(
        reference_powerset, twin, s)


def test_cantor_failure_for_atoms_and_singletons(default_universe):
    u = default_universe
    for sid in list(u.ids()):
        if u.is_individual(sid):
            assert u.cardinality(powerset(u, sid)) == u.cardinality(sid) == 1
        else:
            box = singleton(u, sid)
            assert u.cardinality(powerset(u, box)) == u.cardinality(box) == 1


def test_union_preserves_transitivity(default_universe):
    u = default_universe
    for sid in list(u.ids()):
        if u.is_transitive(sid):
            assert u.is_transitive(union_all(u, sid))
            assert u.is_transitive(binary_union(u, sid, singleton(u, sid)))


# --- specify -----------------------------------------------------------------

def test_specify_selects_non_individuals():
    u = Universe(["u", "v"])
    p = pair(u, 0, 1)
    s = u.intern([0, 1, p])
    out = specify(u, s, parse("x notin x"), "x")
    assert isinstance(out, Specified)
    v = out.set_id
    assert u.members(v) == (p,)
    assert u.is_subset(v, s)
    assert not u.is_member(v, s)


def test_specify_returns_the_set_itself_when_every_member_qualifies():
    u = Universe(["u", "v"], max_sets=4)
    p = pair(u, 0, 1)
    s = u.intern([p])
    assert specify(u, s, parse("x notin x"), "x") == Specified(s)
    assert specify(u, p, parse("x in x"), "x") == Specified(p)
    assert len(u) == 4


def test_compiled_criteria_are_shared():
    crit = parse("x notin x")
    assert compile_criterion(crit, "x") is compile_criterion(parse("x notin x"), "x")
    with pytest.raises(WrongArity):
        compile_criterion(crit, "y")


def test_specify_no_witness_on_set_of_atoms():
    u = Universe(["u", "v"])
    p = pair(u, 0, 1)
    out = specify(u, p, parse("x notin x"), "x")
    assert out == NoSet(NoSetReason.NO_WITNESS)


def test_specify_contradictory_criterion(default_universe):
    u = default_universe
    crit = parse("x in x & x notin x")
    for sid in (0, 1, 6):
        assert specify(u, sid, crit, "x") == NoSet(NoSetReason.CONTRADICTORY_CRITERION)


def test_specify_wrong_arity(default_universe):
    with pytest.raises(WrongArity):
        specify(default_universe, 0, parse("x in y"), "x")


def test_specify_refuses_an_id_the_universe_lacks():
    # -1 would index the member masks from the end.
    u = Universe(["u", "v"])
    pair(u, 0, 1)
    for bad in (-1, 3, "x"):
        with pytest.raises(UnknownId, match="is not a set id of this universe"):
            specify(u, bad, parse("x notin x"), "x")
    assert len(u) == 3


def test_specify_soundness_exhaustive(shallow_universe):
    u = shallow_universe
    crit = parse("x notin x")
    for sid in list(u.ids()):
        expected = [m for m in u.members(sid) if not u.is_member(m, m)]
        out = specify(u, sid, crit, "x")
        if expected:
            assert isinstance(out, Specified)
            assert list(u.members(out.set_id)) == expected
        else:
            assert out == NoSet(NoSetReason.NO_WITNESS)


# --- compiled criteria against per-member references --------------------------

_crit_names = st.sampled_from(["x", "y"])
_crit_bodies = st.recursive(
    st.builds(Member, _crit_names, _crit_names) | st.builds(Equal, _crit_names, _crit_names),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(Iff, kids, kids),
        st.builds(Forall, _crit_names, kids),
        st.builds(Exists, _crit_names, kids),
    ),
    max_leaves=6,
)


@st.composite
def one_variable_criteria(draw):
    """A formula whose only free variable is ``x``."""
    anchor = draw(
        st.builds(Member, st.just("x"), _crit_names)
        | st.builds(Member, _crit_names, st.just("x"))
        | st.builds(Equal, st.just("x"), _crit_names)
    )
    joined = draw(st.sampled_from([And, Or, Iff]))(draw(_crit_bodies), anchor)
    if "y" in free_vars(joined):
        joined = draw(st.sampled_from([Forall, Exists]))("y", joined)
    return joined


# Criteria built only from ``x in x`` and ``x = x``: these compile to mask
# algebra alone, so ``x in x`` is read from the self-membered ids' mask.
quantifier_free_criteria = st.recursive(
    st.just(Member("x", "x")) | st.just(Equal("x", "x")),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(Iff, kids, kids),
    ),
    max_leaves=6,
)


def _mixed_universe():
    # Atoms, non-individuals, and sets holding both, so every specify
    # outcome can occur; the last set is the only one holding {a,{a,b}},
    # so a quantifier that missed it would change some verdicts.
    u = Universe(["a", "b"])
    p = u.intern([0, 1])
    q = u.intern([0, p])
    u.intern([p])
    u.intern([0, 1, p])
    u.intern([1, q])
    return u


@settings(max_examples=80, deadline=None)
@given(one_variable_criteria() | quantifier_free_criteria)
def test_specify_and_classify_match_per_member_references(crit):
    u = _mixed_universe()
    n = len(u)
    assert free_vars(crit) == {"x"}
    truths = [evaluate(u, crit, {"x": i}) for i in range(n)]
    assert truths == [reference_eval(u, crit, {"x": i}) for i in range(n)]

    if all(truths):
        expected_class = Classification.TAUTOLOGICAL
    elif any(truths):
        expected_class = Classification.CONTINGENT
    else:
        expected_class = Classification.CONTRADICTORY
    assert classify(u, crit, "x") is expected_class

    for s in range(n):
        # specify may intern its result, so each set gets a fresh universe.
        fresh = _mixed_universe()
        chosen = [m for m in fresh.members(s) if evaluate(fresh, crit, {"x": m})]
        out = specify(fresh, s, crit, "x")
        if chosen:
            assert out == Specified(fresh.intern(chosen)), s
        elif expected_class is Classification.CONTRADICTORY:
            assert out == NoSet(NoSetReason.CONTRADICTORY_CRITERION), s
        else:
            assert out == NoSet(NoSetReason.NO_WITNESS), s


def _reference_specify(universe, s, crit):
    """What ``specify`` should return at the universe's present size, and
    the size after it: one ``reference_eval`` per member of ``s``."""
    n = len(universe)
    mem = universe.member_set(s)
    chosen = frozenset(m for m in mem if reference_eval(universe, crit, {"x": m}))
    if chosen == mem:
        return Specified(s), n
    if chosen:
        found = next((i for i in range(n) if universe.member_set(i) == chosen), None)
        return (Specified(n), n + 1) if found is None else (Specified(found), n)
    if any(reference_eval(universe, crit, {"x": i}) for i in range(n)):
        return NoSet(NoSetReason.NO_WITNESS), n
    return NoSet(NoSetReason.CONTRADICTORY_CRITERION), n


@settings(max_examples=60, deadline=None)
@given(small_universes(), one_variable_criteria() | quantifier_free_criteria)
def test_specify_in_sequence_matches_the_reference_as_the_universe_grows(universe, crit):
    # One universe for every call, so a call sees every set that the calls
    # before it interned, and quantifiers range over the grown universe.
    for s in list(universe.ids()):
        expected = _reference_specify(universe, s, crit)
        assert (specify(universe, s, crit, "x"), len(universe)) == expected, s


def test_specify_re_evaluates_a_quantified_criterion_once_the_universe_grows():
    # "{x} exists": true of atoms, and of p = {a,b} only once {p} is interned.
    crit = parse("exists y. ((x in y) & (forall z. ((z in y) -> (z = x))))")
    u = Universe(["a", "b"])
    p = pair(u, 0, 1)
    s = u.intern([0, p])
    assert specify(u, s, crit, "x") == Specified(0)
    singleton(u, p)
    assert specify(u, s, crit, "x") == Specified(s)


def test_specify_takes_no_verdict_another_thread_has_not_stored(monkeypatch):
    # One thread stops inside its selector call on s; a second selection
    # from the same set, meanwhile, must reach its verdict by itself, taking
    # nothing from the call that is still running.
    u = Universe(["a", "b"])
    p = pair(u, 0, 1)
    s = u.intern([0, p])
    box = singleton(u, p)
    crit = parse("x notin x")
    plain = compile_criterion(crit, "x")
    inside, resume = threading.Event(), threading.Event()

    def paused(sets, n, individuals, mask):
        # Should the two calls share any state, the second's selection
        # could stand in for the first's, which is still running.
        if threading.current_thread() is first:
            inside.set()
            resume.wait(timeout=60)
        return plain(sets, n, individuals, mask)

    monkeypatch.setattr(constructors, "compile_criterion", lambda f, var: paused)
    results = {}
    first = threading.Thread(target=lambda: results.update(first=specify(u, s, crit, "x")))
    first.start()
    assert inside.wait(timeout=60)
    results["second"] = specify(u, s, crit, "x")
    resume.set()
    first.join(timeout=60)
    assert not first.is_alive()
    assert results == {"first": Specified(box), "second": Specified(box)}
