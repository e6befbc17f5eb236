import pytest

from quineset import (
    BuildConfig,
    NumberSequence,
    Status,
    Universe,
    build,
    check_peano,
    check_sequences_distinct,
    check_trichotomy,
    pair,
    sequence,
    successor,
    union_all,
    witness_reproduces,
)
from quineset.errors import AtomsEqual, MalformedSequence, NotAtom


@pytest.fixture
def trio():
    return build(BuildConfig(("o", "a", "e"), depth=1))[0]


def test_successor_of_pair(trio):
    base = pair(trio, 0, 1)
    succ = successor(trio, base)
    assert trio.members(succ) == (0, 1, base)


def test_successor_fixed_point_on_atoms(trio):
    for atom in trio.atoms:
        assert successor(trio, atom) == atom


def test_successor_twice(trio):
    base = pair(trio, 0, 1)
    second = successor(trio, successor(trio, base))
    assert trio.cardinality(second) == 4
    assert trio.is_member(base, second)
    assert trio.is_member(successor(trio, base), second)


def test_successor_cardinality_grows(trio):
    chain = sequence(trio, 0, 1, 6)
    for k, element in enumerate(chain.elements):
        assert trio.cardinality(element) == 2 + k


def test_sequence_first_elements(trio):
    chain = sequence(trio, 0, 1, 3)
    base = pair(trio, 0, 1)
    assert chain.elements[0] == base
    assert chain.elements[1] == successor(trio, base)
    assert chain.elements[2] == successor(trio, chain.elements[1])
    assert len(set(chain.elements)) == 3


def test_sequence_validates_arguments(trio):
    with pytest.raises(AtomsEqual):
        sequence(trio, 0, 0, 3)
    with pytest.raises(NotAtom):
        sequence(trio, 0, pair(trio, 0, 1), 3)
    with pytest.raises(ValueError):
        sequence(trio, 0, 1, 0)


def test_check_peano_passes(trio):
    for pair_ids in ((0, 1), (0, 2)):
        chain = sequence(trio, *pair_ids, 10)
        report = check_peano(trio, chain)
        assert all(r.status is Status.HOLDS for r in report.results), report


def test_check_peano_single_element(trio):
    chain = sequence(trio, 0, 1, 1)
    report = check_peano(trio, chain)
    assert all(r.status is Status.HOLDS for r in report.results)


def test_check_peano_duplicate_detected(trio):
    chain = sequence(trio, 0, 1, 4)
    tampered = NumberSequence(
        chain.base, chain.elements[:2] + (chain.elements[1],) + chain.elements[2:]
    )
    report = check_peano(trio, tampered)
    by_name = {r.name: r for r in report.results}
    failing = by_name["elements-distinct"]
    assert failing.status is Status.FAILS
    assert witness_reproduces(trio, failing.witness)


def test_check_peano_base_that_is_a_successor(trio):
    chain = sequence(trio, 0, 1, 3)
    tampered = NumberSequence(chain.elements[1], chain.elements)
    size = len(trio)
    by_name = {r.name: r for r in check_peano(trio, tampered).results}
    assert len(trio) == size
    for name in ("base-in-sequence", "base-not-successor"):
        assert by_name[name].status is Status.FAILS
        assert witness_reproduces(trio, by_name[name].witness)
    assert dict(by_name["base-not-successor"].witness.bindings) == {
        "b": chain.elements[1], "e": chain.elements[0],
    }


def _skip_one(trio, e):
    # e0, e2, e3: the step e0 -> e2 is not a successor, so union(e2) = e1 != e0.
    return NumberSequence(e[0], (e[0], e[2], e[3])), len(trio)


def _foreign_base(trio, e):
    other = pair(trio, 0, 2)
    return NumberSequence(other, e[:4]), len(trio)


def _successor_as_base(trio, e):
    return NumberSequence(e[1], (e[1], e[0])), len(trio)


def _repeated(trio, e):
    return NumberSequence(e[0], (e[0], e[1], e[1], e[2])), len(trio)


def _not_transitive(trio, e):
    x = trio.intern([e[0]])  # {{o,a}}: its member {o,a} is not a subset of it
    return NumberSequence(x, (x,)), len(trio)


# (tamper, law, scanned, bindings as indexes into e or names, formula)
TAMPERED_CHAINS = [
    (_foreign_base, "base-in-sequence", 1, {"b": "pair02", "e": 0}, "b = e"),
    (_skip_one, "successor-chain", 2, {"e": 0, "y": 2},
     "forall w. ((w in y) <-> ((w in e) | (w = e)))"),
    (_successor_as_base, "base-not-successor", 2, {"e": 0, "b": 1},
     "!(forall w. ((w in b) <-> ((w in e) | (w = e))))"),
    (_repeated, "elements-distinct", 6, {"x": 1, "y": 1}, "x != y"),
    (_not_transitive, "transitive-chain", 1, {"s": "x"},
     "(forall u. ((u in s) -> (forall w. ((w in u) -> (w in s))))) & "
     "(forall u. ((u in s) -> (forall w. ((w in u) -> "
     "(forall z. ((z in w) -> (z in u)))))))"),
    (_skip_one, "union-inverse", 2, {"s": 2, "t": 0},
     "forall x. ((exists m. ((m in s) & (x in m))) <-> (x in t))"),
]


@pytest.mark.parametrize(
    "tamper,law,scanned,bindings,formula", TAMPERED_CHAINS, ids=[t[1] for t in TAMPERED_CHAINS]
)
def test_each_peano_law_fails_on_its_tampered_chain(trio, tamper, law, scanned, bindings, formula):
    e = sequence(trio, 0, 1, 5).elements
    tampered, size = tamper(trio, e)
    names = {"pair02": pair(trio, 0, 2), "x": tampered.base}
    expected = {k: names[v] if isinstance(v, str) else e[v] for k, v in bindings.items()}
    report = check_peano(trio, tampered)
    assert len(trio) == size
    (result,) = [r for r in report.results if r.name == law]
    assert result.status is Status.FAILS
    assert result.scanned == scanned
    assert dict(result.witness.bindings) == expected
    assert result.witness.formula == formula
    assert result.witness.domain == size
    assert witness_reproduces(trio, result.witness)


def test_check_peano_malformed(trio):
    with pytest.raises(MalformedSequence):
        check_peano(trio, NumberSequence(0, ()))
    with pytest.raises(MalformedSequence):
        check_peano(trio, NumberSequence(0, (99999,)))


def test_union_inverse_property(trio):
    chain = sequence(trio, 0, 2, 8)
    for prev, cur in zip(chain.elements, chain.elements[1:]):
        assert union_all(trio, cur) == prev


def test_trichotomy_on_chain(trio):
    chain = sequence(trio, 0, 1, 6)
    for i, x in enumerate(chain.elements):
        for j, y in enumerate(chain.elements):
            holds = [trio.is_member(x, y), x == y, trio.is_member(y, x)]
            assert sum(holds) == 1
            if i < j:
                assert trio.is_member(x, y)


def test_chain_counts_as_trichotomy_instances(trio):
    chain = sequence(trio, 0, 1, 4)
    result = check_trichotomy(trio, 0, 1)
    assert result.status is Status.HOLDS
    assert result.scanned >= len(chain.elements)


def test_sequences_with_shared_atom_are_disjoint(trio):
    first = sequence(trio, 0, 1, 10)
    second = sequence(trio, 0, 2, 10)
    result = check_sequences_distinct(trio, first, second)
    assert result.status is Status.HOLDS
    assert result.scanned == 100


def test_sequences_distinct_detects_overlap(trio):
    first = sequence(trio, 0, 1, 3)
    assert check_sequences_distinct(trio, first, first).status is Status.FAILS


def test_elements_transitive_non_individual(trio):
    chain = sequence(trio, 1, 2, 6)
    for element in chain.elements:
        assert trio.is_transitive(element)
        assert not trio.is_individual(element)


def test_peano_on_plain_universe():
    universe = Universe(["o", "a"])
    chain = sequence(universe, 0, 1, 5)
    report = check_peano(universe, chain)
    assert all(r.status is Status.HOLDS for r in report.results)
