import pytest
from hypothesis import given, settings, strategies as st

from quineset import (
    BuildConfig,
    Universe,
    build,
    dumps_universe,
    format_set_literal,
    ids_of,
    loads_universe,
    pair,
    parse,
    parse_set_literal,
    powerset,
    singleton,
    specify,
    successor,
    union_all,
)
from quineset.core import mask_of
from quineset.errors import (
    CapExceeded,
    DuplicateAtomName,
    EmptyAtomName,
    EmptySetForbidden,
    InvalidAtomName,
    UnknownAtom,
    UnknownId,
    UniverseFormatError,
    WorkbenchError,
)

from support import inject_self_membered, model_members, rep_of, small_universes


def test_new_universe_atoms():
    u = Universe(["o", "a", "e"])
    assert len(u) == 3
    assert u.atom_names == ("o", "a", "e")
    for atom in u.atoms:
        assert u.is_member(atom, atom)


def test_single_atom_self_membership():
    u = Universe(["u"])
    assert u.is_member(u.atom_id("u"), u.atom_id("u"))


def test_duplicate_atom_name_rejected():
    with pytest.raises(DuplicateAtomName):
        Universe(["u", "u"])


def test_empty_atom_name_rejected():
    with pytest.raises(EmptyAtomName):
        Universe(["u", ""])


def test_invalid_atom_names_rejected():
    with pytest.raises(InvalidAtomName):
        Universe(["2bad"])
    with pytest.raises(InvalidAtomName):
        Universe(["forall"])


def test_universe_needs_an_atom():
    with pytest.raises(ValueError):
        Universe([])


def test_unknown_atom_name():
    u = Universe(["u"])
    with pytest.raises(UnknownAtom):
        u.atom_id("v")


def test_intern_singleton_of_atom_collapses():
    u = Universe(["a"])
    a = u.atom_id("a")
    assert u.intern([a]) == a


def test_intern_deduplicates():
    u = Universe(["u", "v"])
    s = u.intern([0, 1])
    assert u.intern([s, s]) == u.intern([s])


def test_intern_empty_forbidden():
    u = Universe(["u"])
    with pytest.raises(EmptySetForbidden):
        u.intern([])


def test_intern_unknown_id():
    u = Universe(["u"])
    with pytest.raises(UnknownId):
        u.intern([5])
    with pytest.raises(UnknownId):
        u.members(5)


def test_intern_is_canonical():
    u = Universe(["u", "v"])
    assert u.intern([0, 1]) == u.intern([1, 0]) == u.intern([1, 0, 0])


def test_lookup_finds_interned_sets_and_never_interns():
    u = Universe(["u", "v"])
    p = u.intern([0, 1])
    assert u.lookup_mask(0b11) == p
    assert u.lookup_mask(0b1) == 0
    assert u.lookup_mask(1 | 1 << p) is None
    assert len(u) == 3


def test_is_atom():
    u = Universe(["u", "v"])
    p = u.intern([1, 0])
    assert u.is_atom(0) and u.is_atom(1) and not u.is_atom(p)
    assert u.members(p) == (0, 1)
    with pytest.raises(UnknownId):
        u.is_atom(p + 1)
    with pytest.raises(UnknownId):
        u.is_atom(-1)


def test_members_of_atom_is_itself():
    u = Universe(["a"])
    assert u.members(0) == (0,)


def test_members_sorted_composite():
    u = Universe(["u", "v"])
    p = u.intern([0, 1])
    s = u.intern([0, p])
    assert u.members(p) == (0, 1)
    assert u.members(s) == (0, p)


def test_is_member_examples():
    u = Universe(["u", "v"])
    p = u.intern([0, 1])
    assert u.is_member(0, 0)
    assert not u.is_member(p, p)
    assert u.is_member(0, p)


def test_no_composite_self_membership_exhaustive(default_universe):
    # every self-membered id in a legally built universe is an atom
    for sid in default_universe.ids():
        if default_universe.is_member(sid, sid):
            assert default_universe.is_atom(sid)


def test_is_individual():
    u = Universe(["u", "v"])
    p = u.intern([0, 1])
    box = u.intern([p])
    assert u.is_individual(0)
    assert not u.is_individual(p)
    assert not u.is_individual(box)


def test_is_subset_examples():
    u = Universe(["a", "b"])
    p = u.intern([0, 1])
    s = u.intern([0, 1, p])
    odd = u.intern([0, p])
    assert u.is_subset(0, p)
    assert u.is_subset(p, s)
    # definition scan oracle: some member of odd is not a member of p
    assert not all(m in u.member_set(p) for m in u.members(odd))
    assert not u.is_subset(odd, p)


def test_is_transitive_examples():
    u = Universe(["u", "v"])
    p = u.intern([0, 1])
    odd = u.intern([0, p])
    assert u.is_transitive(0)
    assert u.is_transitive(p)
    assert not u.is_transitive(odd)


def test_transitivity_agrees_with_union_subset(shallow_universe):
    u = shallow_universe
    for sid in list(u.ids()):
        assert u.is_transitive(sid) == u.is_subset(union_all(u, sid), sid)


def test_cardinality():
    u = Universe(["u", "v"])
    p = u.intern([0, 1])
    assert u.cardinality(0) == 1
    assert u.cardinality(p) == 2


def test_extensionality_exhaustive(default_universe):
    seen = {}
    for sid in default_universe.ids():
        ext = default_universe.member_set(sid)
        assert ext not in seen, (seen[ext], sid)
        seen[ext] = sid


def test_every_set_nonempty(default_universe):
    for sid in default_universe.ids():
        assert default_universe.members(sid)


def test_collapse_idempotence():
    u = Universe(["a", "b"])
    for atom in u.atoms:
        assert u.intern([u.intern([atom])]) == atom


def test_atoms_contain_nothing_else(default_universe):
    u = default_universe
    for atom in u.atoms:
        for t in u.ids():
            if t != atom:
                assert not u.is_member(t, atom)


def test_model_agreement_on_membership(shallow_universe):
    # cross-check membership against the frozenset model
    u = shallow_universe
    reps = {sid: rep_of(u, sid) for sid in u.ids()}
    for s in u.ids():
        for x in u.ids():
            assert u.is_member(x, s) == (reps[x] in model_members(reps[s]))


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=10), st.randoms())
def test_intern_order_independent(ids, rng):
    u = Universe(["u", "v"])
    for mask in range(1, 8):
        u.intern([i for i in range(3) if mask >> i & 1])
    left = u.intern(ids)
    shuffled = list(ids) + [ids[0]]
    rng.shuffle(shuffled)
    assert u.intern(shuffled) == left


def test_intern_names_the_first_bad_member():
    u = Universe(["u", "v"])
    with pytest.raises(UnknownId, match=r"^'x' is not a set id of this universe$"):
        u.intern(["x"])
    with pytest.raises(UnknownId, match=r"^1\.5 is not a set id of this universe$"):
        u.intern([0, 1.5])
    with pytest.raises(UnknownId, match=r"^-1 is not a set id of this universe$"):
        u.intern([-1, 0])
    with pytest.raises(UnknownId, match=r"^9 is not a set id of this universe$"):
        u.intern([0, 1, 9])
    with pytest.raises(UnknownId, match=r"^2 is not a set id of this universe$"):
        u.intern([0, 2])
    assert len(u) == 2


@settings(max_examples=100, deadline=None)
@given(small_universes())
def test_one_member_store(universe):
    # Each id's frozenset finds the id again, the sorted view is that
    # frozenset in order, and atoms are exactly the ids below the atom count.
    for i in universe.ids():
        assert universe.lookup_mask(mask_of(universe.member_set(i))) == i
        assert universe.members(i) == tuple(sorted(universe.member_set(i)))
        assert universe.is_atom(i) == (i < len(universe.atoms))
    _assert_round_trip(universe)


def _assert_round_trip(universe):
    text = dumps_universe(universe)
    injected = any(
        i in universe.member_set(i) for i in universe.ids() if not universe.is_atom(i)
    )
    if injected:
        # A self-membered composite cannot be interned, so its file does not load.
        with pytest.raises(UniverseFormatError):
            loads_universe(text)
    else:
        assert dumps_universe(loads_universe(text)) == text


# --- member masks ------------------------------------------------------------------

_masks = (
    st.integers(0, 300).flatmap(lambda width: st.integers(0, (1 << width) - 1))
    | st.sets(st.integers(0, 299)).map(lambda ids: sum(1 << i for i in ids))
)


@settings(max_examples=300)
@given(_masks)
def test_ids_of_lists_the_set_bits_in_order(mask):
    assert ids_of(mask) == tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_intern_mask_takes_a_member_mask():
    u = Universe(["u", "v"])
    pair = u.intern_mask(0b11)
    assert (pair, u.member_set(pair)) == (2, {0, 1})
    assert u.intern_mask(0b11) == pair
    assert u.member_set(u.intern_mask(1 << pair)) == {pair}
    size = len(u)
    # No bits, a negative int, a list of ids and the bit of an id not yet
    # interned are not member masks of this universe.
    for mask in [0, -3, [0, 1], 1 << size]:
        with pytest.raises(WorkbenchError):
            u.intern_mask(mask)
    assert len(u) == size


def test_a_long_nested_singleton_file_keeps_masks_as_wide_as_their_ids():
    # Each record after the first is the singleton of the set before it, so
    # set i's mask is 1 << (i - 1): the masks of such a file hold bits with
    # the square of its length (README, "Universe files").
    n = 3000
    text = "quineset-universe 1\natoms u,v\n0,1\n" + "".join(f"{i}\n" for i in range(2, n - 1))
    u = loads_universe(text)
    assert len(u) == n
    assert all(u.member_sets[i] == 1 << (i - 1) for i in range(3, n))
    # Bit lengths 1 and 2 for the atoms and 2 for {u, v}, then 3, 4, ..., n - 1.
    assert sum(ms.bit_length() for ms in u.member_sets) == n * (n - 1) // 2 + 2
    assert u.members(n - 1) == (n - 2,)
    assert u.lookup_mask(1 << n - 2) == n - 1
    assert not u.is_transitive(n - 1)
    assert dumps_universe(u) == text


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_masks_past_16_bits_read_and_round_trip(data):
    # Five atoms at depth 1 give 31 sets. Each set added here has a member
    # past id 15, so its mask is wider than 16 bits.
    universe, _ = build(BuildConfig(("a", "b", "c", "d", "e"), 1))
    expected = {}
    for _ in range(data.draw(st.integers(1, 12))):
        n = len(universe)
        high = data.draw(st.integers(16, n - 1))
        kind = data.draw(st.sampled_from(["set", "set", "successor", "inject"]))
        if kind == "set":
            members = data.draw(st.sets(st.integers(0, n - 1), max_size=4)) | {high}
            expected[universe.intern(members)] = frozenset(members)
        elif kind == "successor":
            members = universe.member_set(high) | {high}
            expected[successor(universe, high)] = members
        else:
            expected[inject_self_membered(universe, high)] = frozenset((high, n))
    assert max(universe.member_sets) >= 1 << 16
    for sid, members in expected.items():
        assert universe.member_set(sid) == members
    for i in universe.ids():
        by_bit = frozenset(x for x in universe.ids() if universe.is_member(x, i))
        assert universe.member_set(i) == frozenset(universe.members(i)) == by_bit
        assert universe.members(i) == tuple(sorted(by_bit))
        assert universe.lookup_mask(mask_of(by_bit)) == i
    _assert_round_trip(universe)
    # Swapping two ids of a wide record, or repeating one, is reported as out
    # of order on that record's line. Records load up to the first
    # self-membered composite, whose own id is unknown on its line.
    injected = [i for i in universe.ids() if not universe.is_atom(i) and universe.is_member(i, i)]
    loadable = range(len(universe.atoms), injected[0] if injected else len(universe))
    wide = [i for i in loadable if universe.member_sets[i] >= 1 << 16]
    if wide:
        lines = dumps_universe(universe).split("\n")
        # The file's last line is empty, and the record of set i comes
        # i - len(universe) lines before it.
        row = len(lines) - 1 - len(universe) + data.draw(st.sampled_from(wide))
        ids = lines[row].split(",")
        if len(ids) > 1 and data.draw(st.booleans()):
            i, j = sorted(data.draw(st.sets(st.integers(0, len(ids) - 1), min_size=2, max_size=2)))
            ids[i], ids[j] = ids[j], ids[i]
        else:
            ids.insert(data.draw(st.integers(0, len(ids))), data.draw(st.sampled_from(ids)))
        lines[row] = ",".join(ids)
        with pytest.raises(UniverseFormatError) as err:
            loads_universe("\n".join(lines))
        assert str(err.value) == (
            f"line {row + 1}: member ids are not strictly increasing: {lines[row]!r}"
        )


# --- memoised transitivity ------------------------------------------------------

def _transitive_by_definition(u, s):
    ext = u.member_set(s)
    return all(u.member_set(m) <= ext for m in ext)


def _assert_transitivity_matches(u):
    column = u.transitivity()
    assert len(column) == len(u)
    for s in u.ids():
        expected = _transitive_by_definition(u, s)
        assert column[s] == expected, s
        assert u.is_transitive(s) == expected, s


def test_transitivity_covers_sets_interned_after_the_column(shallow_universe):
    u = shallow_universe
    early = u.transitivity()
    assert len(early) == len(u) == 7
    for mask in range(1, 1 << 7):
        u.intern([i for i in range(7) if mask >> i & 1])
    newest = union_all(u, len(u) - 1)
    # is_transitive on a new id extends the column before anything else asks.
    assert u.is_transitive(newest) == _transitive_by_definition(u, newest)
    _assert_transitivity_matches(u)
    # The column is replaced, never extended in place.
    assert len(early) == 7


def test_transitivity_covers_injected_self_membered_sets(default_universe):
    u = default_universe
    u.transitivity()
    inject_self_membered(u, 3)
    _assert_transitivity_matches(u)
    fresh = Universe(["u", "v"])
    fresh.intern([0, 1])
    inject_self_membered(fresh, 2)
    _assert_transitivity_matches(fresh)


# --- kept individuals ------------------------------------------------------------

def _individuals_by_definition(u):
    return {i for i in u.ids() if i in u.member_set(i)}


def _assert_individuals_match(u):
    # The mask's ids, in increasing order, are exactly the self-membered ids.
    assert ids_of(u.individuals()) == tuple(sorted(_individuals_by_definition(u)))


@settings(max_examples=60, deadline=None)
@given(small_universes(), st.data())
def test_individuals_are_the_self_membered_ids(u, data):
    _assert_individuals_match(u)
    n = len(u)
    for members in data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                                      max_size=4)):
        u.intern(members)
    _assert_individuals_match(u)
    injected = inject_self_membered(u, data.draw(st.integers(0, len(u) - 1)))
    assert injected in ids_of(u.individuals())
    _assert_individuals_match(u)


_WRITES = ["intern", "intern_subsets", "intern_mask", "pair", "singleton", "union_all",
           "powerset", "specify", "successor", "literal", "round_trip"]
_CRITERIA = [parse(text) for text in (
    "x in x", "x notin x", "exists y. (x in y)", "forall y. (y notin x)", "x in x & x notin x",
)]


def _write(universe, kind, data):
    """Apply one production write of ``kind``; ids are drawn up to ``len(universe)``,
    one past the last, so that a write missing its id check would make a set
    that holds its own id. Returns the universe, which a round trip replaces."""
    n = len(universe)
    sid = data.draw(st.integers(0, n - 1))
    ids = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=4))
    if kind == "intern":
        universe.intern(ids)
    elif kind == "intern_subsets":
        universe.intern_subsets(ids[:3])
    elif kind == "intern_mask":
        universe.intern_mask(mask_of(ids))
    elif kind == "pair":
        pair(universe, ids[0], ids[-1])
    elif kind == "singleton":
        singleton(universe, ids[0])
    elif kind == "union_all":
        union_all(universe, sid)
    elif kind == "powerset":
        powerset(universe, sid)
    elif kind == "specify":
        specify(universe, sid, data.draw(st.sampled_from(_CRITERIA)), "x")
    elif kind == "successor":
        successor(universe, ids[0])
    elif kind == "literal":
        known = [i for i in ids if i < n] or [sid]
        literal = ",".join(format_set_literal(universe, i) for i in known)
        parse_set_literal(universe, "{" + literal + "}")
    else:
        universe = loads_universe(dumps_universe(universe))
    return universe


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_no_write_makes_a_self_membered_composite(data):
    # Random production writes to a small built universe under a small cap:
    # each may intern, or refuse with CapExceeded or UnknownId, but no
    # composite ever holds its own id, so the individuals stay the atoms.
    atoms = ("a", "b", "c")[: data.draw(st.integers(1, 3))]
    depth = data.draw(st.integers(0, 2 if len(atoms) <= 2 else 1))
    universe, _ = build(BuildConfig(atoms, depth, data.draw(st.integers(7, 40))))
    atom_mask = (1 << len(atoms)) - 1
    for kind in data.draw(st.lists(st.sampled_from(_WRITES), max_size=12)):
        try:
            universe = _write(universe, kind, data)
        except (CapExceeded, UnknownId):
            pass
        assert universe.individuals() == atom_mask
        assert not any(ms >> i & 1 for i, ms in enumerate(universe.member_sets) if i >= len(atoms))


def test_is_transitive_unknown_id():
    u = Universe(["u"])
    with pytest.raises(UnknownId):
        u.is_transitive(1)
    with pytest.raises(UnknownId):
        u.is_transitive(-1)
