import copy
from functools import reduce
from itertools import filterfalse
from operator import or_
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

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
from quineset import core
from quineset.core import absent_masks, mask_of
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

from support import (
    _intern_masks,
    assert_lookups_agree,
    enumerated_index,
    inject_self_membered,
    lowest_bit_ids,
    model_members,
    rep_of,
    small_universes,
    written_universes,
)


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
    # A non-int is named, never compared with the ints beside it.
    for members in (["x"], [0, "x"], ("x", 0)):
        with pytest.raises(UnknownId, match=r"^'x' is not a set id of this universe$"):
            u.intern(members)
    with pytest.raises(UnknownId, match=r"^'x' is not a set id of this universe$"):
        powerset(u, "x")
    with pytest.raises(UnknownId, match=r"^'x' is not a set id of this universe$"):
        pair(u, 0, "x")
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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0, 1, 15, 16, 17, 31, 32, 33, 64, 65, 1000, 20000])
       | st.integers(0, 20000),
       st.sampled_from([0, 1, 2, 31, 32, 33, 64, 128, 256, 512, 1024]),
       st.integers(0, 2**32))
@example(16, 1024, 0)
@example(17, 1024, 0)
@example(65536, 1024, 0)
@example(65536, 512, 0)
@example(65536, 1, 0)
def test_ids_of_matches_the_lowest_bit_loop(width, per_1024, seed):
    # ``per_1024`` of each 1024 bits set, at random places below ``width``:
    # none, one, either side of one bit in 32, half and all. Widths 16 and
    # 17 give masks on both sides of 2**16.
    digits = bytearray(b"0" * width)
    for i in Random(seed).sample(range(width), width * per_1024 // 1024):
        digits[i] = ord("1")
    mask = int(digits[::-1] or b"0", 2)
    assert ids_of(mask) == lowest_bit_ids(mask)


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


# --- kept transitivity and membership columns ----------------------------------

def _transitive_by_definition(u, s):
    ext = u.member_set(s)
    return all(u.member_set(m) <= ext for m in ext)


def _assert_transitivity_matches(u):
    transitive = u.transitive_ids()
    assert transitive.bit_length() <= len(u)
    for s in u.ids():
        expected = _transitive_by_definition(u, s)
        assert bool(transitive >> s & 1) == expected, s
        assert u.is_transitive(s) == expected, s


def _assert_columns_transpose(columns, member_sets):
    # Entry v holds id s exactly when set s has member v, one entry per bit
    # below the widest mask; written as one binary digit per set, the last first.
    assert len(columns) == max(member_sets).bit_length()
    for v, column in enumerate(columns):
        assert column == int("".join("1" if ms >> v & 1 else "0"
                                     for ms in reversed(member_sets)), 2), v


def _assert_columns_match(u):
    _assert_columns_transpose(u.member_columns(), u.member_sets)
    assert u.occurring_members() == reduce(or_, u.member_sets)
    _assert_transitivity_matches(u)


def test_transitivity_covers_sets_interned_after_the_column(shallow_universe):
    u = shallow_universe
    early = u.member_columns()
    assert ids_of(u.transitive_ids()) == (0, 1, 2, 6)
    assert len(u) == 7
    for mask in range(1, 1 << 7):
        u.intern([i for i in range(7) if mask >> i & 1])
    newest = union_all(u, len(u) - 1)
    # is_transitive on a new id works out new columns before anything else asks.
    assert u.is_transitive(newest) == _transitive_by_definition(u, newest)
    _assert_columns_match(u)
    # The kept columns are replaced, never extended in place.
    _assert_columns_transpose(early, u.member_sets[:7])


def test_transitivity_covers_injected_self_membered_sets(default_universe):
    u = default_universe
    u.transitive_ids()
    inject_self_membered(u, 3)
    _assert_columns_match(u)
    fresh = Universe(["u", "v"])
    fresh.intern([0, 1])
    inject_self_membered(fresh, 2)
    _assert_columns_match(fresh)


@pytest.mark.parametrize("atoms", [8, 16, 17], ids=["2**8", "2**16", "2**17"])
def test_columns_either_side_of_a_packed_width(atoms):
    # All the atoms make the widest mask 2**k - 1; the singleton of that set
    # makes it 2**k, one bit wider. Past 8 bits the high byte plane is read,
    # and past 16 bits the columns are read set by set.
    u = Universe([f"a{i}" for i in range(atoms)])
    everything = u.intern(range(atoms))
    assert u.member_mask(everything) == (1 << atoms) - 1
    _assert_columns_match(u)
    assert u.member_mask(u.intern([everything])) == 1 << atoms
    _assert_columns_match(u)


def test_columns_of_a_wide_chain():
    # 300 nested singletons over {u,v}: masks far past 16 bits, read set by set.
    u = Universe(["u", "v"])
    top = u.intern([0, 1])
    for _ in range(300):
        top = u.intern([top])
    assert u.member_sets[-1].bit_length() == len(u) - 1
    _assert_columns_match(u)
    assert ids_of(u.transitive_ids()) == (0, 1, 2)


# --- a build's columns in closed form --------------------------------------------

def _columns_spy(monkeypatch):
    """The length of each list of masks ``core._columns`` is called on, from now on."""
    lengths = []
    real = core._columns

    def spy(masks):
        lengths.append(len(masks))
        return real(masks)

    monkeypatch.setattr(core, "_columns", spy)
    return lengths


def _closed_form(atoms, domain):
    """A build's member masks: ``atoms`` atoms, then every other mask below ``2**domain``."""
    masks = [1 << i for i in range(atoms)]
    return masks + list(absent_masks(masks, (1 << domain) - 1))


def test_closed_columns_are_the_transpose_of_the_closed_form():
    for domain in range(1, 11):
        for atoms in range(1, domain + 1):
            expected = core._columns(_closed_form(atoms, domain))
            assert core._closed_columns(atoms, domain) == expected, (atoms, domain)


def _assert_closed_columns(monkeypatch, u):
    """``u`` is the closed form its last stage made: its kept columns come
    from its atom count and domain with no ``_columns`` call and match the
    reference, and one new set after it falls back to ``_columns`` over every set."""
    domain = u.closed_domain()
    assert domain is not None and u.member_sets == _closed_form(len(u.atoms), domain)
    lengths = _columns_spy(monkeypatch)
    _assert_columns_match(u)
    assert lengths == []
    u.max_sets = None
    n = len(u)
    # The singleton of set ``domain``, new unless the universe is one atom.
    if n > 1:
        assert u.intern_mask(1 << domain) == n
        _assert_columns_match(u)
        assert lengths == [n + 1]


@pytest.mark.parametrize("config", [
    *(BuildConfig(tuple("abcd"[:atoms]), depth) for atoms in range(1, 5) for depth in (1, 2)),
    BuildConfig(("u",), 5),
    BuildConfig(tuple(f"a{i}" for i in range(16)), 1),
    BuildConfig(("u", "v"), 3, max_sets=127),
    BuildConfig(("a", "b", "c", "d"), 2, max_sets=32767),
], ids=lambda c: f"{len(c.atom_names)}atoms-d{c.depth}-cap{c.max_sets}")
def test_a_built_universe_takes_its_last_stage_columns(monkeypatch, config):
    # Shapes of 1-4 atoms at depths 1 and 2, u at its fixed point (a stage
    # that appends nothing), 65535 sets, and builds that fill their cap.
    universe, _ = build(config)
    _assert_closed_columns(monkeypatch, universe)


@pytest.mark.parametrize("config", [BuildConfig(("u", "v"), 3), BuildConfig(("a", "b", "c"), 2)],
                         ids=["uv3", "abc2"])
def test_a_closed_form_load_takes_its_last_stage_columns(monkeypatch, config):
    loaded = loads_universe(dumps_universe(build(config)[0]))
    _assert_closed_columns(monkeypatch, loaded)


def test_a_universe_no_stage_left_takes_the_general_columns(monkeypatch):
    # The same sets as uv3, interned by the record loop's call: no stage.
    built, _ = build(BuildConfig(("u", "v"), 3))
    copied = Universe(["u", "v"])
    copied.intern_fresh(built.member_sets[2:])
    expected = built.member_columns()
    lengths = _columns_spy(monkeypatch)
    assert copied.member_columns() == expected
    assert lengths == [127]


# --- lookups of the closed prefix by arithmetic ------------------------------------

# Builds of at most 127 sets over 1-4 atoms, as (atoms, depth).
_SMALL_BUILDS = [BuildConfig(tuple("abcd"[:atoms]), depth) for atoms, depth in
                 [(1, 0), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (4, 1)]]


def _loaded_builds():
    """A build of :data:`_SMALL_BUILDS` as its file loads, in closed form or by the record loop."""
    return st.sampled_from(_SMALL_BUILDS).map(
        lambda config: loads_universe(dumps_universe(build(config)[0])))


def _assert_lookup_and_intern_agree(universe):
    """``lookup_mask`` is the first id of each mask, over every mask below
    ``2**(d + 1)`` and every member mask; a present mask interns to its id and
    stops ``intern_fresh``; a non-int, zero or negative mask is refused as
    before. The index holds the masks past the closed prefix and no other."""
    sets = universe.member_sets
    index = enumerated_index(sets)
    domain = universe._closed
    d = max(domain, len(sets).bit_length())
    for mask in [*range(1 << d + 1), *sets, -1, -(1 << d), True, "1", None, 1.5, (1,)]:
        assert universe.lookup_mask(mask) == index.get(mask), mask
    assert universe._index == {ms: i for ms, i in index.items() if not 0 < ms < 1 << domain}
    n = len(sets)
    for mask, sid in index.items():
        if mask:
            assert universe.intern_mask(mask) == sid, mask
            assert universe.intern_fresh([mask]) == 0, mask
    for bad, error in [(0, EmptySetForbidden), (-1, UnknownId), ("1", UnknownId), (1.0, UnknownId)]:
        with pytest.raises(error):
            universe.intern_mask(bad)
        with pytest.raises(error):
            universe.intern_fresh([bad])
    assert len(universe) == n


# Each growth step is a kind and up to four picks, taken modulo the size as ids.
_GROWTH = st.lists(st.tuples(st.sampled_from(["set", "successor", "union", "inject"]),
                             st.lists(st.integers(0, 1 << 16), min_size=1, max_size=4)),
                   max_size=4)


@given(st.one_of(small_universes(), written_universes(), _loaded_builds()), _GROWTH)
def test_lookups_and_interns_agree_with_the_first_id_of_each_mask(universe, growth):
    # Universes built and grown by intern, successor, union and
    # self-membered composites, written ones, and loaded builds; each is
    # checked, grown a little more, and checked.
    _assert_lookup_and_intern_agree(universe)
    universe.max_sets = None
    for kind, picks in growth:
        n = len(universe)
        ids = {pick % n for pick in picks}
        x = picks[0] % n
        if kind == "set":
            universe.intern(ids)
        elif kind == "successor":
            successor(universe, x)
        elif kind == "union":
            union_all(universe, x)
        else:
            inject_self_membered(universe, x)
    _assert_lookup_and_intern_agree(universe)


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


def _reference_subsets(universe, ids):
    """Every nonempty subset of ``ids`` by one ``intern`` per subset mask, after an up-front cap test."""
    count = (1 << len(ids)) - 1
    if count > universe.max_sets:
        raise CapExceeded(required=count, max_sets=universe.max_sets)
    return _intern_masks(universe, ids)


def _powerset_outcome(construct, universe, s):
    """The id ``construct`` returns, or its cap error, and the tables it leaves."""
    size = len(universe)
    try:
        result = construct(universe, s)
    except CapExceeded as exc:
        result = ("cap", exc.required, exc.max_sets, exc.stage)
    assert len(universe) <= max(size, universe.max_sets)
    assert_lookups_agree(universe)
    return result, universe.member_sets


# The conftest universes: uv3, oae2 and uv2.
_FIXTURE_CONFIGS = [BuildConfig(("u", "v"), 3), BuildConfig(("o", "a", "e"), 2),
                    BuildConfig(("u", "v"), 2)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_universes(), st.sampled_from(_FIXTURE_CONFIGS).map(lambda c: build(c)[0])),
       st.data())
def test_powerset_matches_one_intern_per_mask(universe, data):
    # One intern_mask per subset against one intern per subset. Some
    # subsets may be interned already; the cap stops the call up front,
    # part way through its new sets or not at all.
    s = universe.intern(data.draw(st.sets(st.integers(0, len(universe) - 1),
                                          min_size=1, max_size=4)))
    base = universe.members(s)
    whole = len(universe) + (1 << len(base))
    universe.max_sets = data.draw(st.one_of(
        st.integers(1, 1 << len(base)), st.integers(max(1, len(universe) - 1), whole)))
    twin = copy.deepcopy(universe)
    assert _powerset_outcome(powerset, universe, s) == _powerset_outcome(
        lambda u, s: u.intern(_reference_subsets(u, base)), twin, s)


def _closed_by_intern_mask(universe, domain):
    """The closed form over ``domain`` by one ``intern_mask`` per mask below ``2**domain``, in order."""
    for mask in range(1, 1 << domain):
        universe.intern_mask(mask)
    return universe.member_sets


def _closed_starts(atoms):
    """The atoms alone, then each closed form a build leaves, of ``atoms`` atoms and at most 15 sets."""
    names = "abcd"[:atoms]
    yield Universe(names)
    for depth in (1, 2):
        universe, _ = build(BuildConfig(names, depth))
        if len(universe) <= 15:
            yield universe


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
def test_intern_closed_matches_one_intern_mask_per_mask_of_the_form(atoms):
    # Every domain from the size up to 10, or the size alone past 10 (only
    # 1 over one atom), such as 2 atoms over 4 and 5, which no build makes,
    # within a cap of exactly the form's size.
    for start in _closed_starts(atoms):
        for domain in range(len(start), 2 if atoms == 1 else max(11, len(start) + 1)):
            universe, twin = copy.deepcopy(start), copy.deepcopy(start)
            universe.max_sets = (1 << domain) - 1
            universe.intern_closed(domain)
            assert universe.member_sets == _closed_by_intern_mask(twin, domain), domain
            assert universe.closed_domain() == domain and universe._index == {}
            assert_lookups_agree(universe)


def _grown_past_its_form():
    universe, _ = build(BuildConfig(("u", "v"), 2))
    universe.intern_mask(1 << 6)
    return universe, 8


def _interned_in_its_form():
    # u, v and {u,v}: the sets of the closed form over 2, not made by it.
    universe = Universe(["u", "v"])
    universe.intern_mask(0b11)
    return universe, 3


# Universes and domains intern_closed refuses, and how: one grown past its
# form, or interned in it by intern_mask; a domain below the size; one atom
# over domain 2, from the atom alone and from its fixed point; and a cap
# one below 2**domain - 1.
_REFUSALS = {
    "grown-past-its-form": [(_grown_past_its_form, ValueError),
                            (_interned_in_its_form, ValueError)],
    "domain-below-the-size": [(lambda: (Universe("abc"), 2), ValueError),
                              (lambda: (build(BuildConfig(("u", "v"), 2))[0], 3), ValueError),
                              (lambda: (build(BuildConfig(("u", "v"), 2))[0], 6), ValueError)],
    "one-atom-over-domain-2": [(lambda: (Universe("a"), 2), ValueError),
                               (lambda: (build(BuildConfig(("a",), 3))[0], 2), ValueError)],
    "cap-one-below-the-form": [(lambda: (Universe("uv", max_sets=14), 4), CapExceeded),
                               (lambda: (build(BuildConfig(("u", "v"), 2, 126))[0], 7), CapExceeded)],
}


@pytest.mark.parametrize("cases", _REFUSALS.values(), ids=_REFUSALS)
def test_intern_closed_refuses_and_changes_nothing(cases):
    for make, error in cases:
        universe, domain = make()
        before = list(universe.member_sets), dict(universe._index), universe.closed_domain()
        with pytest.raises(error) as err:
            universe.intern_closed(domain)
        if error is CapExceeded:
            assert (err.value.required, err.value.max_sets) == ((1 << domain) - 1, universe.max_sets)
        assert (universe.member_sets, universe._index, universe.closed_domain()) == before
        assert_lookups_agree(universe)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 70)), st.integers(0, 64))
def test_absent_masks_are_the_ints_up_to_total_not_present(present, total):
    assert list(absent_masks(present, total)) == list(
        filterfalse(set(present).__contains__, range(1, total + 1)))


def _fresh_one_at_a_time(universe, masks):
    """``intern_fresh`` by one ``intern_mask`` per mask, while each makes a new set."""
    for interned, mask in enumerate(masks):
        if universe.lookup_mask(mask) is not None:
            return interned
        universe.intern_mask(mask)
    return len(masks)


def _fresh_outcome(intern_fresh, universe, masks):
    try:
        result = intern_fresh(universe, masks)
    except CapExceeded as exc:
        result = ("cap", exc.required, exc.max_sets)
    assert_lookups_agree(universe)
    return result, universe.member_sets


@settings(max_examples=150, deadline=None)
@given(small_universes(), st.data())
def test_intern_fresh_matches_one_intern_mask_per_new_set(universe, data):
    # Each mask holds only ids below its own place; some are sets already
    # interned and some repeat an earlier mask, and the cap may stop the
    # call part way.
    n = len(universe)
    masks = []
    for place in range(n, n + data.draw(st.integers(0, 6))):
        masks.append(data.draw(st.one_of(
            st.integers(1, (1 << place) - 1),
            st.sampled_from(universe.member_sets + masks))))
    universe.max_sets = data.draw(st.integers(max(1, n - 1), n + len(masks) + 1))
    twin = copy.deepcopy(universe)
    assert _fresh_outcome(Universe.intern_fresh, universe, list(masks)) == _fresh_outcome(
        _fresh_one_at_a_time, twin, masks)


@pytest.mark.parametrize("bad,error", [(1 << 3, UnknownId), (0, EmptySetForbidden),
                                       (-1, UnknownId), ("3", UnknownId)])
def test_intern_fresh_refuses_a_bad_mask_and_interns_nothing(bad, error):
    # The second mask's place is id 3, so its bits must lie below bit 3.
    u = Universe(["u", "v"])
    with pytest.raises(error):
        u.intern_fresh([0b11, bad])
    assert u.member_sets == [1, 2]
    assert u.intern_fresh([0b11, 0b101, 0b11, 0b110]) == 2
    assert u.member_sets == [1, 2, 0b11, 0b101]


_WRITES = ["intern", "intern_mask", "pair", "singleton", "union_all",
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


@settings(max_examples=60, deadline=None)
@given(small_universes(), st.data())
def test_transitive_ids_are_the_transitivity_column(u, data):
    # The columns are the transposed member masks, and the transitive ids
    # worked out from them are the sets whose members lie within them;
    # both again after the universe grows past the kept columns.
    _assert_columns_match(u)
    n = len(u)
    for members in data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                                      max_size=4)):
        u.intern(members)
    if data.draw(st.booleans()):
        inject_self_membered(u, data.draw(st.integers(0, len(u) - 1)))
    _assert_columns_match(u)


def test_is_transitive_unknown_id():
    u = Universe(["u"])
    with pytest.raises(UnknownId):
        u.is_transitive(1)
    with pytest.raises(UnknownId):
        u.is_transitive(-1)
