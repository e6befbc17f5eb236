import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quineset import DEFAULT_MAX_SETS, BuildConfig, build
from quineset.errors import CapExceeded, DuplicateAtomName

from support import enumerated_index, model_counts, reference_build


def test_depth_zero_is_atoms_only():
    universe, report = build(BuildConfig(("u", "v"), depth=0))
    assert len(universe) == 2
    assert report.counts == (2,)


def test_two_atom_counts_match_model():
    # oracle first: the frozenset model fixes the expected counts
    assert model_counts(["u", "v"], 3) == [2, 3, 7, 127]
    universe, report = build(BuildConfig(("u", "v"), depth=3))
    assert report.counts == (2, 3, 7, 127)
    assert len(universe) == 127


def test_depth_two_seven_sets():
    universe, report = build(BuildConfig(("u", "v"), depth=2))
    assert len(universe) == 7
    assert report.counts == (2, 3, 7)


def test_three_atom_depth_two():
    assert model_counts(["o", "a", "e"], 2) == [3, 7, 127]
    universe, report = build(BuildConfig(("o", "a", "e"), depth=2))
    assert report.counts == (3, 7, 127)


def test_single_atom_fixed_point():
    universe, report = build(BuildConfig(("u",), depth=3))
    # The counts stop at the fixed point instead of repeating it.
    assert report.counts == (1, 1)
    assert report.fixed_point_stage == 1
    assert len(universe) == 1
    assert universe.build_depth == 3


def test_cap_exceeded_names_stage():
    with pytest.raises(CapExceeded) as err:
        build(BuildConfig(("u", "v"), depth=4, max_sets=1000))
    assert err.value.stage == 4
    assert err.value.required == 2**127 - 1


def test_cap_allows_exact_fit():
    universe, report = build(BuildConfig(("u", "v"), depth=3, max_sets=127))
    assert len(universe) == 127


def test_deterministic_ids():
    first, _ = build(BuildConfig(("u", "v"), depth=3))
    second, _ = build(BuildConfig(("u", "v"), depth=3))
    assert [first.members(i) for i in first.ids()] == [
        second.members(i) for i in second.ids()
    ]


def test_counts_monotone_and_members_precede():
    universe, report = build(BuildConfig(("o", "a", "e"), depth=2))
    assert list(report.counts) == sorted(report.counts)
    for sid in universe.ids():
        for m in universe.members(sid):
            if not universe.is_atom(sid):
                assert m < sid


def test_every_universe_id_is_subset_of_prior_stage():
    universe, report = build(BuildConfig(("u", "v"), depth=3))
    # members of any stage-k set existed before stage k started
    boundaries = list(report.counts)
    for sid in universe.ids():
        if universe.is_atom(sid):
            continue
        stage = next(i for i, c in enumerate(boundaries) if sid < c)
        prior = boundaries[stage - 1]
        assert all(m < prior for m in universe.members(sid))


def test_built_universes_are_subset_closed():
    # every nonempty subset of any set's members is already interned, since
    # members always live in the penultimate domain and the last stage
    # interned all of that domain's subsets
    universe, _ = build(BuildConfig(("u", "v"), depth=3))
    size = len(universe)
    for sid in universe.ids():
        base = universe.members(sid)
        for mask in range(1, 1 << len(base)):
            subset = [m for i, m in enumerate(base) if mask >> i & 1]
            assert universe.intern(subset) < size
    assert len(universe) == size


def test_config_validation():
    with pytest.raises(ValueError):
        BuildConfig(("u",), depth=-1)
    with pytest.raises(ValueError):
        BuildConfig(("u", "v"), depth=1, max_sets=1)
    with pytest.raises(DuplicateAtomName):
        build(BuildConfig(("u", "u"), depth=1))


def test_build_depth_recorded():
    universe, _ = build(BuildConfig(("u", "v"), depth=2))
    assert universe.build_depth == 2
    assert universe.max_sets == BuildConfig(("u", "v"), depth=2).max_sets


@st.composite
def build_configs(draw):
    atoms = tuple("abcde"[: draw(st.integers(1, 5))])
    cap = draw(st.one_of(st.integers(len(atoms), 300), st.just(DEFAULT_MAX_SETS)))
    return BuildConfig(atoms, draw(st.integers(0, 3)), cap)


def _outcome(builder, config):
    """What a builder leaves: its sets, counts and fixed point, or its cap error."""
    try:
        universe, counts, fixed_point = builder(config)
    except CapExceeded as exc:
        return ("cap", exc.stage, exc.required, exc.max_sets)
    assert universe._index == enumerated_index(universe.member_sets)
    return (universe.member_sets, list(counts), fixed_point)


def _build(config):
    universe, report = build(config)
    return universe, report.counts, report.fixed_point_stage


@settings(max_examples=80, deadline=None)
@given(build_configs())
def test_build_matches_the_mask_by_mask_reference(config):
    assert _outcome(_build, config) == _outcome(reference_build, config)
