import gc
import json
import sys
import threading
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from quineset import (
    BuildConfig,
    Status,
    Universe,
    build,
    check_dual_paths,
    check_peano,
    check_pair_membership_claim,
    check_russell,
    check_russell_equivalence,
    check_subset_derivations,
    check_theorem1,
    check_trichotomy,
    check_union_lemma,
    loads_universe,
    pair,
    parse,
    run_suite,
    sequence,
    singleton,
    specify,
    union_all,
    witness_reproduces,
)
from quineset import verifier
from quineset.errors import AtomsEqual, NotAtom
from quineset.formula import format_formula, free_vars
from quineset.verifier import LAWS, PAIR_SUITES, SUITES

from support import (
    inject_self_membered,
    model_verdicts,
    reference_scans,
    small_universes,
    well_founded_universes,
    written_universe,
    written_universes,
)


def all_hold(report):
    return all(r.status is Status.HOLDS for r in report.results)


def test_axioms_hold_on_default(default_universe):
    report = run_suite(default_universe, "axioms")
    assert all_hold(report)
    assert {r.name for r in report.results} == {
        "equality-substitution", "individuals-axiom", "no-empty-set", "regularity",
    }
    assert all(r.scanned == 127 for r in report.results)


def test_axioms_hold_on_single_atom():
    universe = Universe(["u"])
    assert all_hold(run_suite(universe, "axioms"))


def test_individuals_axiom_fails_on_injected_node(default_universe):
    bad = inject_self_membered(default_universe, 2)
    report = run_suite(default_universe, "axioms")
    by_name = {r.name: r for r in report.results}
    failing = by_name["individuals-axiom"]
    assert failing.status is Status.FAILS
    assert dict(failing.witness.bindings)["s"] == bad
    assert witness_reproduces(default_universe, failing.witness)


def test_no_empty_set_names_the_first_memberless_set_written_to_the_tables():
    # No write makes a set of no members, so the two are written directly.
    universe = written_universe(["u", "v"], [0b11, 0, 0b101, 0])
    by_name = {r.name: r for r in run_suite(universe, "axioms").results}
    failing = by_name["no-empty-set"]
    assert (failing.status, failing.scanned) == (Status.FAILS, 6)
    assert failing.witness.bindings == (("s", 3),)
    assert witness_reproduces(universe, failing.witness)


def test_russell_holds(default_universe, three_atom_universe):
    result = check_russell(default_universe)
    assert result.status is Status.HOLDS
    assert result.scanned == 127
    assert check_russell(three_atom_universe).status is Status.HOLDS
    assert check_russell(Universe(["a"])).status is Status.HOLDS


def test_russell_equivalence_holds(default_universe, three_atom_universe):
    assert check_russell_equivalence(default_universe).status is Status.HOLDS
    assert check_russell_equivalence(three_atom_universe).status is Status.HOLDS
    assert check_russell_equivalence(Universe(["a"])).status is Status.HOLDS


def test_russell_checks_survive_injection(default_universe):
    # the sides of the equivalence flip together, so agreement persists
    inject_self_membered(default_universe, 2)
    assert check_russell(default_universe).status is Status.HOLDS
    assert check_russell_equivalence(default_universe).status is Status.HOLDS


def test_subset_derivations_hold(default_universe):
    result = check_subset_derivations(default_universe)
    assert result.status is Status.HOLDS
    assert result.scanned == 127


def test_subset_derivations_single_atom():
    # the one-atom universe has no non-individual, so the universal-set
    # reading does not apply and the individual-part claims carry the check
    assert check_subset_derivations(Universe(["a"])).status is Status.HOLDS


def test_theorem1_default(default_universe):
    result = check_theorem1(default_universe)
    assert result.status is Status.HOLDS
    assert result.scanned == 16


def test_theorem1_not_applicable_on_atoms():
    universe = Universe(["a", "b"])
    assert check_theorem1(universe).status is Status.NOT_APPLICABLE


def test_theorem1_witness_example(default_universe):
    u = default_universe
    p = pair(u, 0, 1)
    s = u.intern([0, 1, p])
    assert u.is_transitive(s)
    sets_of_individuals = [
        v for v in u.members(s)
        if not u.is_member(v, v) and all(u.is_member(x, x) for x in u.members(v))
    ]
    assert sets_of_individuals == [p]


def test_pair_membership_default(default_universe):
    result = check_pair_membership_claim(default_universe, 0, 1)
    assert result.status is Status.HOLDS
    assert result.scanned == 17


def test_pair_membership_examples(default_universe):
    u = default_universe
    p = pair(u, 0, 1)
    succ = union_all(u, pair(u, p, singleton(u, p)))
    assert u.is_member(p, succ)
    s = u.intern([0, 1, p])
    assert u.is_member(p, s)


def test_pair_checks_validate_atoms(default_universe):
    with pytest.raises(NotAtom):
        check_pair_membership_claim(default_universe, 0, 6)
    with pytest.raises(AtomsEqual):
        check_trichotomy(default_universe, 1, 1)


def test_trichotomy_default(default_universe):
    result = check_trichotomy(default_universe, 0, 1)
    assert result.status is Status.HOLDS
    assert result.scanned == 15


def test_trichotomy_chain_example(default_universe):
    u = default_universe
    p = pair(u, 0, 1)
    s = u.intern([0, 1, p])
    assert u.is_member(p, s)
    assert not u.is_member(s, p) and s != p


def test_union_lemma_default(default_universe):
    result = check_union_lemma(default_universe)
    assert result.status is Status.HOLDS
    assert result.scanned == 3


def test_union_lemma_examples(default_universe):
    u = default_universe
    p = pair(u, 0, 1)
    assert union_all(u, p) == p
    s = u.intern([0, 1, p])
    merged = union_all(u, s)
    assert merged == p
    assert s == union_all(u, pair(u, merged, singleton(u, merged)))


def test_union_lemma_fails_with_three_atoms(three_atom_universe):
    # with a third atom available, {a,b,c,{a,b}} qualifies but is neither its
    # own union nor a successor; the scan reports it honestly
    result = check_union_lemma(three_atom_universe)
    assert result.status is Status.FAILS
    assert witness_reproduces(three_atom_universe, result.witness)


def test_dual_paths_agree_on_default():
    universe, _ = build(BuildConfig(("u", "v"), depth=3))
    report = check_dual_paths(universe, 0, 1)
    assert len(report.results) == 11
    assert all_hold(report)


def test_dual_paths_agree_even_where_scan_fails(three_atom_universe):
    # scan and formula must flip together on the 3-atom union-lemma failure
    report = check_dual_paths(three_atom_universe, 0, 1)
    assert all_hold(report)


def test_dual_paths_agree_on_shallow(shallow_universe):
    assert all_hold(check_dual_paths(shallow_universe, 0, 1))


def test_dual_paths_follow_the_suite_order(default_universe):
    suite = run_suite(default_universe, "all", (0, 1))
    dual = check_dual_paths(default_universe, 0, 1)
    assert [r.name for r in dual.results] == [
        f"dualpath-{r.name}" for r in suite.results
    ]


def test_oracles_are_closed_unless_the_law_needs_a_pair():
    for law in LAWS:
        assert law.needs_pair or not free_vars(law.oracle), law.name
        # Worked out once per law, for every check_dual_paths call.
        assert law.oracle_vars is law.oracle_vars
        assert law.oracle_vars == free_vars(law.oracle), law.name


def test_dual_paths_without_the_pair_intern_nothing():
    # Two atoms and no room for their pair: the pair oracle is not applicable.
    universe, _ = build(BuildConfig(("u", "v"), 0, max_sets=2))
    report = check_dual_paths(universe, 0, 1)
    assert len(universe) == 2
    assert report.passed
    by_name = {r.name: r.status for r in report.results}
    assert by_name["dualpath-pair-membership"] is Status.NOT_APPLICABLE
    assert by_name["dualpath-trichotomy"] is Status.HOLDS


@pytest.mark.parametrize("atoms", [(0, None), (None, 1)], ids=["a1-only", "a2-only"])
def test_dual_paths_with_one_atom_raise(default_universe, atoms):
    # One atom is no pair: raise, as run_suite does for a pair suite without
    # a pair, rather than drop the two pair laws and check nine.
    with pytest.raises(ValueError, match="two atoms"):
        check_dual_paths(default_universe, *atoms)


def test_reports_deterministic():
    first, _ = build(BuildConfig(("u", "v"), depth=3))
    second, _ = build(BuildConfig(("u", "v"), depth=3))
    r1 = run_suite(first, "all", (0, 1))
    r2 = run_suite(second, "all", (0, 1))
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
        r2.to_dict(), sort_keys=True
    )


def test_run_suite_names(default_universe):
    report = run_suite(default_universe, "russell")
    assert [r.name for r in report.results] == ["russell", "russell-equivalence"]
    with pytest.raises(ValueError):
        run_suite(default_universe, "nonsense")
    with pytest.raises(ValueError):
        run_suite(default_universe, "trichotomy")


def test_report_json_shape(default_universe):
    report = run_suite(default_universe, "axioms")
    payload = report.to_dict()
    assert payload["universe"] == {"atoms": ["u", "v"], "size": 127}
    assert payload["depth"] == 3
    for entry in payload["results"]:
        assert set(entry) <= {"name", "status", "scanned", "witness"}
    hand_built = Universe(["u", "v"])
    assert run_suite(hand_built, "axioms").to_dict()["depth"] is None


def test_failing_witnesses_reproduce(default_universe):
    inject_self_membered(default_universe, 3)
    report = run_suite(default_universe, "axioms")
    for result in report.results:
        if result.status is Status.FAILS:
            assert witness_reproduces(default_universe, result.witness)


# --- checks are reads -----------------------------------------------------------

BUILD_CONFIGS = [
    (("u",), 1), (("u",), 3), (("u", "v"), 1), (("u", "v"), 2), (("u", "v"), 3),
    (("o", "a", "e"), 1), (("o", "a", "e"), 2), (("a", "b", "c", "d"), 1),
]


@pytest.mark.parametrize("atoms,depth", BUILD_CONFIGS)
def test_checks_leave_built_universes_unchanged(atoms, depth):
    universe, _ = build(BuildConfig(atoms, depth))
    size = len(universe)
    pair_atoms = (0, 1) if len(atoms) >= 2 else None
    run_suite(universe, "all", pair_atoms)
    assert len(universe) == size
    check_dual_paths(universe, *(pair_atoms or ()))
    assert len(universe) == size
    if pair_atoms is not None:
        chain = sequence(universe, 0, 1, 3)
        grown = len(universe)
        check_peano(universe, chain)
        assert len(universe) == grown


@pytest.mark.parametrize("atoms", [("u", "v"), ("o", "a", "e")])
def test_a_check_does_not_change_a_later_check(atoms):
    universe, _ = build(BuildConfig(atoms, 3 if len(atoms) == 2 else 2))
    run_suite(universe, "all", (0, 1))
    report = check_dual_paths(universe, 0, 1)
    assert all_hold(report)
    assert report.size == len(universe) == 127


def test_checks_fit_a_universe_built_to_its_cap():
    universe, _ = build(BuildConfig(("u", "v"), 3, max_sets=127))
    assert run_suite(universe, "all", (0, 1)).passed
    assert all_hold(check_dual_paths(universe, 0, 1))


# --- scans against the model ------------------------------------------------------

def scan_verdicts(report):
    return {r.name: (r.status.value, r.scanned) for r in report.results}


UNION_MISSING = """quineset-universe 1
atoms u,v,w
0,1
0,1,2,3
"""


@settings(max_examples=150, deadline=None)
@given(small_universes())
@example(loads_universe(UNION_MISSING))
def test_scans_agree_with_the_model(universe):
    pair_atoms = (0, 1) if len(universe.atoms) >= 2 else None
    expected = model_verdicts(universe, pair_atoms)
    size = len(universe)
    for suite in SUITES:
        if suite in PAIR_SUITES and not pair_atoms:
            continue
        run_suite(universe, suite, pair_atoms)
        assert len(universe) == size, suite
    report = run_suite(universe, "all", pair_atoms)
    assert scan_verdicts(report) == expected
    for result in report.results:
        if result.status is Status.FAILS:
            assert witness_reproduces(universe, result.witness)


def _injected_mixed_set():
    # uv at depth 2 and a self-membered composite c = {{u,v}, c}, with {c}:
    # c mixes a non-individual and an individual, itself, and both parts
    # are sets, so subset-derivations looks up c's individual part {c} by
    # the mask it reads from the individuals.
    universe, _ = build(BuildConfig(("u", "v"), 2))
    universe.intern([inject_self_membered(universe, 2)])
    return universe


# With members after their sets, the least non-individual member of
# s = {u, v, c, d} (ids 2 and 3 below) need not be minimal or a set of
# individuals, so regularity and theorem1 look past it.
LATE_MEMBERS = {
    # c = {u, d}, d = {u, v}: d is minimal and a set of individuals.
    "holds": written_universe(["u", "v"], [0b1001, 0b0011, 0b1111]),
    # c = {u, d}, d = {u, c}: each holds the other.
    "fails": written_universe(["u", "v"], [0b1001, 0b0101, 0b1111]),
}


@pytest.mark.parametrize("case", LATE_MEMBERS)
def test_regularity_and_theorem1_look_past_the_least_member(case):
    universe = LATE_MEMBERS[case]
    expected = model_verdicts(universe)
    report = run_suite(universe, "all")
    results = {r.name: r for r in report.results}
    for name in ("regularity", "theorem1"):
        assert (results[name].status.value, results[name].scanned) == expected[name]
        assert results[name].status.value == case
        if case == "fails":
            assert results[name].witness.bindings == (("s", 4),)
            assert witness_reproduces(universe, results[name].witness)
    dual = {r.name: r.status for r in check_dual_paths(universe).results}
    assert dual["dualpath-regularity"] is dual["dualpath-theorem1"] is Status.HOLDS


@settings(max_examples=200, deadline=None)
@given(small_universes())
@example(loads_universe(UNION_MISSING))
@example(_injected_mixed_set())
def test_dual_paths_agree_on_random_universes(universe):
    # Every emitted oracle against its scan, self-membered composites included.
    pair_atoms = (0, 1) if len(universe.atoms) >= 2 else ()
    report = check_dual_paths(universe, *pair_atoms)
    assert len(report.results) == len(LAWS) - (0 if pair_atoms else 2)
    assert [r.name for r in report.results if r.status is Status.FAILS] == []


def test_union_lemma_names_a_union_missing_from_the_file():
    # {u,v,w,{u,v}} is transitive with transitive members, but its union
    # {u,v,w} is not in the file; the witness names the union over s alone.
    universe = loads_universe(UNION_MISSING)
    expected = model_verdicts(universe)["union-lemma"]
    result = check_union_lemma(universe)
    assert (result.status.value, result.scanned) == expected == ("fails", 2)
    assert dict(result.witness.bindings) == {"s": 4}
    assert len(universe) == 5
    assert witness_reproduces(universe, result.witness)


def test_subset_derivations_name_a_selection_missing_from_the_file():
    # {u,v,w,{u,v}} mixes individuals and a non-individual, and the file has
    # neither part, {{u,v}} nor {u,v,w}; the scan fails there, interning
    # nothing, and agrees with its oracle.
    universe = loads_universe(UNION_MISSING)
    expected = model_verdicts(universe)["subset-derivations"]
    result = check_subset_derivations(universe)
    assert (result.status.value, result.scanned) == expected == ("fails", 5)
    assert dict(result.witness.bindings) == {"s": 4}
    assert witness_reproduces(universe, result.witness)
    by_name = {r.name: r.status for r in check_dual_paths(universe).results}
    assert by_name["dualpath-subset-derivations"] is Status.HOLDS
    assert len(universe) == 5


# Each case patches one scan to the verdict its oracle does not give (the
# law table looks each scan up in the module at call time), and names the
# variables the witness binds: the atoms A and B, and P, their pair, id 2.
DISAGREEMENTS = [
    ("theorem1", "check_theorem1", Status.FAILS, "uv3", {}),
    ("trichotomy", "check_trichotomy", Status.FAILS, "uv3", {"A": 0, "B": 1}),
    ("pair-membership", "check_pair_membership_claim", Status.FAILS, "uv3",
     {"A": 0, "B": 1, "P": 2}),
    ("union-lemma", "check_union_lemma", Status.HOLDS, "union-missing", {}),
]


@pytest.mark.parametrize("law,scan,status,where,bindings", DISAGREEMENTS,
                         ids=[case[0] for case in DISAGREEMENTS])
def test_dual_paths_report_a_scan_that_disagrees_with_its_oracle(
        monkeypatch, default_universe, law, scan, status, where, bindings):
    universe = default_universe if where == "uv3" else loads_universe(UNION_MISSING)
    monkeypatch.setattr(verifier, scan, lambda *args: verifier.CheckResult(law, status, 0))
    report = check_dual_paths(universe, 0, 1)
    failed = [r for r in report.results if r.status is Status.FAILS]
    assert [r.name for r in failed] == [f"dualpath-{law}"]
    assert not report.passed
    n = len(universe)
    witness = failed[0].witness
    assert failed[0].scanned == witness.domain == n
    # A scan that fails where its oracle holds is witnessed by the oracle's
    # negation; one that holds where its oracle fails, by the oracle itself.
    text = format_formula(next(l.oracle for l in LAWS if l.name == law))
    assert witness.formula == (f"(!{text})" if status is Status.FAILS else text)
    assert dict(witness.bindings) == bindings
    assert witness_reproduces(universe, witness)


def _count_specify(monkeypatch):
    """Count the calls subset-derivations makes to ``specify``, reached through the verifier."""
    calls = []
    real = verifier.specify

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verifier, "specify", counted)
    return calls


def _distinct_parts(universe):
    """How many distinct non-individual parts the mixed sets have."""
    individuals = universe.individuals()
    mixed = [ms for ms in universe.member_sets if ms & individuals and ms ^ (ms & individuals)]
    return len({ms ^ (ms & individuals) for ms in mixed})


@pytest.mark.parametrize("config", [BuildConfig(("o", "a", "e"), 2),
                                    BuildConfig(("a", "b", "c", "d"), 2)], ids=["oae2", "abcd2"])
def test_subset_derivations_calls_specify_once_per_distinct_selection(monkeypatch, config):
    universe, _ = build(config)
    calls = _count_specify(monkeypatch)
    result = check_subset_derivations(universe)
    assert (result.status, result.scanned) == (Status.HOLDS, len(universe))
    assert 0 < len(calls) == _distinct_parts(universe)


# Mixed sets {u,{u,v}}, {v,{{u,v}}}, {u,{u,v},{{u,v}}} and {v,{u,v}} find
# their parts, three distinct non-individual ones, before the last record
# of each file: {u,w,{{{u,v}}}}, whose individual part {u,w} is missing,
# or {u,{{{u,v}}},{{u,v},{{u,v}}}}, whose non-individual part is. The
# first has a fourth non-individual part, {{{{u,v}}}}, and finds it.
LATE_PARTS = "quineset-universe 1\natoms u,v,w\n0,1\n3\n0,3\n4\n1,4\n3,4\n0,3,4\n1,3\n6\n"
LATE_OWN = LATE_PARTS + "0,2,6\n"
LATE_REST = LATE_PARTS + "0,6,8\n"


@pytest.mark.parametrize("universe,calls,expected", [
    (_injected_mixed_set(), 1, ("holds", 9, None)),
    *[(LATE_MEMBERS[case], 0,
       ("fails", 5, ((("s", 2),),
                     "exists v. (forall u. ((u in v) <-> ((u in s) & (u notin u))))", 5)))
      for case in LATE_MEMBERS],
    (loads_universe(LATE_OWN), 4,
     ("fails", 13, ((("s", 12),),
                    "exists v. (forall u. ((u in v) <-> ((u in s) & (u in u))))", 13))),
    (loads_universe(LATE_REST), 3,
     ("fails", 13, ((("s", 12),),
                    "exists v. (forall u. ((u in v) <-> ((u in s) & (u notin u))))", 13))),
], ids=["injected", *(f"late-{case}" for case in LATE_MEMBERS), "late-own", "late-rest"])
def test_subset_derivations_verdicts_on_the_written_fixtures(monkeypatch, universe, calls, expected):
    # The verdict, count and witness each fixture had when specify was
    # called twice per mixed set. The late-member files fail before any
    # call. The late-part files have those of the loop over the mixed sets
    # that called specify once per distinct non-individual part met, the
    # failing set's own included when it is found.
    made = _count_specify(monkeypatch)
    result = check_subset_derivations(universe)
    witness = result.witness and (result.witness.bindings, result.witness.formula,
                                  result.witness.domain)
    assert (result.status.value, result.scanned, witness) == expected
    assert len(made) == calls


# --- column scans against the per-set reference -------------------------------------

def _nested_singletons(depth):
    # {u,v}, then each set the singleton of the one before: masks past 16 bits.
    return loads_universe("quineset-universe 1\natoms u,v\n0,1\n"
                          + "".join(f"{i}\n" for i in range(2, depth + 1)))


@settings(max_examples=300, deadline=None)
@given(small_universes() | well_founded_universes() | written_universes(), st.data())
@example(loads_universe(UNION_MISSING), None)
@example(LATE_MEMBERS["holds"], None)
@example(LATE_MEMBERS["fails"], None)
# The "fails" file with {u, v, c, d, s} after it: regularity and theorem1
# fail at s, and theorem1 qualifies a set past it.
@example(written_universe(["u", "v"], [0b1001, 0b0101, 0b1111, 0b11111]), None)
@example(_injected_mixed_set(), None)
@example(_nested_singletons(300), None)
# {u,v}, then {u} written as a composite, a non-individual set of
# individuals other than the pair, in the transitive {u, v, {u}}.
@example(written_universe(["u", "v"], [0b11, 0b1, 0b1011]), None)
def test_column_scans_match_the_per_set_reference(universe, data):
    # Status, count and witness of each scan that reads membership columns,
    # against the loop over the sets it replaced, on universes where laws
    # fail: stages that are not full, members after their sets, repeated
    # extensions and self-membered composites.
    atoms = universe.atoms
    pair_atoms = None
    if len(atoms) >= 2:
        pair_atoms = (0, 1) if data is None else data.draw(
            st.sampled_from([(a, b) for a in atoms for b in atoms if a != b]))
    expected = reference_scans(universe, pair_atoms)
    got = {r.name: r for r in run_suite(universe, "all", pair_atoms).results}
    assert [got[r.name] for r in expected] == expected


@pytest.mark.parametrize("config", [
    BuildConfig(("u", "v"), 3), BuildConfig(("o", "a", "e"), 2),
    BuildConfig(("a", "b", "c", "d"), 2), BuildConfig(tuple(f"a{i}" for i in range(16)), 1),
], ids=["uv3", "oae2", "abcd2", "flat16"])
def test_suite_is_the_same_on_a_built_universe_and_a_copy_no_stage_left(config):
    # The built universe's columns come from the closed form its last stage
    # made; the copy has the same ids but was interned by one
    # intern_fresh call, so its columns come from the general transpose.
    # The first two atoms are the pair.
    built, _ = build(config)
    copied = Universe(config.atom_names)
    copied.intern_fresh(built.member_sets[len(config.atom_names):])
    assert built.closed_domain() == len(built).bit_length() and copied.closed_domain() is None
    assert run_suite(built, "all", (0, 1)).results == run_suite(copied, "all", (0, 1)).results
    assert built.member_columns() == copied.member_columns()


# --- lifetime and threads -----------------------------------------------------------

def test_a_checked_universe_can_be_collected():
    universe, _ = build(BuildConfig(("u", "v"), 3))
    run_suite(universe, "all")
    ref = weakref.ref(universe)
    del universe
    gc.collect()
    assert ref() is None


def test_threads_scanning_one_cold_universe_agree_with_one_thread():
    # Every selection is in a built universe, so no call interns, and the
    # threads meet the universe's membership columns cold.
    crit = parse("exists y. ((y in x) & (y notin y))")

    def scan(universe):
        selections = [specify(universe, s, crit, "x") for s in universe.ids()]
        return selections, run_suite(universe, "all", (0, 1)).to_dict()

    expected = scan(build(BuildConfig(("o", "a", "e"), 2))[0])
    universe, _ = build(BuildConfig(("o", "a", "e"), 2))
    start = threading.Barrier(4, timeout=60)
    reports = []

    def scan_together():
        start.wait()
        reports.append(scan(universe))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=scan_together) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert reports == [expected] * 4
    assert len(universe) == 127
