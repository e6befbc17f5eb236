"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line (run pytest with
-s to see them). All comparisons are exact id equalities or exact
truth-value agreements; there are no numeric tolerances anywhere.
"""

from random import Random

from quineset import (
    BuildConfig,
    NoSet,
    NoSetReason,
    Specified,
    Status,
    build,
    check_dual_paths,
    check_pair_membership_claim,
    check_peano,
    check_russell,
    check_russell_equivalence,
    check_theorem1,
    check_trichotomy,
    check_union_lemma,
    dumps_universe,
    format_formula,
    loads_universe,
    pair,
    parse,
    powerset,
    run_suite,
    sequence,
    singleton,
    specify,
    successor,
    union_all,
    witness_reproduces,
)

from support import inject_self_membered, model_counts, random_formula


def record(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" :: {detail}" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def default_universe():
    return build(BuildConfig(("u", "v"), depth=3))[0]


def test_criterion_1_identity_suite():
    u = default_universe()
    ids = list(u.ids())
    atoms = [s for s in ids if u.is_individual(s)]
    composites = [s for s in ids if not u.is_individual(s)]
    problems = []
    for a in atoms:
        if singleton(u, a) != a:
            problems.append(f"singleton({a}) != {a}")
        if powerset(u, a) != a:
            problems.append(f"powerset({a}) != {a}")
    for s in composites:
        if powerset(u, singleton(u, s)) != singleton(u, singleton(u, s)):
            problems.append(f"powerset(singleton({s})) mismatch")
    for i, s in enumerate(ids):
        for t in ids[i + 1:]:
            if u.is_individual(pair(u, s, t)):
                problems.append(f"pair({s},{t}) is an individual")
    record(
        "criterion 1: singleton/powerset/pair identities",
        not problems,
        problems[0] if problems else f"{len(atoms)} atoms, {len(composites)} composites, all exact",
    )


def test_criterion_2_cantor_failure():
    u = default_universe()
    ids = list(u.ids())
    ok = True
    for s in ids:
        x = s if u.is_individual(s) else singleton(u, s)
        if not (u.cardinality(powerset(u, x)) == u.cardinality(x) == 1):
            ok = False
            break
    record("criterion 2: powerset keeps cardinality 1 on atoms and singletons", ok)


def test_criterion_3_russell_suite():
    universes = [
        default_universe(),
        build(BuildConfig(("u",), depth=2))[0],
        build(BuildConfig(("o", "a", "e"), depth=2))[0],
    ]
    ok = all(
        check_russell(u).status is Status.HOLDS
        and check_russell_equivalence(u).status is Status.HOLDS
        for u in universes
    )
    record("criterion 3: russell checks hold on default, 1-atom, 3-atom universes", ok)


def test_criterion_4_axiom_suite():
    u = default_universe()
    clean = run_suite(u, "axioms")
    ok = all(r.status is Status.HOLDS for r in clean.results)
    tampered = default_universe()
    bad = inject_self_membered(tampered, 2)
    report = run_suite(tampered, "axioms")
    failing = {r.name: r for r in report.results}["individuals-axiom"]
    ok = ok and failing.status is Status.FAILS
    ok = ok and failing.witness is not None
    ok = ok and dict(failing.witness.bindings)["s"] == bad
    ok = ok and witness_reproduces(tampered, failing.witness)
    record("criterion 4: axiom scans hold; injected self-member fails with witness", ok)


def test_criterion_5_specification_suite():
    u = default_universe()
    ids = list(u.ids())
    not_self = parse("x notin x")
    contradiction = parse("x in x & x notin x")
    ok = True
    for s in ids:
        members = u.members(s)
        out = specify(u, s, not_self, "x")
        if any(not u.is_member(m, m) for m in members):
            if not isinstance(out, Specified):
                ok = False
                break
            v = out.set_id
            if not u.is_subset(v, s) or u.is_member(v, s):
                ok = False
                break
        elif out != NoSet(NoSetReason.NO_WITNESS):
            ok = False
            break
        if specify(u, s, contradiction, "x") != NoSet(
            NoSetReason.CONTRADICTORY_CRITERION
        ):
            ok = False
            break
    record(
        "criterion 5: specification outcomes exact over all 127 sets",
        ok and len(ids) == 127,
    )


def test_criterion_6_transitive_set_laws():
    u = default_universe()
    results = [
        check_theorem1(u),
        check_pair_membership_claim(u, 0, 1),
        check_trichotomy(u, 0, 1),
        check_union_lemma(u),
    ]
    ok = all(r.status is Status.HOLDS for r in results)
    trichotomy = results[2]
    ok = ok and trichotomy.scanned > 0
    record(
        "criterion 6: theorem1/pair/trichotomy/union-lemma hold exhaustively",
        ok,
        f"trichotomy pairs scanned: {trichotomy.scanned}",
    )


def test_criterion_7_peano_suite():
    u = build(BuildConfig(("o", "a", "e"), depth=1))[0]
    ok = True
    for base in ((0, 1), (0, 2)):
        chain = sequence(u, *base, 10)
        report = check_peano(u, chain)
        ok = ok and all(r.status is Status.HOLDS for r in report.results)
        ok = ok and all(
            union_all(u, nxt) == prev
            for prev, nxt in zip(chain.elements, chain.elements[1:])
        )
    ok = ok and all(successor(u, atom) == atom for atom in u.atoms)
    record("criterion 7: length-10 chains from {o,a} and {o,e} pass all laws", ok)


def test_criterion_8_dual_path_agreement():
    u = default_universe()
    report = check_dual_paths(u, 0, 1)
    disagreements = [r.name for r in report.results if r.status is not Status.HOLDS]
    record(
        "criterion 8: every scan agrees with its formula oracle",
        not disagreements,
        f"{len(report.results)} checks compared",
    )


def test_criterion_9_infrastructure():
    rng = Random(20230320)
    ok = True
    for _ in range(1000):
        f = random_formula(rng)
        if parse(format_formula(f)) != f:
            ok = False
            break
    universe, report = build(BuildConfig(("u", "v"), depth=3))
    text = dumps_universe(universe)
    ok = ok and dumps_universe(loads_universe(text)) == text
    ok = ok and model_counts(["u", "v"], 3) == [2, 3, 7, 127]
    ok = ok and list(report.counts) == [2, 3, 7, 127]
    record(
        "criterion 9: 1000 formula round-trips, file round-trip, stage counts",
        ok,
    )
