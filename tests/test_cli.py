import argparse
import hashlib
import io
import json
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quineset import (
    DEFAULT_MAX_SETS,
    BuildConfig,
    Universe,
    build,
    dumps_universe,
    format_set_literal,
    loads_universe,
    parse_set_literal,
)
from quineset import cli, storage
from quineset.cli import MAX_PEANO_BYTES, build_arg_parser, main
from quineset.core import MAX_NESTING
from quineset.errors import CapExceeded, LiteralSyntaxError, UniverseFormatError
from quineset.verifier import LAWS, SUITES

from support import (
    assert_lookups_agree,
    inject_self_membered,
    reference_dumps,
    small_universes,
    write_set,
    written_universe,
    written_universes,
)


@pytest.fixture
def universe_file(tmp_path):
    path = tmp_path / "uv3.hfu"
    assert main(["build", "--atoms", "u,v", "--depth", "3", "--out", str(path)]) == 0
    return path


# --- build -------------------------------------------------------------------

def test_build_prints_stage_counts(tmp_path, capsys):
    path = tmp_path / "uv2.hfu"
    code = main(["build", "--atoms", "u,v", "--depth", "2", "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "[2, 3, 7]"
    assert len(loads_universe(path.read_text())) == 7


def test_build_fixed_point(tmp_path, capsys):
    path = tmp_path / "u.hfu"
    assert main(["build", "--atoms", "u", "--depth", "5", "--out", str(path)]) == 0
    assert capsys.readouterr().out == "[1, 1]\nfixed point at stage 1\n"
    assert len(loads_universe(path.read_text())) == 1
    assert "depth 5\n" in path.read_text()


def test_build_output_stays_short_at_any_depth(tmp_path, capsys):
    path = tmp_path / "u.hfu"
    assert main(["build", "--atoms", "u", "--depth", "3000000", "--out", str(path)]) == 0
    assert capsys.readouterr().out == "[1, 1]\nfixed point at stage 1\n"


def test_build_cap_exceeded(tmp_path, capsys):
    path = tmp_path / "big.hfu"
    code = main(
        ["build", "--atoms", "u,v", "--depth", "4", "--max-sets", "1000",
         "--out", str(path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "stage 4" in err
    assert str(2**127 - 1) in err
    assert not path.exists()


def test_build_cap_exceeded_by_a_count_too_long_to_print(tmp_path, capsys):
    # Stage 3 of four atoms needs 2**32767 - 1 sets, a number with 9864 digits.
    code = main(["build", "--atoms", "a,b,c,d", "--depth", "3", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "stage 3 needs 2**32767 - 1 sets, exceeding the cap of 100000" in capsys.readouterr().err


def test_build_bad_flags_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["build", "--depth", "2", "--out", str(tmp_path / "x")])
    assert err.value.code == 64


def test_build_duplicate_atoms_usage_error(tmp_path):
    code = main(["build", "--atoms", "u,u", "--depth", "1", "--out", str(tmp_path / "x")])
    assert code == 64


def test_build_io_error(tmp_path):
    code = main(
        ["build", "--atoms", "u,v", "--depth", "1",
         "--out", str(tmp_path / "missing" / "x.hfu")]
    )
    assert code == 74


# --- eval --------------------------------------------------------------------

def test_eval_russell_formula(universe_file, capsys):
    code = main(
        ["eval", str(universe_file), "exists s. forall u. (u in s <-> u notin u)"]
    )
    assert code == 1
    assert capsys.readouterr().out.strip() == "false"


def test_eval_definiteness_formula(universe_file, capsys):
    code = main(["eval", str(universe_file), "forall s. (s in s | s notin s)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_syntax_error(universe_file, capsys):
    code = main(["eval", str(universe_file), "u in"])
    assert code == 64
    assert "position" in capsys.readouterr().err


def test_eval_unbound_variable(universe_file, capsys):
    code = main(["eval", str(universe_file), "x in x"])
    assert code == 64
    assert "x" in capsys.readouterr().err


def test_eval_with_bindings(universe_file, capsys):
    code = main(
        ["eval", str(universe_file), "x in s",
         "--bind", "x=u", "--bind", "s={u,{u,v}}"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_binding_outside_the_file_does_not_widen_the_domain(universe_file, capsys):
    # {u,{u,{u,{u,v}}}} first appears at depth 4, so it is not in the file.
    code = main(["eval", str(universe_file), "exists s. s = x",
                 "--bind", "x={u,{u,{u,{u,v}}}}"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "false"
    code = main(["eval", str(universe_file), "exists s. s = x",
                 "--bind", "x={u,{u,{u,v}}}"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_empty_braces_rejected(universe_file):
    assert main(["eval", str(universe_file), "x in x", "--bind", "x={}"]) == 64


def test_eval_bad_binding_shape(universe_file):
    assert main(["eval", str(universe_file), "x in x", "--bind", "x"]) == 64


def test_eval_repeated_binding_is_a_usage_error(universe_file, capsys):
    code = main(["eval", str(universe_file), "x = y",
                 "--bind", "x=u", "--bind", "y=u", "--bind", "x=v"])
    assert code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'x' is bound more than once" in captured.err


def test_eval_deep_formula_is_a_usage_error(universe_file, capsys):
    code = main(["eval", str(universe_file), "!" * 3000 + "u in u", "--bind", "u=u"])
    assert code == 64
    assert "nests deeper than" in capsys.readouterr().err


def test_eval_literal_missing_a_member_is_a_usage_error(universe_file, capsys):
    code = main(["eval", str(universe_file), "x in x", "--bind", "x={u,}"])
    assert code == 64
    assert "expected an atom name or '{' but found '}' (at position 3)" in capsys.readouterr().err


def test_eval_deep_literal_is_a_usage_error(universe_file, capsys):
    literal = "{" * 2000 + "u" + "}" * 2000
    code = main(["eval", str(universe_file), "x in x", "--bind", f"x={literal}"])
    assert code == 64
    assert "nests deeper than" in capsys.readouterr().err


# --- check ---------------------------------------------------------------------

def test_check_all_text(universe_file, capsys):
    code = main(["check", str(universe_file), "all"])
    assert code == 0
    out = capsys.readouterr().out
    assert "universe: atoms=u,v size=127" in out
    assert "fails" not in out


def test_check_all_json(universe_file, capsys):
    code = main(["check", str(universe_file), "all", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["universe"] == {"atoms": ["u", "v"], "size": 127}
    assert payload["depth"] == 3
    names = [r["name"] for r in payload["results"]]
    assert "trichotomy" in names and "regularity" in names
    assert all(r["status"] in ("holds", "not-applicable") for r in payload["results"])


def test_check_all_on_a_universe_built_to_its_cap(tmp_path, capsys):
    path = tmp_path / "capped.hfu"
    assert main(["build", "--atoms", "u,v", "--depth", "3", "--max-sets", "127",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["check", str(path), "all"]) == 0
    assert "universe: atoms=u,v size=127" in capsys.readouterr().out


def test_check_trichotomy_needs_pair(universe_file):
    assert main(["check", str(universe_file), "trichotomy"]) == 64


def test_check_trichotomy_with_pair(universe_file, capsys):
    code = main(["check", str(universe_file), "trichotomy", "--pair", "u,v"])
    assert code == 0
    out = capsys.readouterr().out
    assert "trichotomy: holds (scanned 15)" in out


@pytest.fixture
def one_atom_file(tmp_path):
    path = tmp_path / "u.hfu"
    assert main(["build", "--atoms", "u", "--depth", "2", "--out", str(path)]) == 0
    return path


def test_check_all_on_one_atom_runs_the_laws_that_need_no_pair(one_atom_file, capsys):
    capsys.readouterr()
    assert main(["check", str(one_atom_file), "all", "--format", "json"]) == 0
    names = [r["name"] for r in json.loads(capsys.readouterr().out)["results"]]
    assert names == [law.name for law in LAWS if not law.needs_pair]
    assert len(names) == 9


def test_check_trichotomy_on_one_atom_needs_pair(one_atom_file, capsys):
    capsys.readouterr()
    assert main(["check", str(one_atom_file), "trichotomy"]) == 64
    assert "the trichotomy suite needs --pair A,B" in capsys.readouterr().err


def test_check_unknown_pair_atom(universe_file):
    assert main(["check", str(universe_file), "trichotomy", "--pair", "u,z"]) == 64


def test_check_corrupted_file(tmp_path):
    path = tmp_path / "bad.hfu"
    path.write_text("quineset-universe 1\natoms u,v\n0,1\n0,1\n")
    assert main(["check", str(path), "all"]) == 65


@pytest.mark.parametrize("content", [
    b"quineset-universe 1\natoms u,v\xe9\n0,1\n",
    b"quineset-universe 1\natoms u,v\ndepth -4\n0,1\n",
    b"quineset-universe 1\natoms u,v\nmax-sets 1\n",
    b"quineset-universe 1\natoms u,v\n1,0\n",
    b"quineset-universe 1\natoms u,v\n0,1,1\n",
], ids=["non-ascii", "negative-depth", "cap-below-atoms", "unsorted-record", "repeated-id"])
def test_check_bad_file_content_exits_65(tmp_path, content):
    path = tmp_path / "bad.hfu"
    path.write_bytes(content)
    assert main(["check", str(path), "axioms"]) == 65


def test_check_missing_file(tmp_path):
    assert main(["check", str(tmp_path / "nope.hfu"), "all"]) == 74


def test_check_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "oae.hfu"
    main(["build", "--atoms", "o,a,e", "--depth", "2", "--out", str(path)])
    capsys.readouterr()
    code = main(["check", str(path), "union-lemma"])
    out = capsys.readouterr().out
    assert code == 1
    assert "union-lemma: fails" in out
    assert "witness" in out


def test_check_choices_are_the_suites():
    (subparsers,) = [
        a for a in build_arg_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    (suite,) = [a for a in subparsers.choices["check"]._actions if a.dest == "suite"]
    assert tuple(suite.choices) == SUITES


def test_check_names_a_union_missing_from_a_full_file(tmp_path, capsys):
    # At its cap of 5 the file has no room for the union {u,v,w} of
    # {u,v,w,{u,v}}; the failure is reported over s instead of interned.
    path = tmp_path / "f.hfu"
    path.write_text("quineset-universe 1\natoms u,v,w\nmax-sets 5\n0,1\n0,1,2,3\n")
    assert main(["check", str(path), "union-lemma"]) == 1
    out = capsys.readouterr().out
    assert "union-lemma: fails (scanned 2)" in out
    assert "  witness: s={u,v,w,{u,v}}" in out


@pytest.mark.parametrize("cap", ["", "max-sets 5\n"])
def test_check_names_a_selection_missing_from_the_file(tmp_path, capsys, cap):
    # Neither part of {u,v,w,{u,v}} is in the file, capped or not: the check
    # fails there instead of interning the selected subset.
    path = tmp_path / "f.hfu"
    path.write_text(f"quineset-universe 1\natoms u,v,w\n{cap}0,1\n0,1,2,3\n")
    assert main(["check", str(path), "derivations"]) == 1
    out = capsys.readouterr().out
    assert "universe: atoms=u,v,w size=5" in out
    assert "subset-derivations: fails (scanned 5)" in out
    assert "  witness: s={u,v,w,{u,v}}" in out


def test_check_prints_a_witness_that_nests_2000_deep(tmp_path, capsys):
    # s = {u, {{...{u,v}...}}}: its non-individual part, the singleton of
    # its deepest member, is not in the file, so subset-derivations fails at
    # s and prints it as a literal 1999 braces deep, without a traceback.
    path = tmp_path / "deep.hfu"
    records = "".join(f"{i}\n" for i in range(2, 2000))
    path.write_text(f"quineset-universe 1\natoms u,v\n0,1\n{records}0,2000\n")
    assert main(["check", str(path), "derivations"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    literal = "{u," + "{" * 1998 + "{u,v}" + "}" * 1998 + "}"
    assert captured.out == (
        "universe: atoms=u,v size=2002\n"
        "subset-derivations: fails (scanned 2002)\n"
        f"  witness: s={literal}\n"
        "  formula: exists v. (forall u. ((u in v) <-> ((u in s) & (u notin u))))\n"
    )


# --- peano ---------------------------------------------------------------------

def test_peano_text_output(tmp_path, capsys):
    path = tmp_path / "oae.hfu"
    main(["build", "--atoms", "o,a,e", "--depth", "1", "--out", str(path)])
    capsys.readouterr()
    code = main(["peano", str(path), "--base", "o,a", "--length", "3"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "{o,a}"
    assert out[1] == "{o,a,{o,a}}"
    assert out[2] == "{o,a,{o,a},{o,a,{o,a}}}"
    assert any("union-inverse: holds" in line for line in out)


def test_peano_leaves_the_universe_size(universe_file, capsys):
    # The chain of length 3 lies inside uv3, and checking it interns nothing.
    assert main(["peano", str(universe_file), "--base", "u,v", "--length", "3"]) == 0
    assert "universe: atoms=u,v size=127" in capsys.readouterr().out


def test_peano_equal_base_atoms(tmp_path):
    path = tmp_path / "oae.hfu"
    main(["build", "--atoms", "o,a,e", "--depth", "1", "--out", str(path)])
    assert main(["peano", str(path), "--base", "o,o", "--length", "3"]) == 64


def test_peano_unknown_atom(tmp_path):
    path = tmp_path / "oae.hfu"
    main(["build", "--atoms", "o,a,e", "--depth", "1", "--out", str(path)])
    assert main(["peano", str(path), "--base", "o,z", "--length", "3"]) == 64


def test_peano_length_ten_json(tmp_path, capsys):
    path = tmp_path / "oae.hfu"
    main(["build", "--atoms", "o,a,e", "--depth", "1", "--out", str(path)])
    capsys.readouterr()
    code = main(["peano", str(path), "--base", "o,e", "--length", "10",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["sequence"]) == 10
    assert all(r["status"] == "holds" for r in payload["results"])


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_peano_refuses_output_past_its_limit(universe_file, capsys, fmt):
    # Length 40 would print some 6.6 TB of literals; nothing is printed.
    code = main(["peano", str(universe_file), "--base", "u,v", "--length", "40", *fmt])
    assert code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert f"over {MAX_PEANO_BYTES} bytes" in err


def test_peano_limit_counts_the_literal_lines(universe_file, capsys, monkeypatch):
    # Length 3 prints exactly 42 bytes of literal lines, so a limit of 42
    # passes it and refuses length 4.
    assert main(["peano", str(universe_file), "--base", "u,v", "--length", "3"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)[:3]
    assert sum(map(len, lines)) == 42
    monkeypatch.setattr(cli, "MAX_PEANO_BYTES", 42)
    assert main(["peano", str(universe_file), "--base", "u,v", "--length", "3"]) == 0
    assert main(["peano", str(universe_file), "--base", "u,v", "--length", "4"]) == 64


def test_peano_length_twelve_output_is_unchanged(universe_file, capsys):
    assert main(["peano", str(universe_file), "--base", "u,v", "--length", "12"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest().startswith("6110ee79")


# --- files and literals -----------------------------------------------------------

def test_universe_file_round_trip_bytes(tmp_path):
    universe, _ = build(BuildConfig(("u", "v"), depth=3))
    first = dumps_universe(universe)
    again = dumps_universe(loads_universe(first))
    assert first == again


def test_reload_preserves_ids(universe_file):
    text = universe_file.read_text()
    universe = loads_universe(text)
    rebuilt, _ = build(BuildConfig(("u", "v"), depth=3))
    assert [universe.members(i) for i in universe.ids()] == [
        rebuilt.members(i) for i in rebuilt.ids()
    ]
    assert universe.build_depth == 3


def test_loader_rejects_garbage():
    with pytest.raises(UniverseFormatError):
        loads_universe("not a universe\n")
    with pytest.raises(UniverseFormatError):
        loads_universe("quineset-universe 1\natoms u,v\n5,6\n")
    with pytest.raises(UniverseFormatError):
        loads_universe("quineset-universe 1\natoms u,v\n0\n")  # collapses to atom
    with pytest.raises(UniverseFormatError):
        loads_universe("quineset-universe 1\natoms u,v\nzap\n")


@pytest.mark.parametrize("records,line", [
    ("1,0\n", 3),
    ("0,1,1\n", 3),
    ("0,1\n2,1\n", 4),
    ("0,1\n0,1,1\n", 4),
])
def test_loader_rejects_records_that_would_dump_differently(records, line):
    # intern accepts these member lists, but a file that loads must dump
    # back to the same text, so its records list each id once, in order.
    with pytest.raises(UniverseFormatError, match=rf"^line {line}: member ids are not strictly increasing"):
        loads_universe("quineset-universe 1\natoms u,v\n" + records)


# One bad record per file, with the whole message it must get. When a record
# breaks several rules, the unknown id wins over the order, the cap over the
# order, and the order over freshness.
LOADER_ERRORS = {
    "unknown-id-and-out-of-order": (
        "atoms u,v\n1,5,0\n",
        "line 3: 5 is not a set id of this universe"),
    "unknown-id-first-record": (
        "atoms u,v\n2\n",
        "line 3: 2 is not a set id of this universe"),
    "unknown-ids-least-first": (
        "atoms u,v\n0,10,9\n",
        "line 3: 9 is not a set id of this universe"),
    "unknown-id-of-4300-digits": (
        "atoms u,v\n0," + "9" * 4300 + "\n",
        "line 3: " + "9" * 4300 + " is not a set id of this universe"),
    "unknown-id-past-int-limit": (
        "atoms u,v\n" + "9" * 5000 + "\n",
        "line 3: " + "9" * 5000 + " is not a set id of this universe"),
    "unknown-ids-past-int-limit-least-first": (
        "atoms u,v\n0,1\n0," + "9" * 5000 + ",3\n",
        "line 4: 3 is not a set id of this universe"),
    "duplicate-at-cap": (
        "atoms u,v\nmax-sets 3\n0,1\n0,1\n",
        "line 5: record does not intern to a fresh set"),
    "atom-singleton": (
        "atoms u,v\n0\n",
        "line 3: record does not intern to a fresh set"),
    "fresh-past-cap": (
        "atoms u,v,w\nmax-sets 4\n0,1\n0,2\n",
        "line 5: interning needs 5 sets, exceeding the cap of 4"),
    "fresh-past-cap-out-of-order": (
        "atoms u,v\nmax-sets 2\n1,0\n",
        "line 4: interning needs 3 sets, exceeding the cap of 2"),
    "duplicate-at-cap-out-of-order": (
        "atoms u,v\nmax-sets 3\n0,1\n1,0\n",
        "line 5: member ids are not strictly increasing: '1,0'"),
    "out-of-order": (
        "atoms u,v\n1,0\n",
        "line 3: member ids are not strictly increasing: '1,0'"),
    "repeated-id": (
        "atoms u,v\n0,0,1\n",
        "line 3: member ids are not strictly increasing: '0,0,1'"),
    # Each rule again past header lines and earlier records, which set the
    # line number and the size an id is held to.
    "spelling-after-records": (
        "atoms u,v\ndepth 2\n0,1\n0,01\n",
        "line 5: not a member-id list: '0,01'"),
    "unknown-id-at-the-size-after-records": (
        "atoms u,v\ndepth 2\nmax-sets 9\n0,1\n0,3\n",
        "line 6: 3 is not a set id of this universe"),
    "unknown-id-at-a-two-digit-size": (
        "atoms a,b,c,d,e,f,g,h,i\n0,1\n0,9,10\n",
        "line 4: 10 is not a set id of this universe"),
    "fresh-past-cap-after-records": (
        "atoms u,v\ndepth 2\nmax-sets 3\n0,1\n0,2\n",
        "line 6: interning needs 4 sets, exceeding the cap of 3"),
    "out-of-order-after-records": (
        "atoms u,v\ndepth 2\n0,1\n2,0\n",
        "line 5: member ids are not strictly increasing: '2,0'"),
    "duplicate-after-records": (
        "atoms u,v\ndepth 2\nmax-sets 9\n0,1\n0,2\n0,1\n",
        "line 7: record does not intern to a fresh set"),
    # A record that does not intern to a fresh set wins over any fault of a
    # later record.
    "duplicate-before-a-misspelled-record": (
        "atoms u,v\n0,1\n0,1\n0,01\n",
        "line 4: record does not intern to a fresh set"),
    "duplicate-before-an-unknown-id": (
        "atoms u,v\n0,1\n0,1\n0,9\n",
        "line 4: record does not intern to a fresh set"),
    "duplicate-before-an-out-of-order-record": (
        "atoms u,v\n0,1\n0,1\n1,0\n",
        "line 4: record does not intern to a fresh set"),
    "duplicate-before-a-fresh-record-past-the-cap": (
        "atoms u,v,w\nmax-sets 5\n0,1\n0,1\n0,2\n0,1,2\n1,2\n",
        "line 5: record does not intern to a fresh set"),
}


@pytest.mark.parametrize("body,message", LOADER_ERRORS.values(), ids=LOADER_ERRORS)
def test_loader_error_precedence(body, message):
    with pytest.raises(UniverseFormatError) as err:
        loads_universe("quineset-universe 1\n" + body)
    assert str(err.value) == message


def test_loader_applies_build_config_rules_to_the_header():
    with pytest.raises(UniverseFormatError, match="depth -4"):
        loads_universe("quineset-universe 1\natoms u,v\ndepth -4\n")
    with pytest.raises(UniverseFormatError, match="max-sets 1"):
        loads_universe("quineset-universe 1\natoms u,v\nmax-sets 1\n")
    edge = loads_universe("quineset-universe 1\natoms u,v\ndepth 0\nmax-sets 2\n")
    assert (len(edge), edge.build_depth, edge.max_sets) == (2, 0, 2)


# --- built files, in closed form --------------------------------------------------

def _built_size(atoms, depth):
    # The number of sets build makes: each stage closes n sets to 2**n - 1.
    size = atoms
    for _ in range(depth):
        if size > DEFAULT_MAX_SETS:
            break
        size = 2**size - 1
    return size


def _without_depth(text):
    # The same file without its depth line.
    lines = text.split("\n")
    return "\n".join(line for line in lines if not line.startswith("depth "))


@contextmanager
def counted_stages():
    """The domain of each ``Universe.intern_closed`` call, while in the block."""
    calls = []
    real_closed = Universe.intern_closed

    def counted(universe, domain):
        calls.append(domain)
        return real_closed(universe, domain)

    with mock.patch.object(Universe, "intern_closed", counted):
        yield calls


BUILT_CONFIGS = [(atoms, depth) for atoms in range(1, 5) for depth in range(4)
                 if _built_size(atoms, depth) <= DEFAULT_MAX_SETS]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(BUILT_CONFIGS).flatmap(lambda config: st.tuples(
    st.just(config), st.integers(_built_size(*config), DEFAULT_MAX_SETS))))
def test_a_built_file_loads_as_record_by_record_under_any_cap(config_and_cap):
    (atoms, depth), cap = config_and_cap
    text = dumps_universe(build(BuildConfig("abcd"[:atoms], depth, cap))[0])
    loaded, read = loads_universe(text), loads_universe(_without_depth(text))
    assert loaded.member_sets == read.member_sets == _one_record_at_a_time(text)
    assert_lookups_agree(loaded)
    assert_lookups_agree(read)
    assert loaded.atom_names == read.atom_names == tuple("abcd"[:atoms])
    assert (loaded.build_depth, read.build_depth) == (depth, None)
    assert loaded.max_sets == read.max_sets == cap
    assert dumps_universe(loaded) == text
    assert dumps_universe(read) == _without_depth(text)


@lru_cache(maxsize=None)
def _built_text(atoms, depth):
    return dumps_universe(build(BuildConfig("abcd"[:atoms], depth))[0])


def _header_variant(text, size, variant):
    # The built file with its depth or max-sets line dropped, or its cap
    # set to its size or one below it.
    lines = text.split("\n")
    cap = f"max-sets {DEFAULT_MAX_SETS}"
    lines = {
        "as-written": lines,
        "no-depth": [line for line in lines if not line.startswith("depth ")],
        "no-max-sets": [line for line in lines if line != cap],
        "cap-at-size": [f"max-sets {size}" if line == cap else line for line in lines],
        "cap-below-size": [f"max-sets {size - 1}" if line == cap else line for line in lines],
    }[variant]
    return "\n".join(lines)


# A cap below the atoms is a header error, so a file with no records has
# no cap one below its size.
HEADER_VARIANTS = [
    (atoms, depth, variant) for atoms, depth in BUILT_CONFIGS
    for variant in ("as-written", "no-depth", "no-max-sets", "cap-at-size", "cap-below-size")
    if variant != "cap-below-size" or _built_size(atoms, depth) > atoms
]


@pytest.mark.parametrize("atoms,depth,variant", HEADER_VARIANTS)
def test_a_built_file_loads_by_its_content_whatever_its_header(atoms, depth, variant):
    # The header's depth and cap do not pick the path: a file in closed
    # form within its cap loads by one stage, and one past its cap meets
    # the record loop and its message.
    size = _built_size(atoms, depth)
    edited = _header_variant(_built_text(atoms, depth), size, variant)
    with counted_stages() as stages:
        loaded = _loaded(edited)
    assert loaded == _one_record_at_a_time(edited)
    if variant == "cap-below-size":
        assert f"exceeding the cap of {size - 1}" in loaded
        assert stages == []
    else:
        assert dumps_universe(loads_universe(edited)) == edited
        assert len(stages) == (1 if atoms > 1 and depth else 0)


def test_a_file_in_closed_form_that_no_build_makes_loads_by_one_stage():
    # u, v and then every other mask below 16: no depth builds 15 sets
    # from two atoms, but the file is in the closed form all the same.
    universe = written_universe(("u", "v"), list(range(3, 16)))
    text = dumps_universe(universe)
    with counted_stages() as stages:
        loaded = loads_universe(text)
    assert stages == [4]
    assert loaded.member_sets == universe.member_sets == _one_record_at_a_time(text)
    assert dumps_universe(loaded) == text


def test_one_atom_has_no_closed_form_to_load(tmp_path, capsys):
    # The records 1 and 0,1 are the closed form's spelling over one atom,
    # but the set {1} names itself: the record loop reports it.
    text = "quineset-universe 1\natoms a\n1\n0,1\n"
    with counted_stages() as stages, pytest.raises(UniverseFormatError) as err:
        loads_universe(text)
    assert str(err.value) == "line 3: 1 is not a set id of this universe"
    assert stages == []
    path = tmp_path / "one-atom.hfu"
    path.write_text(text)
    assert main(["check", str(path), "all"]) == 65
    assert "line 3: 1 is not a set id of this universe" in capsys.readouterr().err


def _behind_a_build_header(body, message):
    # The case with depth and max-sets lines that make its record count the
    # size build makes, keeping any cap it has, and its message with the
    # line moved past the added lines; None when no depth gives that size.
    atoms, *rest = body.split("\n")[:-1]
    header = [line for line in rest if line.startswith(("depth ", "max-sets "))]
    records = rest[len(header):]
    count = len(atoms.split(","))
    depth = next((depth for depth in range(5)
                  if _built_size(count, depth) == count + len(records)), None)
    if depth is None:
        return None
    cap = next((int(line.split()[1]) for line in header if line.startswith("max-sets ")),
               DEFAULT_MAX_SETS)
    line, rest_of_message = message[len("line "):].split(":", 1)
    moved = f"line {int(line) + 2 - len(header)}:{rest_of_message}"
    text = "\n".join([atoms, f"depth {depth}", f"max-sets {cap}", *records, ""])
    return text, moved


LOADER_ERRORS_BEHIND_A_BUILD_HEADER = {
    name: case for name, case in (
        (name, _behind_a_build_header(*case)) for name, case in LOADER_ERRORS.items())
    if case is not None
}


@pytest.mark.parametrize("body,message", LOADER_ERRORS_BEHIND_A_BUILD_HEADER.values(),
                         ids=LOADER_ERRORS_BEHIND_A_BUILD_HEADER)
def test_loader_error_precedence_behind_a_build_header(body, message):
    # Each case has the record count a build would make, but its records
    # differ from the ones a build writes, so the loader reads them as
    # before, with no stage.
    with counted_stages() as stages, pytest.raises(UniverseFormatError) as err:
        loads_universe("quineset-universe 1\n" + body)
    assert str(err.value) == message
    assert stages == []


def test_every_record_count_case_is_rerun_behind_a_build_header():
    assert sorted(LOADER_ERRORS_BEHIND_A_BUILD_HEADER) == [
        "atom-singleton", "fresh-past-cap-out-of-order", "out-of-order", "repeated-id",
        "unknown-id-and-out-of-order", "unknown-id-first-record",
        "unknown-id-of-4300-digits", "unknown-id-past-int-limit", "unknown-ids-least-first",
    ]


def _uv3_edited(edits):
    # A built uv3 file with the given lines, numbered from 1, replaced.
    lines = dumps_universe(build(BuildConfig(("u", "v"), 3))[0]).split("\n")
    for number, line in edits.items():
        lines[number - 1] = line
    return "\n".join(lines)


# Edits of a built uv3 file that keep the built record count, and the
# record loop's message for each. Lines 5 and 6 hold 0,1 and 2, line 9
# holds 0,1,2 and lines 10 and 11 hold 3 and 0,3.
TAMPERED_UV3 = {
    "records-swapped": ({5: "2", 6: "0,1"},
                        "line 5: 2 is not a set id of this universe"),
    "record-respelled": ({5: "0,01"},
                         "line 5: not a member-id list: '0,01'"),
    "record-duplicated": ({10: "0,1,2"},
                          "line 10: record does not intern to a fresh set"),
    "record-past-a-lowered-cap": ({4: "max-sets 126"},
                                  "line 129: interning needs 127 sets, exceeding the cap of 126"),
}


@pytest.mark.parametrize("edits,message", TAMPERED_UV3.values(), ids=TAMPERED_UV3)
def test_a_tampered_built_file_meets_the_record_loop(edits, message):
    text = _uv3_edited(edits)
    with pytest.raises(UniverseFormatError) as err:
        loads_universe(text)
    assert str(err.value) == message
    # Without the depth line every line moves up one, and the message is the same.
    line, rest_of_message = message[len("line "):].split(":", 1)
    with pytest.raises(UniverseFormatError) as err:
        loads_universe(_without_depth(text))
    assert str(err.value) == f"line {int(line) - 1}:{rest_of_message}"


def test_records_swapped_within_a_stage_load_in_the_file_order():
    built = build(BuildConfig(("u", "v"), 3))[0]
    text = _uv3_edited({10: "0,3", 11: "3"})
    loaded = loads_universe(text)
    assert dumps_universe(loaded) == text
    assert loaded.member_sets != built.member_sets
    assert sorted(loaded.member_sets) == sorted(built.member_sets)


@pytest.mark.parametrize("atoms,records", [("u", ""), ("u,v", "0,1\n")])
def test_a_depth_far_past_any_stage_loads_at_once(atoms, records):
    depth = 10**30
    text = f"quineset-universe 1\natoms {atoms}\ndepth {depth}\nmax-sets 100\n{records}"
    universe = loads_universe(text)
    assert (universe.build_depth, universe.max_sets) == (depth, 100)
    assert dumps_universe(universe) == text


# Every config build makes within the default cap: 1-16 atoms, depth 0-4.
NAMES16 = tuple("abcdefghijklmnop")
CONFIGS_IN_THE_DEFAULT_CAP = [(atoms, depth) for atoms in range(1, 17) for depth in range(5)
                              if _built_size(atoms, depth) <= DEFAULT_MAX_SETS]


@pytest.mark.parametrize("atoms,depth", CONFIGS_IN_THE_DEFAULT_CAP + [(1, 10**6)])
def test_the_built_records_are_generated_without_a_universe(atoms, depth):
    names = NAMES16[:atoms]
    universe, report = build(BuildConfig(names, depth))
    # The last stage forms the subsets of the sets there were before it.
    domain = report.counts[-2] if depth else 0
    records = "".join(f"{storage._record_line(ms)}\n" for ms in universe.member_sets[atoms:])
    assert storage._built_records(atoms, domain) == records
    # At a cap of exactly the built size the file still loads by one
    # intern_closed call, over the last stage's domain, unless no stage
    # adds a set.
    text = dumps_universe(build(BuildConfig(names, depth, len(universe)))[0])
    with counted_stages() as stages:
        loaded = loads_universe(text)
    assert stages == ([domain] if atoms > 1 and depth else [])
    assert dumps_universe(loaded) == text
    assert loaded.member_sets == universe.member_sets


def _dumps_and_closed_forms(universe):
    """What ``dumps_universe`` writes for ``universe``, and the ``_built_records`` calls it made."""
    calls = []
    real_built_records = storage._built_records

    def counted(atoms, domain):
        calls.append((atoms, domain))
        return real_built_records(atoms, domain)

    with mock.patch.object(storage, "_built_records", counted):
        return dumps_universe(universe), calls


def _closed_forms_expected(universe):
    # The closed form is 2**domain - 1 sets: the atoms, then every other
    # mask below 2**domain in increasing order. dumps writes it once for a
    # universe that a stage left in that form, and for no other.
    domain = universe.closed_domain()
    if domain is None:
        return []
    sets, atoms = universe.member_sets, len(universe.atom_names)
    assert sets[atoms:] == [mask for mask in range(1, 1 << domain) if mask not in sets[:atoms]]
    return [(atoms, domain)]


@pytest.mark.parametrize("atoms,depth", CONFIGS_IN_THE_DEFAULT_CAP)
def test_dumps_writes_a_built_universe_in_closed_form_as_record_by_record(atoms, depth):
    universe = build(BuildConfig(NAMES16[:atoms], depth))[0]
    text, calls = _dumps_and_closed_forms(universe)
    assert text == reference_dumps(universe)
    # Depth 0 has no stage to close, even over one atom, whose atom alone
    # is the closed form's set.
    assert calls == ([(atoms, len(universe).bit_length())] if depth else [])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([c for c in CONFIGS_IN_THE_DEFAULT_CAP if c[1] and _built_size(*c) <= 127]),
       st.sampled_from(["intern", "inject", "swap"]), st.data())
def test_dumps_writes_a_built_universe_changed_after_the_build_record_by_record(config, change, data):
    atoms, depth = config
    universe = build(BuildConfig(NAMES16[:atoms], depth))[0]
    n = len(universe)
    if change == "intern":
        universe.intern(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4)))
        assume(len(universe) > n)
    elif change == "inject":
        inject_self_membered(universe, data.draw(st.integers(0, n - 1)))
    else:
        # Two records trade places, written to the tables directly: the
        # same size and the same sets as the build, in another order.
        assume(n - atoms >= 2)
        i, j = data.draw(st.lists(st.integers(atoms, n - 1), min_size=2, max_size=2, unique=True))
        sets = universe.member_sets
        a, b = sets[i], sets[j]
        write_set(universe, b, i)
        write_set(universe, a, j)
        assert_lookups_agree(universe)
    text, calls = _dumps_and_closed_forms(universe)
    assert text == reference_dumps(universe)
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_universes(), written_universes()))
@example(written_universe(("u", "v"), list(range(3, 16))))
@example(written_universe(("a",), [2, 3]))
def test_dumps_writes_any_universe_as_record_by_record(universe):
    # Only a universe that a stage left in the closed form takes it: a
    # small universe left as built. A written one that happens to hold
    # those sets in that order, whether or not a build makes them, is
    # written record by record, to the same bytes.
    text, calls = _dumps_and_closed_forms(universe)
    assert text == reference_dumps(universe)
    assert calls == _closed_forms_expected(universe)


def _one_record_at_a_time(text):
    """The member masks the loader's rules make of ``text``, or their message.

    Each record is interned by its own ``intern`` call, and each rule is
    applied as it is documented, in the documented order. The header must
    be one that ``dumps_universe`` writes.
    """
    lines = text.split("\n")[:-1]
    names, cap, row = lines[1][len("atoms "):].split(","), None, 2
    if row < len(lines) and lines[row].startswith("depth "):
        row += 1
    if row < len(lines) and lines[row].startswith("max-sets "):
        cap, row = int(lines[row][len("max-sets "):]), row + 1
    universe = Universe(names, max_sets=cap)
    for number, line in enumerate(lines[row:], row + 1):
        parts = line.split(",")
        if not all(part.isdigit() and str(int(part)) == part for part in parts):
            return f"line {number}: not a member-id list: {line!r}"
        ids = [int(part) for part in parts]
        size = len(universe)
        if max(ids) >= size:
            return f"line {number}: {min(i for i in ids if i >= size)} is not a set id of this universe"
        try:
            sid = universe.intern(ids)
        except CapExceeded as exc:
            return f"line {number}: {exc}"
        if ",".join(map(str, sorted(set(ids)))) != line:
            return f"line {number}: member ids are not strictly increasing: {line!r}"
        if sid != size:
            return f"line {number}: record does not intern to a fresh set"
    return universe.member_sets


def _loaded(text, skew=0):
    # The member masks loads_universe makes of text, or its message with
    # the line number moved by skew.
    try:
        return loads_universe(text).member_sets
    except UniverseFormatError as exc:
        line, rest_of_message = str(exc)[len("line "):].split(":", 1)
        return f"line {int(line) + skew}:{rest_of_message}"


# Built files of at most 127 sets with at least one record.
SMALL_BUILT_CONFIGS = [(atoms, depth) for atoms, depth in BUILT_CONFIGS
                       if atoms < _built_size(atoms, depth) <= 127]


@st.composite
def edited_built_files(draw):
    """A file build wrote with one record dropped, duplicated, swapped or with one id edited."""
    atoms, depth = draw(st.sampled_from(SMALL_BUILT_CONFIGS))
    text = dumps_universe(build(BuildConfig("abcd"[:atoms], depth))[0])
    lines = text.split("\n")[:-1]
    records = lines[4:]
    i, j = (draw(st.integers(0, len(records) - 1)) for _ in range(2))
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "edit"]))
    if kind == "drop":
        del records[i]
    elif kind == "duplicate":
        records.insert(j, records[i])
    elif kind == "swap":
        records[i], records[j] = records[j], records[i]
    else:
        ids = records[i].split(",")
        ids[draw(st.integers(0, len(ids) - 1))] = str(draw(st.integers(0, atoms + len(records))))
        records[i] = ",".join(ids)
    edited = "\n".join(lines[:4] + records) + "\n"
    assume(edited != text)
    return edited


@settings(max_examples=200, deadline=None)
@given(edited_built_files())
def test_an_edited_built_file_loads_as_the_record_loop_loads_it(edited):
    with counted_stages() as stages:
        loaded = _loaded(edited)
    assert stages == []
    # Without the depth line the file goes through the record loop, every
    # record one line up.
    assert loaded == _loaded(_without_depth(edited), skew=1)
    assert loaded == _one_record_at_a_time(edited)


HEAD = "quineset-universe 1\natoms u,v\n"

# Files that dumps_universe never writes, with the line each is reported
# at; int() or line splitting would take most of these spellings.
MISSPELLED_FILES = {
    "header-trailing-space": ("quineset-universe 1 \natoms u,v\n", 1),
    "reserved-atom": ("quineset-universe 1\natoms u,in\n", 2),
    "leading-zero": (HEAD + "0,01\n", 3),
    "leading-zero-first": (HEAD + "0,1\n01,2\n", 4),
    "plus-sign": (HEAD + "0,+1\n", 3),
    "space": (HEAD + "0, 1\n", 3),
    "underscore": ("quineset-universe 1\natoms a,b,c,d,e,f,g,h,i,j,k\n0,1_0\n", 3),
    "non-ascii-digit": (HEAD + "0,\u0661\n", 3),
    "crlf": (HEAD.replace("\n", "\r\n") + "0,1\r\n", 1),
    "form-feed": (HEAD + "0,1\x0c\n", 3),
    "no-final-newline": (HEAD + "0,1", 3),
    "depth-leading-zero": (HEAD + "depth 03\n0,1\n", 3),
    "max-sets-plus": (HEAD + "max-sets +9\n", 3),
    "headers-swapped": (HEAD + "max-sets 9\ndepth 1\n", 4),
}


@pytest.mark.parametrize("text,line", MISSPELLED_FILES.values(), ids=MISSPELLED_FILES)
def test_loader_accepts_only_what_dumps_writes(tmp_path, capsys, text, line):
    with pytest.raises(UniverseFormatError, match=rf"^line {line}: "):
        loads_universe(text)
    path = tmp_path / "bad.hfu"
    path.write_bytes(text.encode("utf-8"))
    assert main(["check", str(path), "axioms"]) == 65
    assert f"line {line}: " in capsys.readouterr().err


# Digits, separators, signs, whitespace, a letter and a non-ASCII digit.
EDIT_ALPHABET = "0123456789,\n\r\t\x0c +-_a\u0661"


@settings(max_examples=10, deadline=None)
@given(small_universes(), st.characters())
def test_every_one_character_edit_loads_only_as_itself(universe, extra):
    # Every deletion, and every substitution or insertion of a character
    # from the alphabet, either fails to load or dumps back as itself.
    assume(not any(
        i in universe.member_set(i) for i in range(len(universe.atoms), len(universe))
    ))
    text = dumps_universe(universe)
    for i in range(len(text) + 1):
        edits = [text[:i] + text[i + 1:]]
        for char in EDIT_ALPHABET + extra:
            edits += [text[:i] + char + text[i + 1:], text[:i] + char + text[i:]]
        for edited in edits:
            try:
                loaded = loads_universe(edited)
            except UniverseFormatError:
                continue
            assert dumps_universe(loaded) == edited


def test_set_literal_round_trip_all_ids(default_universe):
    for sid in default_universe.ids():
        text = format_set_literal(default_universe, sid)
        assert parse_set_literal(default_universe, text) == sid


def _recursive_literal(universe, sid):
    if universe.is_atom(sid):
        return universe.atom_names[sid]
    return "{" + ",".join(_recursive_literal(universe, m) for m in universe.members(sid)) + "}"


def test_set_literal_matches_the_recursive_spelling(default_universe):
    for sid in default_universe.ids():
        assert format_set_literal(default_universe, sid) == _recursive_literal(default_universe, sid)


def test_set_literal_nesting_limit(default_universe):
    limit = MAX_NESTING
    at_limit = "{" * limit + "u,v" + "}" * limit
    assert format_set_literal(
        default_universe, parse_set_literal(default_universe, at_limit)
    ).count("{") == limit
    with pytest.raises(LiteralSyntaxError, match="nests deeper"):
        parse_set_literal(default_universe, "{" * (limit + 1) + "u,v" + "}" * (limit + 1))


@pytest.mark.parametrize("text,position", [("{u,}", 3), ("1", 0)])
def test_set_literal_missing_a_member_names_its_position(default_universe, text, position):
    found = text[position]
    with pytest.raises(LiteralSyntaxError) as err:
        parse_set_literal(default_universe, text)
    assert str(err.value) == (
        f"expected an atom name or '{{' but found {found!r} (at position {position})")
    assert err.value.position == position


def test_set_literal_collapse_and_errors(default_universe):
    assert parse_set_literal(default_universe, "{u}") == 0
    assert parse_set_literal(default_universe, "{ u , v }") == 2
    with pytest.raises(LiteralSyntaxError):
        parse_set_literal(default_universe, "{}")
    with pytest.raises(LiteralSyntaxError):
        parse_set_literal(default_universe, "{u,v")
    with pytest.raises(LiteralSyntaxError):
        parse_set_literal(default_universe, "u}v")


# --- the command line boundary under fuzzed input -----------------------------

EXIT_CODES = {0, 1, 2, 64, 65, 74}
UV2 = dumps_universe(build(BuildConfig(("u", "v"), depth=2))[0])
HUGE_ID = "9" * 5000  # past int()'s 4300-digit limit for decimal text

# Text spliced into a dump: digits, separators, spellings the loader
# rejects, header keywords, and an id too long for int().
FILE_PIECES = ["", "0", "1", "7", "9", "10", ",", "\n", " ", "-", "+", "_", "u", "w",
               "atoms ", "depth ", "max-sets ", "\r", "\u0661", HUGE_ID]
FILE_COMMANDS = [
    ["check", "all"],
    ["check", "axioms", "--format", "json"],
    ["check", "trichotomy", "--pair", "u,v"],
    ["eval", "exists x. (x notin x)"],
    ["peano", "--base", "u,v", "--length", "3"],
]
FORMULA_TOKENS = ["forall", "exists", "x", "y", "u", "in", "notin", "=", "!=",
                  "(", ")", "!", "&", "|", "->", "<->", ".", " ", "-", "{"]
BINDINGS = ["x=u", "x=v", "y={u,v}", "x={u,{u,v}}", "y={{u}}", "x={}", "x=w",
            "x", "=u", "y={u", "x=u,v", "u=v"]


def _exit_code(argv) -> tuple[int, str]:
    """Run the command line in-process; its exit code and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "uv2.hfu").write_text(UV2)
    return path


@st.composite
def mutated_files(draw):
    text = UV2
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.sampled_from(FILE_PIECES)) + text[at + cut:]
    return text


@settings(max_examples=150, deadline=None)
@example(text="quineset-universe 1\natoms u,v\n0," + HUGE_ID + "\n", command=["check", "all"])
@example(text="quineset-universe 1\natoms u,v\n" + HUGE_ID + "\n", command=["check", "all"])
@given(text=mutated_files(), command=st.sampled_from(FILE_COMMANDS))
def test_mutated_universe_files_exit_with_a_documented_code(fuzz_dir, text, command):
    path = fuzz_dir / "mutated.hfu"
    path.write_bytes(text.encode("utf-8"))
    code, err = _exit_code([command[0], str(path), *command[1:]])
    # A file that does not load is a bad file, whatever the command.
    try:
        loads_universe(text)
    except UniverseFormatError:
        assert code == 65, err


@settings(max_examples=150, deadline=None)
@given(
    formula=st.lists(st.sampled_from(FORMULA_TOKENS), max_size=14).map(" ".join) | st.text(max_size=20),
    bindings=st.lists(st.sampled_from(BINDINGS), max_size=3),
)
def test_formula_texts_exit_with_a_documented_code(fuzz_dir, formula, bindings):
    argv = ["eval", str(fuzz_dir / "uv2.hfu"), formula]
    for binding in bindings:
        argv += ["--bind", binding]
    _exit_code(argv)


@settings(max_examples=100, deadline=None)
@given(
    base=st.sampled_from(["u,v", "v,u", "u,u", "u", "u,w", "", "u,v,u", ",", "U,V"]) | st.text(max_size=6),
    length=st.integers(-3, 10).map(str) | st.sampled_from(["", "x", "3.5", "0x3", " 2", "+4", HUGE_ID]),
    fmt=st.sampled_from([[], ["--format", "json"], ["--format", "xml"]]),
)
def test_peano_arguments_exit_with_a_documented_code(fuzz_dir, base, length, fmt):
    _exit_code(["peano", str(fuzz_dir / "uv2.hfu"), "--base", base, "--length", length, *fmt])
