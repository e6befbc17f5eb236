"""Finite-model workbench for hereditarily finite sets over self-membered atoms.

The objects here live in a small, strict theory: named atoms are the only
sets that contain themselves (and contain nothing else), every other set is
a nonempty finite collection of already-built sets, and there is no empty
set. Universes are enumerated to a chosen depth, first-order formulas are
evaluated over them exhaustively, and the structural laws of the theory are
verified by scan with counterexample witnesses.
"""

from .builder import DEFAULT_MAX_SETS, BuildConfig, StageReport, build
from .constructors import (
    NoSet,
    NoSetReason,
    Specified,
    SpecifyOutcome,
    binary_union,
    pair,
    powerset,
    singleton,
    specify,
    union_all,
)
from .core import SetId, Universe, ensure_distinct_atoms, ids_of
from .formula import (
    And,
    Classification,
    Env,
    Equal,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Member,
    Not,
    Or,
    classify,
    evaluate,
    format_formula,
    free_vars,
    parse,
)
from .literals import format_set_literal, parse_set_literal
from .peano import (
    NumberSequence,
    check_peano,
    check_sequences_distinct,
    sequence,
    successor,
)
from .storage import dumps_universe, load_universe, loads_universe, save_universe
from .verifier import (
    CheckResult,
    Report,
    Status,
    Witness,
    check_dual_paths,
    check_pair_membership_claim,
    check_russell,
    check_russell_equivalence,
    check_subset_derivations,
    check_theorem1,
    check_trichotomy,
    check_union_lemma,
    run_suite,
    witness_reproduces,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "And", "BuildConfig", "CheckResult", "Classification", "DEFAULT_MAX_SETS",
    "Env", "Equal", "Exists", "Forall", "Formula", "Iff", "Implies", "Member",
    "NoSet", "NoSetReason", "Not", "NumberSequence", "Or", "Report", "SetId",
    "Specified", "SpecifyOutcome", "StageReport", "Status", "Universe",
    "Witness", "binary_union", "build", "check_dual_paths",
    "check_pair_membership_claim", "check_peano",
    "check_russell", "check_russell_equivalence", "check_sequences_distinct",
    "check_subset_derivations", "check_theorem1", "check_trichotomy",
    "check_union_lemma", "classify", "dumps_universe", "ensure_distinct_atoms",
    "errors", "evaluate", "format_formula", "format_set_literal", "free_vars",
    "ids_of",
    "load_universe", "loads_universe", "pair", "parse", "parse_set_literal",
    "powerset", "run_suite", "save_universe", "sequence", "singleton",
    "specify", "successor", "union_all", "witness_reproduces",
]
