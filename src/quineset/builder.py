"""Staged enumeration of every hereditarily finite set over a given atom list."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Universe
from .errors import CapExceeded

DEFAULT_MAX_SETS = 100_000


@dataclass(frozen=True)
class BuildConfig:
    atom_names: tuple[str, ...]
    depth: int
    max_sets: int = DEFAULT_MAX_SETS

    def __post_init__(self):
        object.__setattr__(self, "atom_names", tuple(self.atom_names))
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if self.max_sets < len(self.atom_names):
            raise ValueError("max_sets must be at least the number of atoms")


@dataclass(frozen=True)
class StageReport:
    """Cumulative universe size after each stage; entry 0 is the atom count.

    The counts end at ``fixed_point_stage`` when a stage adds nothing, since
    every later stage would repeat it.
    """

    counts: tuple[int, ...]
    fixed_point_stage: int | None = None


def build(config: BuildConfig) -> tuple[Universe, StageReport]:
    """Close the atoms under nonempty-subset formation, one stage at a time.

    Stage 0 is the atoms; stage k+1 interns every nonempty subset of the
    stage-k domain (singletons of atoms collapse back onto the atoms, so a
    domain of n sets closes to exactly 2**n - 1). Each stage over n sets is
    one call to :meth:`Universe.intern_closed` with domain n, which appends
    the subsets not yet interned in mask order and leaves the build's closed
    form, so ids are deterministic for a given config. A
    stage whose closure would outgrow ``max_sets`` raises before anything
    is interned; a partially enumerated stage would silently break every
    "for all subsets" check downstream, so the cap aborts rather than
    truncates. A stage that adds nothing is a
    fixed point: the build stops there, and the universe still records the
    configured depth.
    """
    universe = Universe(config.atom_names, max_sets=config.max_sets)
    counts = [len(universe)]
    fixed_point = None
    for stage in range(1, config.depth + 1):
        n = len(universe)
        try:
            universe.intern_closed(n)
        except CapExceeded as exc:
            raise CapExceeded(exc.required, exc.max_sets, stage=stage) from None
        counts.append(len(universe))
        if len(universe) == n:
            # Nothing new can appear later either; the counts stop here.
            fixed_point = stage
            break
    universe.build_depth = config.depth
    return universe, StageReport(tuple(counts), fixed_point)
