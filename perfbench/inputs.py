"""Seeded inputs: random formulas over the model, kept to a bounded cost.

Every formula is drawn from ``random.Random`` seeded with the workload name
and ``--seed``, so one seed always gives the same batch. A candidate whose
naive evaluation in the model visits more than ``STEP_BUDGET`` quantifier
instances on any target universe, or fewer than ``STEP_FLOOR``, is redrawn.
This keeps a batch's cost a small, steady share of a round, the same for
every seed to within a few percent, while its shape varies with the seed.
"""

from __future__ import annotations

import random

import model

STEP_BUDGET = 8_000
STEP_FLOOR = 1_000
BOUND_VARS = ("s", "t", "w")


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _atomic(rng, names):
    # One side is the innermost variable, the other preferably another one.
    x = names[-1]
    others = names[:-1]
    y = rng.choice(others) if others and rng.random() < 0.8 else rng.choice(names)
    if rng.random() < 0.5:
        x, y = y, x
    f = ("in", x, y) if rng.random() < 0.7 else ("=", x, y)
    return ("not", f) if rng.random() < 0.3 else f


def _connect(rng, parts):
    f = parts[0]
    for g in parts[1:]:
        op = rng.choice(("and", "or", "->", "<->"))
        f = (op, f, g) if rng.random() < 0.5 else (op, g, f)
    return ("not", f) if rng.random() < 0.2 else f


def _quantified(rng, scope, depth, level, bounded):
    """A quantifier binding ``BOUND_VARS[level]`` with ``depth`` nested levels.

    ``bounded`` guards every quantifier that has a variable in scope by
    membership in one of them: ``forall x. (x in y) -> ...`` or
    ``exists x. (x in y) & ...``.
    """
    var = BOUND_VARS[level]
    inner = scope + [var]
    parts = [_atomic(rng, inner) for _ in range(rng.randint(1, 2))]
    if depth > 1:
        parts.append(_quantified(rng, inner, depth - 1, level + 1, bounded))
    rng.shuffle(parts)
    body = _connect(rng, parts)
    kind = rng.choice(("forall", "exists"))
    if bounded and scope:
        guard = ("in", var, rng.choice(scope))
        body = ("->", guard, body) if kind == "forall" else ("and", guard, body)
    return (kind, var, body)


def draw_formula(rng, universes, *, depths, free=(), bounded=False, env_of=None):
    """Draw until a formula fits the budget on every universe.

    Returns ``(formula, envs, truths)``: one environment and one model truth
    value per universe. ``env_of(rng, universe)`` binds the ``free`` names.
    """
    while True:
        f = _quantified(rng, list(free), rng.choice(depths), 0, bounded)
        envs = [env_of(rng, u) if env_of else {} for u in universes]
        try:
            counted = [
                model.evaluate_counted(f, env, u.sets, budget=STEP_BUDGET)
                for u, env in zip(universes, envs)
            ]
        except model.BudgetExceeded:
            continue
        if min(steps for _truth, steps in counted) >= STEP_FLOOR:
            return f, envs, [truth for truth, _steps in counted]


def law_batch(rng, universes, size=8):
    """Closed formulas of quantifier depth 2 or 3, alternately bounded and not."""
    batch = []
    for i in range(size):
        f, _envs, truths = draw_formula(rng, universes, depths=(2, 3), bounded=i % 2 == 0)
        batch.append((model.format_formula(f), truths))
    return batch


def bind_two(rng, universe):
    return {"x": rng.choice(universe.sets), "y": rng.choice(universe.sets)}
