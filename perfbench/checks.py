"""Comparison of quineset's reports with the reference model."""

from __future__ import annotations

import model


class Checker:
    """Collects every disagreement with the model as a readable line."""

    def __init__(self):
        self.problems = []
        self._witnesses = {}

    def fail(self, where, message):
        line = f"{where}: {message}"
        if line not in self.problems:
            self.problems.append(line)

    def expect(self, where, ok, message):
        if not ok:
            self.fail(where, message)
        return ok

    def results(self, where, results, laws, verdicts, universe):
        """Check a report's results against the model's verdicts.

        ``results`` are dicts with name, status and scanned, plus a witness
        for failing ones. A witness whose bindings are spelled as literals is
        evaluated in the model and must be false there; one carrying a
        ``reproduces`` flag must have it set.
        """
        by_name = {r["name"]: r for r in results}
        self.expect(where, sorted(by_name) == sorted(laws) and len(results) == len(laws),
                    f"laws {sorted(by_name)}, expected {sorted(laws)}")
        for law in laws:
            r = by_name.get(law)
            if r is None:
                continue
            status, count = verdicts[law]
            here = f"{where} {law}"
            if not self.expect(here, r["status"] == status,
                               f"status {r['status']}, model says {status}"):
                continue
            if status == model.FAILS:
                self.expect(here, 1 <= r["scanned"] <= count,
                            f"scanned {r['scanned']}, model has {count} qualifying")
                self.witness(here, r.get("witness"), universe)
            else:
                self.expect(here, r["scanned"] == count,
                            f"scanned {r['scanned']}, model says {count}")
                self.expect(here, r.get("witness") is None, "witness on a passing law")

    def witness(self, where, witness, universe):
        if not self.expect(where, witness is not None, "failing law without a witness"):
            return
        if "reproduces" in witness:
            self.expect(where, witness["reproduces"] is True,
                        "witness_reproduces is false for the reported witness")
        if "domain" in witness:
            self.expect(where, witness["domain"] == len(universe),
                        f"witness domain {witness['domain']}, universe has {len(universe)}")
        bindings = witness.get("bindings")
        if not isinstance(bindings, dict) or not all(isinstance(v, str) for v in bindings.values()):
            return
        key = (witness["formula"], tuple(sorted(bindings.items())), len(universe))
        if key not in self._witnesses:
            try:
                env = {name: model.parse_literal(text) for name, text in bindings.items()}
                formula = model.parse_formula(witness["formula"])
                self._witnesses[key] = model.evaluate(formula, env, universe.sets)
            except (ValueError, KeyError) as exc:
                self._witnesses[key] = f"unreadable: {exc}"
        value = self._witnesses[key]
        self.expect(where, value is False, f"witness is {value} in the model, expected false")

    def universe_file(self, where, text, universe, max_sets=None):
        """A stored universe must hold exactly the model's sets, members first."""
        lines = text.splitlines()
        atoms = universe.atoms
        header = ["quineset-universe 1", "atoms " + ",".join(atoms)]
        if not self.expect(where, lines[:2] == header, f"header {lines[:2]}"):
            return
        row = 2
        while row < len(lines) and lines[row].split(" ", 1)[0] in ("depth", "max-sets"):
            if max_sets is not None and lines[row].startswith("max-sets "):
                self.expect(where, lines[row] == f"max-sets {max_sets}", f"cap line {lines[row]!r}")
            row += 1
        reps = list(atoms)
        try:
            for line in lines[row:]:
                ids = [int(part) for part in line.split(",")]
                if ids != sorted(set(ids)) or ids[-1] >= len(reps):
                    raise ValueError(f"record {line!r} is not sorted members that precede it")
                reps.append(model.collapse(reps[i] for i in ids))
        except (ValueError, IndexError) as exc:
            self.fail(where, str(exc))
            return
        self.expect(where, len(reps) == len(universe) and set(reps) == universe.index,
                    f"file holds {len(reps)} records that are not the model's {len(universe)} sets")
