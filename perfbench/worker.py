"""Runs the in-process half of a benchmark run in a process of its own.

The parent sends one JSON job on stdin and reads one JSON result from
stdout. This process imports quineset from the ``src/`` directory of the
checkout it sits in and nothing from the reference model, so its peak
resident memory is quineset's alone.

Jobs:
  laws   each round loads every universe afresh, evaluates the seeded
         formula batch on one fresh load and runs ``check_dual_paths`` on
         another;
  suite  each round loads every universe afresh and runs ``run_suite``
         over all laws with the first two atoms (one universe is built to
         exactly its cap, see ``model.CAPS``);
  peano  builds the successor chain the CLI session asks for, checks it
         and formats it.

Rounds repeat until ``seconds`` have passed (at least one round). An
exception from quineset ends that universe's part of the round; it is
reported as ``error`` and its operations count as failed. With ``trace``
set, spans are recorded around the calls into quineset.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import quineset  # noqa: E402
from quineset import verifier  # noqa: E402

def _rss_mb():
    """Current resident memory, from /proc where it exists."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return pages * resource.getpagesize() / 2**20


def _report_entries(universe, report):
    """Results as JSON, with failing witnesses re-checked and spelled as literals."""
    out = []
    for r in report.results:
        entry = {"name": r.name, "status": r.status.value, "scanned": r.scanned}
        if r.witness is not None:
            entry["witness"] = {
                "bindings": {
                    name: quineset.format_set_literal(universe, sid)
                    for name, sid in r.witness.bindings
                },
                "formula": r.witness.formula,
                "domain": r.witness.domain,
                "reproduces": quineset.witness_reproduces(universe, r.witness),
            }
        out.append(entry)
    return out


class Run:
    def __init__(self, job):
        self.job = job
        self.tracer = spans.Tracer() if job["trace"] else None
        self.span = self.tracer.span if self.tracer else spans.null_span
        self.timeline = speed.Timeline()
        self.texts = {}
        self.setup_out = {}

    def set_round(self, label):
        if self.tracer:
            self.tracer.round = label

    def count(self, name, value):
        if self.tracer:
            self.tracer.count(name, value)

    def setup(self):
        """Build and dump every universe, repeated as ``speed.setup_repeats`` says."""
        for rep in speed.setup_repeats():
            self.set_round(f"setup{rep}")
            with self.timeline.step(f"setup{rep}"):
                for u in self.job["universes"]:
                    config = quineset.BuildConfig(
                        tuple(u["atoms"]), u["depth"],
                        u.get("max_sets", quineset.DEFAULT_MAX_SETS))
                    with self.span(f"builder.build_s.{u['name']}"):
                        universe, report = quineset.build(config)
                    with self.span(f"storage.dumps_s.{u['name']}"):
                        self.texts[u["name"]] = quineset.dumps_universe(universe)
                    del universe
                    self.setup_out[u["name"]] = {"counts": list(report.counts)}

    def load(self, name):
        with self.span(f"storage.loads_s.{name}"):
            universe = quineset.loads_universe(self.texts[name])
        self.count(f"storage.file_bytes.{name}", len(self.texts[name]))
        return universe

    def rounds(self, one_universe):
        outputs = []
        start = time.perf_counter()
        while not outputs or time.perf_counter() - start < self.job["seconds"]:
            index = len(outputs)
            self.set_round(index)
            out = {}
            for u in self.job["universes"]:
                try:
                    out[u["name"]] = one_universe(index, u["name"])
                except Exception:  # reported per operation, the run goes on
                    out[u["name"]] = {"error": traceback.format_exc(limit=3)}
            outputs.append(out)
        return outputs

    # --- laws ---------------------------------------------------------------

    def laws_round(self, index, name):
        with self.timeline.step(f"round{index}"):
            universe = self.load(name)
            values = []
            for text in self.job["formulas"]:
                with self.span("formula.parse_s"):
                    f = quineset.parse(text)
                with self.span(f"formula.evaluate_s.{name}.seeded"):
                    values.append(quineset.evaluate(universe, f))
            universe = self.load(name)
            n = len(universe)
            a1, a2 = universe.atoms[0], universe.atoms[1]
            if self.tracer:
                self.tracer.scan_universe = name
            with self.span(f"verifier.check_dual_paths_s.{name}") as span_index:
                report = quineset.check_dual_paths(universe, a1, a2)
        if self.tracer:
            self._label_oracles(name, span_index, report)
        self.count(f"core.scratch_sets.{name}", len(universe) - n)
        return {"size": n, "values": values, "results": _report_entries(universe, report)}

    def _label_oracles(self, name, parent, report):
        # check_dual_paths evaluates one oracle per law, in the order of its
        # results; name each evaluate span after the law it decided.
        calls = [s for s in self.tracer.spans[parent + 1:]
                 if s[0] == "evaluate" and s[3] == parent]
        if len(calls) != len(report.results):
            raise RuntimeError(
                f"check_dual_paths made {len(calls)} evaluate calls for "
                f"{len(report.results)} laws; the oracle spans cannot be named"
            )
        for span, result in zip(calls, report.results):
            law = result.name.removeprefix("dualpath-")
            span[0] = f"formula.evaluate_s.{name}.{law}"

    # --- suite --------------------------------------------------------------

    def suite_round(self, index, name):
        # Load and suite are separate steps, each scaled by its own samples.
        with self.timeline.step(f"round{index}"):
            universe = self.load(name)
        if self.tracer:
            self.count(f"core.rss_after_load_mb.{name}", _rss_mb())
            self.tracer.scan_universe = name
        n = len(universe)
        pair = (universe.atoms[0], universe.atoms[1])
        with self.timeline.step(f"round{index}"):
            with self.span(f"verifier.run_suite_s.{name}"):
                report = quineset.run_suite(universe, "all", pair)
        self.count(f"core.scratch_sets.{name}", len(universe) - n)
        return {"size": n, "results": _report_entries(universe, report)}

    # --- peano --------------------------------------------------------------

    def peano_round(self, index, name):
        universe = self.load(name)
        a1, a2 = universe.atoms[0], universe.atoms[1]
        length = self.job["length"]
        with self.span("peano.sequence_s"):
            chain = quineset.sequence(universe, a1, a2, length)
        with self.span("peano.check_peano_s"):
            report = quineset.check_peano(universe, chain)
        with self.span("literals.format_s"):
            literals = [quineset.format_set_literal(universe, e) for e in chain.elements]
        self.count("literals.output_bytes", sum(len(s) + 1 for s in literals))
        return {"sequence": literals, "results": _report_entries(universe, report)}

    def install_tracing(self):
        tracer = self.tracer

        def scan_name(result):
            if isinstance(result, quineset.CheckResult):
                return f"verifier.scan_s.{tracer.scan_universe}.{result.name}"
            return None

        tracer.scan_universe = None
        # Scans are looked up in verifier's namespace when run_suite and
        # check_dual_paths call them, so wrapping them there sees every call.
        for attr in dir(verifier):
            if attr.startswith(("check_", "_check_")) and attr not in (
                "check_dual_paths", "check_axioms"
            ):
                tracer.wrap(verifier, attr, scan_name)
        tracer.wrap(verifier, "evaluate", lambda _result: "evaluate")
        tracer.tally(verifier, "specify",
                     lambda suffix: f"constructors.specify{suffix}.{tracer.scan_universe}")

    def execute(self):
        kind = self.job["kind"]
        if self.tracer:
            self.install_tracing()
        self.setup()
        one_round = {"laws": self.laws_round, "suite": self.suite_round,
                     "peano": self.peano_round}[kind]
        outputs = self.rounds(one_round)
        result = {
            "quineset_file": quineset.__file__,
            "setup": self.setup_out,
            "events": self.timeline.events,
            "outputs": outputs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if self.tracer:
            result["trace"] = self.tracer.export()
        return result


def main():
    job = json.load(sys.stdin)
    result = Run(job).execute()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
