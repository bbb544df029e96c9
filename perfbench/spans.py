"""Spans around luklearn's public functions, for the traced run.

`Tracer.install` wraps every public module-level function of the traced
modules, plus `TrainedModel.predict`, and rebinds the wrapper under every
name a luklearn module looks it up by: `luklearn.analyze.lp_solve` and
`luklearn.solver.lp_solve` become the same wrapper.  Each call records
one span (name, start, end, parent) in memory.  Methods other than
`predict` are not wrapped; their time counts towards the calling
function.

`layer_metrics` turns the spans into the per-layer metrics: self times
charged to the layer that owns each span, and counts of calls and work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array

MODULES = ("problem", "logic", "grounding", "constraints", "kernels", "train", "solver", "analyze", "cli")

# Span name -> the self-time metric it is charged to.  A span whose name
# is missing is transparent: its self time goes to the nearest owning
# ancestor.  LP solves are special-cased in `layer_metrics`.
OWNER = {
    "problem.load_problem": "problem.load_s",
    "problem.parse_problem": "problem.load_s",
    "constraints.compile_min_affine": "constraints.compile_s",
    "constraints.to_constraint_block": "constraints.compile_s",
    "constraints.pointwise_block": "constraints.compile_s",
    "constraints.consistency_blocks": "constraints.compile_s",
    "constraints.assemble_matrix": "constraints.assemble_s",
    "constraints.restrict_columns": "constraints.assemble_s",
    "constraints.matrix_csv": "constraints.csv_s",
    "kernels.gram": "kernels.gram_s",
    "kernels.psd_check": "kernels.gram_s",
    "train.assemble_problem": "train.assemble_s",
    "train.solve_primal": "train.solve_primal_s",
    "train.TrainedModel.predict": "train.predict_s",
    "train.load_model": "train.predict_s",
    "solver.solve_qp": "solver.qp_s",
    "solver.nullspace": "solver.nullspace_s",
    "solver.min_norm_solution": "solver.lstsq_s",
    "analyze.solve_problem2": "analyze.problem2_s",
    "analyze.deactivate": "analyze.deactivate_s",
    "analyze.deactivation_report": "analyze.deactivate_s",
    "analyze.kkt_certificate": "analyze.certificate_s",
    "analyze.grounded_entailment": "analyze.entailment_s",
    "analyze.minimal_support_sets": "analyze.minimal_sets_s",
    "analyze.ablate_and_compare": "analyze.ablate_s",
    "analyze.ablated_problem": "analyze.ablate_s",
    "analyze.removable_constraints": "analyze.report_s",
    "analyze.logical_coefficients": "analyze.report_s",
}
OWNER_PREFIX = {"logic.": "logic.parse_s", "grounding.": "grounding.expand_s", "cli.": "cli.self_s"}
LP_SPAN = "solver.lp_solve"  # lp_feasible calls lp_solve, so only lp_solve is counted
LP_WRAPPERS = ("solver.lp_solve", "solver.lp_feasible")

# Metrics every traced run reports, in this order, per timed pass.
METRICS = {
    "trace.wall_s": "s",
    "cli.self_s": "s",
    "problem.load_s": "s",
    "logic.parse_s": "s",
    "grounding.expand_s": "s",
    "constraints.compile_s": "s",
    "constraints.pieces": "count",
    "constraints.assemble_s": "s",
    "constraints.csv_s": "s",
    "kernels.gram_s": "s",
    "kernels.kernel_value_calls": "count",
    "train.assemble_s": "s",
    "train.predict_s": "s",
    "train.solve_primal_s": "s",
    "train.solve_primal_calls": "count",
    "solver.qp_s": "s",
    "solver.qp_iterations": "count",
    "solver.phase1_lps": "count",
    "solver.phase1_lp_s": "s",
    "solver.nullspace_s": "s",
    "solver.lstsq_s": "s",
    "solver.lp_calls": "count",
    "analyze.report_s": "s",
    "analyze.problem2_s": "s",
    "analyze.deactivate_s": "s",
    "analyze.deactivate_lps": "count",
    "analyze.certificate_s": "s",
    "analyze.certificate_lps": "count",
    "analyze.entailment_s": "s",
    "analyze.entailment_lps": "count",
    "analyze.minimal_sets_s": "s",
    "analyze.minimal_sets_lps": "count",
    "analyze.ablate_s": "s",
}

# Work counts read off a function's return value.
_EXTRACT = {
    "constraints.compile_min_affine": lambda r: len(r.pieces),
    "solver.solve_qp": lambda r: r.iterations,
}


class Tracer:
    """Span store: parallel arrays, one entry per wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[int, int] = {}
        self._stack: list[int] = []

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.work.clear()

    def _wrap(self, span: str, fn):
        nid = self._name_id.setdefault(span, len(self._name_id))
        if nid == len(self.names):
            self.names.append(span)
        extract = _EXTRACT.get(span)
        stack, name, parent, start, end = self._stack, self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t
                stack.pop()
            if extract is not None:
                self.work[idx] = extract(result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap the traced modules' public functions wherever they are bound."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        every = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
        ]
        for mod in every:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        model = importlib.import_module(f"{package.__name__}.train").TrainedModel
        model.predict = self._wrap("train.TrainedModel.predict", model.predict)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as fh:
            for i in range(len(self.name)):
                row = [self.names[self.name[i]], self.start[i], self.end[i], self.parent[i]]
                if i in self.work:
                    row.append(self.work[i])
                fh.write(json.dumps(row) + "\n")


def layer_metrics(tracer: Tracer, passes: int, scale: float) -> dict[str, float]:
    """Per-layer metrics per timed pass, from the spans of the timed passes,
    times multiplied by ``scale`` (to reference seconds).

    A span's self time is its duration minus that of its direct children.
    It is charged to the metric owning the span, or, for a transparent
    span, to the nearest owning ancestor.  An LP solve under `solve_qp` is
    the phase-1 LP and is charged to `solver.phase1_lp_s`; any other LP
    solve is charged to the analysis stage that ran it.  LP solves are
    counted per calling stage (`*_lps`).
    """
    names = tracer.names
    n = len(tracer.name)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    owner: list[str] = [""] * n
    totals = dict.fromkeys(METRICS, 0.0)
    stage_lps = {
        "solver.qp_s": "solver.phase1_lps",
        "analyze.deactivate_s": "analyze.deactivate_lps",
        "analyze.certificate_s": "analyze.certificate_lps",
        "analyze.entailment_s": "analyze.entailment_lps",
        "analyze.minimal_sets_s": "analyze.minimal_sets_lps",
    }
    for i in range(n):  # parents precede children
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
        span = names[tracer.name[i]]
        inherited = owner[p] if p >= 0 else "cli.self_s"
        own = OWNER.get(span) or next(
            (m for prefix, m in OWNER_PREFIX.items() if span.startswith(prefix)), None
        )
        if span in LP_WRAPPERS:
            own = "solver.phase1_lp_s" if inherited in ("solver.qp_s", "solver.phase1_lp_s") else None
        owner[i] = own or inherited
        if span == LP_SPAN:
            totals["solver.lp_calls"] += 1
            stage = "solver.qp_s" if owner[i] == "solver.phase1_lp_s" else owner[i]
            if stage in stage_lps:
                totals[stage_lps[stage]] += 1
        if span == "train.solve_primal":
            totals["train.solve_primal_calls"] += 1
        elif span == "kernels.kernel_value":
            totals["kernels.kernel_value_calls"] += 1
        elif span == "constraints.compile_min_affine":
            totals["constraints.pieces"] += tracer.work.get(i, 0)
        elif span == "solver.solve_qp":
            totals["solver.qp_iterations"] += tracer.work.get(i, 0)
    for i in range(n):
        totals[owner[i]] += dur[i] - child[i]
    return {
        k: totals[k] / passes * (scale if METRICS[k] == "s" else 1.0)
        for k in METRICS if not k.startswith("trace.")
    }
