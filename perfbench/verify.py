"""Checks of one run's artifacts, workload by workload (see checks.py)."""

from __future__ import annotations

import zlib

import numpy as np

import checks


def verify(workload: str, instances, runner, codes: dict, failed: dict):
    """Check the artifacts of the last pass.  Returns the margins and a
    list of problems; an instance with a failed operation is not checked."""
    margins = checks.Margins()
    problems = []
    for inst in instances:
        if failed[inst.name]:
            continue
        try:
            _verify_instance(workload, inst, runner.out_dir(inst), codes[inst.name], margins)
        except checks.CheckFailed as exc:
            problems.append(f"{inst.name}: {exc}")
        except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
            problems.append(f"{inst.name}: malformed artifact: {type(exc).__name__}: {exc}")
    return margins, problems


def _verify_instance(workload, inst, out, codes, m) -> None:
    if workload == "compile":
        _expect(codes, 0)
        checks.check_compile(inst.kb, out, np.random.default_rng(zlib.crc32(inst.name.encode())), m)
        return
    ref = checks.Reference(inst.kb)
    if not ref.feasible():
        _expect(codes, 3)
        return
    _expect(codes, 0)
    if workload == "train":
        checks.check_train(ref, out, m)
    elif workload == "analyze":
        checks.check_analysis(ref, out, m, minimal_sets=False)
    else:
        alpha = checks.check_train(ref, out, m)
        loss = float(alpha @ ref.K @ alpha)
        verdicts = checks.check_analysis(ref, out, m, minimal_sets=True)
        for op in inst.ops:
            if op[0] == "ablate":
                bid = op[op.index("--drop") + 1]
                checks.check_ablation(ref, out / op[-1].rsplit("/", 1)[1], bid, verdicts[bid], loss, m)
        checks.check_grid(ref, out, inst.grid_predicate, m)


def _expect(codes, code) -> None:
    if any(c != code for c in codes):
        raise checks.CheckFailed(f"exit codes {codes}, expected {code} for every operation")
