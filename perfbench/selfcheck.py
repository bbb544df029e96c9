"""Shows that the output checks reject wrong artifacts.

    python3 perfbench/selfcheck.py

Runs one instance of each workload (seed 0) through luklearn, confirms
that the checks accept its artifacts, then corrupts one artifact at a
time and confirms that each corruption is rejected: a p* entry, a
multiplier, a model coefficient, a verdict, a gradient certificate, an
entailment maximum, an M.csv entry, a minimal support set, an ablation
record, a grid value and an exit code.  Exits 1 if a check accepts a
corrupted artifact or rejects an intact one.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import luklearn.cli  # noqa: E402

import gen  # noqa: E402
import verify  # noqa: E402
from run import OUT_ROOT, Runner  # noqa: E402


def _edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data, indent=2))


def _first(blocks, verdicts):
    return next(b for b in blocks if b["verdict"] in verdicts)


def _flip_verdict(verdicts, to):
    def change(data):
        _first(data["blocks"], verdicts)["verdict"] = to
    change.__name__ = f"verdict {'/'.join(verdicts)} -> {to}"
    return change


def _drop_certificate(data):
    next(b for b in data["blocks"] if b["gradient_certificate"])["gradient_certificate"] = None


def _shift_maximum(data):
    entry = next(b for b in data["blocks"] if b["entailment"]["piece_maxima"])
    entry["entailment"]["piece_maxima"][0] += 1e-3


def _p_star(data):
    key = next(iter(data["p_star"]))
    data["p_star"][key] += 1e-3


def _multiplier(data):
    key = max(data["multipliers"], key=lambda k: data["multipliers"][k])
    data["multipliers"][key] += 0.1


def _model_alpha(data):
    data["predicates"][0]["alpha"][0] += 1e-3


def _minimal_set(data):
    sets = data["minimal_support_sets"]
    sets.pop()


def _ablation(data):
    data["identical"] = not data["identical"]
    data["p_distance"] = 1.0 if data["identical"] is False else 0.0


def _csv_entry(path: Path) -> None:
    rows = path.read_text().splitlines()
    cells = rows[1].split(",")
    cells[1] = repr(float(cells[1]) + 1.0)
    rows[1] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")


def _grid_value(path: Path) -> None:
    rows = path.read_text().splitlines()
    cells = rows[5].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)
    rows[5] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")


# (workload, instance name, file, corruption, codes to report instead of the real ones)
CASES = [
    ("train", None, "training_report.json", _p_star, None),
    ("train", None, "training_report.json", _multiplier, None),
    ("train", None, "model.json", _model_alpha, None),
    ("train", None, None, None, [3]),
    ("analyze", None, "analysis.json", _flip_verdict(("removable", "entailed"), "necessary"), None),
    ("analyze", None, "analysis.json", _drop_certificate, None),
    ("analyze", None, "analysis.json", _shift_maximum, None),
    ("compile", None, "M.csv", _csv_entry, None),
    ("audit", "audit_tension", "analysis.json", _flip_verdict(("necessary",), "removable"), None),
    ("audit", "audit_tension", "analysis.json", _minimal_set, None),
    ("audit", "audit_tension", "ablate0/ablation.json", _ablation, None),
    ("audit", "audit_tension", "grid.csv", _grid_value, None),
    ("audit", "audit_conflict", None, None, [0]),
]


def main() -> int:
    work = OUT_ROOT / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    bad = 0
    try:
        for workload in gen.WORKLOADS:
            instances = gen.workload(workload, 0)
            runner = Runner(luklearn.cli, work / workload)
            runner.write_inputs(instances)
            for case in CASES:
                if case[0] != workload:
                    continue
                _, name, rel, corrupt, fake_codes = case
                inst = next(i for i in instances if name in (None, i.name))
                codes, _ = runner.run(inst)
                out = runner.out_dir(inst)
                intact = verify.verify(workload, [inst], runner, {inst.name: codes}, {inst.name: []})[1]
                if intact:
                    print(f"FAIL {inst.name}: intact artifacts rejected: {intact}")
                    bad += 1
                    continue
                if rel is not None:
                    path = out / rel
                    if path.suffix == ".json":
                        _edit_json(path, corrupt)
                    else:
                        corrupt(path)
                what = corrupt.__name__ if corrupt else f"exit codes {fake_codes}"
                problems = verify.verify(workload, [inst], runner, {inst.name: fake_codes or codes},
                                         {inst.name: []})[1]
                if problems:
                    print(f"ok   {inst.name} {rel or ''} {what}: rejected ({problems[0][:90]})")
                else:
                    print(f"FAIL {inst.name} {rel or ''} {what}: accepted")
                    bad += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
