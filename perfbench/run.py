"""End-to-end benchmark of luklearn through its command line.

    python3 perfbench/run.py --workload train --seed 3 --seconds 22 --trace 0

Runs from the root of a source checkout and imports luklearn from
`src/`.  One process, one caller: the workload's instances run back to
back through `luklearn.cli.main`, in whole passes, until `--seconds` have
passed.  Times are reported in reference seconds: each measured time is
scaled by how much slower a fixed calibration loop, timed between the
instances of the same run, ran than on the reference machine.
`setup_s` is the median of SETUP_REPEATS cold set-ups, each in a fresh
interpreter (`coldstart.py`) and scaled by a calibration timed there.
Afterwards every artifact is checked by `checks.py`, which uses no
luklearn code, and every pass must have written byte-identical
artifacts.  The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`; with `--trace 1` the
metrics are the per-layer ones of `spans.py`.  See README.md.
"""

import os
import sys
import time

# One BLAS thread: the benchmark measures one caller on one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
CALIBRATION_REPEATS = 25
MIN_PASSES = 3
# Median time of `calibrate` on the reference machine (README.md).
CALIBRATION_REF_S = 0.002
# The workloads' inputs come from `seed % SEED_RANGE`: every seed in
# [0, SEED_RANGE) was run through every workload and its checks by
# `seedrange.py` without a failure.  Larger ranges meet seeds on which
# training fails today (see README.md).
SEED_RANGE = 64


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "analyze", "compile", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Writes a workload's problem files and drives `luklearn.cli.main`."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.sink = io.StringIO()

    def write_inputs(self, instances) -> None:
        (self.work / "in").mkdir(parents=True, exist_ok=True)
        for inst in instances:
            with open(self.problem_path(inst), "w") as fh:
                json.dump(inst.kb.problem(), fh, indent=1)

    def problem_path(self, inst) -> Path:
        return self.work / "in" / f"{inst.name}.json"

    def out_dir(self, inst) -> Path:
        return self.work / "out" / inst.name

    def run(self, inst) -> tuple[list, float]:
        """Every operation of one instance; returns exit codes (or the
        exception text) and the wall time."""
        codes = []
        start = time.perf_counter()
        for op in inst.ops:
            argv = [a.replace("{in}", str(self.problem_path(inst))).replace("{out}", str(self.out_dir(inst)))
                    for a in op]
            self.sink.seek(0)
            self.sink.truncate()
            try:
                with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
                    codes.append(self.cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            except Exception:  # an uncaught error is a failed operation, reported below
                codes.append(traceback.format_exc(limit=3))
        return codes, time.perf_counter() - start


def _digest(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def calibrate() -> float:
    """Wall time of a fixed pure-Python and numpy loop, about 2 ms.

    The reference machine's speed drifts by up to a factor of 2 over tens
    of seconds with other tenants' load; this loop slows down with it, so
    dividing by its median time in the same run removes the drift.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += (i * i) % 7
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    a = np.arange(50.0)
    for _ in range(200):
        a = a * 1.0000001 + 1.0
    return time.perf_counter() - start


def _cold_setup_s(workload: str, seed: int, work: Path) -> float:
    """One set-up in a fresh interpreter (`coldstart.py`), in reference
    seconds by the calibration loop timed in that interpreter."""
    spawned = time.monotonic()
    child = subprocess.run([sys.executable, str(HERE / "coldstart.py"), workload, str(seed), str(work), repr(spawned)],
                           check=True, capture_output=True, text=True, timeout=60)
    timing = json.loads(child.stdout.strip().splitlines()[-1])
    return timing["elapsed_s"] * CALIBRATION_REF_S / timing["calibration_s"]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "luklearn" / "cli.py").is_file():
        print(f"no luklearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import luklearn
    import luklearn.cli

    import gen
    import spans as tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(luklearn)

    work = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        # Set-up, timed in fresh interpreters, each cold: import
        # luklearn, write the seeded problem files, run one instance.
        setup_s = None
        if not args.trace:
            setup_s = statistics.median(_cold_setup_s(args.workload, args.seed % SEED_RANGE, work / f"setup{i}")
                                        for i in range(SETUP_REPEATS))
        instances = gen.workload(args.workload, args.seed % SEED_RANGE)
        runner = Runner(luklearn.cli, work)
        runner.write_inputs(instances)
        runner.run(instances[0])
        shutil.rmtree(work / "out", ignore_errors=True)
        return _measure(args, runner, instances, setup_s, tracer, tracing, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, runner, instances, setup_s, tracer, tracing, work) -> int:
    if tracer is not None:
        tracer.clear()
    walls, digests, calibrations = [], [], []
    times: dict[str, list[float]] = {inst.name: [] for inst in instances}
    codes_seen: dict[str, list] = {}
    begin = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - begin < args.seconds:
        t0 = time.perf_counter()
        for inst in instances:
            calibrations.append(calibrate())
            codes, dt = runner.run(inst)
            times[inst.name].append(dt)
            codes_seen.setdefault(inst.name, codes)
            if codes != codes_seen[inst.name]:
                codes_seen[inst.name] = ["exit codes changed between passes"] * len(codes)
        walls.append(time.perf_counter() - t0)
        digests.append(_digest(work / "out"))
    # A pass's time is the sum of each instance's median over the passes:
    # a burst of load on the machine then spoils one sample of a few
    # instances rather than a whole pass.
    calibration_s = statistics.median(calibrations)
    scale = CALIBRATION_REF_S / calibration_s
    medians = [statistics.median(v) * scale for v in times.values()]
    wall_s = sum(medians)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(walls) * sum(len(inst.ops) for inst in instances)
    failed_ops = {name: [c for c in codes if c not in (0, 3)] for name, codes in codes_seen.items()}
    failed = len(walls) * sum(len(v) for v in failed_ops.values())
    for name, bad in failed_ops.items():
        for c in bad:
            print(f"{name}: failed operation: {c}", file=sys.stderr)

    import verify

    correct = all(d == digests[0] for d in digests[1:])
    if not correct:
        print("artifacts differ between passes", file=sys.stderr)
    margins, problems = verify.verify(args.workload, instances, runner, codes_seen, failed_ops)
    for problem in problems:
        print(problem, file=sys.stderr)
    correct = correct and not problems and failed == 0

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "instance_p50_s": (statistics.median(medians), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        layers = tracing.layer_metrics(tracer, len(walls), scale)
        metrics = {"trace.wall_s": (wall_s, "s")}
        metrics.update({k: (v, tracing.METRICS[k]) for k, v in layers.items()})
        tracer.dump(OUT_ROOT / f"trace-{args.workload}-{args.seed}.jsonl")
    with open(OUT_ROOT / f"margins-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump({"passes": len(walls), "walls": walls, "calibration_s": calibration_s,
                   "raw_wall_s": wall_s / scale, "margins": margins.to_dict()}, fh, indent=1)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
