"""Runs every workload once per seed and checks every artifact.

    python3 perfbench/seedrange.py

`run.py` reduces its seed modulo SEED_RANGE; this script is how that
range was verified: it runs every seed in [0, SEED_RANGE) through every
workload.  It prints one line per seed and workload with a
failed operation or a rejected artifact, and exits 1 if there was any.
"""

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import luklearn.cli  # noqa: E402

import gen  # noqa: E402
import verify  # noqa: E402
from run import OUT_ROOT, SEED_RANGE, Runner  # noqa: E402


def main() -> int:
    bad = 0
    work = OUT_ROOT / "seedrange"
    try:
        for seed in range(SEED_RANGE):
            for workload in gen.WORKLOADS:
                shutil.rmtree(work, ignore_errors=True)
                instances = gen.workload(workload, seed)
                runner = Runner(luklearn.cli, work)
                runner.write_inputs(instances)
                codes = {inst.name: runner.run(inst)[0] for inst in instances}
                failed = {name: [c for c in cs if c not in (0, 3)] for name, cs in codes.items()}
                problems = [f"{name}: failed operation {c}" for name, cs in failed.items() for c in cs]
                problems += verify.verify(workload, instances, runner, codes, failed)[1]
                for problem in problems:
                    print(f"seed {seed} {workload}: {problem}", flush=True)
                bad += bool(problems)
            print(f"seed {seed} done", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
