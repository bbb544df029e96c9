"""One cold set-up in a fresh interpreter, timed from inside it.

    python3 perfbench/coldstart.py <workload> <seed> <work dir> <spawn time>

`run.py` starts this script several times per run to measure `setup_s`.
It imports luklearn's CLI, writes the workload's seeded problem files to
<work dir> and runs the first instance once, cold: lazy imports and the
first BLAS and LAPACK calls are paid here, as in any new process.  It then
times the calibration loop of `run.py` in this same process and prints
one JSON object: `elapsed_s`, from <spawn time> (the parent's
`time.monotonic()` just before it started this process; the clock is
shared between processes) to the end of the instance, and
`calibration_s`, the median calibration time.
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import luklearn.cli  # noqa: E402

import gen  # noqa: E402
from run import CALIBRATION_REPEATS, Runner, calibrate  # noqa: E402


def main() -> int:
    workload, seed, work, spawned = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), float(sys.argv[4])
    instances = gen.workload(workload, seed)
    runner = Runner(luklearn.cli, work)
    runner.write_inputs(instances)
    runner.run(instances[0])
    elapsed_s = time.monotonic() - spawned
    calibration_s = statistics.median(calibrate() for _ in range(CALIBRATION_REPEATS))
    print(json.dumps({"elapsed_s": elapsed_s, "calibration_s": calibration_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
