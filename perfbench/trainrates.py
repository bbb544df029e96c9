"""How often training fails today, by chain size and RBF width.

    python3 perfbench/trainrates.py

Trains `gen.chain_kb(default_rng([seed, 5, n, sigma * 100]), n, sigma)` for
every size n in SIZES, width in SIGMAS and seed below SEEDS through
luklearn's API and prints, per size and width, how many seeds end in
`Infeasible` or another `SolverError`.  Every
one of these KBs is feasible: no label is placed on p2 or p3, so p1 = p2 =
p3 satisfies all rules wherever K-hat is positive definite.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
from luklearn.problem import build_training_problem, parse_problem  # noqa: E402
from luklearn.solver import Infeasible, SolverError  # noqa: E402
from luklearn.train import solve_primal  # noqa: E402

import gen  # noqa: E402

SIZES = (2, 3, 4, 5, 6)
SIGMAS = (0.2, 0.3, 0.5)
SEEDS = 1000


def main() -> int:
    print("n  sigma  infeasible  solver_error  seeds  first_failing_seed")
    for n in SIZES:
        for sigma in SIGMAS:
            infeasible = errors = 0
            first = None
            for seed in range(SEEDS):
                kb = gen.chain_kb(np.random.default_rng([seed, 5, n, int(sigma * 100)]), n, sigma)
                try:
                    solve_primal(build_training_problem(parse_problem(kb.problem())))
                    continue
                except Infeasible:
                    infeasible += 1
                except SolverError:
                    errors += 1
                first = seed if first is None else first
            print(f"{n}  {sigma}  {infeasible}  {errors}  {SEEDS}  {first}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
