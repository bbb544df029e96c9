"""Command-line front end.

Subcommands: compile, train, analyze, ablate, predict-grid.  All
outputs are deterministic: rerunning a command on the same input file
produces byte-identical artifacts.

Exit codes: 0 success, 2 input error, 3 infeasible problem, 4 resource
guard tripped or a numerical result refused.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analyze import (
    AnalysisError,
    InconsistentSystem,
    SupportLimitExceeded,
    ablate_and_compare,
    removable_constraints,
)
from .constraints import CompileError, matrix_csv
from .grounding import GroundingError
from .kernels import KernelError
from .logic import FormulaError
from .problem import ProblemError, build_training_problem, load_problem
from .solver import Infeasible, SolverError, Tolerances, tolerances_with
from .train import TrainError, TrainingProblem, solve_primal, write_json

_TOL_FIELDS = tuple(f.name for f in dataclasses.fields(Tolerances))


def _tolerance(name: str):
    """Argument type of ``--tol-<name>``: a float that ``Tolerances`` accepts."""

    def parse(text: str) -> float:
        try:
            return getattr(tolerances_with(**{name: float(text)}), name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("problem", help="problem file (JSON)")
    parser.add_argument("-o", "--output-dir", default=".", help="directory for output files")
    parser.add_argument("--seed", type=int, default=None,
                        help="recorded in reports; commands themselves are deterministic")
    for name in _TOL_FIELDS:
        parser.add_argument(f"--tol-{name}", type=_tolerance(name), default=None, dest=f"tol_{name}")


def _setup(args) -> TrainingProblem:
    """Load the problem file and build its training problem under the
    file's tolerances and the ``--tol-*`` overrides."""
    problem = load_problem(args.problem)
    overrides = {
        name: getattr(args, f"tol_{name}")
        for name in _TOL_FIELDS
        if getattr(args, f"tol_{name}") is not None
    }
    return build_training_problem(problem, tolerances_with(problem.tolerances, **overrides))


def _header(args, tp: TrainingProblem) -> dict:
    """The version, tolerances and, when given, seed that open a report."""
    header = {"version": __version__, "tolerances": dataclasses.asdict(tp.tolerances)}
    if args.seed is not None:
        header["seed"] = args.seed
    return header


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_compile(args) -> int:
    tp = _setup(args)
    out = _out_dir(args)
    labels = tp.index.labels()
    tp.matrix.check_labels(labels)  # before M.csv is opened, so a failure leaves none
    with open(out / "M.csv", "w") as fh:
        matrix_csv(tp.matrix, labels, fh)
    manifest = {
        "version": __version__,
        "coordinates": labels,
        "blocks": [
            {
                "id": block.block_id,
                "family": block.family,
                "pieces": len(block.pieces),
                "columns": [tp.matrix.column_labels[nu] for nu in tp.matrix.block_columns[block.block_id]],
                "dropped_constant_pieces": tp.matrix.dropped.get(block.block_id, 0),
                "source": block.source,
            }
            for block in tp.blocks
        ],
    }
    write_json(out / "manifest.json", manifest)
    print(f"wrote {out / 'M.csv'} and {out / 'manifest.json'}")
    return 0


def _float_map(labels, values: np.ndarray) -> dict:
    return dict(zip(labels, values.tolist()))


def cmd_train(args) -> int:
    tp = _setup(args)
    model = solve_primal(tp)
    out = _out_dir(args)
    model.save(out / "model.json")
    labels = tp.index.labels()
    report = {
        **_header(args, tp),
        "loss": model.loss,
        "alpha": _float_map(labels, model.alpha),
        "p_star": _float_map(labels, model.p_star),
        "biases": model.biases,
        "activity": {
            label: bool(flag)
            for label, flag in zip(tp.matrix.column_labels, model.activity)
        },
        "multipliers": _float_map(tp.matrix.column_labels, model.multipliers),
        "kkt_residuals": {k: float(v) for k, v in model.qp.residuals.items()},
        "max_violation": model.max_violation(),
        "kernel_classification": tp.psd,
    }
    write_json(out / "training_report.json", report)
    print(f"loss {model.loss!r}; wrote {out / 'model.json'} and {out / 'training_report.json'}")
    return 0


def cmd_analyze(args) -> int:
    tp = _setup(args)
    model = solve_primal(tp)
    report = removable_constraints(
        model,
        mode=args.mode,
        check_entailment=args.entailment,
        minimal_sets=args.minimal_sets,
        support_limit=args.support_limit,
    )
    payload = {**_header(args, tp), **report.to_dict()}
    out = _out_dir(args)
    write_json(out / "analysis.json", payload)
    for entry in report.blocks:
        print(f"{entry.block_id}: {entry.verdict}")
    print(f"wrote {out / 'analysis.json'}")
    return 0


def cmd_ablate(args) -> int:
    tp = _setup(args)
    record = ablate_and_compare(tp, args.drop)
    payload = {**_header(args, tp), **dataclasses.asdict(record)}
    out = _out_dir(args)
    write_json(out / "ablation.json", payload)
    print(
        f"{args.drop}: loss {record.loss!r} -> {record.ablated_loss!r}, "
        f"optimum distance {record.p_distance!r}"
    )
    print(f"wrote {out / 'ablation.json'}")
    return 0


def cmd_predict_grid(args) -> int:
    tp = _setup(args)
    if all(d.name != args.predicate for d in tp.decls):
        raise ProblemError("predicates", f"unknown predicate {args.predicate!r}")
    dim = len(tp.index.tuple_points(args.predicate)[0])
    if dim not in (1, 2):
        raise ProblemError(
            "predicates",
            f"predict-grid supports input dimension 1 or 2, {args.predicate!r} has {dim}",
        )
    model = solve_primal(tp)
    grid = list(itertools.product(np.linspace(args.min, args.max, args.steps).tolist(), repeat=dim))
    values = model.predict(args.predicate, grid).tolist()
    lines = [",".join(["x", "y"][:dim] + [args.predicate])]
    lines += [",".join(repr(v) for v in (*point, value)) for point, value in zip(grid, values)]
    out = _out_dir(args)
    (out / "grid.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'grid.csv'}")
    return 0


def _int_at_least(low: int):
    """Argument type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``luklearn`` parser, built once per process: parsing leaves
    it unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="luklearn",
        description="Train kernel machines under hard fuzzy-logic constraints "
        "and analyze which constraints are unnecessary.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)

    p = sub.add_parser("compile", help="export the constraint matrix and block manifest", parents=[common])
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("train", help="solve the constrained training problem", parents=[common])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="per-block removability verdicts and certificates", parents=[common])
    p.add_argument("--mode", choices=("all", "logical"), default="all")
    p.add_argument("--entailment", action="store_true",
                   help="also run the logical-consequence check per block")
    p.add_argument("--minimal-sets", action="store_true",
                   help="search for the smallest supporting block subsets")
    p.add_argument("--support-limit", type=_int_at_least(0), default=20)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ablate", help="retrain without one block and compare", parents=[common])
    p.add_argument("--drop", required=True, help="block id to remove")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("predict-grid", help="CSV of one predicate over an input grid", parents=[common])
    p.add_argument("--predicate", required=True)
    p.add_argument("--min", type=float, default=0.0)
    p.add_argument("--max", type=float, default=1.0)
    p.add_argument("--steps", type=_int_at_least(1), default=21, help="grid points per axis, at least 1")
    p.set_defaults(func=cmd_predict_grid)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (SupportLimitExceeded, SolverError, InconsistentSystem) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 4
    except (
        ProblemError,
        FormulaError,
        GroundingError,
        CompileError,
        KernelError,
        TrainError,
        AnalysisError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
