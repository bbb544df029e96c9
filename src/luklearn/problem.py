"""Problem files: one JSON document describing a whole experiment.

Sections: "domains" (named points), "predicates" (declaration order
matters; it fixes the coordinate layout), "kernels", "formulas",
"supervisions", optional "groundings" overrides and "options".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

from .grounding import GroundingError, PredicateDecl, SampleSets, build_samples
from .kernels import KernelError, KernelSpec
from .logic import Formula, FormulaError, parse_formula
from .solver import DEFAULT_TOLERANCES, Tolerances, tolerances_with
from .train import TrainingProblem, assemble_problem


class ProblemError(Exception):
    """A problem file failed validation; ``section`` names where."""

    def __init__(self, section: str, message: str):
        super().__init__(f"[{section}] {message}")
        self.section = section


_KERNEL_KEYS = {"kind", "offset", "degree", "sigma"}
_OPTION_KEYS = {"bias", "keep_zero_pieces", "tolerances"}


@dataclass(eq=False)
class Problem:
    decls: tuple[PredicateDecl, ...]
    samples: SampleSets
    formulas: list[Formula]
    kernels: dict[str, KernelSpec]
    bias: bool = False
    keep_zero_pieces: bool = False
    tolerances: Tolerances = field(default_factory=lambda: DEFAULT_TOLERANCES)


def _is_number(value) -> bool:
    """A JSON number: an int or a finite float, but not a bool.  ``json``
    also reads NaN, Infinity and -Infinity, which JSON has no number for."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


_JSON_TYPES = {dict: "an object", list: "an array"}
_REQUIRED = object()


def _section(data: Mapping, key: str, kind, default=_REQUIRED):
    """The section ``key`` of ``data``, of JSON type ``kind``; one that is
    missing is an error unless it has a ``default``."""
    if key not in data:
        if default is _REQUIRED:
            raise ProblemError(key, f"missing required section {key!r}")
        return default
    value = data[key]
    if not isinstance(value, kind):
        raise ProblemError(key, f"{key!r} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _is_names(value) -> bool:
    """A JSON array of strings."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def parse_problem(data: Mapping) -> Problem:
    if not isinstance(data, Mapping):
        raise ProblemError("root", "problem file must be a JSON object")

    domains = _section(data, "domains", dict)
    for name, points in domains.items():
        if not isinstance(points, dict) or not points:
            raise ProblemError("domains", f"domain {name!r} must map sample names to points")
        for sample, point in points.items():
            if not isinstance(point, list) or not all(_is_number(v) for v in point):
                raise ProblemError(
                    "domains", f"point {sample!r} in domain {name!r} must be a list of numbers, got {point!r}"
                )

    predicates = _section(data, "predicates", dict)
    decls = []
    for name, entry in predicates.items():
        if not isinstance(entry, dict) or not _is_names(entry.get("domains")):
            raise ProblemError("predicates", f"predicate {name!r} needs a 'domains' list of domain names")
        kernel = entry.get("kernel", "default")
        if not isinstance(kernel, str):
            raise ProblemError("predicates", f"predicate {name!r} must name its kernel by a string, got {kernel!r}")
        try:
            decls.append(PredicateDecl(name, tuple(entry["domains"]), kernel))
        except GroundingError as exc:
            raise ProblemError("predicates", str(exc)) from exc

    kernels: dict[str, KernelSpec] = {}
    for kid, entry in _section(data, "kernels", dict, {}).items():
        if not isinstance(entry, dict):
            raise ProblemError("kernels", f"kernel {kid!r} must be an object")
        unknown = set(entry) - _KERNEL_KEYS
        if unknown:
            raise ProblemError("kernels", f"kernel {kid!r} has unknown keys {sorted(unknown)}")
        for key in ("offset", "sigma"):
            if key in entry and not _is_number(entry[key]):
                raise ProblemError("kernels", f"kernel {kid!r}: {key!r} must be a JSON number, got {entry[key]!r}")
        if "degree" in entry and type(entry["degree"]) is not int:
            raise ProblemError("kernels", f"kernel {kid!r}: 'degree' must be a JSON integer, got {entry['degree']!r}")
        try:
            kernels[kid] = KernelSpec(**entry)
        except (KernelError, TypeError) as exc:
            raise ProblemError("kernels", f"kernel {kid!r}: {exc}") from exc
    kernels.setdefault("default", KernelSpec())
    for decl in decls:
        if decl.kernel not in kernels:
            raise ProblemError(
                "predicates", f"predicate {decl.name!r} uses undefined kernel {decl.kernel!r}"
            )

    supervisions = []
    for pos, entry in enumerate(_section(data, "supervisions", list, [])):
        if not isinstance(entry, dict) or not {"predicate", "sample", "label"} <= set(entry):
            raise ProblemError(
                "supervisions", f"entry {pos} needs 'predicate', 'sample' and 'label'"
            )
        predicate, sample, label = entry["predicate"], entry["sample"], entry["label"]
        if isinstance(sample, str):
            sample = [sample]
        if not isinstance(predicate, str):
            raise ProblemError("supervisions", f"entry {pos}: 'predicate' must be a string, got {predicate!r}")
        if not _is_names(sample):
            raise ProblemError(
                "supervisions", f"entry {pos}: 'sample' must be a sample name or a list of them, got {sample!r}"
            )
        if type(label) is not int or label not in (-1, 1):
            raise ProblemError("supervisions", f"entry {pos}: 'label' must be the integer -1 or +1, got {label!r}")
        supervisions.append((predicate, tuple(sample), label))

    groundings = _section(data, "groundings", dict, {})
    for name, tuples in groundings.items():
        if name not in predicates:
            raise ProblemError("groundings", f"grounding of undeclared predicate {name!r}")
        if not isinstance(tuples, list) or not all(_is_names(t) for t in tuples):
            raise ProblemError(
                "groundings", f"grounding of {name!r} must be a list of sample-name lists, got {tuples!r}"
            )
    try:
        samples = build_samples(domains, decls, supervisions, groundings)
    except GroundingError as exc:
        raise ProblemError("domains", str(exc)) from exc

    signature = {d.name: d.arity for d in decls}
    formulas = []
    for pos, text in enumerate(_section(data, "formulas", list, [])):
        if not isinstance(text, str):
            raise ProblemError("formulas", f"formula {pos + 1} must be a string")
        try:
            formulas.append(parse_formula(text, signature))
        except FormulaError as exc:
            raise ProblemError("formulas", f"formula {pos + 1}: {exc}") from exc

    options = _section(data, "options", dict, {})
    unknown = set(options) - _OPTION_KEYS
    if unknown:
        raise ProblemError("options", f"unknown option keys {sorted(unknown)}")
    tol_overrides = options.get("tolerances", {})
    if not isinstance(tol_overrides, dict):
        raise ProblemError("options", "'tolerances' must be an object")
    for key, value in tol_overrides.items():
        if not _is_number(value):
            raise ProblemError(
                "options",
                f"bad tolerance override: tolerance {key!r} must be finite and nonnegative "
                f"and a JSON number, got {value!r}",
            )
    try:
        tolerances = tolerances_with(**{k: float(v) for k, v in tol_overrides.items()})
    except (TypeError, ValueError) as exc:
        raise ProblemError("options", f"bad tolerance override: {exc}") from exc
    for key in ("bias", "keep_zero_pieces"):
        if not isinstance(options.get(key, False), bool):
            raise ProblemError("options", f"{key!r} must be true or false, got {options[key]!r}")

    return Problem(
        tuple(decls),
        samples,
        formulas,
        kernels,
        options.get("bias", False),
        options.get("keep_zero_pieces", False),
        tolerances,
    )


def load_problem(path) -> Problem:
    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8 (RFC 8259)
            data = json.load(fh)
    except OSError as exc:
        raise ProblemError("file", str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ProblemError("file", f"not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemError("file", f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_problem(data)


def build_training_problem(problem: Problem, tolerances: Tolerances | None = None) -> TrainingProblem:
    return assemble_problem(
        problem.decls,
        problem.samples,
        problem.formulas,
        problem.kernels,
        bias=problem.bias,
        keep_zero_pieces=problem.keep_zero_pieces,
        tolerances=tolerances or problem.tolerances,
    )
