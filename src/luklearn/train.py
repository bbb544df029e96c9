"""Constrained kernel-machine training.

The decision variables are kernel-expansion coefficients, one per
grounding tuple and predicate.  Writing K-hat for the block-diagonal
matrix of per-predicate Gram matrices, the grounding vector is
p = K-hat a (plus an optional per-predicate bias), the objective is
Loss(a) = a . K-hat a, and every compiled constraint piece
M . p + q <= 0 becomes a linear inequality in a.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import stat
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .constraints import (
    ConstraintBlock,
    ConstraintMatrix,
    assemble_matrix,
    compile_min_affine,
    consistency_blocks,
    pointwise_block,
    to_constraint_block,
)
from .grounding import GroundingIndex, PredicateDecl, SampleSets, build_grounding_index
from .kernels import GramMatrix, KernelSpec, cross_gram, gram, psd_check
from .logic import Formula, check_concave_fragment, to_nnf, to_text
from .solver import DEFAULT_TOLERANCES, Infeasible, QpProblem, QpSolution, SolverError, Tolerances, solve_qp


class TrainError(Exception):
    pass


@dataclass(eq=False)
class TrainingProblem:
    decls: tuple[PredicateDecl, ...]
    index: GroundingIndex
    blocks: list[ConstraintBlock]
    matrix: ConstraintMatrix
    grams: dict[str, GramMatrix]
    kernel_specs: dict[str, KernelSpec]
    psd: dict[str, str]
    bias: bool
    tolerances: Tolerances
    keep_zero_pieces: bool = False

    def khat(self) -> np.ndarray:
        """Block-diagonal Gram matrix in predicate declaration order."""
        S = self.index.size
        K = np.zeros((S, S))
        for decl in self.decls:
            sl = self.index.slice_of(decl.name)
            K[sl, sl] = self.grams[decl.name].matrix
        return K

    def bias_map(self) -> np.ndarray:
        """S x J indicator assigning each coordinate its predicate's bias."""
        B = np.zeros((self.index.size, len(self.decls)))
        for j, decl in enumerate(self.decls):
            B[self.index.slice_of(decl.name), j] = 1.0
        return B

    @property
    def unique_optimum(self) -> bool:
        """True when every Gram matrix is positive definite (and bias is
        off), which makes the optimal grounding vector unique."""
        return (not self.bias) and all(v == "positive_definite" for v in self.psd.values())


def assemble_problem(
    decls: Sequence[PredicateDecl],
    samples: SampleSets,
    formulas: Sequence[Formula],
    kernels: Mapping[str, KernelSpec] | None = None,
    bias: bool = False,
    keep_zero_pieces: bool = False,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> TrainingProblem:
    """Compile formulas, supervisions and consistency requirements over
    the declared predicates into one constrained QP description.

    Logical blocks are named phi1, phi2, ... in formula order; pointwise
    blocks follow in predicate declaration then tuple order; consistency
    blocks close the list, lower bound before upper bound per coordinate.
    """
    decls = tuple(decls)
    kernels = dict(kernels or {})
    kernels.setdefault("default", KernelSpec())
    index = build_grounding_index(decls, samples)

    blocks: list[ConstraintBlock] = []
    for num, f in enumerate(formulas, start=1):
        nnf = to_nnf(f)
        report = check_concave_fragment(nnf)
        if not report.is_concave_fragment:
            raise TrainError(
                f"formula {to_text(f)!r} leaves the concave fragment at a "
                f"{report.offending_kind} node (path {list(report.offending_path)})"
            )
        aset = compile_min_affine(nnf, index)
        blocks.append(to_constraint_block(aset, f"phi{num}", "logical", to_text(f)))

    for decl in decls:
        used_ids: dict[str, int] = {}
        for t, label in samples.supervised.get(decl.name, ()):
            block = pointwise_block(decl.name, t, label, index)
            count = used_ids.get(block.block_id, 0)
            used_ids[block.block_id] = count + 1
            if count:  # contradictory labels on one tuple still get distinct ids
                block = ConstraintBlock(
                    f"{block.block_id}#{count + 1}", block.family, block.pieces, block.source
                )
            blocks.append(block)

    blocks.extend(consistency_blocks(index))
    matrix = assemble_matrix(blocks, index.size, keep_zero_pieces)

    grams = {}
    psd = {}
    for decl in decls:
        spec = kernels.get(decl.kernel)
        if spec is None:
            raise TrainError(
                f"predicate {decl.name!r} is bound to unknown kernel {decl.kernel!r}"
            )
        g = gram(spec, index.tuple_points(decl.name))
        verdict = psd_check(g)
        if verdict == "invalid":
            raise TrainError(
                f"kernel {decl.kernel!r} produced an indefinite Gram matrix for "
                f"{decl.name!r} (min eigenvalue {g.min_eigenvalue:.3e})"
            )
        grams[decl.name] = g
        psd[decl.name] = verdict

    specs = {decl.name: kernels[decl.kernel] for decl in decls}
    return TrainingProblem(
        decls, index, blocks, matrix, grams, specs, psd, bias, tolerances,
        keep_zero_pieces,
    )


@dataclass(eq=False)
class TrainedModel:
    problem: TrainingProblem
    alpha: np.ndarray                  # concatenated coefficients, length S
    biases: dict[str, float]
    p_star: np.ndarray
    loss: float
    activity: np.ndarray               # bool per retained constraint column
    multipliers: np.ndarray            # QP multipliers per retained column
    qp: QpSolution = field(repr=False)
    qp_problem: QpProblem = field(repr=False)  # the QP that ``qp`` solves

    def predict(self, predicate: str, X: Sequence[Sequence[float]]) -> np.ndarray:
        """Kernel-expansion values of ``predicate``, one per input row of ``X``."""
        problem = self.problem
        if all(d.name != predicate for d in problem.decls):
            raise TrainError(f"unknown predicate {predicate!r}")
        points = problem.index.tuple_points(predicate)
        K = cross_gram(problem.kernel_specs[predicate], X, points)
        return K @ self.alpha[problem.index.slice_of(predicate)] + self.biases[predicate]

    def max_violation(self) -> float:
        v = self.problem.matrix.violations(self.p_star)
        return float(np.max(v, initial=0.0))

    def to_dict(self) -> dict:
        problem = self.problem
        preds = []
        for decl in problem.decls:
            sl = problem.index.slice_of(decl.name)
            spec = problem.kernel_specs[decl.name]
            preds.append(
                {
                    "name": decl.name,
                    "domains": list(decl.domains),
                    "kernel": {
                        "kind": spec.kind,
                        "offset": spec.offset,
                        "degree": spec.degree,
                        "sigma": spec.sigma,
                    },
                    "tuples": [list(t) for t in problem.index.tuples[decl.name]],
                    "points": [list(pt) for pt in problem.index.tuple_points(decl.name)],
                    "alpha": self.alpha[sl].tolist(),
                    "bias": self.biases[decl.name],
                }
            )
        return {
            "format": "luklearn-model/1",
            "predicates": preds,
            "loss": self.loss,
            "p_star": dict(zip(problem.index.labels(), self.p_star.tolist())),
        }

    def save(self, path) -> None:
        write_json(path, self.to_dict())


_INDENT = "  "
_CONTAINERS = (dict, list, tuple)


@functools.cache
def _flat_encoder(depth: int):
    """JSON text through the stdlib's C encoder, separating items as
    ``indent=2`` does at ``depth`` (``indent`` itself selects the
    pure-Python encoder), for containers that hold no container.  The
    encoder is built once per depth, with the arguments
    ``JSONEncoder.iterencode`` gives it.  Such a container cannot be
    circular, so ``markers`` is None: a dict shared across calls would
    keep the ids of a call that raised."""
    encoder = json.JSONEncoder(separators=(",\n" + _INDENT * depth, ": "))
    encode = json.encoder.c_make_encoder(
        None, encoder.default, json.encoder.encode_basestring_ascii, None, encoder.key_separator,
        encoder.item_separator, encoder.sort_keys, encoder.skipkeys, encoder.allow_nan,
    )
    return lambda value: "".join(encode(value, 0))


def _scalar(value) -> str:
    """JSON text of ``value``, which is no container: the common kinds
    inline, the rest (non-finite floats, errors) by the C encoder."""
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return _flat_encoder(0)(value)


def _key(key) -> str:
    """JSON text of the dict key ``key``."""
    if isinstance(key, str):
        return json.encoder.encode_basestring_ascii(key)
    # other keys take the C encoder's own rules, errors included
    return _flat_encoder(0)({key: 0})[1:-4]


def _write_container(write, value, depth: int, flat: dict) -> None:
    """Stream the dict, list or tuple ``value`` at ``depth`` as
    ``json.dumps(value, indent=2)`` writes it there.  A container that
    holds no container is encoded in C, whole, and its text is kept in
    ``flat`` under ``(id(value), depth)``, so the same container met
    again at that depth is written from it; only containers of
    containers are walked here."""
    text = flat.get((id(value), depth))
    if text is not None:
        write(text)
        return
    is_dict = isinstance(value, dict)
    opening, closing = "{}" if is_dict else "[]"
    if not value:
        write(opening + closing)
        return
    inner = "\n" + _INDENT * (depth + 1)
    closing = "\n" + _INDENT * depth + closing
    kinds = set(map(type, value.values() if is_dict else value))
    if not any(issubclass(kind, _CONTAINERS) for kind in kinds):
        text = opening + inner + _flat_encoder(depth + 1)(value)[1:-1] + closing
        flat[id(value), depth] = text
        write(text)
        return
    write(opening)
    sep = inner
    for key, item in value.items() if is_dict else enumerate(value):
        head = sep + _key(key) + ": " if is_dict else sep
        if isinstance(item, _CONTAINERS):
            write(head)
            _write_container(write, item, depth + 1, flat)
        else:
            write(head + _scalar(item))
        sep = "," + inner
    write(closing)


@contextlib.contextmanager
def rewrite(path):
    """Open the text file ``path`` for writing like ``open(path, "w",
    encoding="utf-8")``, but write over its old bytes and cut it to the
    length written when the block ends, also when it raises, instead of
    truncating it on open.  On ext4 mounted with ``discard``, writing 2-20 KB through a
    truncating open of a non-empty file took 67-85 us, and 11-12 us
    this way.  An existing file keeps its inode, mode and links; a new
    one gets 0o666 less the umask.  A file that is not regular
    (``/dev/null``, a pipe) is not cut, as ``O_TRUNC`` leaves it alone.
    The write is not atomic: a process killed mid-write can leave the
    new bytes followed by old ones."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        fh = open(fd, "w", encoding="utf-8")
    except BaseException:
        os.close(fd)
        raise
    with fh:
        try:
            yield fh
        finally:
            if regular:
                fh.truncate()


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2)`` does, then a
    newline, streamed to the file container by container through
    ``rewrite``: joining the whole document first held it all in memory
    and saved no time.  A container that holds no container and appears
    again at the same depth is encoded once and its text written again;
    the texts are kept for this call only, keyed by the container's id,
    which stays valid because ``payload`` keeps every container alive
    until the call returns.  A payload that ``json.dumps`` refuses raises
    the same error here and leaves the text written before it."""
    with rewrite(path) as fh:
        if isinstance(payload, _CONTAINERS):
            _write_container(fh.write, payload, 0, {})
        else:
            fh.write(_scalar(payload))
        fh.write("\n")


def training_qp(tp: TrainingProblem, khat: np.ndarray) -> QpProblem:
    """The training QP in the coefficients, then one bias per predicate
    when ``tp.bias``: Q = 2 ``khat`` padded with zeros for the biases,
    no linear term, one row M'K-hat | M'B per constraint column, and the
    offsets q as b."""
    S = tp.index.size
    n = S + (len(tp.decls) if tp.bias else 0)
    Q = np.zeros((n, n))
    Q[:S, :S] = 2.0 * khat
    M = tp.matrix.matrix
    rows = M.T @ khat
    if tp.bias:
        rows = np.hstack([rows, M.T @ tp.bias_map()])
    return QpProblem(Q, np.zeros(n), rows, tp.matrix.offsets.copy())


def solve_primal(tp: TrainingProblem) -> TrainedModel:
    """Solve the constrained training problem to optimality.

    Raises solver.Infeasible when the constraint system admits no
    grounding vector.  The QP's Farkas vector y is checked in the
    coefficients, where K-hat M y can vanish while M y does not, so it is
    checked again in grounding space: M y = 0 to 1e-9 relative to q.y.
    A vector that fails there proves nothing, and SolverError is raised
    instead.  Every SolverError of training, this one included, names
    cond(K-hat).
    """
    S = tp.index.size
    khat = tp.khat()
    n_bias = len(tp.decls) if tp.bias else 0
    qp_problem = training_qp(tp, khat)
    try:
        qp = solve_qp(qp_problem, tp.tolerances)
    except Infeasible as exc:
        drift = float(np.max(np.abs(tp.matrix.matrix @ exc.farkas), initial=0.0))
        if drift > 1e-9 * exc.certificate:
            raise SolverError(
                f"training: the QP's Farkas vector y fails in grounding space "
                f"(||M y||_inf = {drift:.3e}, q.y = {exc.certificate:.3e}); "
                f"cond(K-hat) = {np.linalg.cond(khat):.3e}"
            ) from exc
        raise
    except SolverError as exc:
        raise SolverError(f"training: {exc}; cond(K-hat) = {np.linalg.cond(khat):.3e}") from exc

    alpha = qp.x[:S]
    bias_vec = qp.x[S:] if n_bias else np.zeros(len(tp.decls))
    biases = {decl.name: float(bias_vec[j]) for j, decl in enumerate(tp.decls)}
    p_star = khat @ alpha + (tp.bias_map() @ bias_vec if n_bias else 0.0)
    loss = float(alpha @ khat @ alpha)
    violations = tp.matrix.violations(p_star)
    activity = np.abs(violations) <= tp.tolerances.activity
    return TrainedModel(
        tp, alpha, biases, np.asarray(p_star), loss, activity, qp.multipliers.copy(), qp, qp_problem
    )


@dataclass(eq=False)
class LoadedModel:
    """A model restored from disk; supports prediction only."""

    predicates: list[dict]

    def predict(self, predicate: str, X: Sequence[Sequence[float]]) -> np.ndarray:
        """Kernel-expansion values of ``predicate``, one per input row of ``X``."""
        for entry in self.predicates:
            if entry["name"] == predicate:
                K = cross_gram(KernelSpec(**entry["kernel"]), X, entry["points"])
                return K @ np.asarray(entry["alpha"]) + entry["bias"]
        raise TrainError(f"unknown predicate {predicate!r}")


def load_model(path) -> LoadedModel:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise TrainError(f"{path} is not UTF-8: {exc}") from exc
    if data.get("format") != "luklearn-model/1":
        raise TrainError(f"{path} is not a model file")
    return LoadedModel(data["predicates"])
