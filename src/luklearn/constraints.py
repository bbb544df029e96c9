"""Compilation of formulas into affine constraint blocks.

A formula in the concave fragment has a truth function expressible as
min_i (a_i . p + c_i) over the box [0,1]^S.  Requiring full truth
(value 1) then turns into affine inequalities: for every piece,
(-a_i) . p + (1 - c_i) <= 0.  ``compile_min_affine`` produces the
pieces of a quantified formula in one walk that grounds it as it goes;
this module also builds pointwise and consistency constraints, and
stacks every block into one matrix whose columns later index the
multiplier vector.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, starmap
from typing import Sequence, TextIO

import numpy as np

from .grounding import GroundingError, GroundingIndex, sample_universe
from .logic import Atom, Forall, Neg, NnfFormula, StrongDisj, WeakConj, to_text


class CompileError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class AffinePiece:
    """One affine function coord -> terms . p + constant, sparse over
    coordinates; ``terms`` is sorted by coordinate and has no zeros."""

    terms: tuple[tuple[int, float], ...]
    constant: float

    def value(self, p: Sequence[float]) -> float:
        return float(sum(c * p[k] for k, c in self.terms) + self.constant)

    def dense(self, size: int) -> np.ndarray:
        v = np.zeros(size)
        for k, c in self.terms:
            v[k] = c
        return v


def _piece(coeffs: dict[int, float], constant: float) -> AffinePiece:
    terms = tuple(sorted((k, c) for k, c in coeffs.items() if c != 0.0))
    return AffinePiece(terms, float(constant))


@dataclass(frozen=True)
class AffineSet:
    """A concave piecewise-linear function, the min of ``pieces``."""

    pieces: tuple[AffinePiece, ...]

    def value(self, p: Sequence[float]) -> float:
        return min(piece.value(p) for piece in self.pieces)


# A piece during compilation: the (terms, constant) of an AffinePiece.
_Piece = tuple[tuple[tuple[int, float], ...], float]

_CAP: _Piece = ((), 1.0)


def _disjunct(pieces: list[_Piece]) -> list[_Piece]:
    """The distinct pieces of a strong-disjunction operand, first
    occurrences kept, that are not constant true; a single piece is
    distinct already."""
    if len(pieces) == 1:
        terms, constant = pieces[0]
        return pieces if terms or constant < 1.0 else []
    return [a for a in dict.fromkeys(pieces) if a[0] or a[1] < 1.0]


def _sums(left: list[_Piece], right: list[_Piece]) -> list[_Piece]:
    """The cap, then the pointwise sum of every piece of ``left`` with
    every piece of ``right``, left-major.  Coefficients are merged
    through a dict only where the two pieces share a coordinate;
    otherwise their terms are concatenated and sorted."""
    sums = [_CAP]
    for ta, ca in left:
        for tb, cb in right:
            terms = ta + tb
            if len(dict(terms)) == len(terms):
                sums.append((tuple(sorted(terms)), ca + cb))
                continue
            coeffs = dict(ta)
            for k, c in tb:
                coeffs[k] = coeffs.get(k, 0.0) + c
            sums.append((tuple(sorted((k, c) for k, c in coeffs.items() if c != 0.0)), ca + cb))
    return sums


def compile_min_affine(nnf: NnfFormula, index: GroundingIndex) -> AffineSet:
    """Min-of-affines form of a closed concave-fragment formula in
    negation normal form, over the coordinates of ``index``.

    One walk grounds and compiles, on plain ``(terms, constant)``
    tuples.  A literal maps to one affine piece.  Weak conjunction
    concatenates the piece lists of its operands, and ``forall`` is the
    weak conjunction of its instances, one per sample of the variable's
    domain in name order; it binds the variable in one environment that
    is updated in place and restored on exit.  Strong disjunction
    contributes the constant-1 cap once plus all pointwise sums of one
    piece per operand, with each operand's duplicates removed first;
    constant-true pieces of the operands are not summed, since any sum
    involving them is dominated by the cap.  Duplicates are removed once
    more at the root.  Every removal keeps each piece's first
    occurrence, which gives the same list as removing them at every
    node, and an AffinePiece is built only for each distinct piece of
    the result.
    """
    universe = sample_universe(nnf, index)
    coordinates = index.coordinates
    # Every variable of the formula, bound to its current sample or to
    # None while it is free; a name that is not a key is a sample constant.
    env: dict[str, str | None] = dict.fromkeys(universe)

    def rec(node) -> list[_Piece]:
        kind = type(node)
        if kind is Atom or (kind is Neg and type(node.child) is Atom):
            atom = node if kind is Atom else node.child
            args = tuple(map(env.get, atom.args, atom.args))
            k = coordinates.get((atom.name, args))
            if k is None:
                if None in args:
                    free = atom.args[args.index(None)]
                    raise GroundingError(f"free variable {free!r} in {to_text(nnf)}; quantify it")
                index.coordinate_of(Atom(atom.name, args))  # raises, naming the atom
            return [(((k, 1.0),), 0.0)] if kind is Atom else [(((k, -1.0),), 1.0)]
        if kind is StrongDisj:
            return _sums(_disjunct(rec(node.left)), _disjunct(rec(node.right)))
        if kind is Forall:
            var = node.var
            names = universe.get(var)
            if names is None:
                raise GroundingError(f"cannot infer a domain for quantified variable {var!r}")
            if not names:
                raise GroundingError(f"the domain of variable {var!r} has no samples")
            outer = env[var]
            pieces = []
            for name in names:
                env[var] = name
                pieces += rec(node.body)
            env[var] = outer
            return pieces
        if kind is WeakConj:
            return rec(node.left) + rec(node.right)
        raise CompileError(f"node {kind.__name__} is outside the concave fragment")

    return AffineSet(tuple(starmap(AffinePiece, dict.fromkeys(rec(nnf)))))


@dataclass(frozen=True)
class ConstraintBlock:
    """One constraint h: the conjunction of pieces M_i . p + q_i <= 0.

    Pieces reuse AffinePiece with terms = M_i and constant = q_i.
    """

    block_id: str
    family: str  # "logical" | "pointwise" | "consistency"
    pieces: tuple[AffinePiece, ...]
    source: str = ""

    def __post_init__(self):
        if len(self.pieces) < 1:
            raise CompileError(f"block {self.block_id!r} has no pieces")

    def max_value(self, p: Sequence[float]) -> float:
        return max(piece.value(p) for piece in self.pieces)


def to_constraint_block(
    aset: AffineSet, block_id: str, family: str = "logical", source: str = ""
) -> ConstraintBlock:
    """Turn a min-of-affines truth function into the block requiring
    truth value 1: each piece (a, c) becomes (-a, 1 - c) <= 0.  Negating
    keeps the terms sorted and free of zeros.

    Constant pieces (the cap's image (0, 0)) are kept; they are part of
    the block's piece count even though they never bind.  Equal terms
    share one negated tuple, so a block of many pieces over few
    coordinates holds each (coordinate, coefficient) pair once.
    """
    negated = {term: (term[0], -term[1]) for piece in aset.pieces for term in piece.terms}
    pieces = tuple(
        AffinePiece(tuple(map(negated.get, piece.terms)), 1.0 - piece.constant) for piece in aset.pieces
    )
    return ConstraintBlock(block_id, family, pieces, source)


def pointwise_block(
    predicate: str, t: tuple[str, ...], label: int, index: GroundingIndex
) -> ConstraintBlock:
    """Supervision constraint: label +1 forces p = 1 (1 - p <= 0), label
    -1 forces p = 0 (p <= 0), both up to the consistency box."""
    k = index.coordinate_of(Atom(predicate, tuple(t)))
    block_id = f"pt:{predicate}:{','.join(t)}"
    source = f"{predicate}({','.join(t)}) = {'+1' if label == 1 else '-1'}"
    if label == 1:
        piece = _piece({k: -1.0}, 1.0)
    elif label == -1:
        piece = _piece({k: 1.0}, 0.0)
    else:
        raise CompileError(f"label for {block_id} must be -1 or +1, got {label!r}")
    return ConstraintBlock(block_id, "pointwise", (piece,), source)


def consistency_blocks(index: GroundingIndex) -> list[ConstraintBlock]:
    """Two one-piece blocks per coordinate keeping it inside [0, 1]:
    -p <= 0, then p - 1 <= 0, in coordinate order."""
    blocks = []
    for k in range(index.size):
        label = index.label(k)
        blocks.append(
            ConstraintBlock(f"lb:{label}", "consistency", (_piece({k: -1.0}, 0.0),), f"0 <= {label}")
        )
        blocks.append(
            ConstraintBlock(f"ub:{label}", "consistency", (_piece({k: 1.0}, -1.0),), f"{label} <= 1")
        )
    return blocks


@dataclass(eq=False)
class ConstraintMatrix:
    """All retained constraint pieces stacked as the columns of the S x N
    matrix M, stored by its nonzeros.

    Column nu holds M_nu and ``offsets[nu]`` holds q_nu, so the piece
    reads M[:, nu] . p + offsets[nu] <= 0.  Entry e of M sits at row
    ``coords[e]`` and column ``cols[e]`` with value ``values[e]``; the
    entries run in stacked column order (by column, then in the piece's
    term order), so ``cols`` never decreases.  ``matrix`` scatters them
    into the dense float64 M the first time it is read; writing the CSV
    never needs it.
    """

    shape: tuple[int, int]
    coords: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    column_labels: list[str]
    column_block: list[str]
    block_order: list[str]
    block_columns: dict[str, list[int]]
    families: dict[str, str]
    sources: dict[str, str]
    dropped: dict[str, int]

    @cached_property
    def matrix(self) -> np.ndarray:
        matrix = np.zeros(self.shape)
        matrix[self.coords, self.cols] = self.values
        return matrix

    @property
    def n_columns(self) -> int:
        return self.shape[1]

    def check_labels(self, coordinate_labels: Sequence[str]) -> None:
        """Raise CompileError unless there is one label per row of M."""
        if len(coordinate_labels) != self.shape[0]:
            raise CompileError("coordinate label count does not match the matrix")

    def violations(self, p: np.ndarray) -> np.ndarray:
        return self.matrix.T @ p + self.offsets


def assemble_matrix(
    blocks: Sequence[ConstraintBlock], size: int, keep_zero_pieces: bool = False
) -> ConstraintMatrix:
    """Stack block pieces into one matrix, in block order then piece order.

    Each piece's terms become the stored entries of its column, so the
    work and memory grow with the nonzeros of M, not with its size x
    columns cells; no dense array is made here.

    By default, pieces with no coordinates and a nonpositive offset are
    dropped: they can never bind, and the reference matrices this code
    is checked against do not carry the corresponding zero columns.
    ``keep_zero_pieces`` retains them so every block piece gets a column.
    A constant piece with positive offset is always kept; it marks an
    infeasible system.
    """
    ids = set()
    coords: list[int] = []
    cols: list[int] = []
    values: list[float] = []
    offsets = []
    labels = []
    column_block = []
    block_order = []
    block_columns: dict[str, list[int]] = {}
    families = {}
    sources = {}
    dropped = {}
    for block in blocks:
        if block.block_id in ids:
            raise CompileError(f"duplicate block id {block.block_id!r}")
        ids.add(block.block_id)
        block_order.append(block.block_id)
        block_columns[block.block_id] = []
        families[block.block_id] = block.family
        sources[block.block_id] = block.source
        kept = 0
        for piece in block.pieces:
            if not keep_zero_pieces and not piece.terms and piece.constant <= 0.0:
                dropped[block.block_id] = dropped.get(block.block_id, 0) + 1
                continue
            column = len(offsets)
            for k, c in piece.terms:
                if not 0 <= k < size:
                    raise CompileError(
                        f"block {block.block_id!r} uses coordinate {k} outside 0..{size - 1}"
                    )
                coords.append(k)
                cols.append(column)
                values.append(c)
            kept += 1
            block_columns[block.block_id].append(column)
            offsets.append(piece.constant)
            labels.append(f"{block.block_id}:{kept}")
            column_block.append(block.block_id)
    return ConstraintMatrix(
        (size, len(offsets)),
        np.array(coords, dtype=np.intp),
        np.array(cols, dtype=np.intp),
        np.array(values, dtype=float),
        np.array(offsets, dtype=float),
        labels,
        column_block,
        block_order,
        block_columns,
        families,
        sources,
        dropped,
    )


def matrix_csv(cm: ConstraintMatrix, coordinate_labels: Sequence[str], out: TextIO) -> None:
    """Write the CSV export to the open text file ``out``: header
    "coord,<column labels>", one row per grounding coordinate, and a
    trailing row for the offsets labeled "q".

    Every cell is ``repr`` of its float.  Labels containing commas (tuple
    coordinates) are quoted per the CSV standard; number cells never
    need quoting.  The stored entries of M, grouped by coordinate, and
    then the offsets fill the rows: a row starts as a copy of one shared
    list of "0.0" cells, only its entries are overwritten (so a stored
    -0.0 prints as -0.0), and it is written before the next is built.
    Each distinct nonzero value is formatted once.  A label count that
    does not match M raises before anything is written.
    """
    cm.check_labels(coordinate_labels)
    size, n = cm.shape
    order = np.argsort(cm.coords, kind="stable")
    cols, values = cm.cols[order], cm.values[order]
    bounds = [0, *np.cumsum(np.bincount(cm.coords, minlength=size)).tolist()]
    # (column, value) pairs of each row, built as the row is written.
    rows = (zip(cols[a:b].tolist(), values[a:b].tolist()) for a, b in zip(bounds, bounds[1:]))

    csv.writer(out, lineterminator="\n").writerow(["coord", *cm.column_labels])
    # The label field and, when cells follow, the comma that separates them.
    label_writer = csv.writer(out, lineterminator="")
    label_tail = [""] if n else []
    zeros = ["0.0"] * n
    text: dict[float, str] = {}
    for label, entries in zip([*coordinate_labels, "q"], chain(rows, [enumerate(cm.offsets.tolist())])):
        cells = zeros.copy()
        for j, v in entries:
            cell = text.get(v)
            if cell is None or v == 0.0:  # 0.0 and -0.0 are one key
                cell = text[v] = repr(v)
            cells[j] = cell
        label_writer.writerow([label, *label_tail])
        out.write(",".join(cells))
        out.write("\n")
