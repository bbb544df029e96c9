"""Compilation of formulas into affine constraint blocks.

A formula in the concave fragment has a truth function expressible as
min_i (a_i . p + c_i) over the box [0,1]^S.  Requiring full truth
(value 1) then turns into affine inequalities: for every piece,
(-a_i) . p + (1 - c_i) <= 0.  ``compile_min_affine`` produces the
pieces of a quantified formula by walking its body once per equality
pattern of its atoms and reading every grounding's coordinates off
lookup tables; this module also builds pointwise and consistency
constraints, and stacks every block into one matrix whose columns later
index the multiplier vector.  Pieces travel as flat CSR-style arrays
(``Pieces``).
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, count, repeat
from operator import add
from types import SimpleNamespace
from typing import TextIO

import numpy as np

from .grounding import GroundingError, GroundingIndex, sample_universe
from .logic import Atom, Forall, Neg, NnfFormula, StrongDisj, WeakConj, to_text


class CompileError(Exception):
    pass


# A piece during compilation, and as ``Pieces.of`` takes it: its
# (coordinate, coefficient) terms, sorted by coordinate and free of
# zeros, and its constant.
_Piece = tuple[tuple[tuple[int, float], ...], float]


@dataclass(eq=False, slots=True)
class Pieces:
    """Affine pieces stored as flat CSR-style arrays.

    Piece i is the sum of coefs[e] * p[coords[e]] over e in
    indptr[i]:indptr[i + 1], plus constants[i].  ``indptr`` (from 0,
    never decreasing, to len(coords)) and ``coords`` are intp, ``coefs``
    and ``constants`` float64; a piece's coordinates strictly increase
    and its coefficients are nonzero.  Sets and blocks built from one
    another share these arrays, so they are never written.  Pieces are
    equal when their four arrays are, value by value (-0.0 == 0.0).
    """

    indptr: np.ndarray
    coords: np.ndarray
    coefs: np.ndarray
    constants: np.ndarray

    @classmethod
    def of(cls, pieces: Iterable[_Piece]) -> Pieces:
        pieces = list(pieces)
        terms = [term for piece_terms, _ in pieces for term in piece_terms]
        return cls(
            np.fromiter(accumulate((len(t) for t, _ in pieces), initial=0), np.intp, len(pieces) + 1),
            np.array([k for k, _ in terms], dtype=np.intp),
            np.array([c for _, c in terms], dtype=float),
            np.array([c for _, c in pieces], dtype=float),
        )

    @classmethod
    def concatenate(cls, parts: Sequence[Pieces]) -> Pieces:
        """The pieces of every part, in order, as one Pieces."""
        if not parts:
            return cls.of(())
        lengths: list[int] = []
        for part in parts:
            if len(part.constants) == 1:  # one piece: all of the part's terms
                lengths.append(len(part.coords))
            else:
                lengths += (part.indptr[1:] - part.indptr[:-1]).tolist()
        return cls(
            np.fromiter(accumulate(lengths, initial=0), np.intp, len(lengths) + 1),
            np.concatenate([part.coords for part in parts]),
            np.concatenate([part.coefs for part in parts]),
            np.concatenate([part.constants for part in parts]),
        )

    def __len__(self) -> int:
        return len(self.constants)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pieces):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in Pieces.__slots__)

    def lengths(self) -> np.ndarray:
        """The number of terms of every piece."""
        return self.indptr[1:] - self.indptr[:-1]

    def dense(self, size: int) -> np.ndarray:
        """The coefficient rows of the pieces, one per piece, scattered
        into a len x ``size`` array at once."""
        rows = np.zeros((len(self), size))
        rows[np.arange(len(self)).repeat(self.lengths()), self.coords] = self.coefs
        return rows

    def values(self, p: Sequence[float]) -> np.ndarray:
        """Every piece's value at ``p``.  Each sum adds its products in
        term order starting from 0.0, then the constant, so its bits do
        not depend on the other pieces."""
        owners = np.arange(len(self)).repeat(self.lengths())
        products = self.coefs * np.asarray(p, dtype=float)[self.coords]
        return np.bincount(owners, products, len(self)) + self.constants


@dataclass(frozen=True)
class AffineSet:
    """A concave piecewise-linear function, the min of ``pieces``.  It
    holds them rather than being them, because callers, perfbench's
    tracer among them, count a compile's pieces as ``len(set.pieces)``."""

    pieces: Pieces

    def value(self, p: Sequence[float]) -> float:
        values = self.pieces.values(p)
        return float(values[values.argmin()])


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


def _domain(universe: dict[str, list[str]], var: str) -> list[str]:
    names = universe.get(var)
    if names is None:
        raise GroundingError(f"cannot infer a domain for quantified variable {var!r}")
    if not names:
        raise GroundingError(f"the domain of variable {var!r} has no samples")
    return names


def _occurrence_coordinates(
    occurrences: dict[tuple[str, tuple], int], axes: list[list[str]], index: GroundingIndex
) -> list[list[int]]:
    """The coordinate of every occurrence, in id order, in every
    grounding of the prefix (first variable slowest).  An argument is a
    sample name or the position of a prefix variable, whose samples are
    ``axes[position]``; the lookup table is read at the sums of the
    arguments' scaled positions, and gives -1 where that atom has no
    coordinate.  Then the first grounding with such an atom raises the
    GroundingError of its first one.
    """
    groundings = math.prod(map(len, axes))
    grids: dict[tuple[int, int], list[int]] = {}  # (prefix position, id of its scaled positions) -> per grounding
    columns = []
    for name, args in occurrences:
        table, positions = index.coordinate_table(name)
        if len(args) != len(positions):  # the wrong arity: no coordinate anywhere
            columns.append([-1] * groundings)
            continue
        at = None
        for arg, (where, extra) in zip(args, positions):
            if type(arg) is str:
                part = repeat(where.get(arg, extra), groundings)
            else:
                part = grids.get((arg, id(where)))
                if part is None:
                    scaled = map(where.get, axes[arg], repeat(extra))
                    part = list(chain.from_iterable(map(repeat, scaled, repeat(math.prod(map(len, axes[arg + 1 :]))))))
                    part = grids[arg, id(where)] = part * math.prod(map(len, axes[:arg]))
            at = part if at is None else map(add, at, part)
        columns.append(list(map(table.__getitem__, at)))
    if min(chain.from_iterable(columns), default=0) < 0:
        g = next(g for g in range(groundings) if any(column[g] < 0 for column in columns))
        name, args = list(occurrences)[next(j for j, column in enumerate(columns) if column[g] < 0)]
        at = np.unravel_index(g, tuple(map(len, axes)))
        index.coordinate_of(Atom(name, tuple(a if type(a) is str else axes[a][at[a]] for a in args)))
    return columns


def _walk(node, w: SimpleNamespace) -> list[_Piece]:
    """The pieces of ``node``, walked under the state ``w`` that
    ``compile_min_affine`` sets up."""
    kind = type(node)
    if kind is Atom or (kind is Neg and type(node.child) is Atom):
        atom = node if kind is Atom else node.child
        args = tuple(map(w.env.get, atom.args, atom.args))
        if None in args:
            free = atom.args[args.index(None)]
            raise GroundingError(f"free variable {free!r} in {to_text(w.nnf)}; quantify it")
        j = w.occurrences.setdefault((atom.name, args), len(w.occurrences))
        if j == len(w.slots):  # a new occurrence, met in the first walk
            w.slots.append(j)
        k = w.slots[j]
        return [(((k, 1.0),), 0.0)] if kind is Atom else [(((k, -1.0),), 1.0)]
    if kind is StrongDisj:
        return _sums(_disjunct(_walk(node.left, w)), _disjunct(_walk(node.right, w)))
    if kind is Forall:
        var = node.var
        names = _domain(w.universe, var)
        outer = w.env[var]
        pieces = []
        for name in names:
            w.env[var] = name
            pieces += _walk(node.body, w)
        w.env[var] = outer
        return pieces
    if kind is WeakConj:
        return _walk(node.left, w) + _walk(node.right, w)
    raise CompileError(f"node {kind.__name__} is outside the concave fragment")


def compile_min_affine(nnf: NnfFormula, index: GroundingIndex) -> AffineSet:
    """Min-of-affines form of a closed concave-fragment formula in
    negation normal form, over the coordinates of ``index``.

    The walk runs on plain ``(terms, constant)`` tuples.  A literal maps
    to one affine piece.  Weak conjunction concatenates the piece lists
    of its operands, and ``forall`` is the weak conjunction of its
    instances, one per sample in name order.  Strong disjunction gives
    the constant-1 cap once plus all pointwise sums of one piece per
    operand, each operand's duplicates removed first; constant-true
    pieces are not summed, since the cap dominates any sum with them.

    The root forall-prefix is lifted, not walked: every atom occurrence
    of the body is resolved for all groundings of the prefix at once
    (first variable slowest) through the lookup tables of ``index``, and
    the groundings are grouped by the order of their occurrences'
    coordinates, which fixes which occurrences coincide.  The body is
    walked once per such equality pattern, over slots (an occurrence's
    slot is the first occurrence with its coordinate), and each group
    reads its groundings' coordinates off the slots' columns into that
    walk's pieces, terms sorted by coordinate.  Duplicates go once more
    over all groundings, in grounding then piece order.  Each removal
    keeps first occurrences, which gives the pieces, in order, of
    walking each grounding; an error is the one the first grounding to
    meet it raises first.  No prefix is the case of one grounding.
    """
    universe = sample_universe(nnf, index)
    # The walk's state.  ``env`` binds each variable of the formula to its
    # prefix position, to its current sample inside an inner forall, or
    # to None while it is free; other names are sample constants.
    # ``occurrences`` numbers each distinct atom occurrence (predicate,
    # arguments under env) in walk order, and ``slots`` holds the slot
    # each number stands for in the pattern being walked; the first walk
    # gives every occurrence its own slot.
    w = SimpleNamespace(nnf=nnf, universe=universe, env=dict.fromkeys(universe), occurrences={}, slots=[])
    axes = []  # the samples of each prefix variable
    body = nnf
    while type(body) is Forall:
        w.env[body.var] = len(axes)
        axes.append(universe.get(body.var) or _domain(universe, body.var))
        body = body.body
    occurrences = w.occurrences  # every distinct occurrence, once the first walk ends
    try:
        distinct = _walk(body, w)
    except (GroundingError, CompileError):
        # The first grounding meets an error of the walk after the
        # occurrences seen so far; a missing atom before it comes first.
        _occurrence_coordinates(occurrences, [axis[:1] for axis in axes], index)
        raise
    columns = _occurrence_coordinates(occurrences, axes, index)
    groundings = math.prod(map(len, axes))

    # Group the groundings by the order of their occurrences'
    # coordinates: equal, below or above, per pair of occurrences of one
    # predicate (those of two predicates keep the order of declaration).
    # The order fixes the equality pattern, so the walk over its slots,
    # and the coordinate order of each piece's terms.
    group_of = [0] * groundings
    members = [columns]
    keys = list(occurrences)
    pairs = [(i, j) for j in range(len(keys)) for i in range(j) if keys[i][0] == keys[j][0]]
    if pairs:
        coords = np.array(columns)
        signs = np.sign(coords[[i for i, _ in pairs]] - coords[[j for _, j in pairs]]).astype(np.int8)
        signs = signs[(signs != signs[:, :1]).any(1)]  # a fixed order splits nothing
        if len(signs):
            order = np.lexsort(signs)
            new = (signs[:, order[1:]] != signs[:, order[:-1]]).any(0)
            ids = np.empty_like(order)
            ids[order] = np.concatenate(([0], new.cumsum()))
            group_of = ids.tolist()
            members = [coords[:, m].tolist() for m in np.split(order, new.nonzero()[0] + 1)]

    # Each group's pieces, grounding-major: its pattern's walk, terms
    # sorted by the group's first grounding, then every grounding's
    # coordinates read off the slots' columns.  A piece is keyed by its
    # coordinates and the id of its coefficients and constant.
    walks = {tuple(range(len(keys))): distinct}
    signatures: dict[tuple[tuple[float, ...], float], int] = {}
    streams = []
    for group in members:
        first_grounding = [column[0] for column in group]
        first: dict[int, int] = {}
        pattern = tuple(map(first.setdefault, first_grounding, count()))
        pieces = walks.get(pattern)
        if pieces is None:
            w.slots = list(pattern)
            pieces = walks[pattern] = _walk(body, w)
        rows = []
        for terms, constant in pieces:
            if len(terms) > 1:
                terms = sorted(terms, key=lambda term: first_grounding[term[0]])
            sig = signatures.setdefault((tuple([c for _, c in terms]), constant), len(signatures))
            if terms:
                rows.append(zip(repeat(sig), zip(*[group[k] for k, _ in terms])))
            else:
                rows.append(repeat((sig, ()), len(group[0])))
        streams.append(zip(*rows))
    # Keep each piece's first occurrence, in grounding then piece order.
    kept = dict.fromkeys(chain.from_iterable(map(next, map(streams.__getitem__, group_of))))
    sigs, piece_coords = zip(*kept)
    lengths = list(map(len, piece_coords))
    kept_count, total = len(kept), sum(lengths)
    coefs = [c for c, _ in signatures]
    constants = [c for _, c in signatures]
    ints = chain(accumulate(lengths, initial=0), chain.from_iterable(piece_coords))
    floats = chain(chain.from_iterable(map(coefs.__getitem__, sigs)), map(constants.__getitem__, sigs))
    ints = np.fromiter(ints, np.intp, kept_count + 1 + total)
    floats = np.fromiter(floats, float, total + kept_count)
    return AffineSet(Pieces(ints[: kept_count + 1], ints[kept_count + 1 :], floats[:total], floats[total:]))


@dataclass(frozen=True)
class ConstraintBlock:
    """One constraint h: the conjunction of pieces M_i . p + q_i <= 0.

    ``pieces`` holds the rows M_i as the CSR-style arrays of ``Pieces``
    (coordinates and coefficients, per piece) and the q_i as its
    ``constants``.
    """

    block_id: str
    family: str  # "logical" | "pointwise" | "consistency"
    pieces: Pieces
    source: str = ""

    def __post_init__(self):
        if len(self.pieces.constants) < 1:
            raise CompileError(f"block {self.block_id!r} has no pieces")

    def max_value(self, p: Sequence[float]) -> float:
        values = self.pieces.values(p)
        return float(values[values.argmax()])


def to_constraint_block(
    aset: AffineSet, block_id: str, family: str = "logical", source: str = ""
) -> ConstraintBlock:
    """Turn a min-of-affines truth function into the block requiring
    truth value 1: each piece (a, c) becomes (-a, 1 - c) <= 0.  Negating
    keeps the terms sorted and free of zeros, so the block shares the
    set's ``indptr`` and ``coords``.

    Constant pieces (the cap's image (0, 0)) are kept; they are part of
    the block's piece count even though they never bind.
    """
    p = aset.pieces
    return ConstraintBlock(block_id, family, Pieces(p.indptr, p.coords, -p.coefs, 1.0 - p.constants), source)


_ONE_TERM = np.array([0, 1], dtype=np.intp)


def pointwise_block(
    predicate: str, t: tuple[str, ...], label: int, index: GroundingIndex
) -> ConstraintBlock:
    """Supervision constraint: label +1 forces p = 1 (1 - p <= 0), label
    -1 forces p = 0 (p <= 0), both up to the consistency box."""
    k = index.coordinate_of(Atom(predicate, tuple(t)))
    block_id = f"pt:{predicate}:{','.join(t)}"
    source = f"{predicate}({','.join(t)}) = {'+1' if label == 1 else '-1'}"
    if label not in (1, -1):
        raise CompileError(f"label for {block_id} must be -1 or +1, got {label!r}")
    coef, constant = (-1.0, 1.0) if label == 1 else (1.0, 0.0)
    pieces = Pieces(_ONE_TERM, np.array([k], dtype=np.intp), np.array([coef]), np.array([constant]))
    return ConstraintBlock(block_id, "pointwise", pieces, source)


def consistency_blocks(index: GroundingIndex) -> list[ConstraintBlock]:
    """Two one-piece blocks per coordinate keeping it inside [0, 1]:
    -p <= 0, then p - 1 <= 0, in coordinate order.  The blocks share
    their coefficient and constant arrays, and each coordinate is a
    slice of one array."""
    coords = np.arange(index.size, dtype=np.intp)
    lower = np.array([-1.0]), np.array([0.0])
    upper = np.array([1.0]), np.array([-1.0])
    blocks = []
    for k, label in enumerate(index.labels()):
        at = coords[k : k + 1]
        blocks.append(ConstraintBlock(f"lb:{label}", "consistency", Pieces(_ONE_TERM, at, *lower), f"0 <= {label}"))
        blocks.append(ConstraintBlock(f"ub:{label}", "consistency", Pieces(_ONE_TERM, at, *upper), f"{label} <= 1"))
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

    The blocks' piece arrays are concatenated, and each piece's terms
    become the stored entries of its column, so the work and memory grow
    with the nonzeros of M; no dense array is made here.

    By default, pieces with no coordinates and a nonpositive offset are
    dropped, by one mask over every piece: they can never bind, and the
    reference matrices this code is checked against do not carry the
    corresponding zero columns.  ``keep_zero_pieces`` retains them so
    every block piece gets a column.  A constant piece with positive
    offset is always kept; it marks an infeasible system.  A duplicate
    block id and a coordinate outside 0..size-1 raise CompileError,
    whichever comes first in block order.
    """
    ids = [block.block_id for block in blocks]
    duplicate = len(ids)
    if len(set(ids)) < duplicate:
        seen: set[str] = set()
        duplicate = next(i for i, block_id in enumerate(ids) if block_id in seen or seen.add(block_id))
    stacked = Pieces.concatenate([block.pieces for block in blocks])
    counts = [len(block.pieces.constants) for block in blocks]
    ends = list(accumulate(counts))
    lengths = stacked.lengths()
    coords = stacked.coords
    if len(coords) and coords.view(np.uintp).max() >= size:  # a negative one wraps around
        first = int(((coords < 0) | (coords >= size)).argmax())
        position = bisect_right(ends, int(stacked.indptr.searchsorted(first, side="right")) - 1)
        if position < duplicate:
            raise CompileError(
                f"block {ids[position]!r} uses coordinate {int(coords[first])} outside 0..{size - 1}"
            )
    if duplicate < len(ids):
        raise CompileError(f"duplicate block id {ids[duplicate]!r}")

    constants = stacked.constants
    keep = np.ones(len(lengths), dtype=bool) if keep_zero_pieces else (lengths > 0) | (constants > 0.0)
    before = np.zeros(len(keep) + 1, dtype=np.intp)  # the kept pieces before each piece
    keep.cumsum(out=before[1:])
    labels: list[str] = []
    column_block: list[str] = []
    block_columns: dict[str, list[int]] = {}
    dropped = {}
    firsts = before[[0, *ends]].tolist()
    for block_id, count, first, stop in zip(ids, counts, firsts, firsts[1:]):
        columns = block_columns[block_id] = []
        for column in range(first, stop):
            columns.append(column)
            labels.append(f"{block_id}:{column - first + 1}")
            column_block.append(block_id)
        if stop - first < count:
            dropped[block_id] = count - (stop - first)
    return ConstraintMatrix(
        (size, firsts[-1]),
        coords,
        before[:-1].repeat(lengths),  # a piece with terms is always kept
        stacked.coefs,
        constants[keep],
        labels,
        column_block,
        ids,
        block_columns,
        {block.block_id: block.family for block in blocks},
        {block.block_id: block.source for block in blocks},
        dropped,
    )


def matrix_csv(cm: ConstraintMatrix, coordinate_labels: Sequence[str], out: TextIO) -> None:
    """Write the CSV export to the open text file ``out``: header
    "coord,<column labels>", one row per grounding coordinate, and a
    trailing row for the offsets labeled "q".

    Labels are quoted per the CSV standard.  Every cell is ``repr`` of
    its float, formatted once per distinct value by its bits (so -0.0
    stays -0.0).  A stable sort by coordinate puts M's entries by row,
    then column (``cols`` never decreases), and a piece's coordinates
    increase, so a cell holds at most one entry.  A row joins its label,
    per entry the "0.0" cells before it and its cell, and the "0.0"
    cells after the last; it is written before the next is built.  A
    label count that does not match M raises before anything is written.
    """
    cm.check_labels(coordinate_labels)
    size, n = cm.shape
    order = np.argsort(cm.coords, kind="stable")
    rows, cols = cm.coords[order], cm.cols[order]
    bits = np.concatenate([cm.values[order], cm.offsets]).view(np.int64)
    distinct, ids = np.unique(bits, return_inverse=True)
    text = ["," + repr(v) for v in distinct.view(float).tolist()]
    # The zero cells' characters before each entry and after each row.
    first = np.diff(rows, prepend=-1) != 0
    gaps = 4 * (cols - np.where(first, -1, np.roll(cols, 1)) - 1)
    last = np.full(size, -1)
    at_end = np.roll(first, -1)
    last[rows[at_end]] = cols[at_end]
    trailing = (4 * (n - 1 - last)).tolist()
    bounds = [0, *np.bincount(rows, minlength=size).cumsum().tolist()]

    csv.writer(out, lineterminator="\n").writerow(["coord", *cm.column_labels])
    # Each label field as csv writes [label, ""], less the comma.
    heads: list[str] = []
    tail = [""] if n else []
    csv.writer(SimpleNamespace(write=heads.append), lineterminator="").writerows(
        [label, *tail] for label in [*coordinate_labels, "q"]
    )
    heads = [head[: len(head) - len(tail)] for head in heads]
    zeros = ",0.0" * n
    for head, a, b, after in zip(heads, bounds, bounds[1:], trailing):
        row = [zeros[:g] + text[i] for g, i in zip(gaps[a:b].tolist(), ids[a:b].tolist())]
        out.write("".join([head, *row, zeros[:after], "\n"]))
    out.write("".join([heads[-1], *map(text.__getitem__, ids[bounds[-1] :].tolist()), "\n"]))
