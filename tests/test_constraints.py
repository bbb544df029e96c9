"""Tests for the affine compiler and the stacked constraint matrix."""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np
import pytest
from oracles import reference_compile_min_affine

from luklearn import cli, constraints
from luklearn.constraints import (
    AffinePiece,
    CompileError,
    ConstraintBlock,
    ConstraintMatrix,
    assemble_matrix,
    compile_min_affine,
    consistency_blocks,
    matrix_csv,
    pointwise_block,
    to_constraint_block,
)
from luklearn.grounding import (
    GroundingError,
    GroundingIndex,
    PredicateDecl,
    build_grounding_index,
    build_samples,
    ground_assignment,
    sample_universe,
)
from luklearn.logic import (
    Atom,
    Forall,
    Neg,
    StrongDisj,
    WeakConj,
    eval_lukasiewicz,
    iter_atoms,
    parse_formula,
    to_nnf,
    to_text,
)
from luklearn.problem import build_training_problem, load_problem

DOMS = {"points": {"x1": (0.2, 0.6), "x2": (0.7, 0.3)}}
DECLS = [
    PredicateDecl("p1", ("points",)),
    PredicateDecl("p2", ("points", "points")),
]

TRANSITIVE_PRODUCT = "forall x: forall y: (p1(x) * p1(y)) -> p2(x,y)"

FIXTURES = Path(__file__).parent / "fixtures"


def _index():
    return build_grounding_index(DECLS, build_samples(DOMS, DECLS))


def _compile(text: str):
    index = _index()
    return compile_min_affine(to_nnf(parse_formula(text)), index), index


def test_literal_pieces():
    aset, _ = _compile("p1(x1)")
    assert aset.pieces == (AffinePiece(((0, 1.0),), 0.0),)

    aset, _ = _compile("~p1(x2)")
    assert aset.pieces == (AffinePiece(((1, -1.0),), 1.0),)


def test_weak_conjunction_unions_pieces():
    aset, _ = _compile("p1(x1) & ~p1(x2)")
    assert aset.pieces == (
        AffinePiece(((0, 1.0),), 0.0),
        AffinePiece(((1, -1.0),), 1.0),
    )


def test_duplicate_conjuncts_dedup():
    aset, _ = _compile("p1(x1) & p1(x1)")
    assert len(aset.pieces) == 1


def test_strong_disjunction_cap_and_sum():
    aset, _ = _compile("~p1(x1) + p1(x2)")
    assert aset.pieces == (
        AffinePiece((), 1.0),
        AffinePiece(((0, -1.0), (1, 1.0)), 1.0),
    )


def test_tautology_collapses_to_cap():
    aset, _ = _compile("~p1(x1) + p1(x1)")
    assert aset.pieces == (AffinePiece((), 1.0),)


def test_transitive_product_five_pieces():
    aset, _ = _compile(TRANSITIVE_PRODUCT)
    # the cap, then one sum per instance (x, y) with x outermost
    assert aset.pieces == (
        AffinePiece((), 1.0),
        AffinePiece(((0, -2.0), (2, 1.0)), 2.0),
        AffinePiece(((0, -1.0), (1, -1.0), (3, 1.0)), 2.0),
        AffinePiece(((0, -1.0), (1, -1.0), (4, 1.0)), 2.0),
        AffinePiece(((1, -2.0), (5, 1.0)), 2.0),
    )


def test_transitive_product_block_form():
    aset, index = _compile(TRANSITIVE_PRODUCT)
    block = to_constraint_block(aset, "phi1")
    dense = np.array([p.dense(index.size) for p in block.pieces])
    offsets = [p.constant for p in block.pieces]
    expected = np.array(
        [
            [0, 0, 0, 0, 0, 0],
            [2, 0, -1, 0, 0, 0],
            [1, 1, 0, -1, 0, 0],
            [1, 1, 0, 0, -1, 0],
            [0, 2, 0, 0, 0, -1],
        ],
        dtype=float,
    )
    assert np.array_equal(dense, expected)
    assert offsets == [0.0, -1.0, -1.0, -1.0, -1.0]


def test_compile_rejects_non_fragment_nodes():
    index = _index()
    x1, x2 = Atom("p1", ("x1",)), Atom("p1", ("x2",))
    bad = [
        to_nnf(parse_formula("p1(x1) * p1(x2)")),
        to_nnf(parse_formula("forall v: p1(x1) + (p1(v) | p1(x2))")),
        parse_formula("p1(x1) -> p1(x2)"),
        Neg(WeakConj(x1, x2)),
    ]
    for f in bad:
        with pytest.raises(CompileError, match="outside the concave fragment"):
            compile_min_affine(f, index)


def test_compiled_value_matches_evaluation():
    """The min of the affine pieces must equal the truth value on the box."""
    texts = [
        TRANSITIVE_PRODUCT,
        "forall v: p1(v)",
        "p1(x1) & ~p2(x2,x1)",
        "forall v: ~p1(v) + p1(v)",
        "forall u: forall v: ~p2(u,v) + ~p2(v,u) + p1(u)",
        "forall v: p1(v) & (p1(x1) + ~p2(v,v))",
    ]
    rng = np.random.default_rng(47)
    for text in texts:
        f = to_nnf(parse_formula(text))
        aset, index = _compile(text)
        universe = sample_universe(f, index)
        for _ in range(200):
            p = rng.random(index.size)
            truth = eval_lukasiewicz(f, ground_assignment(index, p), universe)
            assert abs(aset.value(p) - truth) <= 1e-12


def test_block_satisfaction_iff_full_truth():
    aset, index = _compile(TRANSITIVE_PRODUCT)
    block = to_constraint_block(aset, "phi1")
    rng = np.random.default_rng(53)
    for _ in range(200):
        p = rng.random(index.size)
        assert block.max_value(p) == pytest.approx(1.0 - aset.value(p), abs=1e-12)
    ones = np.ones(index.size)
    assert block.max_value(ones) <= 0.0


def test_pointwise_blocks():
    index = _index()
    pos = pointwise_block("p1", ("x1",), 1, index)
    assert pos.block_id == "pt:p1:x1"
    assert pos.family == "pointwise"
    assert pos.pieces == (AffinePiece(((0, -1.0),), 1.0),)

    neg = pointwise_block("p2", ("x2", "x1"), -1, index)
    assert neg.block_id == "pt:p2:x2,x1"
    assert neg.pieces == (AffinePiece(((4, 1.0),), 0.0),)

    with pytest.raises(CompileError, match="must be -1 or \\+1"):
        pointwise_block("p1", ("x1",), 0, index)


def test_consistency_blocks_cover_box():
    index = _index()
    blocks = consistency_blocks(index)
    assert len(blocks) == 12
    assert [b.block_id for b in blocks[:4]] == ["lb:p1:x1", "ub:p1:x1", "lb:p1:x2", "ub:p1:x2"]
    assert blocks[0].pieces == (AffinePiece(((0, -1.0),), 0.0),)
    assert blocks[1].pieces == (AffinePiece(((0, 1.0),), -1.0),)
    assert all(b.family == "consistency" for b in blocks)


def test_assemble_matrix_drops_constant_pieces_by_default():
    aset, index = _compile(TRANSITIVE_PRODUCT)
    block = to_constraint_block(aset, "phi1")
    cm = assemble_matrix([block], index.size)
    assert cm.n_columns == 4
    assert cm.dropped == {"phi1": 1}
    assert cm.column_labels == ["phi1:1", "phi1:2", "phi1:3", "phi1:4"]
    assert np.array_equal(cm.matrix[:, 0], [2, 0, -1, 0, 0, 0])

    kept = assemble_matrix([block], index.size, keep_zero_pieces=True)
    assert kept.n_columns == 5
    assert kept.dropped == {}
    assert kept.column_labels[:2] == ["phi1:1", "phi1:2"]
    assert np.array_equal(kept.matrix[:, 0], np.zeros(6))
    assert np.array_equal(kept.matrix[:, 1], [2, 0, -1, 0, 0, 0])


def test_assemble_matrix_metadata_and_violations():
    index = _index()
    blocks = [pointwise_block("p1", ("x1",), 1, index)] + consistency_blocks(index)
    cm = assemble_matrix(blocks, index.size)
    assert cm.block_order[0] == "pt:p1:x1"
    assert cm.families["pt:p1:x1"] == "pointwise"
    assert cm.block_columns["lb:p1:x2"] == [3]
    p = np.linspace(0.0, 1.0, index.size)
    v = cm.violations(p)
    for nu in range(cm.n_columns):
        expected = float(cm.matrix[:, nu] @ p + cm.offsets[nu])
        assert v[nu] == pytest.approx(expected, abs=1e-15)


def test_assemble_matrix_rejects_duplicates_and_bad_coords():
    index = _index()
    b = pointwise_block("p1", ("x1",), 1, index)
    with pytest.raises(CompileError, match="duplicate block id"):
        assemble_matrix([b, b], index.size)
    with pytest.raises(CompileError, match="outside"):
        assemble_matrix([b], 0)


def _csv_text(cm, coordinate_labels) -> str:
    out = io.StringIO()
    matrix_csv(cm, coordinate_labels, out)
    return out.getvalue()


def test_matrix_csv_round_trip():
    aset, index = _compile(TRANSITIVE_PRODUCT)
    block = to_constraint_block(aset, "phi1")
    cm = assemble_matrix([block] + consistency_blocks(index), index.size)
    text = _csv_text(cm, index.labels())
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "coord"
    assert rows[0][1:] == cm.column_labels
    assert [r[0] for r in rows[1:-1]] == index.labels()
    assert rows[-1][0] == "q"
    body = np.array([[float(v) for v in r[1:]] for r in rows[1:-1]])
    assert np.array_equal(body, cm.matrix)
    assert np.array_equal([float(v) for v in rows[-1][1:]], cm.offsets)

    out = io.StringIO()
    with pytest.raises(CompileError, match="label count"):
        matrix_csv(cm, ["just-one"], out)
    assert out.getvalue() == ""


def test_compile_checks_the_label_count_before_writing_m_csv(tmp_path, monkeypatch, capsys):
    labels = GroundingIndex.labels
    monkeypatch.setattr(GroundingIndex, "labels", lambda self: labels(self)[:-1])
    assert cli.main(["compile", str(FIXTURES / "example1.json"), "-o", str(tmp_path)]) == 2
    assert "coordinate label count does not match the matrix" in capsys.readouterr().err
    assert not (tmp_path / "M.csv").exists()


def _csv_oracle(cm, coordinate_labels) -> str:
    """The per-cell writer over the dense M that ``matrix_csv`` must
    reproduce byte for byte."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["coord"] + list(cm.column_labels))
    for row, label in enumerate(coordinate_labels):
        writer.writerow([label] + [repr(float(v)) for v in cm.matrix[row]])
    writer.writerow(["q"] + [repr(float(v)) for v in cm.offsets])
    return out.getvalue()


def _stacked_oracle(blocks, size, keep_zero_pieces=False) -> np.ndarray:
    """M as one dense column per kept piece, stacked: each column a zero
    vector with the piece's terms scattered into it."""
    columns = [
        piece.dense(size)
        for block in blocks
        for piece in block.pieces
        if keep_zero_pieces or piece.terms or piece.constant > 0.0
    ]
    return np.column_stack(columns) if columns else np.zeros((size, 0))


def _assert_same_bytes(blocks, size, labels, keep_zero_pieces=False):
    """The densified M and the streamed CSV match the dense oracles byte
    for byte."""
    cm = assemble_matrix(blocks, size, keep_zero_pieces)
    expected = _stacked_oracle(blocks, size, keep_zero_pieces)
    assert cm.shape == expected.shape
    assert cm.matrix.tobytes() == expected.tobytes()
    assert _csv_text(cm, labels) == _csv_oracle(cm, labels)


@pytest.mark.parametrize(
    "path",
    sorted(FIXTURES.glob("*.json")) + sorted(FIXTURES.glob("refused/*.json")),
    ids=lambda p: p.stem,
)
def test_fixture_matrix_and_csv_match_the_per_cell_oracles(path):
    problem = load_problem(path)
    tp = build_training_problem(problem)
    _assert_same_bytes(tp.blocks, tp.index.size, tp.index.labels(), problem.keep_zero_pieces)


@pytest.mark.parametrize("keep_zero_pieces", [False, True])
def test_relational_matrix_and_csv_match_the_per_cell_oracles(keep_zero_pieces):
    index = _index()
    blocks = [
        to_constraint_block(_compile(TRANSITIVE_PRODUCT)[0], "phi1"),
        to_constraint_block(_compile("forall x: forall y: p2(x,y) -> p2(y,x)")[0], "phi2"),
        pointwise_block("p2", ("x1", "x2"), 1, index),
        pointwise_block("p2", ("x2", "x1"), -1, index),
    ] + consistency_blocks(index)
    labels = index.labels()
    assert any("," in label for label in labels)
    _assert_same_bytes(blocks, index.size, labels, keep_zero_pieces)
    text = _csv_text(assemble_matrix(blocks, index.size, keep_zero_pieces), labels)
    assert '\n"p2:x1,x2",' in text


@pytest.mark.parametrize("keep_zero_pieces", [False, True])
def test_random_assemblies_match_the_per_cell_oracles(keep_zero_pieces):
    """Random blocks of random pieces, with constant pieces of every
    sign, offsets of either zero sign and labels that need quoting."""
    rng = np.random.default_rng(1618)
    coefficients = [1.0, -1.0, 2.0, -2.0, 0.5, 1.0 / 3.0, 1e-300]
    constants = [0.0, -0.0, 1.0, -1.0, 2.0, 0.1]
    for trial in range(60):
        size = int(rng.integers(0, 7))
        blocks = []
        for b in range(int(rng.integers(1, 5))):
            pieces = []
            for _ in range(int(rng.integers(1, 5))):
                coords = sorted(rng.permutation(size)[: rng.integers(0, min(size, 3) + 1)].tolist())
                terms = tuple((k, coefficients[rng.integers(len(coefficients))]) for k in coords)
                pieces.append(AffinePiece(terms, constants[rng.integers(len(constants))]))
            blocks.append(ConstraintBlock(f"b{b},{trial}", "logical", tuple(pieces)))
        labels = [f"c{k}" if k % 2 else f'say "r(x{k},y)"' for k in range(size)]
        _assert_same_bytes(blocks, size, labels, keep_zero_pieces)


def _stored(matrix, offsets, column_labels) -> ConstraintMatrix:
    """A ConstraintMatrix storing the entries of ``matrix`` whose bits are
    not those of +0.0, in stacked column order."""
    cols, coords = np.nonzero(matrix.T.view(np.int64))
    return ConstraintMatrix(
        matrix.shape, coords, cols, matrix[coords, cols], offsets, column_labels, [], [], {}, {}, {}, {}
    )


def test_matrix_csv_keeps_negative_zero_and_quotes_labels():
    matrix = np.array([[-0.0, 0.0, 1.5, 0.1], [0.0, 0.0, 0.0, 0.0], [2.0, -0.0, 1.5, 1e-300]])
    offsets = np.array([0.0, -0.0, -1.0, 1.0 / 3.0])
    cm = _stored(matrix, offsets, ["a:1", "b,c:1", 'q"d:1', "e:1"])
    assert cm.matrix.tobytes() == matrix.tobytes()
    labels = ["x1", 'say "hi"', "r(x00,x01)"]
    text = _csv_text(cm, labels)
    assert text == _csv_oracle(cm, labels)
    assert text.splitlines()[1] == "x1,-0.0,0.0,1.5,0.1"
    assert text.splitlines()[-1] == "q,0.0,-0.0,-1.0,0.3333333333333333"


def test_matrix_csv_with_no_columns():
    cm = _stored(np.zeros((2, 0)), np.zeros(0), [])
    labels = ["x1", "r(x,y)"]
    assert _csv_text(cm, labels) == _csv_oracle(cm, labels) == 'coord\nx1\n"r(x,y)"\nq\n'

    index = _index()
    never = ConstraintBlock("never", "logical", (AffinePiece((), 0.0),))
    _assert_same_bytes([never], index.size, index.labels())
    assert assemble_matrix([never], index.size).n_columns == 0


# The randomized comparison with the reference walk.  Two domains, four
# predicates; r is grounded on every pair except (a, a) in the partial
# index, so a formula that reaches r(a,a) fails there.
WALK_DOMS = {"points": {"a": (0.1,), "b": (0.5,), "c": (0.9,)}, "tags": {"t": (0.0,), "u": (1.0,)}}
WALK_DECLS = [
    PredicateDecl("p", ("points",)),
    PredicateDecl("r", ("points", "points")),
    PredicateDecl("s", ("tags",)),
    PredicateDecl("q", ("points", "tags")),
]
WALK_PARTIAL = {"r": [(x, y) for x in "abc" for y in "abc" if (x, y) != ("a", "a")]}


def _walk_indexes():
    full = build_grounding_index(WALK_DECLS, build_samples(WALK_DOMS, WALK_DECLS))
    partial = build_grounding_index(
        WALK_DECLS, build_samples(WALK_DOMS, WALK_DECLS, groundings=WALK_PARTIAL)
    )
    return full, partial


def _random_literal(rng, bound: dict[str, str]):
    decl = WALK_DECLS[rng.integers(len(WALK_DECLS))]
    args = []
    for dom in decl.domains:
        variables = [v for v, d in bound.items() if d == dom]
        if variables and rng.random() < 0.7:
            args.append(variables[rng.integers(len(variables))])  # may repeat: r(x,x)
        else:
            names = sorted(WALK_DOMS[dom])
            args.append(names[rng.integers(len(names))])  # a sample constant
    atom = Atom(decl.name, tuple(args))
    return Neg(atom) if rng.random() < 0.5 else atom


def _random_concave(rng, depth: int, bound: dict[str, str]):
    """A random concave-fragment formula in negation normal form over the
    variables ``bound``; every quantifier's variable occurs in its body."""
    roll = rng.random() if depth else 0.0
    if roll < 0.3:
        literal = _random_literal(rng, bound)
        if rng.random() < 0.2:  # a literal and its complement: p(x) + ~p(x)
            other = literal.child if type(literal) is Neg else Neg(literal)
            return StrongDisj(literal, other)
        return literal
    if roll < 0.5:
        return WeakConj(_random_concave(rng, depth - 1, bound), _random_concave(rng, depth - 1, bound))
    if roll < 0.75:
        return StrongDisj(_random_concave(rng, depth - 1, bound), _random_concave(rng, depth - 1, bound))
    var = f"v{len(bound)}"
    dom = "points" if rng.random() < 0.7 else "tags"
    inner = {**bound, var: dom}
    body = _random_concave(rng, depth - 1, inner)
    if var not in {a for atom in iter_atoms(body) for a in atom.args}:
        pred = "p" if dom == "points" else "s"
        body = StrongDisj(body, Atom(pred, (var,)))
    return Forall(var, body)


def _outcome(compile_fn, nnf, index):
    """The exact pieces, in order, or the error raised."""
    try:
        aset = compile_fn(nnf, index)
    except (GroundingError, CompileError) as exc:
        return type(exc).__name__, str(exc)
    return repr([(piece.terms, piece.constant) for piece in aset.pieces])


WALK_TEXTS = [
    "(p(a) & ~p(b)) + (p(c) & r(a,b))",  # + over &
    "(p(a) & p(b)) + (~p(a) & p(c)) + (r(b,c) & ~r(c,b))",
    "p(a) + (forall x: p(x) & ~r(x,b))",  # forall under +
    "~s(t) + (forall x: forall y: ~r(x,y) + r(y,x))",
    "forall x: ~r(x,x) + p(x)",  # a repeated variable
    "forall x: p(x) + ~p(x)",  # cancels to the cap
    "forall x: (p(x) + ~p(x)) + ~q(x,t)",
    "forall x: forall y: (~r(x,y) + ~r(y,x)) + (p(x) & r(x,x) & p(x))",
    "forall x: forall z: q(x,z) + ~q(x,u) + s(z)",
    "forall x: (p(x) & p(x)) + (~p(b) & ~p(b))",
]


def test_walk_matches_the_reference_on_hand_written_formulas():
    full, partial = _walk_indexes()
    # an inner quantifier rebinding x: r(x,x) must see the outer x again
    shadowed = Forall("x", WeakConj(Forall("x", Atom("p", ("x",))), Atom("r", ("x", "x"))))
    for nnf in [to_nnf(parse_formula(text)) for text in WALK_TEXTS] + [shadowed]:
        for index in (full, partial):
            assert _outcome(compile_min_affine, nnf, index) == _outcome(
                reference_compile_min_affine, nnf, index
            ), to_text(nnf)


def test_walk_matches_the_reference_on_random_formulas():
    full, partial = _walk_indexes()
    rng = np.random.default_rng(2718)
    counts = {"pieces": 0, "errors": 0, "tautologies": 0}
    for _ in range(400):
        nnf = _random_concave(rng, int(rng.integers(1, 5)), {})
        for index in (full, partial):
            outcome = _outcome(compile_min_affine, nnf, index)
            assert outcome == _outcome(reference_compile_min_affine, nnf, index), to_text(nnf)
            if isinstance(outcome, tuple):
                counts["errors"] += 1
            else:
                counts["pieces"] += 1
                counts["tautologies"] += outcome == repr([((), 1.0)])
    # the draws reach both outcomes, and formulas whose literals all cancel
    assert counts["pieces"] >= 400 and counts["errors"] >= 40 and counts["tautologies"] >= 50


@pytest.mark.parametrize(
    "nnf, message",
    [
        (to_nnf(parse_formula("p(x)")), r"free variable 'x' in p\(x\); quantify it"),
        (to_nnf(parse_formula("forall x: r(x,y) + p(x)")), r"free variable 'y' in forall x: r\(x,y\) \+ p\(x\)"),
        (to_nnf(parse_formula("(forall x: p(x)) & p(x)")), r"free variable 'x' in \(forall x: p\(x\)\) & p\(x\)"),
        (to_nnf(parse_formula("forall x: r(x,x)")), r"^ground atom r\(a,a\) has no coordinate in the index$"),
        # w occurs nowhere in its body, so no domain can be inferred for it
        (Forall("w", Atom("p", ("a",))), r"cannot infer a domain for quantified variable 'w'"),
        (to_nnf(parse_formula("forall x: p(x) + r(x)")), r"^ground atom r\(a\) has no coordinate in the index$"),
        (WeakConj(Atom("p", ("a",)), Atom("s", ())), r"^ground atom s has no coordinate in the index$"),
    ],
    ids=["free", "free-inner", "free-after-scope", "missing-coordinate", "no-domain", "few-args", "no-args"],
)
def test_walk_errors_match_the_reference(nnf, message):
    _, partial = _walk_indexes()
    with pytest.raises(GroundingError, match=message):
        compile_min_affine(nnf, partial)
    assert _outcome(compile_min_affine, nnf, partial) == _outcome(
        reference_compile_min_affine, nnf, partial
    )


# Lifted prefixes over a 4-point domain: every equality pattern of two
# and three variables occurs.  The partial index lacks r(a,a) and r(c,b).
WIDE_DOMS = {
    "points": {"a": (0.1,), "b": (0.4,), "c": (0.6,), "d": (0.9,)},
    "tags": {"t": (0.0,), "u": (1.0,)},
}
WIDE_PARTIAL = {"r": [(x, y) for x in "abcd" for y in "abcd" if (x, y) not in (("a", "a"), ("c", "b"))]}


def _wide_indexes():
    full = build_grounding_index(WALK_DECLS, build_samples(WIDE_DOMS, WALK_DECLS))
    partial = build_grounding_index(
        WALK_DECLS, build_samples(WIDE_DOMS, WALK_DECLS, groundings=WIDE_PARTIAL)
    )
    return full, partial


PREFIX_TEXTS = [
    "forall x: forall y: ~r(x,y) + r(y,x)",  # x = y cancels to the cap
    "forall x: forall y: ~r(x,y) + ~r(y,x)",  # x = y merges two terms
    "forall x: forall y: forall z: (~r(x,y) + ~r(y,z)) + r(x,z)",  # y = z, x = z, x = y = z
    "forall x: forall y: forall z: ~r(x,y) + ~r(y,z) + r(z,x)",
    "forall x: forall y: forall z: ~p(x) + ~p(y) + ~p(z) + r(x,y)",
    "forall x: forall y: forall z: r(x,x) + ~r(y,z)",
    "forall x: forall y: p(x) + ~p(y)",  # cancelling literals
    "forall x: forall y: (p(x) & ~p(y)) + (r(x,y) & ~r(y,x))",
    "forall x: forall y: ~r(x,b) + r(b,y) + ~p(x)",  # a variable equal to a sample constant
    "forall x: forall y: ~p(x) + p(c) + r(y,c)",
    "forall x: forall y: forall z: (r(x,y) & r(y,x)) + (~r(x,z) & p(y))",
    "forall x: forall z: ~q(x,z) + q(x,u) + s(z)",
    "forall x: forall y: forall w: ~q(x,w) + q(y,w) + ~r(x,y)",
    "forall x: forall y: r(x,y) & (forall z: ~r(z,y) + p(x))",
]


def test_lifted_prefixes_match_the_reference():
    full, partial = _wide_indexes()
    r_xy, r_yx, r_xx, p_x = Atom("r", ("x", "y")), Atom("r", ("y", "x")), Atom("r", ("x", "x")), Atom("p", ("x",))
    shadowed = [
        # x rebound inside the body, then the prefix's x again
        Forall("x", Forall("y", WeakConj(WeakConj(r_xy, Forall("x", p_x)), Neg(r_yx)))),
        Forall("x", Forall("y", StrongDisj(Forall("x", StrongDisj(Neg(r_xy), p_x)), r_xx))),
        # the prefix rebinds x: the outer x multiplies the groundings only
        Forall("x", Forall("x", StrongDisj(r_xx, Neg(p_x)))),
        Forall("x", Forall("y", Forall("x", StrongDisj(Neg(r_xy), r_yx)))),
    ]
    for nnf in [to_nnf(parse_formula(text)) for text in PREFIX_TEXTS] + shadowed:
        for index in (full, partial):
            assert _outcome(compile_min_affine, nnf, index) == _outcome(
                reference_compile_min_affine, nnf, index
            ), to_text(nnf)


def _random_prefixed(rng):
    """A random concave formula under a prefix of two or three variables,
    which may repeat a name; every prefix variable occurs in the body."""
    names = ["x", "y", "z"][: int(rng.integers(2, 4))]
    if rng.random() < 0.15:
        names[-1] = names[0]
    bound = {name: "points" if rng.random() < 0.8 else "tags" for name in names}
    body = _random_concave(rng, int(rng.integers(1, 4)), bound)
    used = {a for atom in iter_atoms(body) for a in atom.args}
    for name in bound:
        if name not in used:
            body = StrongDisj(body, Atom("p" if bound[name] == "points" else "s", (name,)))
    for name in reversed(names):
        body = Forall(name, body)
    return body


def test_lifted_prefixes_match_the_reference_on_random_formulas():
    full, partial = _wide_indexes()
    rng = np.random.default_rng(31415)
    counts = {"pieces": 0, "errors": 0}
    for _ in range(150):
        nnf = _random_prefixed(rng)
        for index in (full, partial):
            outcome = _outcome(compile_min_affine, nnf, index)
            assert outcome == _outcome(reference_compile_min_affine, nnf, index), to_text(nnf)
            counts["errors" if isinstance(outcome, tuple) else "pieces"] += 1
    assert counts["pieces"] >= 150 and counts["errors"] >= 15


# The relational formulas of perfbench/gen.py: q unary, r binary.
RELATIONAL_TEXTS = [
    "forall x: forall y: forall z: (r(x,y) * r(y,z)) -> r(x,z)",
    "forall x: forall y: r(x,y) -> r(y,x)",
    "forall x: forall y: (q(x) & r(x,y)) + (~q(y) & ~r(y,x))",
    "forall x: forall y: (q(x) * r(x,y)) -> q(y)",
]
RELATIONAL_DECLS = [PredicateDecl("q", ("points",)), PredicateDecl("r", ("points", "points"))]


def _reference_block(nnf, index, block_id):
    """The block of ``nnf`` built from the reference walk's pieces, each
    negated as AffinePiece tuples."""
    pieces = reference_compile_min_affine(nnf, index).pieces
    negated = tuple(AffinePiece(tuple((k, -c) for k, c in p.terms), 1.0 - p.constant) for p in pieces)
    return ConstraintBlock(block_id, "logical", negated)


def _assert_same_arrays(a, b, names):
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


def _assert_same_matrices(blocks, reference, size, labels, keep_zero_pieces):
    for got, want in zip(blocks, reference):
        _assert_same_arrays(got.pieces, want.pieces, ("indptr", "coords", "coefs", "constants"))
    cm = assemble_matrix(blocks, size, keep_zero_pieces)
    ref = assemble_matrix(reference, size, keep_zero_pieces)
    assert cm.shape == ref.shape and cm.column_labels == ref.column_labels
    _assert_same_arrays(cm, ref, ("coords", "cols", "values", "offsets"))
    assert _csv_text(cm, labels) == _csv_text(ref, labels) == _csv_oracle(ref, labels)


@pytest.mark.parametrize("m", range(2, 8))
def test_relational_blocks_and_matrix_match_the_reference(m):
    names = {f"x{i:02d}": (i / m, 1.0 - i / m) for i in range(m)}
    index = build_grounding_index(RELATIONAL_DECLS, build_samples({"points": names}, RELATIONAL_DECLS))
    nnfs = [to_nnf(parse_formula(text)) for text in RELATIONAL_TEXTS]
    blocks = [to_constraint_block(compile_min_affine(f, index), f"phi{i}") for i, f in enumerate(nnfs, 1)]
    reference = [_reference_block(f, index, f"phi{i}") for i, f in enumerate(nnfs, 1)]
    rest = [pointwise_block("q", ("x00",), 1, index)] + consistency_blocks(index)
    for keep_zero_pieces in (False, True):
        _assert_same_matrices(blocks + rest, reference + rest, index.size, index.labels(), keep_zero_pieces)


@pytest.mark.parametrize(
    "path",
    sorted(FIXTURES.glob("*.json")) + sorted(FIXTURES.glob("refused/*.json")),
    ids=lambda p: p.stem,
)
def test_fixture_blocks_and_matrix_match_the_reference(path):
    problem = load_problem(path)
    tp = build_training_problem(problem)
    logical = [b for b in tp.blocks if b.family == "logical"]
    reference = [_reference_block(to_nnf(f), tp.index, b.block_id) for f, b in zip(problem.formulas, logical)]
    rest = tp.blocks[len(logical) :]
    _assert_same_matrices(tp.blocks, reference + rest, tp.index.size, tp.index.labels(), problem.keep_zero_pieces)
    _assert_same_arrays(tp.matrix, assemble_matrix(reference + rest, tp.index.size, problem.keep_zero_pieces),
                        ("coords", "cols", "values", "offsets"))


def test_transitivity_walks_once_per_equality_pattern(monkeypatch):
    """Transitivity over 6 points has four equality patterns (none, x = y,
    y = z, x = y = z), each walked once with two strong disjunctions;
    walking each of the 216 groundings made 432 ``_sums`` calls."""
    calls = []
    sums = constraints._sums
    monkeypatch.setattr(constraints, "_sums", lambda left, right: calls.append(1) or sums(left, right))
    names = {f"x{i}": (i / 6.0,) for i in range(6)}
    index = build_grounding_index(RELATIONAL_DECLS, build_samples({"points": names}, RELATIONAL_DECLS))
    nnf = to_nnf(parse_formula(RELATIONAL_TEXTS[0]))
    aset = compile_min_affine(nnf, index)
    assert len(calls) <= 10
    assert aset.pieces == reference_compile_min_affine(nnf, index).pieces


def test_a_variable_named_like_a_sample_of_another_domain():
    """x is a sample of ``points`` and a variable over ``tags``: the
    prefix binds it to tag names, which q(x, x) then looks up on both
    axes, as the reference walk does."""
    doms = {"points": {"t": (0.1,), "u": (0.5,), "x": (0.9,)}, "tags": {"t": (0.0,), "u": (1.0,)}}
    decls = [PredicateDecl("q", ("points", "tags")), PredicateDecl("s", ("tags",))]
    partial = {"q": [("t", "t"), ("x", "u")]}
    for groundings in (None, partial):
        index = build_grounding_index(decls, build_samples(doms, decls, groundings=groundings))
        for text in ["forall x: q(x,x) + ~s(x)", "forall x: forall y: q(x,y) + q(t,x)"]:
            nnf = to_nnf(parse_formula(text))
            assert _outcome(compile_min_affine, nnf, index) == _outcome(reference_compile_min_affine, nnf, index)
