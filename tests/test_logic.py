"""Tests for formula parsing, printing, normal forms and evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from luklearn.logic import (
    Atom,
    Forall,
    FormulaError,
    Implies,
    Neg,
    NnfError,
    ParseError,
    StrongConj,
    StrongDisj,
    WeakConj,
    WeakDisj,
    check_concave_fragment,
    eval_lukasiewicz,
    iter_atoms,
    parse_formula,
    to_nnf,
    to_text,
)

A = Atom("a", ("x",))
B = Atom("b", ("x",))
C = Atom("c", ("x",))


def test_parse_precedence_ladder():
    f = parse_formula("~a(x) * b(x) + c(x)")
    assert f == StrongDisj(StrongConj(Neg(A), B), C)
    f = parse_formula("a(x) + b(x) & c(x)")
    assert f == WeakConj(StrongDisj(A, B), C)
    f = parse_formula("a(x) & b(x) | c(x)")
    assert f == WeakDisj(WeakConj(A, B), C)
    f = parse_formula("a(x) | b(x) -> c(x)")
    assert f == Implies(WeakDisj(A, B), C)


def test_parse_arrow_right_associative():
    f = parse_formula("a(x) -> b(x) -> c(x)")
    assert f == Implies(A, Implies(B, C))


def test_parse_left_associative_chains():
    assert parse_formula("a(x) + b(x) + c(x)") == StrongDisj(StrongDisj(A, B), C)
    assert parse_formula("a(x) * b(x) * c(x)") == StrongConj(StrongConj(A, B), C)


def test_parse_parentheses_override():
    f = parse_formula("a(x) * (b(x) + c(x))")
    assert f == StrongConj(A, StrongDisj(B, C))


def test_parse_forall_binds_loosest():
    f = parse_formula("forall v: a(v) -> b(v)")
    av, bv = Atom("a", ("v",)), Atom("b", ("v",))
    assert f == Forall("v", Implies(av, bv))


def test_parse_nested_quantifiers():
    f = parse_formula("forall u: forall v: r(u,v)")
    assert f == Forall("u", Forall("v", Atom("r", ("u", "v"))))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_formula("a(x) +")
    assert info.value.line == 1 and info.value.column == 7

    with pytest.raises(ParseError) as info:
        parse_formula("a(x\n) + ?")
    assert info.value.line == 2 and info.value.column == 5

    # a token at a line's first character, and the end of input after
    # trailing newlines, sit on the line that starts there
    for text, line, column in [("\n\n  a(x) &\n?", 4, 1), ("a(x)\n  ?", 2, 3), ("a(x) +\n\n", 3, 1)]:
        with pytest.raises(ParseError) as info:
            parse_formula(text)
        assert (info.value.line, info.value.column) == (line, column), text

    with pytest.raises(ParseError):
        parse_formula("(a(x)")
    with pytest.raises(ParseError):
        parse_formula("a(x))")


def test_parse_rejects_bad_quantifiers():
    with pytest.raises(ParseError, match="already bound"):
        parse_formula("forall v: forall v: a(v)")
    with pytest.raises(ParseError, match="does not occur"):
        parse_formula("forall v: a(x)")
    with pytest.raises(ParseError, match="reserved"):
        parse_formula("forall forall: a(x)")


def test_parse_signature_validation():
    sig = {"a": 1, "r": 2}
    parse_formula("a(x) & r(x,y)", sig)
    with pytest.raises(ParseError, match="unknown predicate"):
        parse_formula("q(x)", sig)
    with pytest.raises(ParseError, match="expects 2"):
        parse_formula("r(x)", sig)


def test_to_text_round_trip_on_fixed_formulas():
    texts = [
        "a(x)",
        "~a(x)",
        "a(x) * b(x) + c(x)",
        "a(x) * (b(x) + c(x))",
        "a(x) -> b(x) -> c(x)",
        "(a(x) -> b(x)) -> c(x)",
        "forall u: forall v: r(u,v) & a(u)",
        "~(a(x) & b(x))",
        "a(x) + (b(x) + c(x))",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(to_text(f)) == f


def test_iter_atoms_order():
    f = parse_formula("a(x) -> b(x) & c(x)")
    assert [atom.name for atom in iter_atoms(f)] == ["a", "b", "c"]


def test_nnf_rewrites_implication():
    f = parse_formula("a(x) -> b(x)")
    assert to_nnf(f) == StrongDisj(Neg(A), B)


def test_nnf_de_morgan_duals():
    assert to_nnf(Neg(StrongConj(A, B))) == StrongDisj(Neg(A), Neg(B))
    assert to_nnf(Neg(StrongDisj(A, B))) == StrongConj(Neg(A), Neg(B))
    assert to_nnf(Neg(WeakConj(A, B))) == WeakDisj(Neg(A), Neg(B))
    assert to_nnf(Neg(WeakDisj(A, B))) == WeakConj(Neg(A), Neg(B))
    assert to_nnf(Neg(Neg(A))) == A


def test_nnf_negated_implication():
    f = to_nnf(Neg(Implies(A, B)))
    assert f == StrongConj(A, Neg(B))


def test_nnf_rejects_negated_forall():
    with pytest.raises(NnfError):
        to_nnf(Neg(Forall("v", Atom("a", ("v",)))))


def test_fragment_check_accepts_target_shapes():
    good = [
        "a(x)",
        "~a(x)",
        "a(x) & b(x)",
        "~a(x) + b(x)",
        "forall v: ~a(v) + b(v) & c(v)",
    ]
    for text in good:
        report = check_concave_fragment(to_nnf(parse_formula(text)))
        assert report.is_concave_fragment, text


def test_fragment_check_flags_offending_node():
    report = check_concave_fragment(StrongConj(A, B))
    assert not report.is_concave_fragment
    assert report.offending_kind == "StrongConj"
    assert report.offending_path == ()

    report = check_concave_fragment(WeakConj(A, WeakDisj(B, C)))
    assert report.offending_kind == "WeakDisj"
    assert report.offending_path == (1,)

    report = check_concave_fragment(WeakConj(A, Neg(WeakConj(B, C))))
    assert report.offending_kind == "Neg"
    assert report.offending_path == (1,)


def test_eval_connective_table():
    env = {A: 0.6, B: 0.7}
    assert eval_lukasiewicz(Neg(A), env) == pytest.approx(0.4)
    assert eval_lukasiewicz(StrongConj(A, B), env) == pytest.approx(0.3)
    assert eval_lukasiewicz(StrongDisj(A, B), env) == pytest.approx(1.0)
    assert eval_lukasiewicz(WeakConj(A, B), env) == pytest.approx(0.6)
    assert eval_lukasiewicz(WeakDisj(A, B), env) == pytest.approx(0.7)
    assert eval_lukasiewicz(Implies(B, A), env) == pytest.approx(0.9)
    assert eval_lukasiewicz(Implies(A, B), env) == pytest.approx(1.0)


def test_eval_strong_conj_clamps_at_zero():
    env = {A: 0.2, B: 0.3}
    assert eval_lukasiewicz(StrongConj(A, B), env) == 0.0


def test_eval_forall_is_min_over_universe():
    f = parse_formula("forall v: a(v)")
    env = {Atom("a", ("x1",)): 0.8, Atom("a", ("x2",)): 0.3}
    assert eval_lukasiewicz(f, env, ["x1", "x2"]) == pytest.approx(0.3)
    assert eval_lukasiewicz(f, env, {"v": ["x1"]}) == pytest.approx(0.8)


def test_eval_errors():
    f = parse_formula("forall v: a(v)")
    with pytest.raises(FormulaError, match="universe"):
        eval_lukasiewicz(f, {})
    with pytest.raises(FormulaError, match="empty"):
        eval_lukasiewicz(f, {}, [])
    with pytest.raises(FormulaError, match="missing value"):
        eval_lukasiewicz(A, {B: 0.5})


_CONNECTIVES = (StrongConj, StrongDisj, WeakConj, WeakDisj, Implies)


def _random_formula(rng: np.random.Generator, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        atom = Atom(f"p{rng.integers(1, 4)}", (f"x{rng.integers(1, 4)}",))
        return Neg(atom) if rng.random() < 0.3 else atom
    if roll < 0.4:
        return Neg(_random_formula(rng, depth - 1))
    ctor = _CONNECTIVES[rng.integers(0, len(_CONNECTIVES))]
    return ctor(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def _random_assignment(rng: np.random.Generator):
    return {
        Atom(f"p{i}", (f"x{j}",)): float(rng.random())
        for i in range(1, 4)
        for j in range(1, 4)
    }


def test_random_print_parse_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(300):
        f = _random_formula(rng, depth=4)
        assert parse_formula(to_text(f)) == f


def test_random_nnf_preserves_truth_value():
    rng = np.random.default_rng(11)
    for _ in range(300):
        f = _random_formula(rng, depth=4)
        env = _random_assignment(rng)
        direct = eval_lukasiewicz(f, env)
        normalized = eval_lukasiewicz(to_nnf(f), env)
        assert abs(direct - normalized) <= 1e-12
        assert 0.0 <= direct <= 1.0


def test_random_nnf_has_negation_only_on_atoms():
    rng = np.random.default_rng(13)
    for _ in range(200):
        f = to_nnf(_random_formula(rng, depth=4))
        stack = [f]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is Neg:
                assert type(node.child) is Atom
            elif kind is Implies:
                pytest.fail("implication survived normalization")
            elif kind is Forall:
                stack.append(node.body)
            elif kind is not Atom:
                stack.extend([node.left, node.right])
