"""Formula ASTs for the [0,1]-valued logic used throughout the package.

Connective semantics, with every truth value in [0, 1]:

    ~x      1 - x
    x * y   max(0, x + y - 1)      (strong conjunction)
    x & y   min(x, y)              (weak conjunction)
    x | y   max(x, y)              (weak disjunction)
    x + y   min(1, x + y)          (strong disjunction)
    x -> y  min(1, 1 - x + y)      (implication)

``forall v: body`` evaluates as the minimum of ``body`` over the sample
universe bound to ``v``.  Only universal quantification is supported.

Concrete syntax, loosest to tightest binding: ``forall v:``, ``->``
(right associative), ``|``, ``&``, ``+``, ``*``, ``~``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union


class FormulaError(Exception):
    """Base class for formula construction and evaluation problems."""


class ParseError(FormulaError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NnfError(FormulaError):
    """Raised when a formula has no negation normal form in this logic."""


@dataclass(frozen=True)
class Atom:
    name: str
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class Neg:
    child: "Formula"


@dataclass(frozen=True)
class StrongConj:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class StrongDisj:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class WeakConj:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class WeakDisj:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[Atom, Neg, StrongConj, StrongDisj, WeakConj, WeakDisj, Implies, Forall]

#: A Formula in negation normal form: no Implies nodes, Neg only on atoms.
NnfFormula = Formula

_BINARY_SYMBOL = {
    StrongConj: "*",
    StrongDisj: "+",
    WeakConj: "&",
    WeakDisj: "|",
    Implies: "->",
}

_PRECEDENCE = {
    Forall: 0,
    Implies: 1,
    WeakDisj: 2,
    WeakConj: 3,
    StrongDisj: 4,
    StrongConj: 5,
    Neg: 6,
    Atom: 7,
}


def to_text(f: Formula) -> str:
    """Render ``f`` in the concrete syntax accepted by :func:`parse_formula`.

    Parentheses are inserted only where the default precedence or
    associativity would otherwise change the tree, so parsing the result
    reproduces ``f`` exactly.
    """
    kind = type(f)
    if kind is Atom:
        if not f.args:
            return f.name
        return f"{f.name}({','.join(f.args)})"
    if kind is Neg:
        inner = to_text(f.child)
        if type(f.child) in (Atom, Neg):
            return f"~{inner}"
        return f"~({inner})"
    if kind is Forall:
        return f"forall {f.var}: {to_text(f.body)}"
    prec = _PRECEDENCE[kind]
    left, right = to_text(f.left), to_text(f.right)
    lp, rp = _PRECEDENCE[type(f.left)], _PRECEDENCE[type(f.right)]
    if kind is Implies:
        # right associative: parenthesize an implication on the left
        if lp <= prec:
            left = f"({left})"
        if rp < prec:
            right = f"({right})"
    else:
        # left associative chains: parenthesize equal precedence on the right
        if lp < prec:
            left = f"({left})"
        if rp <= prec:
            right = f"({right})"
    return f"{left} {_BINARY_SYMBOL[kind]} {right}"


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|[~*+&|(),:]|\S")

_SYMBOL_KIND = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ":": "COLON",
    "~": "NOT",
    "*": "STAR",
    "+": "PLUS",
    "&": "AMP",
    "|": "PIPE",
    "->": "ARROW",
}


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    line_starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            line_starts.append(i + 1)

    def position(offset: int) -> tuple[int, int]:
        line = bisect_right(line_starts, offset) - 1
        return line + 1, offset - line_starts[line] + 1

    tokens = []
    for m in _TOKEN_RE.finditer(text):
        value = m.group(0)
        line, col = position(m.start())
        if value in _SYMBOL_KIND:
            tokens.append((_SYMBOL_KIND[value], value, line, col))
        elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", value):
            tokens.append(("IDENT", value, line, col))
        else:
            raise ParseError(f"unexpected character {value!r}", line, col)
    end_line, end_col = position(len(text))
    tokens.append(("EOF", "", end_line, end_col))
    return tokens


class _Parser:
    def __init__(self, tokens, signature: Mapping[str, int] | None):
        self.tokens = tokens
        self.pos = 0
        self.signature = signature
        self.scope: list[str] = []

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1] or 'end of input'!r}", tok[2], tok[3])
        return self.advance()

    def formula(self) -> Formula:
        tok = self.peek()
        if tok[0] == "IDENT" and tok[1] == "forall":
            self.advance()
            var_tok = self.expect("IDENT", "a variable name")
            var = var_tok[1]
            if var == "forall":
                raise ParseError("'forall' is a reserved word", var_tok[2], var_tok[3])
            if var in self.scope:
                raise ParseError(f"variable {var!r} is already bound", var_tok[2], var_tok[3])
            self.expect("COLON", "':'")
            self.scope.append(var)
            body = self.formula()
            self.scope.pop()
            if not _occurs(var, body):
                raise ParseError(
                    f"quantified variable {var!r} does not occur in its scope",
                    var_tok[2],
                    var_tok[3],
                )
            return Forall(var, body)
        return self.implication()

    def implication(self) -> Formula:
        left = self.chain()
        if self.peek()[0] == "ARROW":
            self.advance()
            right = self.implication()
            return Implies(left, right)
        return left

    def chain(self) -> Formula:
        return self._binary_chain(0)

    _CHAIN = [("PIPE", WeakDisj), ("AMP", WeakConj), ("PLUS", StrongDisj), ("STAR", StrongConj)]

    def _binary_chain(self, level: int) -> Formula:
        if level == len(self._CHAIN):
            return self.unary()
        kind, node = self._CHAIN[level]
        expr = self._binary_chain(level + 1)
        while self.peek()[0] == kind:
            self.advance()
            expr = node(expr, self._binary_chain(level + 1))
        return expr

    def unary(self) -> Formula:
        tok = self.peek()
        if tok[0] == "NOT":
            self.advance()
            return Neg(self.unary())
        if tok[0] == "LPAREN":
            self.advance()
            expr = self.formula()
            self.expect("RPAREN", "')'")
            return expr
        if tok[0] == "IDENT":
            if tok[1] == "forall":
                raise ParseError("quantifier not allowed here; parenthesize it", tok[2], tok[3])
            return self.atom()
        raise ParseError(f"expected a formula, found {tok[1] or 'end of input'!r}", tok[2], tok[3])

    def atom(self) -> Atom:
        name_tok = self.advance()
        name = name_tok[1]
        self.expect("LPAREN", "'(' after predicate name")
        args = [self._term()]
        while self.peek()[0] == "COMMA":
            self.advance()
            args.append(self._term())
        self.expect("RPAREN", "')'")
        if self.signature is not None:
            if name not in self.signature:
                raise ParseError(f"unknown predicate {name!r}", name_tok[2], name_tok[3])
            arity = self.signature[name]
            if len(args) != arity:
                raise ParseError(
                    f"predicate {name!r} expects {arity} argument(s), got {len(args)}",
                    name_tok[2],
                    name_tok[3],
                )
        return Atom(name, tuple(args))

    def _term(self) -> str:
        tok = self.expect("IDENT", "a variable or sample name")
        if tok[1] == "forall":
            raise ParseError("'forall' is a reserved word", tok[2], tok[3])
        return tok[1]


def parse_formula(text: str, signature: Mapping[str, int] | None = None) -> Formula:
    """Parse ``text`` into a Formula.

    ``signature`` maps predicate names to arities; when given, unknown
    predicates and arity mismatches are rejected with positions.
    """
    parser = _Parser(_tokenize(text), signature)
    result = parser.formula()
    tok = parser.peek()
    if tok[0] != "EOF":
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2], tok[3])
    return result


def _occurs(var: str, f: Formula) -> bool:
    return any(var in atom.args for atom in iter_atoms(f))


def iter_atoms(f: Formula) -> Iterator[Atom]:
    """Yield every Atom leaf of ``f``, left to right."""
    kind = type(f)
    if kind is Atom:
        yield f
    elif kind is Neg:
        yield from iter_atoms(f.child)
    elif kind is Forall:
        yield from iter_atoms(f.body)
    else:
        yield from iter_atoms(f.left)
        yield from iter_atoms(f.right)


def to_nnf(f: Formula) -> NnfFormula:
    """Rewrite ``f`` so negation appears only on atoms.

    Implication ``a -> b`` becomes ``~a + b`` first; negation then moves
    inward through the dual pairs (*, +) and (&, |) and cancels on double
    negation.  A negation over ``forall`` has no equivalent here and
    raises :class:`NnfError`.
    """
    return _push(f, False)


def _push(node: Formula, negated: bool) -> Formula:
    """``node`` in negation normal form, negated if ``negated``."""
    kind = type(node)
    if kind is Atom:
        return Neg(node) if negated else node
    if kind is Neg:
        return _push(node.child, not negated)
    if kind is Implies:
        return _push(StrongDisj(Neg(node.left), node.right), negated)
    if kind is StrongConj:
        ctor = StrongDisj if negated else StrongConj
        return ctor(_push(node.left, negated), _push(node.right, negated))
    if kind is StrongDisj:
        ctor = StrongConj if negated else StrongDisj
        return ctor(_push(node.left, negated), _push(node.right, negated))
    if kind is WeakConj:
        ctor = WeakDisj if negated else WeakConj
        return ctor(_push(node.left, negated), _push(node.right, negated))
    if kind is WeakDisj:
        ctor = WeakConj if negated else WeakDisj
        return ctor(_push(node.left, negated), _push(node.right, negated))
    if kind is Forall:
        if negated:
            raise NnfError(
                "negation over 'forall' cannot be normalized in this logic"
            )
        return Forall(node.var, _push(node.body, False))
    raise FormulaError(f"unknown node {node!r}")


@dataclass(frozen=True)
class FragmentReport:
    """Outcome of the concavity fragment check.

    ``offending_path`` walks child indices from the root (0 = left or
    body, 1 = right) to the first node outside the fragment.
    """

    is_concave_fragment: bool
    offending_path: tuple[int, ...] | None = None
    offending_kind: str | None = None


def check_concave_fragment(f: NnfFormula) -> FragmentReport:
    """Check that ``f`` uses only weak conjunction, strong disjunction and
    universal quantification over literals.

    Formulas in this fragment have concave piecewise-linear truth
    functions of the grounding vector, which is what the affine
    constraint compiler requires.  ``f`` is expected to be in negation
    normal form; anything else is reported as a violation.
    """
    bad = _first_outside(f, ())
    if bad is None:
        return FragmentReport(True)
    return FragmentReport(False, bad[0], bad[1])


def _first_outside(node: Formula, path: tuple[int, ...]):
    """The path and kind of the first node of ``node``, at ``path``,
    outside the concave fragment, or None."""
    kind = type(node)
    if kind is Atom:
        return None
    if kind is Neg:
        if type(node.child) is Atom:
            return None
        return path, "Neg"
    if kind in (WeakConj, StrongDisj):
        bad = _first_outside(node.left, path + (0,))
        if bad is None:
            bad = _first_outside(node.right, path + (1,))
        return bad
    if kind is Forall:
        return _first_outside(node.body, path + (0,))
    return path, kind.__name__


def eval_lukasiewicz(
    f: Formula,
    assignment: Mapping[Atom, float],
    universe: Mapping[str, Sequence[str]] | Sequence[str] | None = None,
) -> float:
    """Evaluate ``f`` under ``assignment``.

    ``assignment`` maps ground atoms (atoms whose arguments are sample
    names) to truth values in [0, 1].  ``universe`` supplies the samples
    each quantified variable ranges over: either one sequence shared by
    all variables or a mapping keyed by variable name.
    """

    def samples_for(var: str) -> Sequence[str]:
        if universe is None:
            raise FormulaError(f"no sample universe supplied for variable {var!r}")
        if isinstance(universe, Mapping):
            try:
                names = universe[var]
            except KeyError:
                raise FormulaError(f"no sample universe supplied for variable {var!r}") from None
        else:
            names = universe
        if len(names) == 0:
            raise FormulaError(f"empty sample universe for variable {var!r}")
        return names

    def rec(node: Formula, env: dict[str, str]) -> float:
        kind = type(node)
        if kind is Atom:
            key = Atom(node.name, tuple(env.get(a, a) for a in node.args))
            try:
                return float(assignment[key])
            except KeyError:
                raise FormulaError(f"missing value for ground atom {to_text(key)}") from None
        if kind is Neg:
            return 1.0 - rec(node.child, env)
        if kind is StrongConj:
            return max(0.0, rec(node.left, env) + rec(node.right, env) - 1.0)
        if kind is StrongDisj:
            return min(1.0, rec(node.left, env) + rec(node.right, env))
        if kind is WeakConj:
            return min(rec(node.left, env), rec(node.right, env))
        if kind is WeakDisj:
            return max(rec(node.left, env), rec(node.right, env))
        if kind is Implies:
            return min(1.0, 1.0 - rec(node.left, env) + rec(node.right, env))
        if kind is Forall:
            values = []
            for name in samples_for(node.var):
                inner = dict(env)
                inner[node.var] = name
                values.append(rec(node.body, inner))
            return min(values)
        raise FormulaError(f"unknown node {node!r}")

    return rec(f, {})
