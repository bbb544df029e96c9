"""Knowledge bases as the benchmark builds them, and the reference
computations its checks make without luklearn.

A formula is a nested tuple:

    ("atom", pred, (var, ...))   ("not", f)   ("and", f, g)   weak conjunction
    ("plus", f, g)  strong disjunction        ("times", f, g)  strong conjunction
    ("imp", f, g)   implication               ("forall", var, f)

`KB.problem()` renders the problem file that luklearn receives.  The
reference side rebuilds, from the same tree, the coordinate layout, the
constraint pieces of the formulas it generates, the Gram matrices and the
Lukasiewicz truth of any formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

_SYMBOL = {"and": "&", "plus": "+", "times": "*", "imp": "->"}


def atom(pred: str, *args: str) -> tuple:
    return ("atom", pred, tuple(args))


def imp(a, b) -> tuple:
    return ("imp", a, b)


def forall(var: str, body) -> tuple:
    return ("forall", var, body)


def render(f) -> str:
    """Problem-file syntax, fully parenthesized below the quantifiers."""
    kind = f[0]
    if kind == "atom":
        return f"{f[1]}({','.join(f[2])})"
    if kind == "not":
        return f"~({render(f[1])})"
    if kind == "forall":
        return f"forall {f[1]}: {render(f[2])}"
    return f"({render(f[1])} {_SYMBOL[kind]} {render(f[2])})"


@dataclass
class KB:
    """One problem: named 2-D (or 1-D) points per domain, predicates with
    their argument domains and kernel, formulas, and supervisions."""

    domains: dict[str, dict[str, list[float]]]
    predicates: list[tuple[str, tuple[str, ...], str]]
    kernels: dict[str, dict]
    formulas: list[tuple] = field(default_factory=list)
    supervisions: list[tuple[str, tuple[str, ...], int]] = field(default_factory=list)
    keep_zero_pieces: bool = False

    def problem(self) -> dict:
        return {
            "domains": self.domains,
            "predicates": {
                name: {"domains": list(doms), "kernel": kid}
                for name, doms, kid in self.predicates
            },
            "kernels": self.kernels,
            "formulas": [render(f) for f in self.formulas],
            "supervisions": [
                {"predicate": pred, "sample": list(t), "label": label}
                for pred, t, label in self.supervisions
            ],
            "options": {"keep_zero_pieces": self.keep_zero_pieces},
        }

    # -- coordinate layout -------------------------------------------------

    def tuples(self, pred: str) -> list[tuple[str, ...]]:
        doms = next(d for name, d, _ in self.predicates if name == pred)
        return list(itertools.product(*(sorted(self.domains[d]) for d in doms)))

    def coordinates(self) -> list[tuple[str, tuple[str, ...]]]:
        return [(name, t) for name, _, _ in self.predicates for t in self.tuples(name)]

    def labels(self) -> list[str]:
        return [f"{pred}:{','.join(t)}" for pred, t in self.coordinates()]

    def coord_index(self) -> dict[tuple[str, tuple[str, ...]], int]:
        return {c: k for k, c in enumerate(self.coordinates())}

    def tuple_points(self, pred: str) -> np.ndarray:
        doms = next(d for name, d, _ in self.predicates if name == pred)
        return np.array(
            [sum((list(self.domains[d][s]) for d, s in zip(doms, t)), []) for t in self.tuples(pred)]
        )

    def var_domains(self, f) -> dict[str, str]:
        doms = {name: d for name, d, _ in self.predicates}
        out: dict[str, str] = {}

        def walk(node):
            if node[0] == "atom":
                for pos, arg in enumerate(node[2]):
                    out[arg] = doms[node[1]][pos]
            elif node[0] == "forall":
                walk(node[2])
            elif node[0] == "not":
                walk(node[1])
            else:
                walk(node[1])
                walk(node[2])

        walk(f)
        return out

    def groundings(self, f):
        """(environment, body) per grounding of the leading quantifiers,
        outer variable slowest, samples in sorted order."""
        doms = self.var_domains(f)
        variables = []
        while f[0] == "forall":
            variables.append(f[1])
            f = f[2]
        names = [sorted(self.domains[doms[v]]) for v in variables]
        for values in itertools.product(*names):
            yield dict(zip(variables, values)), f

    # -- reference computations --------------------------------------------

    def gram(self, pred: str) -> np.ndarray:
        """Gram matrix of ``pred`` written out entry by entry."""
        kid = next(k for name, _, k in self.predicates if name == pred)
        spec = self.kernels[kid]
        X = self.tuple_points(pred)
        n = len(X)
        K = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                K[i, j] = kernel(spec, X[i], X[j])
        return K

    def khat(self) -> np.ndarray:
        blocks = [self.gram(name) for name, _, _ in self.predicates]
        S = sum(len(b) for b in blocks)
        K = np.zeros((S, S))
        at = 0
        for b in blocks:
            K[at : at + len(b), at : at + len(b)] = b
            at += len(b)
        return K

    def truth(self, f, p: np.ndarray) -> float:
        """Lukasiewicz truth value of ``f`` at grounding vector ``p``."""
        index = self.coord_index()
        universe = {v: sorted(self.domains[d]) for v, d in self.var_domains(f).items()}

        def rec(node, env):
            kind = node[0]
            if kind == "atom":
                return float(p[index[(node[1], tuple(env[a] for a in node[2]))]])
            if kind == "not":
                return 1.0 - rec(node[1], env)
            if kind == "forall":
                return min(rec(node[2], {**env, node[1]: s}) for s in universe[node[1]])
            a, b = rec(node[1], env), rec(node[2], env)
            if kind == "and":
                return min(a, b)
            if kind == "plus":
                return min(1.0, a + b)
            if kind == "times":
                return max(0.0, a + b - 1.0)
            return min(1.0, 1.0 - a + b)  # imp

        return rec(f, {})

    def blocks(self) -> list[tuple[str, str, list[tuple[dict[int, float], float]]]]:
        """Every constraint block as (id, family, pieces), pieces being
        (coefficients, constant) for coefficients . p + constant <= 0."""
        return self.formula_blocks() + self.simple_blocks()

    def formula_blocks(self) -> list[tuple[str, str, list[tuple[dict[int, float], float]]]]:
        """One block per formula.  Under its quantifiers a formula must be,
        with negations pushed inward, a strong disjunction of at least two
        weak conjunctions of literals, (l11 & l12 ..) + (l21 & ..) + ...
        Its truth at a grounding is min(1, every sum taking one literal per
        disjunct), so the block holds the constant cap piece, then per
        grounding and per choice of literals the piece 1 - (their sum);
        a repeated piece is kept once."""
        index = self.coord_index()
        out = []
        for num, f in enumerate(self.formulas, start=1):
            pieces = [({}, 0.0)]
            for env, body in self.groundings(f):
                for choice in itertools.product(*disjuncts(body)):
                    coeffs: dict[int, float] = {}
                    negated = 0
                    for pred, args, neg in choice:
                        k = index[(pred, tuple(env[a] for a in args))]
                        coeffs[k] = coeffs.get(k, 0.0) + (1.0 if neg else -1.0)
                        negated += neg
                    piece = ({k: c for k, c in coeffs.items() if c != 0.0}, 1.0 - negated)
                    if piece not in pieces:
                        pieces.append(piece)
            out.append((f"phi{num}", "logical", pieces))
        return out

    def simple_blocks(self) -> list[tuple[str, str, list[tuple[dict[int, float], float]]]]:
        """Supervision blocks per predicate, then the two unit-box sides
        per coordinate."""
        index = self.coord_index()
        out = []
        for pred, _, _ in self.predicates:
            counts: dict[str, int] = {}
            for t, label in sorted({(t, lab) for p, t, lab in self.supervisions if p == pred}):
                bid = f"pt:{pred}:{','.join(t)}"
                counts[bid] = counts.get(bid, 0) + 1
                if counts[bid] > 1:
                    bid = f"{bid}#{counts[bid]}"
                k = index[(pred, t)]
                piece = ({k: -1.0}, 1.0) if label == 1 else ({k: 1.0}, 0.0)
                out.append((bid, "pointwise", [piece]))
        for k, label in enumerate(self.labels()):
            out.append((f"lb:{label}", "consistency", [({k: -1.0}, 0.0)]))
            out.append((f"ub:{label}", "consistency", [({k: 1.0}, -1.0)]))
        return out

    def matrix(self) -> "RefMatrix":
        """Stacked columns in block then piece order; constant pieces that
        can never bind are left out unless the KB keeps them."""
        S = len(self.labels())
        cols, offsets, labels, owner = [], [], [], []
        block_pieces = {}
        for bid, _, pieces in self.blocks():
            block_pieces[bid] = pieces
            kept = 0
            for coeffs, const in pieces:
                if not coeffs and const <= 0.0 and not self.keep_zero_pieces:
                    continue
                kept += 1
                col = np.zeros(S)
                for k, c in coeffs.items():
                    col[k] = c
                cols.append(col)
                offsets.append(const)
                labels.append(f"{bid}:{kept}")
                owner.append(bid)
        M = np.column_stack(cols) if cols else np.zeros((S, 0))
        return RefMatrix(M, np.array(offsets), labels, owner, block_pieces)


@dataclass
class RefMatrix:
    M: np.ndarray            # S x N, column nu is piece nu's coefficients
    q: np.ndarray            # N offsets
    labels: list[str]        # "block:k"
    owner: list[str]         # block id per column
    block_pieces: dict       # block id -> all pieces, constant ones included

    def columns_of(self, bid: str) -> list[int]:
        return [nu for nu, b in enumerate(self.owner) if b == bid]


def disjuncts(f) -> list[list[tuple[str, tuple[str, ...], bool]]]:
    """The weak conjunctions of literals (pred, args, negated) whose strong
    disjunction ``f`` is, negations pushed inward."""

    def rec(node, neg):
        kind = node[0]
        if kind == "atom":
            return [[(node[1], node[2], neg)]]
        if kind == "not":
            return rec(node[1], not neg)
        if kind == "imp" and not neg:
            return rec(node[1], True) + rec(node[2], False)
        if (kind == "plus" and not neg) or (kind == "times" and neg):
            return rec(node[1], neg) + rec(node[2], neg)
        if kind == "and" and not neg:
            left, right = rec(node[1], neg), rec(node[2], neg)
            if len(left) == 1 and len(right) == 1:
                return [left[0] + right[0]]
        raise ValueError(f"{render(node)} is not a strong disjunction of weak conjunctions")

    parts = rec(f, False)
    if len(parts) < 2:
        raise ValueError(f"{render(f)} has fewer than two disjuncts")
    return parts


def kernel(spec: dict, x, y) -> float:
    kind = spec.get("kind", "linear")
    dot = sum(a * b for a, b in zip(x, y))
    if kind == "rbf":
        d2 = sum((a - b) ** 2 for a, b in zip(x, y))
        return float(np.exp(-d2 / (2.0 * spec["sigma"] ** 2)))
    value = dot + spec.get("offset", 1.0)
    if kind == "polynomial":
        value = value ** spec.get("degree", 2)
    return float(value)
