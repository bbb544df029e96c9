"""Seeded inputs of the four workloads.

Every workload is a fixed ladder of base problems: their points, labels
and kernel widths are drawn once from BASE_SEED, or copied from the test
fixtures.  The run's seed moves every point by up to JITTER per
coordinate.  So one seed always gives the same problem files, different
seeds give different numbers, and the amount of work, which follows the
problems' shapes and active sets, stays nearly the same from seed to
seed.  Drawing the shapes themselves from the run's seed made a pass's
time vary by 45% between seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kb import KB, atom, forall, imp

BASE_SEED = 0
JITTER = 0.02
# Chain sizes and RBF widths for `train` and `analyze`.  Training fails
# on about one random chain in a thousand from n = 4 upward today, and
# more often at larger n and at sigma = 0.2 (see README.md), so the
# ladder stops at n = 4 on a fixed base seed.
TRAIN_SIZES = (2, 3, 4)
ANALYZE_SIZES = (3, 4)
SIGMAS = (0.3, 0.5)
TRAIN_REPEATS = 4
ANALYZE_REPEATS = 2
# Domain sizes of the relational `compile` KBs.
COMPILE_SIZES = (8, 10, 12)


@dataclass
class Instance:
    name: str
    kb: KB
    ops: list[list[str]]      # CLI argument lists; "{in}" and "{out}" are filled in per run
    grid_predicate: str = ""  # predict-grid target, audit only


def _names(n: int) -> list[str]:
    return [f"x{i:02d}" for i in range(n)]


def _jittered(kb: KB, rng) -> KB:
    """``kb`` with every point moved by up to JITTER per coordinate, inside [0, 1]."""
    kb.domains = {
        dom: {
            name: [float(v) for v in np.clip(np.array(pt) + rng.uniform(-JITTER, JITTER, len(pt)), 0.0, 1.0)]
            for name, pt in points.items()
        }
        for dom, points in kb.domains.items()
    }
    return kb


def chain_kb(rng, n: int, sigma: float) -> KB:
    """3 RBF predicates over n random 2-D points, rules p1->p2, p2->p3,
    p1->p3, and a random label on p1 for n // 2 of the points (at least one)."""
    names = _names(n)
    labeled = sorted(rng.choice(n, size=max(1, n // 2), replace=False))
    labels = rng.choice([-1, 1], size=len(labeled))
    return KB(
        {"points": {name: [float(v) for v in rng.random(2)] for name in names}},
        [(f"p{i}", ("points",), "rbf") for i in (1, 2, 3)],
        {"rbf": {"kind": "rbf", "sigma": sigma}},
        _chain_rules(),
        [("p1", (names[i],), int(lab)) for i, lab in zip(labeled, labels)],
    )


def _chain_rules() -> list[tuple]:
    return [
        forall("x", imp(atom(a, "x"), atom(b, "x")))
        for a, b in (("p1", "p2"), ("p2", "p3"), ("p1", "p3"))
    ]


def relational_kb(rng, m: int) -> KB:
    """A unary predicate q and a binary predicate r over m random points,
    with transitivity, a symmetry-style rule, a strong disjunction of weak
    conjunctions and a unary-binary link, plus labels on q."""
    names = _names(m)
    x, y, z = "x", "y", "z"
    q = lambda v: atom("q", v)  # noqa: E731
    r = lambda u, v: atom("r", u, v)  # noqa: E731
    formulas = [
        forall(x, forall(y, forall(z, imp(("times", r(x, y), r(y, z)), r(x, z))))),
        forall(x, forall(y, imp(r(x, y), r(y, x)))),
        forall(x, forall(y, ("plus", ("and", q(x), r(x, y)), ("and", ("not", q(y)), ("not", r(y, x)))))),
        forall(x, forall(y, imp(("times", q(x), r(x, y)), q(y)))),
    ]
    labeled = sorted(rng.choice(m, size=m // 3, replace=False))
    return KB(
        {"points": {name: [float(v) for v in rng.random(2)] for name in names}},
        [("q", ("points",), "rbf"), ("r", ("points", "points"), "rbf")],
        {"rbf": {"kind": "rbf", "sigma": float(rng.uniform(0.3, 0.6))}},
        formulas,
        [("q", (names[i],), int(rng.choice([-1, 1]))) for i in labeled],
    )


def audit_kbs() -> list[tuple[str, KB, str]]:
    """Tiny KBs: the test fixtures' shapes and points, two small RBF
    chains, and two KBs that are infeasible by construction.  Returns
    (name, kb, predicate for predict-grid)."""
    poly2 = {"kind": "polynomial", "degree": 2, "offset": 1.0}
    lin = {"kind": "linear", "offset": 1.0}
    x, y = "x", "y"
    fixture3 = {"x1": [1.0, 0.5], "x2": [0.4, 0.3], "x3": [0.2, 0.5]}

    def example1(points):
        # a binary predicate forced by a strong conjunction, zero pieces kept
        return KB(
            {"points": points},
            [("p1", ("points",), "poly2"), ("p2", ("points", "points"), "poly2")],
            {"poly2": poly2},
            [forall(x, forall(y, imp(("times", atom("p1", x), atom("p1", y)), atom("p2", x, y))))],
            [("p1", ("x1",), 1), ("p1", ("x2",), -1)],
            keep_zero_pieces=True,
        )

    # example1_empty: the first draw of example1's points for which the
    # target system has no nonnegative solution, so that the minimal-set
    # search tries all 2^8 subsets of its pool before returning none.
    rng = np.random.default_rng([BASE_SEED, 4, 101])
    out = [
        ("example1", example1({"x1": [0.2, 0.6], "x2": [0.7, 0.3]}), "p1"),
        ("example1_empty", example1({name: [float(v) for v in rng.random(2)] for name in ("x1", "x2")}), "p1"),
    ]
    # example2 / example3: unlabeled polynomial chains
    for name, n in (("example2", 2), ("example3", 3)):
        out.append((name, KB(
            {"points": {k: fixture3[k] for k in list(fixture3)[:n]}},
            [(f"p{i}", ("points",), "poly2") for i in (1, 2, 3)],
            {"poly2": poly2},
            _chain_rules(),
        ), "p2"))
    out += [
        # example4: one point, linear kernel, all three predicates labeled
        ("example4", KB(
            {"points": {"x1": [0.4, 0.3]}},
            [(f"p{i}", ("points",), "lin") for i in (1, 2, 3)],
            {"lin": lin},
            _chain_rules(),
            [("p1", ("x1",), -1), ("p2", ("x1",), 1), ("p3", ("x1",), 1)],
        ), "p3"),
        # tension: one rule pulling against one label
        ("tension", KB(
            {"points": {"x1": [0.5, 0.5]}},
            [("p1", ("points",), "lin"), ("p2", ("points",), "lin")],
            {"lin": lin},
            [forall(x, imp(atom("p1", x), atom("p2", x)))],
            [("p1", ("x1",), 1)],
        ), "p2"),
    ]
    # RBF chains with 1 and 2 points
    for n in (1, 2):
        out.append((f"chain{n}", chain_kb(np.random.default_rng([BASE_SEED, 4, n]), n, SIGMAS[n - 1]), "p3"))
    # infeasible by construction: contradictory labels, and p3 >= p1 = 1 against p3 = 0
    out.append(("conflict", KB(
        {"points": {"x1": [0.5, 0.5]}},
        [("p1", ("points",), "lin")],
        {"lin": lin},
        [],
        [("p1", ("x1",), 1), ("p1", ("x1",), -1)],
    ), "p1"))
    bad = chain_kb(np.random.default_rng([BASE_SEED, 4, 0]), 2, SIGMAS[1])
    bad.supervisions = [("p1", ("x00",), 1), ("p3", ("x00",), -1)]
    out.append(("chain_conflict", bad, "p1"))
    return out


def workload(name: str, seed: int) -> list[Instance]:
    """The instances of one pass of workload ``name``, in run order."""
    jitter = np.random.default_rng([seed, 7])
    if name == "train":
        return [
            Instance(f"train_n{n}_s{sigma}_{rep}",
                     _jittered(chain_kb(np.random.default_rng([BASE_SEED, 1, n, rep, int(sigma * 100)]), n, sigma), jitter),
                     [["train", "{in}", "-o", "{out}"]])
            for n in TRAIN_SIZES for sigma in SIGMAS for rep in range(TRAIN_REPEATS)
        ]
    if name == "analyze":
        return [
            Instance(f"analyze_n{n}_s{sigma}_{rep}",
                     _jittered(chain_kb(np.random.default_rng([BASE_SEED, 2, n, rep, int(sigma * 100)]), n, sigma), jitter),
                     [["analyze", "{in}", "--entailment", "-o", "{out}"]])
            for n in ANALYZE_SIZES for sigma in SIGMAS for rep in range(ANALYZE_REPEATS)
        ]
    if name == "compile":
        return [
            Instance(f"compile_m{m}", _jittered(relational_kb(np.random.default_rng([BASE_SEED, 3, m]), m), jitter),
                     [["compile", "{in}", "-o", "{out}"]])
            for m in COMPILE_SIZES
        ]
    if name == "audit":
        out = []
        for label, kb, pred in audit_kbs():
            ops = [
                ["train", "{in}", "-o", "{out}"],
                ["analyze", "{in}", "--entailment", "--minimal-sets", "-o", "{out}"],
            ]
            ops += [
                ["ablate", "{in}", "--drop", bid, "-o", f"{{out}}/ablate{i}"]
                for i, (bid, _, _) in enumerate(kb.blocks())
            ]
            ops.append(["predict-grid", "{in}", "--predicate", pred, "-o", "{out}"])
            out.append(Instance(f"audit_{label}", _jittered(kb, jitter), ops, pred))
        return out
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train", "analyze", "compile", "audit")
