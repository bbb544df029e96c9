"""Independent checks of luklearn's artifacts.

Nothing here calls luklearn.  The constraint pieces, Gram matrices and
truth values come from `kb`, and every LP is solved by scipy's HiGHS.
Each check raises `CheckFailed` on a wrong artifact and records, per
named quantity, how close it came to its tolerance (`Margins`).
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from kb import KB, RefMatrix, kernel

# Tolerances of the checks.  The program's own tolerances are 1e-7 for
# certificate residuals, 1e-6 for activity and 1e-9 for entailment.
FEAS_TOL = 1e-7      # constraint violation at p*
EXACT_TOL = 1e-9     # recomputed values (p* = K alpha, loss, expansions), relative
SIGN_TOL = 1e-9      # multipliers >= -SIGN_TOL
COMPL_TOL = 1e-8     # |multiplier * piece value|
STAT_TOL = 1e-7      # stationarity and certificate residuals, as luklearn accepts them
ACTIVE_TOL = 1e-6    # |piece value| at or below this is active, as in luklearn
ENTAIL_TOL = 1e-9    # a piece maximum at or below this is entailed, as in luklearn
MAXIMA_TOL = 1e-7    # agreement of entailment maxima with HiGHS
MOVE_TOL = 1e-7      # an ablation with p_distance above this moved the optimum
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class CheckFailed(Exception):
    pass


class Margins:
    """Worst observed value per check next to its tolerance.

    `bound` checks value <= tol.  `decision` records how far a value
    deciding a verdict was from the threshold, as a factor."""

    def __init__(self):
        self.worst: dict[str, tuple[float, float]] = {}
        self.closest: dict[str, float] = {}

    def bound(self, name: str, value: float, tol: float, where: str = "") -> None:
        value = float(value)
        if not value <= tol:
            raise CheckFailed(f"{name}: {value:.3e} exceeds {tol:.1e} {where}")
        if name not in self.worst or value > self.worst[name][0]:
            self.worst[name] = (value, tol)

    def decision(self, name: str, value: float, threshold: float) -> None:
        factor = max(abs(value), 1e-300) / threshold
        factor = max(factor, 1.0 / factor)
        self.closest[name] = min(self.closest.get(name, np.inf), factor)

    def to_dict(self) -> dict:
        out = {name: {"worst": v, "tolerance": t} for name, (v, t) in sorted(self.worst.items())}
        for name, factor in sorted(self.closest.items()):
            out[name] = {"closest_factor_to_threshold": factor}
        return out


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(b))


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _vector(mapping: dict, labels: list[str], what: str) -> np.ndarray:
    _require(list(mapping) == labels, f"{what} labels differ from the reference layout")
    return np.array([mapping[label] for label in labels], dtype=float)


class Reference:
    """What the checks know about one KB, computed once."""

    def __init__(self, kb: KB):
        self.kb = kb
        self.labels = kb.labels()
        self.K = kb.khat()
        self.ref: RefMatrix = kb.matrix()
        self.unique = all(np.linalg.eigvalsh(kb.gram(p))[0] > 1e-9 for p, _, _ in kb.predicates)

    def feasible(self) -> bool:
        """Whether some alpha satisfies every piece, decided by HiGHS."""
        A = self.ref.M.T @ self.K
        res = linprog(np.zeros(len(self.labels)), A_ub=A, b_ub=-self.ref.q,
                      bounds=(None, None), method="highs", options=_HIGHS)
        _require(res.status in (0, 2), f"HiGHS feasibility LP ended with status {res.status}")
        return res.status == 0

    def certificate_residual(self, cols: list[int], target: np.ndarray) -> float:
        """min over nu >= 0 on ``cols`` of |M nu - target|_inf, by HiGHS."""
        if not cols:
            return float(np.max(np.abs(target), initial=0.0))
        sub = self.ref.M[:, cols]
        S, k = sub.shape
        A = np.block([[sub, -np.ones((S, 1))], [-sub, -np.ones((S, 1))]])
        b = np.concatenate([target, -target])
        c = np.zeros(k + 1)
        c[-1] = 1.0
        res = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs", options=_HIGHS)
        _require(res.status == 0, f"HiGHS certificate LP ended with status {res.status}")
        nu = res.x[:k]
        return float(np.max(np.abs(sub @ nu - target), initial=0.0))


def check_train(ref: Reference, out: Path, m: Margins) -> np.ndarray:
    """KKT certificate of training_report.json against the reference
    M and K-hat, and model.json's expansion at the training points.
    Returns alpha."""
    report = _read_json(out / "training_report.json")
    model = _read_json(out / "model.json")
    R, K = ref.ref, ref.K
    alpha = _vector(report["alpha"], ref.labels, "alpha")
    p = _vector(report["p_star"], ref.labels, "p_star")
    mu = _vector(report["multipliers"], R.labels, "multipliers")
    scale = 1.0 + float(np.max(np.abs(alpha)))
    m.bound("train.p_star_is_K_alpha", np.max(np.abs(K @ alpha - p)) / scale, EXACT_TOL, str(out))
    m.bound("train.loss", _rel(report["loss"], float(alpha @ K @ alpha)), EXACT_TOL, str(out))
    values = R.M.T @ p + R.q
    m.bound("train.feasibility", np.max(values, initial=0.0), FEAS_TOL, str(out))
    m.bound("train.multiplier_sign", max(0.0, -float(np.min(mu, initial=0.0))), SIGN_TOL, str(out))
    m.bound("train.complementarity", np.max(np.abs(mu * values), initial=0.0), COMPL_TOL, str(out))
    stationarity = np.max(np.abs(K @ (2.0 * alpha + R.M @ mu)), initial=0.0) / scale
    m.bound("train.stationarity", stationarity, STAT_TOL, str(out))

    p_model = model_values(ref.kb, model)
    m.bound("train.model_reproduces_p_star", np.max(np.abs(p_model - p)) / scale, EXACT_TOL, str(out))
    return alpha


def model_values(kb: KB, model: dict) -> np.ndarray:
    """model.json's kernel expansion at every training point, in layout order."""
    _require(model.get("format") == "luklearn-model/1", "model.json has the wrong format tag")
    by_name = {entry["name"]: entry for entry in model["predicates"]}
    values = []
    for pred, _, kid in kb.predicates:
        entry = by_name[pred]
        pts = kb.tuple_points(pred)
        _require(np.array_equal(np.array(entry["points"], dtype=float), pts),
                 f"model.json points of {pred} differ from the problem's")
        _require(entry["kernel"]["kind"] == kb.kernels[kid]["kind"], f"model.json kernel of {pred}")
        for x in pts:
            values.append(expansion(kb.kernels[kid], entry, x))
    return np.array(values)


def expansion(spec: dict, entry: dict, x) -> float:
    return sum(a * kernel(spec, pt, x) for a, pt in zip(entry["alpha"], entry["points"])) + entry["bias"]


def check_analysis(ref: Reference, out: Path, m: Margins, minimal_sets: bool) -> dict[str, str]:
    """Every verdict of analysis.json re-derived with HiGHS, every reported
    gradient certificate verified directly, and, with ``minimal_sets``,
    the minimal support sets confirmed.  Returns the verdicts."""
    report = _read_json(out / "analysis.json")
    R, K = ref.ref, ref.K
    alpha = np.array(report["target"], dtype=float)
    p = K @ alpha
    values = R.M.T @ p + R.q
    m.bound("analyze.feasibility", np.max(values, initial=0.0), FEAS_TOL, str(out))
    m.bound("analyze.loss", _rel(report["loss"], float(alpha @ K @ alpha)), EXACT_TOL, str(out))
    active = np.abs(values) <= ACTIVE_TOL
    act_cols = list(np.flatnonzero(active))
    grad = -2.0 * alpha
    m.bound("analyze.optimality", ref.certificate_residual(act_cols, grad), STAT_TOL, str(out))
    _require(report["unique_optimum"] == ref.unique, "unique_optimum differs from the Gram eigenvalues")

    blocks = report["blocks"]
    _require([b["id"] for b in blocks] == list(R.block_pieces), "block ids or order differ")
    verdicts = {}
    for entry in blocks:
        bid = entry["id"]
        cols = R.columns_of(bid)
        labels = [R.labels[nu] for nu in cols if active[nu]]
        _require(entry["active_pieces"] == labels, f"{bid}: active pieces differ")

        entailed = _check_entailment(ref, bid, entry["entailment"], m, out)
        outside = [nu for nu in act_cols if R.owner[nu] != bid]
        residual = ref.certificate_residual(outside, grad)
        m.decision("analyze.certificate_decision", residual, STAT_TOL)
        has_cert = residual <= STAT_TOL
        cert = entry["gradient_certificate"]
        _require((cert is not None) == has_cert, f"{bid}: gradient certificate presence disagrees with HiGHS")
        if cert is not None:
            nu = _vector(cert, R.labels, f"{bid} certificate")
            m.bound("analyze.certificate_sign", max(0.0, -float(np.min(nu))), 0.0, str(out))
            off = [i for i in range(len(nu)) if i not in outside]
            m.bound("analyze.certificate_support", np.max(np.abs(nu[off]), initial=0.0), 0.0, str(out))
            m.bound("analyze.certificate_residual", np.max(np.abs(R.M @ nu - grad)), STAT_TOL, str(out))
        if entailed:
            verdict = "entailed"
        elif has_cert:
            verdict = "removable" if ref.unique else "candidate"
        else:
            verdict = "necessary"
        _require(entry["verdict"] == verdict, f"{bid}: verdict {entry['verdict']!r}, expected {verdict!r}")
        verdicts[bid] = verdict

    if minimal_sets:
        _check_minimal_sets(ref, report["minimal_support_sets"], alpha, active, m, out)
    return verdicts


def _check_entailment(ref: Reference, bid: str, reported: dict, m: Margins, out: Path) -> bool:
    """Maximize each piece of ``bid`` over the unit box (without the tested
    side when the block is a box side) cut by every other block's pieces."""
    S = len(ref.labels)
    rows, rhs = [], []
    for other, pieces in ref.ref.block_pieces.items():
        if other == bid:
            continue
        for coeffs, const in pieces:
            row = np.zeros(S)
            for k, c in coeffs.items():
                row[k] = c
            rows.append(row)
            rhs.append(-const)
    lower = np.zeros(S)
    upper = np.ones(S)
    kind, _, label = bid.partition(":")
    if kind in ("lb", "ub"):
        k = ref.labels.index(label)
        (lower if kind == "lb" else upper)[k] = np.nan
    bounds = [(None if np.isnan(lo) else lo, None if np.isnan(hi) else hi) for lo, hi in zip(lower, upper)]
    A = np.array(rows) if rows else None
    b = np.array(rhs) if rows else None
    maxima = []
    for coeffs, const in ref.ref.block_pieces[bid]:
        if not coeffs:
            maxima.append(const)
            continue
        c = np.zeros(S)
        for k, v in coeffs.items():
            c[k] = -v
        res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs", options=_HIGHS)
        _require(res.status in (0, 3), f"{bid}: HiGHS entailment LP ended with status {res.status}")
        maxima.append(np.inf if res.status == 3 else -res.fun + const)
    _require(not reported["vacuous"], f"{bid}: reported vacuous on a feasible problem")
    got = sorted(np.inf if v == "unbounded" else float(v) for v in reported["piece_maxima"])
    want = sorted(maxima)
    _require(len(got) == len(want), f"{bid}: {len(got)} piece maxima, expected {len(want)}")
    for g, w in zip(got, want):
        if np.isinf(w) or np.isinf(g):
            _require(g == w, f"{bid}: piece maximum {g} vs HiGHS {w}")
        else:
            m.bound("analyze.entailment_maxima", abs(g - w), MAXIMA_TOL, f"{out} {bid}")
    top = max(want)
    if top > 0:
        m.decision("analyze.entailment_decision", top, ENTAIL_TOL)
    entailed = top <= ENTAIL_TOL
    _require(reported["entailed"] == entailed, f"{bid}: entailed flag disagrees with HiGHS")
    return entailed


def _check_minimal_sets(ref, sets, alpha, active, m: Margins, out: Path) -> None:
    R = ref.ref
    pool = [b for b in R.block_pieces if any(active[nu] for nu in R.columns_of(b))]

    def cols(blocks):
        return [nu for b in blocks for nu in R.columns_of(b) if active[nu]]

    def works(blocks):
        residual = ref.certificate_residual(cols(blocks), alpha)
        m.decision("audit.minimal_set_decision", residual, STAT_TOL)
        return residual <= STAT_TOL

    _require(sets is not None, "minimal_support_sets missing")
    if not sets:
        _require(not works(pool), "no minimal set reported, but the full pool carries a certificate")
        return
    size = len(sets[0]["blocks"])
    for s in sets:
        _require(len(s["blocks"]) == size, "minimal sets of different sizes")
        lam = _vector(s["certificate"], R.labels, "minimal-set certificate")
        allowed = set(cols(s["blocks"]))
        m.bound("audit.minimal_set_sign", max(0.0, -float(np.min(lam))), 0.0, str(out))
        m.bound("audit.minimal_set_support",
                max((abs(v) for i, v in enumerate(lam) if i not in allowed), default=0.0), 0.0, str(out))
        m.bound("audit.minimal_set_residual", np.max(np.abs(R.M @ lam - alpha)), STAT_TOL, str(out))
    if size:
        for smaller in itertools.combinations(pool, size - 1):
            _require(not works(smaller), f"{list(smaller)} is a smaller support set")
    found = {tuple(c) for c in itertools.combinations(pool, size) if works(c)}
    _require(found == {tuple(s["blocks"]) for s in sets}, "reported minimal sets are not all the minimal sets")


def check_ablation(ref: Reference, out: Path, bid: str, verdict: str, loss: float, m: Margins) -> None:
    """Ablation agrees with the verdict: under a unique optimum, entailed and
    removable blocks leave p* in place and necessary ones move it."""
    rec = _read_json(out / "ablation.json")
    _require(rec["block"] == bid, f"ablation.json names {rec['block']!r}, expected {bid!r}")
    m.bound("audit.ablation_loss", _rel(rec["loss"], loss), EXACT_TOL, str(out))
    m.bound("audit.ablation_relaxes", max(0.0, rec["ablated_loss"] - rec["loss"]) / (1.0 + loss), EXACT_TOL, str(out))
    _require(rec["identical"] == (rec["p_distance"] <= MOVE_TOL), f"{bid}: identical flag and distance disagree")
    if not ref.unique or verdict == "candidate":
        return
    if verdict == "necessary":
        m.decision("audit.ablation_moves", rec["p_distance"], MOVE_TOL)
        _require(rec["p_distance"] > MOVE_TOL, f"{bid}: necessary, but dropping it left p* in place")
    else:
        m.bound("audit.ablation_stays", rec["p_distance"], MOVE_TOL, f"{out} {bid}")


def check_grid(ref: Reference, out: Path, predicate: str, m: Margins) -> None:
    """grid.csv against the kernel expansion of model.json on a 21 x 21
    (or 21-point) grid over [0, 1]."""
    model = _read_json(out / "model.json")
    entry = next(e for e in model["predicates"] if e["name"] == predicate)
    spec = ref.kb.kernels[next(k for p, _, k in ref.kb.predicates if p == predicate)]
    with open(out / "grid.csv") as fh:
        rows = list(csv.reader(fh))
    dim = len(entry["points"][0])
    axis = np.linspace(0.0, 1.0, 21)
    _require(rows[0] == ["x", "y", predicate][-dim - 1:], "grid.csv header")
    want_xy = list(itertools.product(axis, repeat=dim))
    _require(len(rows) - 1 == len(want_xy), "grid.csv row count")
    worst = 0.0
    for row, xy in zip(rows[1:], want_xy):
        point = [float(v) for v in row[:dim]]
        _require(point == list(xy), "grid.csv grid coordinates")
        value = float(row[dim])
        worst = max(worst, _rel(value, expansion(spec, entry, point)))
    m.bound("audit.grid_expansion", worst, EXACT_TOL, str(out))


def check_compile(kb: KB, out: Path, rng, m: Margins) -> None:
    """M.csv and manifest.json.  Each formula's Lukasiewicz truth at random
    and vertex points of the unit cube equals 1 - max(0, largest piece of
    its block), and every block holds exactly the reference pieces."""
    with open(out / "M.csv") as fh:
        rows = list(csv.reader(fh))
    manifest = _read_json(out / "manifest.json")
    labels = kb.labels()
    header = rows[0]
    _require(header[0] == "coord" and [r[0] for r in rows[1:]] == labels + ["q"], "M.csv row labels")
    _require(manifest["coordinates"] == labels, "manifest coordinates")
    M = np.array([[float(v) for v in r[1:]] for r in rows[1:-1]])
    q = np.array([float(v) for v in rows[-1][1:]])
    col_of = {label: nu for nu, label in enumerate(header[1:])}
    _require(len(col_of) == len(header) - 1, "duplicate column labels in M.csv")

    blocks = manifest["blocks"]
    listed = [label for b in blocks for label in b["columns"]]
    _require(listed == header[1:], "manifest columns differ from M.csv columns")
    reference = {bid: pieces for bid, _, pieces in kb.blocks()}
    _require([b["id"] for b in blocks] == list(reference), "manifest block ids or order")

    S = len(labels)
    P = np.concatenate([rng.random((S, 6)), rng.integers(0, 2, (S, 2)).astype(float)], axis=1)
    values = M.T @ P + q[:, None]
    worst = 0.0
    for num, f in enumerate(kb.formulas, start=1):
        cols = [col_of[label] for label in blocks[num - 1]["columns"]]
        top = np.max(values[cols], axis=0, initial=0.0)
        for r in range(P.shape[1]):
            worst = max(worst, abs(kb.truth(f, P[:, r]) - (1.0 - top[r])))
    m.bound("compile.lukasiewicz", worst, EXACT_TOL, str(out))

    for b in blocks:
        cols = [col_of[label] for label in b["columns"]]
        got = sorted((tuple((int(k), M[k, nu]) for k in np.flatnonzero(M[:, nu])), q[nu]) for nu in cols)
        kept = [(c, const) for c, const in reference[b["id"]] if c or const > 0 or kb.keep_zero_pieces]
        want = sorted((tuple(sorted(c.items())), const) for c, const in kept)
        _require(got == want, f"{b['id']}: pieces differ from the reference pieces")
        _require(b["dropped_constant_pieces"] == len(reference[b["id"]]) - len(kept),
                 f"{b['id']}: dropped piece count")
