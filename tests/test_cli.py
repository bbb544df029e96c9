"""Tests for the command-line front end: artifacts, exit codes, determinism."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from luklearn import __version__, cli, train
from luklearn.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def _run(*argv) -> int:
    return main([str(a) for a in argv])


def test_compile_example1(tmp_path, capsys):
    assert _run("compile", FIXTURES / "example1.json", "-o", tmp_path) == 0
    out = capsys.readouterr().out
    assert "M.csv" in out and "manifest.json" in out

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["version"] == __version__
    blocks = {b["id"]: b for b in manifest["blocks"]}
    assert blocks["phi1"]["pieces"] == 5
    assert blocks["phi1"]["dropped_constant_pieces"] == 0
    assert len(blocks["phi1"]["columns"]) == 5

    rows = list(csv.reader((tmp_path / "M.csv").read_text().splitlines()))
    header = rows[0]
    col = header.index("phi1:2")
    body = {r[0]: r[1:] for r in rows[1:]}
    assert [float(body[lab][col - 1]) for lab in manifest["coordinates"]] == [
        2.0,
        0.0,
        -1.0,
        0.0,
        0.0,
        0.0,
    ]
    assert float(body["q"][col - 1]) == -1.0


def test_compile_holds_far_less_than_the_dense_matrix(tmp_path):
    """Two transitive and symmetric relations over 16 points: M is
    512 x 8 736, 36 MB dense, with 23 616 nonzeros.  One compile's traced
    peak, Gram matrices and pieces included, stays below a quarter of
    the dense M, so neither M nor the whole CSV text is ever held."""
    names = [f"x{i:02d}" for i in range(16)]
    problem = {
        "domains": {"points": {name: [i / 16, (7 * i % 16) / 16] for i, name in enumerate(names)}},
        "predicates": {r: {"domains": ["points", "points"], "kernel": "rbf"} for r in ("r", "s")},
        "kernels": {"rbf": {"kind": "rbf", "sigma": 0.5}},
        "formulas": [
            text
            for r in ("r", "s")
            for text in (
                f"forall x: forall y: forall z: ({r}(x,y) * {r}(y,z)) -> {r}(x,z)",
                f"forall x: forall y: {r}(x,y) -> {r}(y,x)",
            )
        ],
    }
    path = tmp_path / "relations.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert _run("compile", path, "-o", out) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(out / "M.csv") as fh:
        rows = list(csv.reader(fh))
    size, n = len(rows) - 2, len(rows[0]) - 1
    assert (size, n) == (512, 8736)
    assert sum(cell != "0.0" for row in rows[1:-1] for cell in row[1:]) == 23616
    assert peak < size * n * 8 / 4


def test_train_example4(tmp_path):
    assert _run("train", FIXTURES / "example4.json", "-o", tmp_path) == 0
    report = json.loads((tmp_path / "training_report.json").read_text())
    assert report["loss"] == pytest.approx(1.6, abs=1e-6)
    assert report["alpha"]["p2:x1"] == pytest.approx(0.8, abs=1e-6)
    assert report["p_star"]["p3:x1"] == pytest.approx(1.0, abs=1e-6)
    assert report["activity"]["pt:p2:x1:1"] is True
    assert report["activity"]["phi1:1"] is False
    assert report["max_violation"] <= 1e-9
    assert report["kernel_classification"] == {
        "p1": "positive_definite",
        "p2": "positive_definite",
        "p3": "positive_definite",
    }
    model = json.loads((tmp_path / "model.json").read_text())
    assert model["format"] == "luklearn-model/1"


def test_train_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run("train", FIXTURES / "example4.json", "-o", a) == 0
    assert _run("train", FIXTURES / "example4.json", "-o", b) == 0
    for name in ("model.json", "training_report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_conflicting_labels_exit_3(tmp_path, capsys):
    assert _run("train", FIXTURES / "conflict.json", "-o", tmp_path) == 3
    assert "infeasible" in capsys.readouterr().err


def test_train_refuses_a_false_farkas_vector_exit_4(tmp_path, capsys):
    """A Farkas vector that holds only through a near-singular K-hat is
    not reported as infeasibility."""
    assert _run("train", FIXTURES / "refused" / "chain_near_singular.json", "-o", tmp_path) == 4
    err = capsys.readouterr().err
    assert "cond" in err and "infeasible" not in err
    assert not (tmp_path / "model.json").exists()


def test_train_refusal_names_the_phase_and_the_conditioning_exit_4(tmp_path, capsys):
    """A least-distance solve that fails without a Farkas certificate is
    refused as a training failure with cond(K-hat), like a false Farkas
    vector."""
    assert _run("train", FIXTURES / "refused" / "chain_least_distance.json", "-o", tmp_path) == 4
    err = capsys.readouterr().err
    assert "resource guard: training: least-distance residual" in err
    assert "cond(K-hat) = " in err
    assert not (tmp_path / "model.json").exists()


def test_ablate_gate_refusal_names_the_residuals_exit_4(tmp_path, capsys):
    """Dropping ub:p3:x14 from the ill-conditioned chain leaves a
    least-distance point that fails the KKT gate; it is refused at once,
    naming its residuals and cond(K-hat)."""
    argv = ["ablate", FIXTURES / "chain_ill_conditioned.json", "--drop", "ub:p3:x14", "-o", tmp_path]
    assert _run(*argv) == 4
    err = capsys.readouterr().err
    assert "training: least-distance point is not a KKT point within tolerance: stationarity " in err
    assert "feasibility " in err and "slackness " in err
    assert "cond(K-hat) = " in err
    assert not (tmp_path / "ablation.json").exists()


@pytest.mark.parametrize(
    "command, artifact",
    [(["analyze"], "analysis.json"), (["ablate", "--drop", "pt:p3:x1"], "ablation.json")],
    ids=["analyze", "ablate"],
)
def test_reports_open_with_version_tolerances_and_seed(tmp_path, command, artifact):
    argv = [command[0], FIXTURES / "example4.json", *command[1:], "-o", tmp_path]
    assert _run(*argv, "--seed", "11", "--tol-activity", "1e-5") == 0
    report = json.loads((tmp_path / artifact).read_text())
    assert list(report)[:3] == ["version", "tolerances", "seed"]
    assert report["version"] == __version__ and report["seed"] == 11
    assert report["tolerances"]["activity"] == 1e-5
    assert _run(*argv) == 0
    assert "seed" not in json.loads((tmp_path / artifact).read_text())


def test_tolerances_header_names_every_tolerance(tmp_path):
    assert _run("train", FIXTURES / "example4.json", "-o", tmp_path) == 0
    report = json.loads((tmp_path / "training_report.json").read_text())
    assert list(report["tolerances"]) == ["qp", "lp", "nullspace", "activity", "stationarity", "entailment"]


def test_nonneg_tolerance_flag_exit_2(tmp_path, capsys):
    """``nonneg`` is not a tolerance: no computation read it."""
    with pytest.raises(SystemExit) as info:
        _run("analyze", FIXTURES / "example4.json", "-o", tmp_path, "--tol-nonneg", "1e-8")
    assert info.value.code == 2
    assert "--tol-nonneg" in capsys.readouterr().err
    assert not (tmp_path / "analysis.json").exists()


def test_nonneg_tolerance_override_exit_2(tmp_path, capsys):
    data = json.loads((FIXTURES / "example4.json").read_text())
    data["options"] = {"tolerances": {"nonneg": 1e-9}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert _run("analyze", bad, "-o", tmp_path) == 2
    err = capsys.readouterr().err
    assert "[options] bad tolerance override" in err and "'nonneg'" in err
    assert not (tmp_path / "analysis.json").exists()


def test_train_records_seed_and_tolerance_overrides(tmp_path):
    assert (
        _run(
            "train",
            FIXTURES / "example4.json",
            "-o",
            tmp_path,
            "--seed",
            "7",
            "--tol-activity",
            "1e-5",
        )
        == 0
    )
    report = json.loads((tmp_path / "training_report.json").read_text())
    assert list(report)[:3] == ["version", "tolerances", "seed"]
    assert report["seed"] == 7
    assert report["tolerances"]["activity"] == 1e-5


def test_analyze_example4(tmp_path, capsys):
    assert (
        _run(
            "analyze",
            FIXTURES / "example4.json",
            "-o",
            tmp_path,
            "--entailment",
            "--minimal-sets",
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "pt:p2:x1: necessary" in out
    assert "phi3: entailed" in out

    data = json.loads((tmp_path / "analysis.json").read_text())
    verdicts = {b["id"]: b["verdict"] for b in data["blocks"]}
    assert verdicts["pt:p2:x1"] == "necessary"
    # the rest of the system forces p3 >= 1, so this supervision is entailed
    assert verdicts["pt:p3:x1"] == "entailed"
    # nothing else caps p1 from above, so here only the certificate applies
    assert verdicts["pt:p1:x1"] == "removable"
    sets = {tuple(s["blocks"]) for s in data["minimal_support_sets"]}
    assert sets == {("phi2", "ub:p3:x1"), ("ub:p2:x1", "ub:p3:x1")}


def test_analyze_logical_mode(tmp_path):
    assert _run("analyze", FIXTURES / "example2.json", "-o", tmp_path, "--mode", "logical") == 0
    data = json.loads((tmp_path / "analysis.json").read_text())
    assert data["mode"] == "logical"
    assert [b["id"] for b in data["blocks"]] == ["phi1", "phi2", "phi3"]


def test_analyze_support_limit_exit_4(tmp_path, capsys):
    code = _run(
        "analyze",
        FIXTURES / "example4.json",
        "-o",
        tmp_path,
        "--minimal-sets",
        "--support-limit",
        "2",
    )
    assert code == 4
    assert "resource guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--tol-entailment", "nan"), ("--tol-activity", "inf"), ("--tol-qp", "-1e-8"), ("--support-limit", "-1")],
)
def test_analyze_rejects_bad_numeric_flags(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        _run("analyze", FIXTURES / "example4.json", "-o", tmp_path, "--entailment", "--minimal-sets",
             f"{flag}={value}")
    assert info.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "analysis.json").exists()


@pytest.mark.parametrize("mode", ["all", "logical"])
def test_analyze_refuses_a_target_system_without_solution_exit_4(tmp_path, capsys, mode):
    """With linear kernels on four points in the plane the Gram matrices
    are singular, and the trained alpha leaves the span of the active
    columns: no multiplier vector reproduces it, so no verdict is given."""
    fixture = FIXTURES / "linear_singular.json"
    assert _run("train", fixture, "-o", tmp_path) == 0
    assert _run("analyze", fixture, "-o", tmp_path, "--mode", mode) == 4
    err = capsys.readouterr().err
    residual = {"all": "6.715e-01", "logical": "9.540e-01"}[mode]
    assert f"multiplier system residual {residual} exceeds tolerance" in err
    assert "positive semidefinite Gram matrices: p1, p2, p3" in err
    assert not (tmp_path / "analysis.json").exists()


def test_analyze_minimal_sets_of_an_unsolvable_pool(tmp_path):
    """The ill-conditioned chain's 52 active blocks exceed the support
    limit, but one fit of the pool shows no set exists."""
    code = _run("analyze", FIXTURES / "chain_ill_conditioned.json", "-o", tmp_path, "--minimal-sets")
    assert code == 0
    data = json.loads((tmp_path / "analysis.json").read_text())
    assert data["minimal_support_sets"] == []


def test_ablate_removable_block(tmp_path):
    assert _run("ablate", FIXTURES / "example4.json", "-o", tmp_path, "--drop", "pt:p3:x1") == 0
    record = json.loads((tmp_path / "ablation.json").read_text())
    assert record["identical"] is True
    assert record["dropped_satisfied"] is True


def test_ablate_necessary_block(tmp_path):
    assert _run("ablate", FIXTURES / "example4.json", "-o", tmp_path, "--drop", "pt:p2:x1") == 0
    record = json.loads((tmp_path / "ablation.json").read_text())
    assert record["identical"] is False
    assert record["ablated_loss"] < record["loss"] - 1e-6


def test_ablate_unknown_block_exit_2(tmp_path, capsys):
    assert _run("ablate", FIXTURES / "example4.json", "-o", tmp_path, "--drop", "zzz") == 2
    assert "input error" in capsys.readouterr().err


def test_predict_grid(tmp_path):
    assert (
        _run(
            "predict-grid",
            FIXTURES / "example4.json",
            "-o",
            tmp_path,
            "--predicate",
            "p2",
            "--steps",
            "5",
        )
        == 0
    )
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "x,y,p2"
    assert len(lines) == 1 + 25
    x, y, v = (float(t) for t in lines[1].split(","))
    assert (x, y) == (0.0, 0.0)


def test_predict_grid_unknown_predicate(tmp_path):
    code = _run(
        "predict-grid", FIXTURES / "example4.json", "-o", tmp_path, "--predicate", "zzz"
    )
    assert code == 2


def test_predict_grid_one_dimensional(tmp_path):
    problem = json.loads((FIXTURES / "tension.json").read_text())
    problem["domains"]["points"]["x1"] = [0.5]
    path = tmp_path / "line.json"
    path.write_text(json.dumps(problem))
    assert _run("predict-grid", path, "-o", tmp_path, "--predicate", "p1", "--steps", "3") == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "x,p1"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "0.5", "1.0"]


def test_predict_grid_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run("predict-grid", FIXTURES / "example4.json", "-o", out, "--predicate", "p2") == 0
    assert (a / "grid.csv").read_bytes() == (b / "grid.csv").read_bytes()


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_predict_grid_rejects_steps_below_one(tmp_path, capsys, steps):
    with pytest.raises(SystemExit) as info:
        _run("predict-grid", FIXTURES / "example4.json", "-o", tmp_path, "--predicate", "p2",
             "--steps", steps)
    assert info.value.code == 2
    assert "--steps" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize(
    "fixture, predicate",
    [("example4.json", "zzz"), ("example1.json", "p2")],  # unknown; input dimension 4
)
def test_predict_grid_checks_predicate_before_training(tmp_path, monkeypatch, fixture, predicate):
    def no_training(tp):
        raise AssertionError("trained before checking the predicate")

    monkeypatch.setattr(cli, "solve_primal", no_training)
    assert _run("predict-grid", FIXTURES / fixture, "-o", tmp_path, "--predicate", predicate) == 2


def test_overflowing_kernel_exit_2(tmp_path, capsys):
    problem = {
        "domains": {"points": {"x1": [1e200], "x2": [2.0]}},
        "predicates": {"p1": {"domains": ["points"], "kernel": "lin"}},
        "kernels": {"lin": {"kind": "linear"}},
        "formulas": [],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(problem))
    assert _run("train", path, "-o", tmp_path) == 2
    err = capsys.readouterr().err
    assert "input error: linear Gram matrix is not finite" in err
    assert "symmetric" not in err


def test_missing_problem_file_exit_2(tmp_path, capsys):
    assert _run("train", tmp_path / "nope.json", "-o", tmp_path) == 2
    assert "input error" in capsys.readouterr().err


def test_invalid_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert _run("train", bad, "-o", tmp_path) == 2


def test_section_of_the_wrong_json_type_exit_2(tmp_path, capsys):
    data = json.loads((FIXTURES / "example4.json").read_text())
    data["kernels"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert _run("compile", bad, "-o", tmp_path) == 2
    assert "[kernels] 'kernels' must be an object" in capsys.readouterr().err


def test_non_integer_label_exit_2(tmp_path, capsys):
    data = json.loads((FIXTURES / "example4.json").read_text())
    data["supervisions"][0]["label"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert _run("train", bad, "-o", tmp_path) == 2
    assert "'label' must be the integer -1 or +1" in capsys.readouterr().err


def test_kernel_parameter_of_the_wrong_type_exit_2(tmp_path, capsys):
    data = json.loads((FIXTURES / "example4.json").read_text())
    data["kernels"]["default"]["offset"] = "a"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert _run("train", bad, "-o", tmp_path) == 2
    assert "[kernels] kernel 'default': 'offset' must be a JSON number, got 'a'" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize(
    "kernel, path, message",
    [
        ({"kind": "linear", "offset": 1.0}, ("domains", "points", "x1", 1),
         "[domains] point 'x1' in domain 'points' must be a list of numbers"),
        ({"kind": "linear", "offset": float("inf")}, (), "[kernels] kernel 'default': 'offset' must be a JSON number"),
        ({"kind": "rbf", "sigma": float("inf")}, (), "[kernels] kernel 'default': 'sigma' must be a JSON number"),
    ],
    ids=["point-nan", "offset-infinity", "sigma-infinity"],
)
def test_non_finite_number_exit_2(tmp_path, capsys, kernel, path, message):
    """``json`` reads NaN and Infinity.  A NaN point or an infinite offset
    once exited 2 as an asymmetric Gram matrix, and an infinite RBF width
    trained a constant kernel; each now names its section."""
    data = json.loads((FIXTURES / "example4.json").read_text())
    data["kernels"]["default"] = kernel
    if path:
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        node[last] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert _run("train", bad, "-o", tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.rglob("*.json")), ids=lambda p: p.relative_to(FIXTURES).as_posix()[:-5]
)
def test_every_json_artifact_is_the_json_dumps_text(tmp_path, monkeypatch, path):
    """Each JSON artifact a command writes holds ``json.dumps(payload,
    indent=2)`` and a newline, for the payload it was given."""
    written = []
    write_json = train.write_json

    def recording(out, payload):
        write_json(out, payload)
        written.append((out, json.dumps(payload, indent=2) + "\n"))

    monkeypatch.setattr(train, "write_json", recording)
    monkeypatch.setattr(cli, "write_json", recording)
    assert _run("compile", path, "-o", tmp_path / "compile") == 0
    if _run("train", path, "-o", tmp_path / "train") == 0:  # the others train first, and fail where it does
        commands = [
            ["analyze", "--entailment", "--minimal-sets"],
            ["analyze", "--mode", "logical", "--entailment"],
            ["ablate", "--drop", "phi1"],
        ]
        for i, (command, *options) in enumerate(commands):
            _run(command, path, "-o", tmp_path / str(i), *options)
    for out, expected in written:
        assert out.read_text() == expected, out.name


def test_module_entry_point_version():
    # the child imports luklearn from wherever this process found it
    proc = subprocess.run(
        [sys.executable, "-m", "luklearn.cli", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    """``main`` called many times in one process, with flags set in one
    call and absent in the next, writes what a fresh interpreter writes
    for each call; --version and a usage error still exit 0 and 2."""
    example1, example4 = FIXTURES / "example1.json", FIXTURES / "example4.json"
    calls = [
        ["analyze", example4, "--entailment", "--seed", "3", "--tol-entailment", "1e-8"],
        ["analyze", example4],
        ["compile", example1],
        ["train", example4, "--tol-activity", "1e-5"],
        ["ablate", example4, "--drop", "pt:p3:x1"],
        ["predict-grid", example1, "--predicate", "p1", "--steps", "3"],
        ["train", example4],
    ]
    for i, argv in enumerate(calls):
        assert _run(*argv, "-o", tmp_path / "warm" / str(i)) == 0
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0 and __version__ in capsys.readouterr().out
        with pytest.raises(SystemExit) as info:
            main([argv[0], "--no-such-flag"])
        assert info.value.code == 2 and "usage:" in capsys.readouterr().err

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for i, argv in enumerate(calls):
        out = tmp_path / "cold" / str(i)
        proc = subprocess.run(
            [sys.executable, "-m", "luklearn.cli", *map(str, argv), "-o", str(out)],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        warm = tmp_path / "warm" / str(i)
        names = sorted(f.name for f in out.iterdir())
        assert names == sorted(f.name for f in warm.iterdir())
        for name in names:
            assert (warm / name).read_bytes() == (out / name).read_bytes(), (argv, name)

    with_entailment = json.loads((tmp_path / "warm" / "0" / "analysis.json").read_text())
    without = json.loads((tmp_path / "warm" / "1" / "analysis.json").read_text())
    assert "seed" in with_entailment and "seed" not in without
    assert with_entailment != without


def test_commands_do_not_import_numpy_ma(tmp_path):
    """Every subcommand, run in one fresh interpreter, leaves numpy.ma
    unimported: numpy loads it lazily, for example from np.setdiff1d
    and np.isin, and it costs memory and start-up time."""
    fixture = FIXTURES / "example1.json"
    commands = [
        ["compile", fixture],
        ["train", fixture],
        ["analyze", fixture, "--entailment", "--minimal-sets"],
        ["ablate", fixture, "--drop", "phi1"],
        ["predict-grid", fixture, "--predicate", "p1"],
    ]
    argvs = [[str(a) for a in argv] + ["-o", str(tmp_path)] for argv in commands]
    script = (
        "import sys\n"
        "from luklearn.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] False"
