import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tspdual import cli
from tspdual import instance as instance_mod
from tspdual.cli import main
from tspdual.formulation import build_formulation
from tspdual.inverse import SearchConfig, SearchVerdict
from tspdual.instance import DistanceMatrix, random_euclidean_instance, save_instance
from tspdual.reduction import reduce_formulation


@pytest.fixture
def unit_square_file(tmp_path, unit_square):
    path = tmp_path / "square.json"
    save_instance(path, unit_square)
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


class TestFormulate:
    def test_summary_reports_oracle(self, tmp_path, unit_square_file):
        out = tmp_path / "out"
        assert main(["formulate", "--instance", unit_square_file, "--out", str(out)]) == 0
        summary = read_json(out / "summary.json")
        assert summary["oracle_length"] == 4.0
        assert summary["oracle_tour_objective"] == 4.0
        assert summary["oracle_tour"] == [1, 2, 3, 4]
        assert summary["symmetric"] is True
        A = np.loadtxt(out / "A.csv", delimiter=",")
        assert A.shape == (16, 16)

    def test_negative_zero_distances_write_no_negative_zero(self, tmp_path):
        d, _ = random_euclidean_instance(5, 3)
        signed = d.entries.copy()
        np.fill_diagonal(signed, -0.0)
        signed[1, 3] = signed[3, 1] = -0.0
        inst = tmp_path / "signed.json"
        inst.write_text(json.dumps({"n": 5, "d": signed.ravel().tolist()}))
        out = tmp_path / "out"
        assert main(["formulate", "--instance", str(inst), "--out", str(out)]) == 0
        for name in ("A.csv", "C.csv", "D.csv"):
            cells = (out / name).read_text().replace("\n", ",").split(",")
            assert "-0.0" not in cells and "0.0" in cells
        # b_r's structural zeros too, on this file and on a generated one
        for source in (["--instance", str(inst)], ["--n", "4", "--seed", "1"]):
            red = tmp_path / "reduced"
            assert main(["reduce", *source, "--out", str(red)]) == 0
            payload = read_json(red / "reduced.json")
            values = np.concatenate(
                [np.ravel(payload[key]) for key in ("A_r", "b_r", "E_r", "c0")]
            )
            zeros = values[values == 0.0]
            assert zeros.size and not np.signbit(zeros).any()

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["formulate", "--instance", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_too_small_instance(self, tmp_path):
        small = tmp_path / "n2.json"
        small.write_text(json.dumps({"n": 2, "d": [0, 1, 1, 0]}))
        assert main(["formulate", "--instance", str(small), "--out", str(tmp_path / "o")]) == 2


class TestReduce:
    def test_paper_match_n4(self, tmp_path, unit_square_file):
        out = tmp_path / "out"
        assert main(["reduce", "--instance", unit_square_file, "--out", str(out)]) == 0
        payload = read_json(out / "reduced.json")
        assert payload["paper_match"] is True
        assert payload["c0"] == 0.0

    # a distance entry and a structural zero of each
    @pytest.mark.parametrize(
        "field, entry", [("A_r", (1, 3)), ("A_r", (0, 0)), ("b_r", (2,)), ("b_r", (4,))]
    )
    def test_paper_match_sees_one_perturbed_entry(
        self, tmp_path, monkeypatch, unit_square_file, field, entry
    ):
        def perturbed(f):
            r = reduce_formulation(f)
            arr = getattr(r, field).copy()
            arr[entry] += 0.5
            return replace(r, **{field: arr})

        monkeypatch.setattr(cli, "reduce_formulation", perturbed)
        out = tmp_path / "out"
        assert main(["reduce", "--instance", unit_square_file, "--out", str(out)]) == 0
        assert read_json(out / "reduced.json")["paper_match"] is False

    def test_n5_dimensions(self, tmp_path):
        out = tmp_path / "out"
        assert main(["reduce", "--n", "5", "--seed", "1", "--out", str(out)]) == 0
        payload = read_json(out / "reduced.json")
        assert len(payload["A_r"]) == 16
        assert len(payload["A_r"][0]) == 16
        assert len(payload["E_r"]) == 7
        assert "paper_match" not in payload

    def test_reduced_json_round_trips(self, unit_square):
        config = {"instance_id": "square", "seed": 0}
        files, counterexample = cli.cmd_reduce(unit_square, config)
        assert list(files) == ["reduced.json"] and counterexample is None
        payload = json.loads(files["reduced.json"])
        r = reduce_formulation(build_formulation(unit_square))
        assert list(payload) == [
            "n", "A_r", "b_r", "E_r", "c0", "paper_match", "instance", "config"
        ]
        assert payload["n"] == 4
        assert payload["c0"] == r.c0 == 0.0
        for key in ("A_r", "b_r", "E_r"):
            assert np.array_equal(np.array(payload[key]), getattr(r, key))
        assert payload["instance"] == "square" and payload["config"] == config

    def test_bad_instance_creates_no_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3, "d": [0, 1]}))
        out = tmp_path / "o"
        assert main(["reduce", "--instance", str(bad), "--out", str(out)]) == 2
        assert not out.exists()


class TestDual:
    def test_gap_record(self, tmp_path, unit_square_file):
        out = tmp_path / "out"
        assert main(["dual", "--instance", unit_square_file, "--out", str(out)]) == 0
        record = read_json(out / "gap_record.json")
        assert record["oracle_optimum"] == 4.0
        assert record["gap"] >= -1e-8
        assert record["verdict"] != "ConfirmsTheorem2"
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,g,gradient_norm,min_eig"
        values = [float(line.split(",")[1]) for line in trace[1:]]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_seeded_run_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["dual", "--n", "4", "--seed", "3", "--out", str(out)]) == 0
        assert (out1 / "gap_record.json").read_bytes() == (out2 / "gap_record.json").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    @pytest.mark.parametrize(
        "n, seed, row",
        [
            (4, 3, "0,-1.3376656150452477,1.6535495038878214,1.0000000000000009"),
            (10, 0, "0,-50.38294062746096,5.4996394824097194,1.0"),
        ],
    )
    def test_trace_starts_at_the_default_start(self, tmp_path, n, seed, row):
        # row 0 is the start, with the bytes the gradient ascent wrote for
        # it; the last row is the barrier path's end, pinned to its bytes too
        last = {
            (4, 3): "8,0.14223438267554012,0.3318426334241493,2.0914937457862854e-10",
            (10, 0): "8,-29.82589359351549,0.4452507162506279,2.1052670716141723e-10",
        }[n, seed]
        out = tmp_path / "out"
        assert main(["dual", "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()
        assert (rows[1], rows[-1]) == (row, last)

    def test_huge_distances_end_without_traceback(self, tmp_path, capsys):
        # the sum is finite, but Y overflows at this scale; a non-finite Y
        # or shifted matrix counts as outside the cone, never as a result
        n = 6
        d = [0.0 if i == j else 1e300 * (1 + 0.1 * ((i + j) % 3))
             for i in range(n) for j in range(n)]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": n, "d": d}))
        out = tmp_path / "out"
        assert main(["dual", "--instance", str(path), "--out", str(out)]) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err
        if (out / "gap_record.json").exists():
            text = (out / "gap_record.json").read_text()
            assert "Infinity" not in text and "NaN" not in text

    def test_confirmation_exits_10(self, tmp_path, monkeypatch, capsys, unit_square_file):
        monkeypatch.setattr(
            cli.dual_mod, "verify_global",
            lambda *args: cli.dual_mod.Verdict.ConfirmsTheorem2,
        )
        out = tmp_path / "out"
        assert main(["dual", "--instance", unit_square_file, "--out", str(out)]) == 10
        assert capsys.readouterr().err == (
            "COUNTEREXAMPLE: dual critical point recovered a binary optimal tour; "
            "see gap_record.json\n"
        )
        assert read_json(out / "gap_record.json")["verdict"] == "ConfirmsTheorem2"
        assert (out / "trace.csv").read_text().startswith("iteration,g,")


# seeded instances at scales where the start passes the cone test yet its
# value lies above the optimum, and so does the path's best, which ends
# Stalled: 2.90e34 against 2.26e16, 2.22e119 against 2.26e100 and 9.73e305
# against 2.50e290 (a Newton system overflows there)
ABOVE_OPTIMUM = [(6, 2, 1e16), (6, 2, 1e100), (4, 0, 1e290)]


def scaled_instance(n, seed, scale):
    d, _ = random_euclidean_instance(n, seed)
    return DistanceMatrix(n, scale * d.entries)


@pytest.mark.parametrize("n, seed, scale", ABOVE_OPTIMUM)
def test_dual_bound_above_optimum_exits_2(tmp_path, capsys, n, seed, scale):
    path = tmp_path / "scaled.json"
    save_instance(path, scaled_instance(n, seed, scale))
    out = tmp_path / "out"
    assert main(["dual", "--instance", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dual bound ") and "exceeds the optimum" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "gap_record.json").exists()
    assert not (out / "trace.csv").exists()
    assert not any(out.iterdir())  # --out exists, and holds no file


def test_experiment_bound_above_optimum_exits_2(tmp_path, capsys, monkeypatch):
    n, seed, scale = ABOVE_OPTIMUM[0]
    monkeypatch.setattr(
        cli, "random_euclidean_instance",
        lambda n, seed: (scaled_instance(n, seed, scale), None),
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 1, "ns": [n], "seed": seed}))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dual bound ") and err.count("\n") == 1
    assert not (out / "gaps.csv").exists()
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["formulate", "reduce", "dual"])
def test_non_finite_instance_rejected(tmp_path, capsys, command):
    # JSON 1e999 parses to inf
    path = tmp_path / "inf.json"
    path.write_text('{"n": 3, "d": [0, 1e999, 1, 1e999, 0, 1, 1, 1, 0]}')
    out = tmp_path / "out"
    assert main([command, "--instance", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: d[1,2] = inf is not finite\n"
    assert not out.exists()


TRIANGLE = [0, 1, 1, 1, 0, 1, 1, 1, 0]
CORNERS = [[0, 0], [1, 0], [0, 1]]
# (id, file text, what the one-line error names); each of these used to run
# as something else, or to die with a traceback
BAD_INSTANCES = [
    ("list", "[]", "instance must be a JSON object"),
    ("string", '"square"', "instance must be a JSON object"),
    ("n-float", json.dumps({"n": 3.9, "d": TRIANGLE}), "'n'"),
    ("n-integral-float", json.dumps({"n": 3.0, "d": TRIANGLE}), "'n'"),
    ("n-bool", json.dumps({"n": True, "d": [0]}), "'n'"),
    ("n-string", json.dumps({"n": "3", "d": TRIANGLE}), "'n'"),
    ("n-missing", json.dumps({"d": TRIANGLE}), "'n'"),
    ("n-negative", json.dumps({"n": -3, "d": TRIANGLE}), "'n'"),
    ("d-missing", json.dumps({"n": 3}), "'d'"),
    ("d-number", json.dumps({"n": 3, "d": 5}), "'d'"),
    ("d-string", json.dumps({"n": 3, "d": "012"}), "'d'"),
    ("d-rows", json.dumps({"n": 3, "d": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}), "'d'"),
    ("d-bool", json.dumps({"n": 3, "d": [0, True] + TRIANGLE[2:]}), "'d[1]'"),
    ("d-string-entry", json.dumps({"n": 3, "d": [0, "1"] + TRIANGLE[2:]}), "'d[1]'"),
    ("d-inf", '{"n": 3, "d": [0, 1e400, 1, 1, 0, 1, 1, 1, 0]}', "d[1,2]"),
    ("d-huge-int", '{"n": 3, "d": [0, 1%s, 1, 1, 0, 1, 1, 1, 0]}' % ("0" * 400), "'d'"),
    ("d-sum-overflow", json.dumps({"n": 4, "d": [0 if i % 5 == 0 else 8e307 for i in range(16)]}),
     "float64 range"),
    ("points-short", json.dumps({"n": 3, "d": TRIANGLE, "points": [[0, 0]]}), "'points'"),
    ("points-string", json.dumps({"n": 3, "d": TRIANGLE, "points": "abc"}), "'points'"),
    ("point-short", json.dumps({"n": 3, "d": TRIANGLE, "points": CORNERS[:2] + [[0]]}),
     "'points[2]'"),
    ("point-number", json.dumps({"n": 3, "d": TRIANGLE, "points": CORNERS[:2] + [5]}),
     "'points[2]'"),
    ("point-string", json.dumps({"n": 3, "d": TRIANGLE, "points": CORNERS[:2] + [[0, "1"]]}),
     "'points[2][1]'"),
    ("point-bool", json.dumps({"n": 3, "d": TRIANGLE, "points": CORNERS[:2] + [[False, 1]]}),
     "'points[2][0]'"),
    ("point-inf", json.dumps({"n": 3, "d": TRIANGLE, "points": CORNERS}).replace("1]]", "1e400]]"),
     "'points'"),
]


@pytest.mark.parametrize("command", ["formulate", "reduce", "dual"])
@pytest.mark.parametrize(
    "text, names", [case[1:] for case in BAD_INSTANCES], ids=[case[0] for case in BAD_INSTANCES]
)
def test_bad_instance_file_exits_2(tmp_path, capsys, command, text, names):
    path = tmp_path / "bad.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--instance", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err
    assert "Traceback" not in err
    assert not out.exists()


class TestInverse:
    def test_small_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"restarts": 5, "local_iters": 200, "seed": 11}))
        assert main(["inverse", "--config", str(cfg), "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["verdict"] == "NoFeasiblePointFound"
        assert report["best_min_eig"] <= 1e-8
        assert report["config"]["restarts"] == 5

    def test_seed_reproducibility(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"restarts": 4, "local_iters": 200}))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["inverse", "--config", str(cfg), "--seed", "21", "--out", str(out)]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["config"]["seed"] == 21

    def test_report_renders_the_record(self):
        cfg = SearchConfig(n=5, restarts=3, local_iters=100, seed=4)
        files, counterexample = cli.cmd_inverse(cfg)
        assert list(files) == ["report.json"] and counterexample is None
        doc = json.loads(files["report.json"])
        rep = cli.inverse_mod.inverse_search(cfg)
        assert list(doc) == [
            "best", "best_min_eig", "best_score", "stationarity_residual",
            "optimality_margins", "edm_violations", "restarts", "best_restart",
            "verdict", "seed", "config",
        ]
        assert list(doc["best"]) == ["d", "lambda", "mu"]
        for got, want in (
            (doc["best"]["d"], rep.d.entries.ravel()),
            (doc["best"]["lambda"], rep.lam),
            (doc["best"]["mu"], rep.replay.mu),
            (doc["optimality_margins"], rep.replay.margins),
        ):
            assert np.array_equal(np.array(got), want)
        assert doc["best_min_eig"] == rep.replay.min_eig
        assert doc["best_score"] == rep.best_score
        assert doc["stationarity_residual"] == rep.replay.stationarity_residual
        assert doc["edm_violations"] == rep.replay.edm_violations
        assert doc["restarts"] == 3 and doc["seed"] == 4
        assert doc["best_restart"] == rep.best_restart
        assert doc["verdict"] == rep.verdict.value == "NoFeasiblePointFound"
        assert doc["config"] == {"n": 5, "restarts": 3, "local_iters": 100, "seed": 4}

    def test_counterexample_exits_10(self, tmp_path, monkeypatch, capsys):
        search = cli.inverse_mod.inverse_search

        def found(cfg):
            return replace(search(cfg), verdict=SearchVerdict.FeasibleCounterexample)

        monkeypatch.setattr(cli.inverse_mod, "inverse_search", found)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"restarts": 2, "local_iters": 20}))
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out)]) == 10
        assert capsys.readouterr().err == (
            "COUNTEREXAMPLE: feasible (d, lambda, mu) found; see report.json\n"
        )
        assert read_json(out / "report.json")["verdict"] == "FeasibleCounterexample"

    def test_bad_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["inverse", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


class TestExperiment:
    def test_rows_and_weak_duality(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "ns": [4], "seed": 0}))
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "gaps.csv").read_text().splitlines()
        assert lines[0].startswith("# config:")
        rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("instance_id")]
        assert len(rows) == 3
        for row in rows:
            gap = float(row.split(",")[5])
            assert gap >= -1e-8
        assert lines[-1].startswith("# summary:")

    def test_zero_instances(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 0}))
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "gaps.csv").read_text().splitlines()
        assert lines[1].startswith("instance_id,")
        assert len(lines) == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "ns": [4], "seed": 7}))
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append((out / "gaps.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_confirmation_exits_10(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            cli.dual_mod, "verify_global",
            lambda *args: cli.dual_mod.Verdict.ConfirmsTheorem2,
        )
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "ns": [3]}))
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 10
        assert capsys.readouterr().err == (
            "COUNTEREXAMPLE: dual critical point recovered a binary optimal tour; "
            "see gaps.csv (euclidean-n3-seed0, euclidean-n3-seed1)\n"
        )
        assert len((out / "gaps.csv").read_text().splitlines()) == 5

    def test_summary_line_parses_as_floats(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1, "ns": [3]}))
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        summary = (out / "gaps.csv").read_text().splitlines()[-1]
        assert summary.startswith("# summary: ")
        pairs = [item.split("=") for item in summary[len("# summary: "):].split()]
        assert [key for key, _ in pairs] == ["mean", "min", "max"]
        mean, lo, hi = (float(value) for _, value in pairs)
        assert lo <= mean <= hi


@pytest.mark.parametrize("command", ["formulate", "reduce", "dual"])
@pytest.mark.parametrize(
    "source, n",
    [("n", 11), ("instance", 11), ("n", 100_000), ("instance", 1000)],
    ids=["n", "instance", "n-100000", "instance-1000"],
)
def test_oracle_size_checked_before_any_work(tmp_path, capsys, monkeypatch, command, source, n):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(cli.dual_mod, "dual_ascent", must_not_run)
    monkeypatch.setattr(cli, "build_formulation", must_not_run)
    if source == "n":
        # a generated instance is refused before its n x n matrix exists
        monkeypatch.setattr(cli, "random_euclidean_instance", must_not_run)
        where = ["--n", str(n)]
    else:
        # a file is refused by its declared n, before its n^2 entries are checked
        monkeypatch.setattr(instance_mod, "_reals", must_not_run)
        monkeypatch.setattr(instance_mod, "validate_distance_matrix", must_not_run)
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps({"n": n, "d": [0.0] * (n * n)}))
        where = ["--instance", str(path)]
    out = tmp_path / "out"
    assert main([command, *where, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: n = {n} exceeds enumeration guard 10\n"
    assert not out.exists()  # so no CSV either


@pytest.mark.parametrize("n", [True, 1000.0, "1000", None], ids=["bool", "float", "str", "none"])
def test_instance_n_not_an_int_keeps_its_message(tmp_path, capsys, n):
    path = tmp_path / "bad-n.json"
    path.write_text(json.dumps({"n": n, "d": [0.0] * 1_000_000}))
    out = tmp_path / "out"
    assert main(["reduce", "--instance", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: 'n' must be an integer >= 3, got {json.dumps(n)}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["formulate", "reduce", "dual"])
def test_too_few_generated_cities_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--n", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: need at least 3 cities, got n = 2\n"
    assert not out.exists()


def run_with_config(tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])


# every config here used to run something other than what it says, or to
# die with a traceback (exit 1) instead of exit 2
BAD_CONFIGS = [
    ("inverse", {"restart": 3}, "restart"),
    ("inverse", {"restarts": "3"}, "restarts"),
    ("inverse", {"restarts": -2}, "restarts"),
    ("inverse", {"restarts": True}, "restarts"),
    ("inverse", {"restarts": 3.0}, "restarts"),
    ("inverse", {"restarts": 0}, "restarts"),
    ("inverse", {"n": 2}, "n"),
    ("inverse", {"n": 3}, "n"),
    ("inverse", {"n": 11}, "n"),
    ("inverse", {"local_iters": 0}, "local_iters"),
    ("inverse", {"seed": -1}, "seed"),
    ("inverse", {"jobs": 2}, "jobs"),
    ("inverse", {"lambda_box_factor": 10.0}, "lambda_box_factor"),
    ("inverse", {"parameterization": "bogus"}, "parameterization"),
    ("inverse", {"parameterization": "points"}, "parameterization"),
    ("inverse", {"parameterization": "direct"}, "parameterization"),
    ("inverse", {"max_iter": "5"}, "max_iter"),
    ("experiment", {"asent": {}}, "asent"),
    ("experiment", {"ascent": {}}, "ascent"),
    ("experiment", {"ns": "45"}, "ns"),
    ("experiment", {"ns": [4.7]}, "ns[0]"),
    ("experiment", {"ns": [4, 11]}, "ns[1]"),
    ("experiment", {"ns": [2]}, "ns[0]"),
    ("experiment", {"ns": [True]}, "ns[0]"),
    ("experiment", {"k": -1}, "k"),
    ("experiment", {"k": "3"}, "k"),
]

# The barrier path's four settings are module constants and `dual` reads no
# config, so `experiment`, the one command that runs the path from a config,
# must refuse each of them by name, as it refuses the settings of the
# gradient ascent before it: flat, and inside an `ascent` object, which is
# itself an unknown key.  (id, config, key named)
ASCENT_SETTING_CONFIGS = [
    ("dual-stages", {"stages": 4}, "stages"),
    ("dual-shrink", {"shrink": 10.0}, "shrink"),
    ("dual-centred", {"centred": 1e-6}, "centred"),
    ("dual-max_iter", {"max_iter": "5"}, "max_iter"),
    ("dual-max_iter", {"max_iter": -1}, "max_iter"),
    ("dual-stall_iters", {"stall_iters": 0}, "stall_iters"),
    ("dual-initial_step", {"initial_step": 0}, "initial_step"),
    ("dual-min_step", {"min_step": -1e-18}, "min_step"),
    ("dual-initial_step", {"initial_step": float("nan")}, "initial_step"),
    ("dual-gtol", {"gtol": -1e-8}, "gtol"),
    ("dual-ftol", {"ftol": float("inf")}, "ftol"),
    ("dual-gtol", {"gtol": 10**400}, "gtol"),
    ("dual-restarts", {"restarts": 3}, "restarts"),
    ("experiment-ascent.max_iter", {"ascent": {"max_iter": -1}}, "ascent"),
    ("experiment-ascent.maxiter", {"ascent": {"maxiter": 5}}, "ascent"),
]


@pytest.mark.parametrize(
    "command, config, key",
    [pytest.param(c, cfg, k, id=f"{c}-{k}") for c, cfg, k in BAD_CONFIGS]
    + [pytest.param("experiment", cfg, k, id=i) for i, cfg, k in ASCENT_SETTING_CONFIGS],
)
def test_bad_config_exits_2_naming_key(tmp_path, capsys, command, config, key):
    assert run_with_config(tmp_path, command, config) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"config key {key!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["formulate", "reduce", "dual", "inverse", "experiment"])
def test_bad_seed_flag_exits_2(tmp_path, capsys, command):
    argv = [command, "--seed", "-1", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: config key 'seed': must be >= 0, got -1\n"
    assert not (tmp_path / "o").exists()


def test_program_error_is_not_an_input_error(tmp_path, monkeypatch):
    # a ValueError from inside the program is a defect, not bad input: it
    # must surface with its traceback instead of exiting 2
    def broken(cfg):
        raise ValueError("cannot reshape array")

    monkeypatch.setattr(cli.inverse_mod, "inverse_search", broken)
    with pytest.raises(ValueError, match="cannot reshape array"):
        main(["inverse", "--out", str(tmp_path / "o")])
    # a shape check inside the program: one mu too many for the shifted system
    def long_mu(r):
        return np.zeros(r.n_multipliers), np.ones(r.dim + 1)

    monkeypatch.setattr(cli.dual_mod, "default_start", long_mu)
    with pytest.raises(ValueError) as exc:
        main(["dual", "--n", "4", "--out", str(tmp_path / "d")])
    assert str(exc.value) == "expected lambda length 5 and mu length 9, got (5,) and (10,)"
    # a tour that is not a permutation, built inside a command
    monkeypatch.setattr(cli, "brute_force_optimum", lambda d: instance_mod.Tour((1, 1, 2, 3)))
    with pytest.raises(ValueError, match="is not a permutation"):
        main(["formulate", "--n", "4", "--out", str(tmp_path / "f")])


# (id, file bytes): not UTF-8, an integer past Python's 4300-digit limit,
# nesting past the recursion limit
UNREADABLE_JSON = [
    ("latin-1", '{"n": 3, "note": "caf\xe9"}'.encode("latin-1")),
    ("long-int", b'{"n": 1' + b"0" * 5000 + b"}"),
    ("deep", b"[" * 100_000 + b"]" * 100_000),
]


@pytest.mark.parametrize("command", ["reduce", "inverse"])
@pytest.mark.parametrize(
    "blob", [case[1] for case in UNREADABLE_JSON], ids=[case[0] for case in UNREADABLE_JSON]
)
def test_unreadable_json_file_exits_2(tmp_path, capsys, command, blob):
    path = tmp_path / "in.json"
    path.write_bytes(blob)
    flag = "--instance" if command == "reduce" else "--config"
    out = tmp_path / "out"
    assert main([command, flag, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["formulate", "reduce", "dual"])
def test_config_flag_rejected_where_unused(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "cfg.json", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["formulate", "reduce", "dual"])
def test_instance_and_n_are_exclusive(tmp_path, capsys, command):
    path = tmp_path / "tri3.json"
    save_instance(path, random_euclidean_instance(3, 0)[0])
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--instance", str(path), "--n", "7", "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


# fast valid settings first, so the drawn keys decide whether a run is valid;
# integer draws stay small so that valid runs take milliseconds
FAST_BASE = {
    "inverse": {"restarts": 1, "local_iters": 3},
    "experiment": {"k": 1, "ns": [3]},
}
FUZZ_KEYS = {
    "inverse": ["n", "restarts", "local_iters", "seed"],
    "experiment": ["k", "ns", "seed"],
}
UNKNOWN_KEYS = [
    "restart", "jobs", "lambda_box_factor", "parameterization", "asent", "ascent", "max_iter"
]
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "3", "points", "direct", "bogus"]),
)


@st.composite
def fuzz_configs(draw):
    command = draw(st.sampled_from(sorted(FAST_BASE)))
    keys = st.sampled_from(FUZZ_KEYS[command] + UNKNOWN_KEYS)
    drawn = draw(st.dictionaries(keys, JSON_SCALARS, max_size=2))
    return command, {**FAST_BASE[command], **drawn}


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=fuzz_configs())
def test_fuzz_config_exit_codes(tmp_path, capsys, case):
    code = run_with_config(tmp_path, *case)
    assert code in (0, 2, 10)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: config key ")


def readme_key_table(heading):
    """(key, default) per row of the first table after the README line
    that starts with `heading`, backticks stripped."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    table = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            table.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
        elif table:
            break
    return [(row[0], row[-1]) for row in table[2:]]  # past header and rule


@pytest.mark.parametrize(
    "heading, tp",
    [
        ("`inverse` (search config)", SearchConfig),
        ("`experiment` (gap sweep", cli.ExperimentConfig),
    ],
    ids=["inverse", "experiment"],
)
def test_readme_config_table_matches_fields(heading, tp):
    rows = readme_key_table(heading)
    assert [key for key, _ in rows] == [f.name for f in fields(tp)]
    for key, default in rows:
        assert cli.config_from_json(tp, {key: json.loads(default)}) == tp(), key


def test_readme_cli_block_matches_command_table():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    begin = lines.index("```sh", lines.index("## CLI"))
    end = lines.index("```", begin)
    names = [line.split()[1] for line in lines[begin + 1:end]]
    assert names == [row[0] for row in cli.COMMANDS]
