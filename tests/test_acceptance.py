"""Acceptance gate: one test per criterion, each printing a PASS line
with its measured quantity.  Run with `pytest tests/test_acceptance.py -v -s`.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from _helpers import sample_splus
from tspdual.cli import main
from tspdual.dual import Verdict, dual_ascent, dual_value, point, verify_global
from tspdual.formulation import build_formulation, encode_tour, objective
from tspdual.instance import (
    Tour,
    brute_force_optimum,
    random_euclidean_instance,
    save_instance,
    tour_length,
)
from tspdual.reduction import embed_tour, reduce_formulation, reduced_objective

SQRT2 = math.sqrt(2.0)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_structural_reproduction(distinct_d4):
    t0 = time.perf_counter()
    r = reduce_formulation(build_formulation(distinct_d4))
    d1 = distinct_d4.entries[0, 1:]
    d2 = distinct_d4.entries[1:, 1:]
    z = np.zeros((3, 3))
    assert np.array_equal(r.A_r, np.block([[z, d2, z], [d2, z, d2], [z, d2, z]]))
    assert np.array_equal(r.b_r, np.concatenate([-d1, np.zeros(3), -d1]))
    expected_E = np.array(
        [
            [1, 1, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 1, 1],
            [1, 0, 0, 1, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 0, 0, 1, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(r.E_r, expected_E)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"A_r, b_r, E_r exact match in {elapsed:.3f}s")


def test_criterion_2_objective_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 5):
        for seed in range(20):
            d, _ = random_euclidean_instance(n, seed)
            f = build_formulation(d)
            for perm in itertools.permutations(range(1, n + 1)):
                t = Tour(perm)
                err = abs(objective(f, encode_tour(t)) - tour_length(d, t))
                worst = max(worst, err)
                assert err <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, f"max |objective - tour length| = {worst:.2e} in {elapsed:.1f}s")


def test_criterion_3_reduction_consistency():
    worst = 0.0
    for n in (3, 4, 5):
        for seed in range(20):
            d, _ = random_euclidean_instance(n, seed)
            f = build_formulation(d)
            r = reduce_formulation(f)
            assert r.c0 == 0.0
            for rest in itertools.permutations(range(2, n + 1)):
                t = Tour((1,) + rest)
                err = abs(
                    reduced_objective(r, embed_tour(t))
                    + r.c0
                    - objective(f, encode_tour(t))
                )
                worst = max(worst, err)
                assert err <= 1e-12
    report(3, f"max reduction error = {worst:.2e}, c0 = 0 throughout")


def test_criterion_4_oracle_ground_truth(unit_square):
    res = brute_force_optimum(unit_square)
    assert res.best_length == 4.0
    assert res.best_tour.order == (1, 2, 3, 4)
    r = reduce_formulation(build_formulation(unit_square))
    y = embed_tour(res.best_tour)
    assert list(y) == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    report(4, "optimum 4.0, tour (1,2,3,4), Y-bar = (1,0,0,0,1,0,0,0,1)")


def test_criterion_5_weak_duality():
    t0 = time.perf_counter()
    violations = 0
    for seed in range(10):
        d, _ = random_euclidean_instance(4, seed)
        r = reduce_formulation(build_formulation(d))
        optimum = brute_force_optimum(d).best_length
        rng = np.random.default_rng(1000 + seed)
        for _ in range(1000):
            ev = dual_value(r, sample_splus(r, rng))
            if ev.value > optimum + 1e-8:
                violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 30.0
    report(5, f"10,000 dual values, {violations} violations, {elapsed:.1f}s")


def test_criterion_6_gradient_check():
    d, _ = random_euclidean_instance(4, 0)
    r = reduce_formulation(build_formulation(d))
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        p = sample_splus(r, rng)
        ev = dual_value(r, p)
        grad = np.concatenate([ev.grad_lambda, ev.grad_mu])
        fd = np.zeros_like(grad)
        for i in range(grad.size):
            lam_p, mu_p = p.lam.copy(), p.mu.copy()
            lam_m, mu_m = p.lam.copy(), p.mu.copy()
            if i < 5:
                lam_p[i] += h
                lam_m[i] -= h
            else:
                mu_p[i - 5] += h
                mu_m[i - 5] -= h
            fd[i] = (
                dual_value(r, point(lam_p, mu_p)).value
                - dual_value(r, point(lam_m, mu_m)).value
            ) / (2 * h)
        rel = np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))
        worst = max(worst, rel)
        assert rel < 1e-5
    report(6, f"100 points, worst relative FD error = {worst:.2e}")


def test_criterion_7_dual_ascent_sanity(unit_square):
    r = reduce_formulation(build_formulation(unit_square))
    res = dual_ascent(r)
    values = [v for v, _, _ in res.trajectory]
    assert all(b >= a for a, b in zip(values, values[1:]))
    optimum = brute_force_optimum(unit_square).best_length
    assert res.best_value <= optimum
    verdict = verify_global(r, res.best_point, brute_force_optimum(unit_square))
    assert verdict is not None
    # the expected negative outcome: no binary recovery
    ev = dual_value(r, res.best_point)
    assert np.max(np.abs(ev.Y * ev.Y - ev.Y)) > 1e-6
    assert verdict is not Verdict.ConfirmsTheorem2
    report(
        7,
        f"bound {res.best_value:.6f} <= optimum {optimum}, verdict {verdict.value}",
    )


def test_criterion_8_headline_negative_result(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "inverse"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "restarts": 1000, "local_iters": 2000, "seed": 0}))
    code = main(["inverse", "--config", str(cfg), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    payload = json.loads((out / "report.json").read_text())
    if code == 10:
        pytest.fail(
            "COUNTEREXAMPLE FOUND (would refute the negative result): "
            + json.dumps(payload["best"])
        )
    assert code == 0
    assert payload["verdict"] == "NoFeasiblePointFound"
    assert payload["best_min_eig"] <= 1e-8
    assert elapsed < 300.0
    report(
        8,
        f"1000 restarts, best min eigenvalue {payload['best_min_eig']:.3e}, "
        f"{elapsed:.0f}s, {payload['restarts'] / elapsed:.1f} restarts/s",
    )


def test_criterion_9_determinism(tmp_path, unit_square):
    inst = tmp_path / "square.json"
    save_instance(inst, unit_square)
    cfg = tmp_path / "inverse_cfg.json"
    cfg.write_text(json.dumps({"n": 4, "restarts": 60, "local_iters": 2000, "seed": 0}))
    exp_cfg = tmp_path / "exp_cfg.json"
    exp_cfg.write_text(json.dumps({"k": 3, "ns": [4, 5], "seed": 0}))

    runs = {}
    for tag in ("a", "b"):
        base = tmp_path / tag
        assert main(["formulate", "--instance", str(inst), "--out", str(base / "f")]) == 0
        assert main(["reduce", "--instance", str(inst), "--out", str(base / "r")]) == 0
        assert main(["dual", "--instance", str(inst), "--seed", "0", "--out", str(base / "d")]) == 0
        assert main(["inverse", "--config", str(cfg), "--out", str(base / "i")]) == 0
        assert main(["experiment", "--config", str(exp_cfg), "--out", str(base / "e")]) == 0
        runs[tag] = {
            str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }
    assert runs["a"].keys() == runs["b"].keys()
    for name in runs["a"]:
        assert runs["a"][name] == runs["b"][name], f"{name} differs between reruns"
    report(9, f"{len(runs['a'])} output files byte-identical across reruns")
