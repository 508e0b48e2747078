"""Command-line front end: reproducible runs with file-based inputs and
machine-readable outputs.

Exit codes: 0 success (including the expected negative result),
2 input/configuration error or a dual bound above the optimum,
10 a counterexample to the negative result was found (so pipelines
cannot miss it).
"""
from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import dual as dual_mod
from . import inverse as inverse_mod
from .errors import ConfigError, TspdualError, check_range
from .formulation import build_formulation, encode_tour, objective
from .instance import (
    MIN_CITIES,
    ORACLE_MAX_CITIES,
    DistanceMatrix,
    brute_force_optimum,
    load_instance,
    random_euclidean_instance,
    read_json,
    require_oracle_size,
)
from .reduction import linear_maps, reduce_formulation, reduced_to_dict

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_COUNTEREXAMPLE = 10
# relative rounding allowance of the weak-duality check on a dual bound
WEAK_DUALITY_RTOL = 1e-9


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_csv_matrix(path: Path, mat: np.ndarray) -> None:
    lines = [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(mat)]
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class ExperimentConfig:
    k: int = 10   # instances per city count
    ns: tuple[int, ...] = (4, 5)
    seed: int = 0

    def __post_init__(self):
        check_range("k", self.k, self.k >= 0, ">= 0")
        check_range("seed", self.seed, self.seed >= 0, ">= 0")
        for i, n in enumerate(self.ns):
            check_range(
                f"ns[{i}]", n, MIN_CITIES <= n <= ORACLE_MAX_CITIES,
                f"in {MIN_CITIES}..{ORACLE_MAX_CITIES}",
            )


def config_from_json(tp, value, key: str = ""):
    """Build a value of type `tp` from parsed JSON.  A config is a flat
    dataclass whose fields and types are read from the class itself;
    unknown keys, wrong types (a bool is not an int) and out-of-range
    values raise ConfigError naming the key.
    """
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(
                "config", f"expected a JSON object, got {json.dumps(value)}"
            )
        hints = typing.get_type_hints(tp)
        names = [f.name for f in fields(tp)]
        for name in value:
            if name not in names:
                raise ConfigError(
                    name, f"unknown key; accepted keys are {', '.join(names)}"
                )
        return tp(**{
            name: config_from_json(hints[name], v, name) for name, v in value.items()
        })
    if typing.get_origin(tp) is tuple:  # tuple[T, ...]
        if not isinstance(value, list):
            raise ConfigError(key, f"expected a JSON list, got {json.dumps(value)}")
        item = typing.get_args(tp)[0]
        return tuple(
            config_from_json(item, v, f"{key}[{i}]") for i, v in enumerate(value)
        )
    if type(value) is not tp:
        raise ConfigError(key, f"expected {tp.__name__}, got {json.dumps(value)}")
    return value


def _read_json(path: str | None):
    return {} if path is None else read_json(path)


def _get_instance(args) -> tuple[str, DistanceMatrix]:
    if args.instance is not None:
        d, _ = load_instance(args.instance)
        return Path(args.instance).stem, d
    n = args.n if args.n is not None else 4
    seed = args.seed if args.seed is not None else 0
    d, _ = random_euclidean_instance(n, seed)
    return f"euclidean-n{n}-seed{seed}", d


def cmd_formulate(args) -> int:
    instance_id, d = _get_instance(args)
    require_oracle_size(d.n)  # before any work is done or file written
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    f = build_formulation(d)
    _write_csv_matrix(out / "A.csv", f.A)
    _write_csv_matrix(out / "C.csv", f.C)
    _write_csv_matrix(out / "D.csv", f.D)
    oracle = brute_force_optimum(d)
    _write_json(
        out / "summary.json",
        {
            "instance": instance_id,
            "n": d.n,
            "symmetric": bool(np.array_equal(f.A, f.A.T)),
            "oracle_tour": list(oracle.best_tour.order),
            "oracle_length": oracle.best_length,
            "oracle_tour_objective": objective(f, encode_tour(oracle.best_tour)),
            "config": _effective_instance_config(args, instance_id),
        },
    )
    return EXIT_OK


def _paper_structure_match(d: DistanceMatrix, r) -> bool:
    # the paper's n=4 closed forms, A_r block-tridiagonal in d2 and
    # b_r = (-d1; 0; -d1), as reduction.linear_maps writes them for any n
    a_index, b_map = linear_maps(d.n)
    dvec = d.entries.ravel()
    A_expect = np.append(dvec, 0.0)[a_index]
    return np.array_equal(r.A_r, A_expect) and np.array_equal(r.b_r, b_map @ dvec)


def cmd_reduce(args) -> int:
    instance_id, d = _get_instance(args)
    require_oracle_size(d.n)  # before any work is done or file written
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    r = reduce_formulation(build_formulation(d))
    payload = reduced_to_dict(r)
    if d.n == 4:
        payload["paper_match"] = _paper_structure_match(d, r)
    payload["instance"] = instance_id
    payload["config"] = _effective_instance_config(args, instance_id)
    _write_json(out / "reduced.json", payload)
    return EXIT_OK


def _run_dual(d: DistanceMatrix):
    """Dual ascent on one instance, checked against the oracle: returns
    (ascent result, oracle optimum, verdict, gap).  A "bound" above the
    optimum raises a TspdualError, so no result carries it."""
    r = reduce_formulation(build_formulation(d))
    result = dual_mod.dual_ascent(r)
    oracle = brute_force_optimum(d)
    optimum = oracle.best_length
    if result.best_value > optimum + WEAK_DUALITY_RTOL * abs(optimum):
        raise TspdualError(
            f"dual bound {result.best_value!r} exceeds the optimum {optimum!r}: "
            "the ascent's value is no lower bound at this distance scale"
        )
    verdict = dual_mod.verify_global(r, result.best_point, oracle)
    return result, optimum, verdict, optimum - result.best_value


def _report_confirmation(where: str) -> int:
    print(
        "COUNTEREXAMPLE: dual critical point recovered a binary optimal "
        f"tour; see {where}",
        file=sys.stderr,
    )
    return EXIT_COUNTEREXAMPLE


def cmd_dual(args) -> int:
    instance_id, d = _get_instance(args)
    require_oracle_size(d.n)  # before the ascent and before any file is written
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result, optimum, verdict, gap = _run_dual(d)

    lines = ["iteration,g,gradient_norm,min_eig"]
    for it, (g, gn, lo) in enumerate(result.trajectory):
        lines.append(f"{it},{g!r},{gn!r},{lo!r}")
    (out / "trace.csv").write_text("\n".join(lines) + "\n")

    _write_json(
        out / "gap_record.json",
        {
            "instance": instance_id,
            "n": d.n,
            "seed": args.seed if args.seed is not None else 0,
            "oracle_optimum": optimum,
            "dual_bound": result.best_value,
            "gap": gap,
            "iterations": result.iterations,
            "termination": result.termination.value,
            "verdict": verdict.value,
            "config": _effective_instance_config(args, instance_id),
        },
    )
    if verdict is dual_mod.Verdict.ConfirmsTheorem2:
        return _report_confirmation("gap_record.json")
    return EXIT_OK


def cmd_inverse(args) -> int:
    cfg = config_from_json(inverse_mod.SearchConfig, _read_json(args.config))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = inverse_mod.inverse_search(cfg=cfg)
    doc = report.to_dict()
    doc["config"] = asdict(cfg)
    _write_json(out / "report.json", doc)
    if report.verdict is inverse_mod.SearchVerdict.FeasibleCounterexample:
        print(
            "COUNTEREXAMPLE: feasible (d, lambda, mu) found; see report.json",
            file=sys.stderr,
        )
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = config_from_json(ExperimentConfig, _read_json(args.config))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        "# config: " + json.dumps(asdict(cfg)),
        "instance_id,n,seed,oracle_optimum,dual_bound,gap,iterations,termination",
    ]
    gaps, confirmed = [], []
    for n in cfg.ns:
        for i in range(cfg.k):
            inst_seed = cfg.seed + i
            instance_id = f"euclidean-n{n}-seed{inst_seed}"
            d, _ = random_euclidean_instance(n, inst_seed)
            result, optimum, verdict, gap = _run_dual(d)
            gaps.append(gap)
            if verdict is dual_mod.Verdict.ConfirmsTheorem2:
                confirmed.append(instance_id)
            lines.append(
                f"{instance_id},{n},{inst_seed},"
                f"{optimum!r},{result.best_value!r},{gap!r},"
                f"{result.iterations},{result.termination.value}"
            )
    if gaps:
        arr = np.array(gaps)
        lines.append(
            f"# summary: mean={float(arr.mean())!r} min={float(arr.min())!r} "
            f"max={float(arr.max())!r}"
        )
    (out / "gaps.csv").write_text("\n".join(lines) + "\n")
    if confirmed:
        return _report_confirmation(f"gaps.csv ({', '.join(confirmed)})")
    return EXIT_OK


def _effective_instance_config(args, instance_id: str) -> dict:
    return {
        "instance": args.instance,
        "instance_id": instance_id,
        "n": args.n,
        "seed": args.seed if args.seed is not None else 0,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tspdual",
        description="TSP quadratic formulation, Lagrangian dual, and inverse "
        "feasibility search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True, config=True):
        if instance:
            source = p.add_mutually_exclusive_group()
            source.add_argument("--instance", help="instance JSON path")
            source.add_argument("--n", type=int, help="generate an n-city instance")
        if config:
            p.add_argument("--config", help="config JSON path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="random seed")

    p = sub.add_parser("formulate", help="write A/C/D matrices and a summary")
    common(p, config=False)
    p.set_defaults(func=cmd_formulate)

    p = sub.add_parser("reduce", help="write the reduced problem JSON")
    common(p, config=False)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("dual", help="run dual ascent, write trace and gap record")
    common(p, config=False)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("inverse", help="run the inverse feasibility search")
    common(p, instance=False)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("experiment", help="duality-gap sweep over random instances")
    common(p, instance=False)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None:
            check_range("seed", args.seed, args.seed >= 0, ">= 0")
        return args.func(args)
    except (TspdualError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
