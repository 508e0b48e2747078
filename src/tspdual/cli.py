"""Command-line front end: reproducible runs with file-based inputs and
machine-readable outputs.

`main` does all of the I/O: it reads and checks the input, creates
`--out`, and writes the files a command returns.  A command maps checked
input to (files: name -> text, counterexample message or None), so a
command that stops with an input error writes no result file.

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
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import dual as dual_mod
from . import inverse as inverse_mod
from .errors import ConfigError, TspdualError, check_range
from .formulation import assignment_constraints, build_formulation, encode_tour, objective
from .instance import (
    MIN_CITIES,
    ORACLE_MAX_CITIES,
    DistanceMatrix,
    brute_force_optimum,
    instance_from_dict,
    random_euclidean_instance,
    read_json,
    require_oracle_size,
)
from .reduction import linear_maps, reduce_formulation

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_COUNTEREXAMPLE = 10


def _lines(rows) -> str:
    return "\n".join(rows) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_matrix(mat: np.ndarray) -> str:
    return _lines(",".join(repr(float(v)) for v in row) for row in np.atleast_2d(mat))


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


Result = tuple[dict[str, str], str | None]
CONFIRMED = "dual critical point reaches the optimum tour length; see {}"


def seeded_instance(n: int, seed: int) -> tuple[str, DistanceMatrix]:
    """The seeded Euclidean n-city instance and its id."""
    d, _ = random_euclidean_instance(n, seed)
    return f"euclidean-n{n}-seed{seed}", d


def read_instance(args) -> tuple[DistanceMatrix, dict]:
    """d from `--instance`, or generated from `--n`/`--seed`, within the
    oracle's size; and the configuration that the outputs echo."""
    seed = args.seed if args.seed is not None else 0
    if args.instance is None:
        n = args.n if args.n is not None else 4
        require_oracle_size(n)  # before the n x n matrix is allocated
        instance_id, d = seeded_instance(n, seed)
    else:
        payload = read_json(args.instance)
        n = payload.get("n") if isinstance(payload, dict) else None
        if type(n) is int:  # a bool or a float gets instance_from_dict's message
            require_oracle_size(n)  # before the n x n entries are validated
        d, _ = instance_from_dict(payload)
        instance_id = Path(args.instance).stem
    config = {"instance": args.instance, "instance_id": instance_id, "n": args.n, "seed": seed}
    return d, config


def config_reader(tp):
    """Reader of `--config` (absent: every default) into the config
    dataclass `tp`, whose `seed` `--seed` overrides."""
    def read(args) -> tuple:
        cfg = config_from_json(tp, {} if args.config is None else read_json(args.config))
        return (cfg if args.seed is None else replace(cfg, seed=args.seed),)
    return read


def cmd_formulate(d: DistanceMatrix, config: dict) -> Result:
    f = build_formulation(d)
    oracle = brute_force_optimum(d)
    summary = {
        "instance": config["instance_id"],
        "n": d.n,
        "symmetric": bool(np.array_equal(f.A, f.A.T)),
        "oracle_tour": list(oracle.best_tour.order),
        "oracle_length": oracle.best_length,
        "oracle_tour_objective": objective(f, encode_tour(oracle.best_tour)),
        "config": config,
    }
    C, D = assignment_constraints(d.n)
    matrices = {"A.csv": f.A, "C.csv": C, "D.csv": D}
    files = {name: _csv_matrix(mat) for name, mat in matrices.items()}
    return {**files, "summary.json": _json(summary)}, None


def _paper_structure_match(d: DistanceMatrix, r) -> bool:
    # the paper's n=4 closed forms, A_r block-tridiagonal in d2 (the gather
    # of reduction.linear_maps) and b_r = (-d1; 0; -d1), written for any n
    n, d1 = d.n, d.entries[0, 1:]
    A_expect = d.entries.ravel()[linear_maps(n)[0]]
    b_expect = np.concatenate([-d1, np.zeros((n - 3) * (n - 1)), -d1])
    return np.array_equal(r.A_r, A_expect) and np.array_equal(r.b_r, b_expect)


def cmd_reduce(d: DistanceMatrix, config: dict) -> Result:
    r = reduce_formulation(build_formulation(d))
    payload = {
        "n": r.n,
        "A_r": r.A_r.tolist(),
        "b_r": r.b_r.tolist(),
        "E_r": r.E_r.tolist(),
        "c0": r.c0,
    }
    if d.n == 4:
        payload["paper_match"] = _paper_structure_match(d, r)
    payload["instance"] = config["instance_id"]
    payload["config"] = config
    return {"reduced.json": _json(payload)}, None


def _run_dual(d: DistanceMatrix):
    """Dual ascent on one instance, judged against the oracle: returns
    (ascent result, oracle optimum, verdict, gap).  verify_global raises
    on a "bound" above the optimum, so no result carries it."""
    result = dual_mod.dual_ascent(reduce_formulation(build_formulation(d)))
    optimum = brute_force_optimum(d).best_length
    verdict = dual_mod.verify_global(result.best, optimum)
    return result, optimum, verdict, optimum - result.best.value


def cmd_dual(d: DistanceMatrix, config: dict) -> Result:
    result, optimum, verdict, gap = _run_dual(d)
    trace = ["iteration,g,gradient_norm,min_eig"]
    for it, ev in enumerate(result.trajectory):
        trace.append(f"{it},{ev.value!r},{ev.grad_norm!r},{ev.min_eig!r}")
    record = {
        "instance": config["instance_id"],
        "n": d.n,
        "seed": config["seed"],
        "oracle_optimum": optimum,
        "dual_bound": result.best.value,
        "gap": gap,
        "iterations": result.iterations,
        "termination": result.termination.value,
        "verdict": verdict.value,
        "config": config,
    }
    files = {"trace.csv": _lines(trace), "gap_record.json": _json(record)}
    confirmed = verdict is dual_mod.Verdict.ConfirmsTheorem2
    return files, CONFIRMED.format("gap_record.json") if confirmed else None


def cmd_inverse(cfg: inverse_mod.SearchConfig) -> Result:
    report = inverse_mod.inverse_search(cfg=cfg)
    replay = report.replay
    doc = {
        "best": {
            "d": report.d.entries.ravel().tolist(),
            "lambda": report.lam.tolist(),
            "mu": replay.mu.tolist(),
        },
        "best_min_eig": replay.min_eig,
        "best_score": report.best_score,
        "stationarity_residual": replay.stationarity_residual,
        "optimality_margins": replay.margins.tolist(),
        "edm_violations": replay.edm_violations,
        "restarts": report.cfg.restarts,
        "best_restart": report.best_restart,
        "verdict": report.verdict.value,
        "seed": report.cfg.seed,
        "config": asdict(report.cfg),
    }
    found = report.verdict is inverse_mod.SearchVerdict.FeasibleCounterexample
    return {"report.json": _json(doc)}, (
        "feasible (d, lambda, mu) found; see report.json" if found else None
    )


def cmd_experiment(cfg: ExperimentConfig) -> Result:
    lines = [
        "# config: " + json.dumps(asdict(cfg)),
        "instance_id,n,seed,oracle_optimum,dual_bound,gap,iterations,termination",
    ]
    gaps, confirmed = [], []
    for n in cfg.ns:
        for inst_seed in range(cfg.seed, cfg.seed + cfg.k):
            instance_id, d = seeded_instance(n, inst_seed)
            result, optimum, verdict, gap = _run_dual(d)
            gaps.append(gap)
            if verdict is dual_mod.Verdict.ConfirmsTheorem2:
                confirmed.append(instance_id)
            lines.append(
                f"{instance_id},{n},{inst_seed},"
                f"{optimum!r},{result.best.value!r},{gap!r},"
                f"{result.iterations},{result.termination.value}"
            )
    if gaps:
        arr = np.array(gaps)
        lines.append(
            f"# summary: mean={float(arr.mean())!r} min={float(arr.min())!r} "
            f"max={float(arr.max())!r}"
        )
    where = f"gaps.csv ({', '.join(confirmed)})"
    return {"gaps.csv": _lines(lines)}, CONFIRMED.format(where) if confirmed else None


# (name, help, command, reader): the reader reads and checks all of the
# command's input, and returns the command's arguments
COMMANDS = [
    ("formulate", "write A/C/D matrices and a summary", cmd_formulate, read_instance),
    ("reduce", "write the reduced problem JSON", cmd_reduce, read_instance),
    ("dual", "run dual ascent, write trace and gap record", cmd_dual, read_instance),
    ("inverse", "run the inverse feasibility search", cmd_inverse,
     config_reader(inverse_mod.SearchConfig)),
    ("experiment", "duality-gap sweep over random instances", cmd_experiment,
     config_reader(ExperimentConfig)),
]


@lru_cache(maxsize=None)  # one parser per process; parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tspdual",
        description="TSP quadratic formulation, Lagrangian dual, and inverse "
        "feasibility search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, command, reader in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if reader is read_instance:
            source = p.add_mutually_exclusive_group()
            source.add_argument("--instance", help="instance JSON path")
            source.add_argument("--n", type=int, help="generate an n-city instance")
        else:
            p.add_argument("--config", help="config JSON path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="random seed")
        p.set_defaults(run=command, read=reader)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            check_range("seed", args.seed, args.seed >= 0, ">= 0")
        checked = args.read(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        files, counterexample = args.run(*checked)
        for name, text in files.items():
            (out / name).write_text(text)
    except (TspdualError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if counterexample is None:
        return EXIT_OK
    print(f"COUNTEREXAMPLE: {counterexample}", file=sys.stderr)
    return EXIT_COUNTEREXAMPLE


if __name__ == "__main__":
    sys.exit(main())
