"""tspdual benchmark: drives `tspdual.cli.main` in-process on seeded inputs.

    python3 perfbench/run.py --workload inverse-n4 --seed 1 --seconds 35 --trace 0

Run from the repository root.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  The
line before it holds the run's provenance and output digest.  Full
results (and, traced, every span) go to `.perfbench/results/`.
See perfbench/README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Small matrices (at most 81 x 81): one BLAS thread is fastest and steadiest.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Inverse configs use only the keys n, restarts, local_iters and seed, which
# every version of the search accepts.
WORKLOADS = {
    "inverse-n4": {"command": "inverse", "n": 4, "restarts": 10, "local_iters": 2000},
    "inverse-n7": {"command": "inverse", "n": 7, "restarts": 4, "local_iters": 2000},
    "dual-sweep": {"command": "dual", "ns": [8, 10], "ascent": "default"},
}
TERMINATIONS = ["GradientSmall", "Stalled", "IterationCap", "LeftCone"]
SETUP_REPEATS = 11
COUNTEREXAMPLE_EIG = 1e-8
WEAK_DUALITY_TOL = 1e-8


def _digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        import numpy as np
        import tspdual.cli
        import tspdual.instance

        self.np = np
        self.cli = tspdual.cli
        self.instance = tspdual.instance
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.work = STATE / "work" / f"{workload}-seed{seed}"
        self.tracer = None
        if trace:
            from tracing import Tracer
            self.tracer = Tracer()
            self.traced_main = self.tracer.wrap("cli.main", tspdual.cli.main)
        self._tours: dict[int, object] = {}

    # ---- inputs -------------------------------------------------------

    def unit_commands(self, index: int) -> tuple[int, list[dict]]:
        """Next unit of work from the seeded stream: its size in work units
        (restarts or instances) and its commands."""
        unit_dir = self.work / f"unit-{index}"
        unit_dir.mkdir(parents=True)
        spec = self.spec
        if spec["command"] == "inverse":
            cfg = {k: spec[k] for k in ("n", "restarts", "local_iters")}
            cfg["seed"] = int(self.rng.integers(2**31))
            path = unit_dir / "inverse.json"
            path.write_text(json.dumps(cfg))
            argv = ["inverse", "--config", self._rel(path)]
            return spec["restarts"], [{"argv": argv, "cfg": cfg}]
        cmds = []
        for n in spec["ns"]:
            inst_seed = int(self.rng.integers(2**31))
            d, points = self.instance.random_euclidean_instance(n, inst_seed)
            path = unit_dir / f"euclid-n{n}-{inst_seed}.json"
            self.instance.save_instance(path, d, points)
            argv = ["dual", "--instance", self._rel(path)]
            cmds.append({"argv": argv, "n": n, "d": self.np.array(d.entries)})
        return len(cmds), cmds

    @staticmethod
    def _rel(path: Path) -> str:
        # outputs echo the instance path, so it must not depend on the checkout
        return os.path.relpath(path, Path.cwd())

    # ---- running ------------------------------------------------------

    def execute(self, argv: list[str], traced: bool) -> tuple[int, float, dict[str, bytes]]:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        main = self.traced_main if traced else self.cli.main
        if traced:
            self.tracer.install()
        t0 = perf_counter()
        try:
            rc = main(argv + ["--out", self._rel(out)])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = -1
        finally:
            seconds = perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.is_dir() else {}
        return rc, seconds, files

    # ---- correctness --------------------------------------------------

    def check(self, cmd: dict, rc: int, files: dict[str, bytes]) -> list[str]:
        try:
            if self.spec["command"] == "inverse":
                return self._check_inverse(cmd["cfg"], rc, files)
            return self._check_dual(cmd, rc, files)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _check_inverse(self, cfg: dict, rc: int, files: dict[str, bytes]) -> list[str]:
        rep = json.loads(files["report.json"]) if "report.json" in files else None
        if rc == 10:
            best = json.dumps(rep.get("best") if rep else None)
            print(f"!!! COUNTEREXAMPLE reported by tspdual inverse {cfg}: best = {best}",
                  file=sys.stderr)
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if rep is None:
            return problems + ["no report.json"]
        if rep["verdict"] != "NoFeasiblePointFound":
            problems.append(f"verdict {rep['verdict']}")
        if not rep["best_min_eig"] <= COUNTEREXAMPLE_EIG:
            problems.append(f"best_min_eig {rep['best_min_eig']!r} > {COUNTEREXAMPLE_EIG}")
        if rep["restarts"] != cfg["restarts"]:
            problems.append(f"restarts {rep['restarts']} != {cfg['restarts']}")
        if any(rep["config"].get(k) != v for k, v in cfg.items()):
            problems.append(f"config echo {rep['config']} does not match {cfg}")
        return problems

    def _check_dual(self, cmd: dict, rc: int, files: dict[str, bytes]) -> list[str]:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if "gap_record.json" not in files or "trace.csv" not in files:
            return problems + ["missing gap_record.json or trace.csv"]
        rec = json.loads(files["gap_record.json"])
        optimum = self._optimum(cmd["d"])
        if rec["n"] != cmd["n"]:
            problems.append(f"n {rec['n']} != {cmd['n']}")
        if abs(rec["oracle_optimum"] - optimum) > 1e-9 * max(1.0, optimum):
            problems.append(f"oracle_optimum {rec['oracle_optimum']!r} != {optimum!r}")
        if not rec["dual_bound"] <= rec["oracle_optimum"] + WEAK_DUALITY_TOL:
            problems.append(f"dual_bound {rec['dual_bound']!r} above the optimum")
        if rec["verdict"] == "ConfirmsTheorem2":
            print(f"!!! COUNTEREXAMPLE reported by tspdual {' '.join(cmd['argv'])}: {rec}",
                  file=sys.stderr)
            problems.append("verdict ConfirmsTheorem2")
        if rec["termination"] not in TERMINATIONS:
            problems.append(f"unknown termination {rec['termination']}")
        g = [float(line.split(",")[1]) for line in files["trace.csv"].decode().splitlines()[1:]]
        if any(b < a for a, b in zip(g, g[1:])):
            problems.append("g decreases in trace.csv")
        if not g or g[-1] != rec["dual_bound"]:
            problems.append("last g in trace.csv is not the dual bound")
        return problems

    def _optimum(self, d) -> float:
        """Shortest tour by enumerating every order with city 1 first, in
        plain numpy: independent of the program's oracle."""
        np = self.np
        n = d.shape[0]
        if n not in self._tours:
            flat = itertools.chain.from_iterable(itertools.permutations(range(1, n)))
            self._tours[n] = np.fromiter(flat, dtype=np.int8).reshape(-1, n - 1)
        p = self._tours[n]
        length = d[0, p[:, 0]]
        for k in range(n - 2):
            length = length + d[p[:, k], p[:, k + 1]]
        return float((length + d[p[:, -1], 0]).min())

    # ---- the run ------------------------------------------------------

    def run(self, seconds: float) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self._warm_up()
        units, commands = [], []
        first_outputs: dict[str, bytes] = {}
        t0 = perf_counter()
        while True:
            if self.tracer is not None:
                self.tracer.install()  # records instance.generate
            try:
                size, cmds = self.unit_commands(len(units))
            finally:
                if self.tracer is not None:
                    self.tracer.uninstall()
            unit = {"size": size, "seconds": 0.0, "traced_seconds": 0.0}
            for cmd in cmds:
                rc, dt, files = self.execute(cmd["argv"], traced=False)
                problems = self.check(cmd, rc, files)
                rec = {"argv": cmd["argv"], "exit": rc, "seconds": dt, "digest": _digest(files),
                       "bytes": sum(len(b) for b in files.values())}
                unit["seconds"] += dt
                if self.tracer is not None:
                    rc2, dt2, files2 = self.execute(cmd["argv"], traced=True)
                    rec["traced_seconds"] = dt2
                    unit["traced_seconds"] += dt2
                    if rc2 != rc or files2 != files:
                        problems.append("traced rerun output differs")
                if not units:
                    first_outputs.update({f"{len(commands)}/{k}": v for k, v in files.items()})
                rec["problems"] = problems
                if "gap_record.json" in files:
                    rec["termination"] = json.loads(files["gap_record.json"]).get("termination")
                if problems:
                    print(f"FAILED {' '.join(cmd['argv'])}: {'; '.join(problems)}", file=sys.stderr)
                commands.append(rec)
            units.append(unit)
            if len(units) == 1:
                # later units only add allocator fragmentation, which would
                # make the figure depend on how many units fit in the run
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elapsed = perf_counter() - t0
            if elapsed + 0.5 * elapsed / len(units) > seconds:
                break  # the next unit would end more than half a unit late
        if self.tracer is None:
            self._rerun_first(commands)
        digest = _digest(first_outputs)
        self._compare_digest(digest, commands)
        shutil.rmtree(self.work, ignore_errors=True)
        return {"units": units, "commands": commands, "digest": digest,
                "peak_rss_mb": peak_rss_mb}

    def _warm_up(self) -> None:
        """One small untimed command: first-call costs (LAPACK set-up,
        lazy imports) are paid once per process by any user too."""
        if self.spec["command"] == "inverse":
            path = self.work / "warm.json"
            path.write_text(json.dumps({"n": self.spec["n"], "restarts": 1,
                                        "local_iters": 100, "seed": 0}))
            argv = ["inverse", "--config", self._rel(path)]
        else:
            argv = ["dual", "--n", "6", "--seed", "0"]
        self.execute(argv, traced=False)

    def _rerun_first(self, commands: list[dict]) -> None:
        first = commands[0]
        rc, _, files = self.execute(first["argv"], traced=False)
        if rc != first["exit"] or _digest(files) != first["digest"]:
            first["problems"].append("rerun output differs")
            print(f"FAILED {' '.join(first['argv'])}: rerun output differs", file=sys.stderr)

    def _compare_digest(self, digest: str, commands: list[dict]) -> None:
        """Same workload, seed and source must give byte-identical outputs
        across runs in this checkout."""
        path = STATE / "digests.json"
        known = json.loads(path.read_text()) if path.exists() else {}
        key = f"{self.name}/seed{self.seed}/{source_sha256()[:16]}"
        if known.setdefault(key, digest) != digest:
            commands[0]["problems"].append(f"output digest {digest} != earlier {known[key]}")
            print(f"FAILED {key}: output digest differs from an earlier run", file=sys.stderr)
        path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


# ---- metrics --------------------------------------------------------------

def setup_seconds() -> float:
    """Median wall time for a fresh interpreter to import tspdual.cli,
    after one untimed import that fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import tspdual.cli"]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        subprocess.run(argv, env=env, check=True)
        if i:
            samples.append(perf_counter() - t0)
    return statistics.median(samples)


def end_to_end(result: dict) -> dict:
    rates = [u["size"] / u["seconds"] for u in result["units"]]
    return {
        "work_units_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {"value": setup_seconds(), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict, tracer, spec: dict) -> dict:
    s = tracer.summary()
    empty = {"calls": 0, "busy": 0.0, "self": 0.0, "children": 0.0, "notes": []}
    get = lambda name: s.get(name, empty)
    cmds = len(result["commands"])
    per_call = lambda name: get(name)["busy"] / get(name)["calls"] if get(name)["calls"] else 0.0
    restarts = cmds * spec.get("restarts", 0)
    search, ascent, feasible = get("inverse.search"), get("dual.ascent"), get("dual.feasible")
    accepted = sum(feasible["notes"])
    units = result["units"]
    plain = statistics.median(u["size"] / u["seconds"] for u in units)
    traced = statistics.median(u["size"] / u["traced_seconds"] for u in units)
    metrics = {
        "inverse.search.self_s": (search["self"] / cmds, "s"),
        "inverse.restart.self_ms": (1e3 * search["self"] / restarts if restarts else 0.0, "ms"),
        "inverse.children.busy_ms": (1e3 * search["children"] / cmds, "ms"),
        "dual.ascent.busy_s": (ascent["busy"] / cmds, "s"),
        "dual.ascent.self_ms": (1e3 * ascent["self"] / cmds, "ms"),
        "dual.ascent.iterations": (sum(ascent["notes"]) / cmds, "count"),
        "dual.feasible.calls": (feasible["calls"] / cmds, "count"),
        "dual.feasible.busy_us": (1e6 * per_call("dual.feasible"), "us"),
        "dual.feasible.rejects": ((feasible["calls"] - accepted) / cmds, "count"),
        "dual.feasible.accept_ratio": (accepted / feasible["calls"] if feasible["calls"] else 0.0,
                                       "ratio"),
        "dual.value.calls": (get("dual.value")["calls"] / cmds, "count"),
        "dual.value.busy_us": (1e6 * per_call("dual.value"), "us"),
        "dual.verify.busy_ms": (1e3 * get("dual.verify")["busy"] / cmds, "ms"),
        **{f"dual.termination.{t}": (
            float(sum(c.get("termination") == t for c in result["commands"])), "count")
           for t in TERMINATIONS},
        "instance.oracle.calls": (get("instance.oracle")["calls"] / cmds, "count"),
        "instance.oracle.busy_ms": (1e3 * per_call("instance.oracle"), "ms"),
        "instance.validate.busy_us": (1e6 * per_call("instance.validate"), "us"),
        "instance.generate.busy_us": (1e6 * per_call("instance.generate"), "us"),
        "formulation.build.calls": (get("formulation.build")["calls"] / cmds, "count"),
        "formulation.build.busy_us": (1e6 * per_call("formulation.build"), "us"),
        "reduction.reduce.calls": (get("reduction.reduce")["calls"] / cmds, "count"),
        "reduction.reduce.busy_us": (1e6 * per_call("reduction.reduce"), "us"),
        "cli.main.self_ms": (1e3 * get("cli.main")["self"] / cmds, "ms"),
        "cli.out.bytes": (sum(c["bytes"] for c in result["commands"]) / cmds, "bytes"),
        "trace.work_units_per_s_delta": (traced - plain, "1/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---- provenance -----------------------------------------------------------

def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tspdual").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def provenance(args, numpy_version: str) -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": WORKLOADS[args.workload],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tspdual" / "cli.py").is_file():
        print(f"error: no tspdual sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is imported
    sys.path.insert(0, str(SRC))
    import numpy
    import tspdual
    if Path(tspdual.__file__).resolve().parent != SRC / "tspdual":
        print(f"error: imported tspdual from {tspdual.__file__}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, bool(args.trace))
    result = bench.run(args.seconds)
    failed = sum(1 for c in result["commands"] if c["problems"])
    if args.trace:
        metrics = per_layer(result, bench.tracer, bench.spec)
    else:
        metrics = end_to_end(result)

    prov = provenance(args, numpy.__version__)
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "metrics": metrics, **result}, indent=1) + "\n")
    if bench.tracer is not None:
        bench.tracer.write(results_dir / f"{stem}.spans.jsonl")
    print(json.dumps({"provenance": prov, "digest": result["digest"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["commands"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
