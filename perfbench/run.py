"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload planar-sweeps --seed 1 --seconds 15 --trace 0

Runs the workload in its own child process (so ``peak_rss_mb`` is that
workload's own peak), preceded by set-up-only children whose set-up times
join the child's in the ``setup_s`` median.  Prints the environment and a
summary, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Exits 2 without a result when the package sources are
missing and 1 when a child fails or overruns.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")

#: Extra set-up-only children per run; with the workload child's own set-up
#: they give the setup_s median.
SETUP_REPEATS = 2

#: Every run ends within this many seconds.
RUN_LIMIT_S = 170.0

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _child(args: argparse.Namespace, tag: str, extra: list[str], deadline: float) -> dict:
    workdir = os.path.join(WORKDIR, f"run-{args.workload}-{args.seed}-{os.getpid()}-{tag}")
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    env = dict(os.environ)
    # The program's default of one FFT worker applies.
    env.pop("CONTINUUM_SUMS_THREADS", None)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--result", result, *extra,
    ]
    try:
        timeout = max(1.0, deadline - time.monotonic())
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker ({tag}) exited {proc.returncode}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < 40:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p / 100 * n)
    return p, sorted(values)[rank - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.monotonic()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "continuum_sums", "__init__.py")):
        return _fail(f"package sources not found under {os.path.join(ROOT, 'src')}", 2)
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}", 2)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("seed must be >= 0 and seconds > 0", 2)

    deadline = began + RUN_LIMIT_S
    try:
        setups = [
            _child(args, f"setup{i}", ["--setup-only"], deadline)["setup_s"]
            for i in range(SETUP_REPEATS)
        ]
        budget = deadline - time.monotonic() - 10.0
        run = _child(args, "main", ["--deadline", f"{budget:.1f}"], deadline)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc), 1)
    setups.append(run["setup_s"])

    v = run["versions"]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# nproc {os.cpu_count()} affinity {len(os.sched_getaffinity(0))} "
          f"python {v['python']} numpy {v['numpy']} scipy {v['scipy']}")
    blas = " ".join(f"{k}={os.environ[k]}" for k in BLAS_THREAD_VARS if k in os.environ)
    print(f"# BLAS thread variables: {blas or 'none set'}; CONTINUUM_SUMS_THREADS unset")
    ops = run["op_s"]
    print(f"# passes {len(run['pass_s'])} operations {len(ops)} "
          f"attempted {run['attempted']} failed {run['failed']}")
    print(f"# op_p50_s {statistics.median(ops):.6f} over {len(ops)} operations")
    tail = _tail(ops)
    if tail is not None:
        print(f"# op_p{tail[0]}_s {tail[1]:.6f} (ten or more operations beyond it)")
    for label, fault in run["faults"].items():
        print(f"# known fault, {label}: {fault}")
    for problem in run["problems"]:
        print(f"# PROBLEM: {problem}")

    if args.trace:
        layers = run.get("layers", {})
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(run["pass_s"]),
            "op_p50_s": statistics.median(ops),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
