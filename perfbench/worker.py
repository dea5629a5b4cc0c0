"""One workload in its own process: set-up, timed passes, then output checks.

Started by ``run.py``; writes its result as JSON to ``--result``.  The clock
for ``setup_s`` starts before numpy, scipy and the package are imported, so
set-up covers the imports and writing the workload's documents.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import continuum_sums
    import continuum_sums.cli  # noqa: F401  (the package's __init__ leaves cli out)

    origin = os.path.dirname(os.path.abspath(continuum_sums.__file__))
    if origin != os.path.join(ROOT, "src", "continuum_sums"):
        raise RuntimeError(f"continuum_sums imported from {origin}, not from this checkout")
    return continuum_sums


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def _run_passes(workload, seconds: float, deadline: float, tracer) -> dict:
    """Whole passes until ``seconds`` have elapsed (at least two, deadline permitting)."""
    import tracing
    from workloads import output_bytes

    ops = workload.operations
    first_outputs = None
    first_prints: list[bytes] = []
    pass_times: list[float] = []
    op_times: list[float] = []
    pass_bytes: list[tuple[int, int]] = []
    roots: list[int] = []
    attempted = failed = 0
    problems: list[str] = []
    faults: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(pass_times) >= 2 and elapsed >= seconds:
            break
        longest = max(pass_times, default=0.0)
        if pass_times and time.perf_counter() + longest > deadline:
            break
        statuses = []
        if tracer is not None:
            roots.append(tracer.begin(tracing.PASS_SPAN))
        p0 = time.perf_counter()
        for i, op in enumerate(ops):
            span = None
            if tracer is not None:
                tracer.op = len(pass_times) * len(ops) + i
                span = tracer.begin(tracing.OP_SPAN)
            o0 = time.perf_counter()
            try:
                ok = op.run()
            except Exception:
                ok = False
                problems.append(f"{op.label}: raised\n{traceback.format_exc()}")
            finally:
                if span is not None:
                    tracer.end(span)
            op_times.append(time.perf_counter() - o0)
            statuses.append(ok)
        pass_times.append(time.perf_counter() - p0)
        if tracer is not None:
            tracer.end(roots[-1])
            tracer.op = None
        attempted += len(ops)
        outputs = []
        for op, ok in zip(ops, statuses):
            if not ok:
                failed += 1
                if not op.known_fault:
                    problems.append(f"{op.label}: operation failed")
            outputs.append(op.harvest() if ok or op.known_fault else None)
            if op.known_fault and not ok:
                faults[op.label] = f"{op.known_fault}; {outputs[-1]}"
        pass_bytes.append(tuple(map(sum, zip(*(output_bytes(o) for o in outputs)))))
        prints = [op.fingerprint(o) if o is not None else b"" for op, o in zip(ops, outputs)]
        if first_outputs is None:
            first_outputs, first_prints = outputs, prints
        else:
            for op, a, b in zip(ops, first_prints, prints):
                if a != b:
                    problems.append(f"{op.label}: output differs from the first pass")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "first_outputs": first_outputs,
        "pass_s": pass_times,
        "op_s": op_times,
        "pass_bytes": pass_bytes,
        "roots": roots,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "faults": faults,
        "peak_rss_mb": peak_rss_mb,
    }


def _check_outputs(workload, outputs) -> list[str]:
    from checks import CheckFailed

    problems = []
    for op, out in zip(workload.operations, outputs):
        if out is None:
            continue
        try:
            op.check(out)
        except CheckFailed as exc:
            problems.append(str(exc))
    return problems


def _layer_values(tracer, roots, pass_bytes) -> tuple[dict, list[str]]:
    """Per-pass medians of every span's self time and every count."""
    import tracing

    per_pass = []
    problems = []
    for root, (report_bytes, pbm_bytes) in zip(roots, pass_bytes):
        duration, self_time, counts = tracing.pass_profile(tracer, root)
        total = sum(self_time.values())
        if abs(total - duration) > 1e-6:
            problems.append(f"self times add to {total:.9f} s in a {duration:.9f} s pass")
        values = {f"{name}.self_s": t for name, t in self_time.items()}
        values.update(counts)
        values["bench.pass_s"] = duration
        values["bench.self_s"] = self_time.get(tracing.PASS_SPAN, 0.0) + self_time.get(
            tracing.OP_SPAN, 0.0
        )
        values["cli.report_bytes"] = report_bytes
        values["cli.pbm_bytes"] = pbm_bytes
        per_pass.append(values)
    names = set().union(*per_pass) if per_pass else set()
    # Counts repeat exactly from pass to pass; times take the plain median.
    return {
        n: (statistics.median if n.endswith("_s") else statistics.median_low)(
            [v.get(n, 0) for v in per_pass]
        )
        for n in names
    }, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--deadline", type=float, default=120.0,
                        help="seconds after start past which no pass begins")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    package = _import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](package, args.seed, args.workdir)
    setup_s = time.perf_counter() - _START
    result: dict = {"setup_s": setup_s, "versions": _versions()}
    if not args.setup_only:
        if workload.address_limit is not None:
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            soft = workload.address_limit
            if hard != resource.RLIM_INFINITY:
                soft = min(soft, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(package, tracer)
        run = _run_passes(workload, args.seconds, _START + args.deadline, tracer)
        outputs = run.pop("first_outputs")
        run["problems"] += _check_outputs(workload, outputs)
        del outputs
        roots = run.pop("roots")
        pass_bytes = run.pop("pass_bytes")
        if tracer is not None:
            layers, trace_problems = _layer_values(tracer, roots, pass_bytes)
            run["layers"] = layers
            run["problems"] += trace_problems
            tracer.write_jsonl(os.path.join(os.path.dirname(args.workdir),
                                            f"trace-{args.workload}-seed{args.seed}.jsonl"))
        result.update(run)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
