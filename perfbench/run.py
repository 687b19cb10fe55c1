"""Benchmark launcher for fracpolylog.

    python3 perfbench/run.py --workload {grid,point,cover,crosscheck}
                             --seed N --seconds T --trace {0,1}

Run from the root of a checkout.  The package is imported from ./src;
without it the launcher exits with status 2 and prints no result.

--trace 0 measures the end-to-end metrics: set-up time as the median over
fresh interpreters of `import fracpolylog` plus a first evaluation, then
one fresh worker process for the workload (see worker.py).  --trace 1
runs the workload's fixed-length operation list twice, in two fresh
processes, untraced and then traced, and reports the per-layer metrics
and the tracing overhead.  Every child is pinned to one numpy/BLAS thread.

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics.  The line before it records
the environment and the breakdown behind the numbers; a copy of both goes
to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

import tracer  # only its table of traced names; nothing is installed here
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "fracpolylog")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 80  # two traced children and the launcher stay under 180 s

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "table_s": "s",
    "evals_per_s": "1/s",
    "eval_p50_us": "us",
    "eval_p99_us": "us",
    "checks_per_s": "1/s",
    "selfcheck_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_MODULES = ("kernel", "quadrature", "evaluators", "domain", "monodromy", "validation", "cli", "errors")
FAILURE_KINDS = ("ConvergenceError", "UnsupportedError", "DomainError", "bound", "other")
METHOD_TAGS = ("Series", "Appell", "Hankel", "MittagLeffler", "ZetaSeries", "NegIntClosed")

# `import fracpolylog` plus the first evaluation, which fills the lazy
# Gauss-Legendre tables; interpreter start-up is not included
SETUP_SNIPPET = """
import time
t0 = time.perf_counter()
import fracpolylog
fracpolylog.eval_auto(fracpolylog.Order.of(0.3 + 0.7j), complex(-3.0, -2.0))
t1 = time.perf_counter()
print(t1 - t0, fracpolylog.__file__)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"child {args[:2]} exited with status {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup() -> tuple[float, list[float]]:
    run_child(["-c", SETUP_SNIPPET])  # unmeasured: writes the bytecode caches
    samples = []
    for _ in range(SETUP_PROBES):
        seconds, where = run_child(["-c", SETUP_SNIPPET]).split(" ", 1)
        if not os.path.abspath(where).startswith(os.path.join(SRC, "")):
            raise SystemExit(f"set-up probe imported fracpolylog from {where}")
        samples.append(float(seconds))
    return statistics.median(samples), samples


def worker(workload: str, seed: int, mode: str, seconds: float) -> dict:
    line = run_child(
        [
            os.path.join(HERE, "worker.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--mode",
            mode,
            "--seconds",
            repr(seconds),
        ]
    )
    result = json.loads(line)
    patched = result["env"]["patched"]
    if (mode == "traced") != (patched > 0):
        raise SystemExit(f"{mode} worker saw {patched} traced functions")
    return result


def sloc(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))


def source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith((".py", ".json")):
            h.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    return proc.stdout.strip() or None


def failure_metrics(failures: dict, attempted: int) -> dict:
    out = {f"fail.{k}": 0 for k in FAILURE_KINDS}
    for kind, n in failures.items():
        out[f"fail.{kind if kind in FAILURE_KINDS else 'other'}"] += n
    out["fail_share"] = sum(failures.values()) / attempted
    return out


def per_layer(fixed: dict, traced: dict) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracer.SPAN_NAMES:
        # a name that has disappeared from the package reads as never called
        rec = traced["spans"].get(name, {"calls": 0, "self_us": 0.0})
        metrics[f"{name}.calls"] = (rec["calls"], "count")
        if name == "cli.table":
            metrics[f"{name}.self_ms"] = (rec["self_us"] / 1e3, "ms")
        else:
            metrics[f"{name}.self_us"] = (rec["self_us"], "us")
    counters = traced["counters"]
    for quad in ("quadrature.integrate_adaptive", "quadrature.tanh_sinh"):
        for counter in ("evaluations", "unconverged"):
            metrics[f"{quad}.{counter}"] = (counters.get(f"{quad}.{counter}", 0), "count")
    for tag in METHOD_TAGS:
        metrics[f"evaluators.method.{tag}"] = (counters.get(f"evaluators.method.{tag}", 0), "count")
    metrics["evaluators.zeta_fallbacks"] = (counters.get("evaluators.zeta_fallbacks", 0), "count")
    for module in LAYER_MODULES:
        path = os.path.join(PACKAGE, f"{module}.py")
        metrics[f"{module}.sloc"] = (sloc(path) if os.path.exists(path) else 0, "lines")
    metrics["src.sloc"] = (
        sum(sloc(os.path.join(PACKAGE, n)) for n in os.listdir(PACKAGE) if n.endswith(".py")),
        "lines",
    )
    # the domain hole next to z = 1, which eval_p99_us does not reach
    near1 = fixed["near1"]
    metrics["near1.calls"] = (near1["calls"], "count")
    metrics["near1.raised"] = (near1["raised"], "count")
    metrics["near1.ms"] = (near1["ms"], "ms")
    metrics["trace.overhead"] = (fixed["busy_s"] / traced["busy_s"], "ratio")
    metrics["trace.absent"] = (len(traced["absent"]), "count")
    for name, value in failure_metrics(fixed["detail"]["failures"], fixed["attempted"]).items():
        metrics[name] = (value, "share" if name == "fail_share" else "count")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fracpolylog benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no package source at {PACKAGE}; run from the root of a checkout", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "thread_pinning": THREAD_PINS,
    }
    if args.trace == 0:
        setup_s, setup_samples = measure_setup()
        res = worker(args.workload, args.seed, "measure", args.seconds)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in res["metrics"].items()}
        metrics["setup_s"] = (setup_s, "s")
        record["setup_samples"] = setup_samples
        record["detail"] = res["detail"]
        summary = res
    else:
        fixed = worker(args.workload, args.seed, "fixed", args.seconds)
        traced = worker(args.workload, args.seed, "traced", args.seconds)
        metrics = per_layer(fixed, traced)
        record["detail"] = {"fixed": fixed["detail"], "spans": traced["span_count"], "absent": traced["absent"]}
        record["spans_file"] = traced["spans_file"]
        summary = fixed
    record["numpy"] = summary["env"]["numpy"]
    record["mpmath"] = summary["env"]["mpmath"]

    result = {
        "correct": bool(summary["correct"]),
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
