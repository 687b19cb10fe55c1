"""One benchmark process: runs one workload and prints one JSON line.

    python3 perfbench/worker.py --workload W --seed N --mode MODE [--seconds T]

Run from the root of a checkout; the package is imported from ./src.
Modes:

* ``measure``: the reference phase (the ROADMAP's reference table, the
  bundled selfcheck and the bundled probe grid of crosscheck_point),
  interleaved with the workload's seeded stream for T seconds, then the
  correctness check.  Gives the end-to-end metrics.
* ``fixed``: the workload's fixed-length operation list, untraced, then
  the correctness check.  The baseline of the traced run.  In both this
  mode and ``measure``, `attempted`, `failed` and the correctness check
  cover exactly the first ``workloads.FIXED_OPS`` operations of the
  seeded stream, so they repeat for a seed whatever the program's speed.
* ``traced``: the same list with spans around every public function of
  every layer.  Gives the per-layer metrics.

Each mode runs in a fresh process started by ``run.py``, so patched
names and warm caches never leak from one measurement into another.
The workload drives the package only through its public functions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# The reference phase runs in rounds before, between and after the
# segments of the seeded stream, so that a slow spell of the machine moves
# one sample of each median rather than all of them.
REFERENCE_ROUNDS = 5
SELFCHECK_PER_ROUND = 5
PROBE_GRID_PER_ROUND = 3
CHECK_SAMPLES = 40

# table rows skipped for being outside the documented scope
OUT_OF_SCOPE = {"AtBranchPoint", "OnBranchCut"}
TABLE_FAILURES = {
    "NoConvergence": "ConvergenceError",
    "Unsupported": "UnsupportedError",
    "Skipped": "DomainError",
}


def import_package():
    sys.path.insert(0, SRC)
    import fracpolylog
    import fracpolylog.cli  # noqa: F401  (the tracer patches the CLI too)

    where = os.path.abspath(fracpolylog.__file__)
    if not where.startswith(os.path.join(SRC, "")):
        raise SystemExit(f"fracpolylog imported from {where}, not from {SRC}")
    return fracpolylog


def _table(fp, op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fp.cli.main(list(op[2]))
    return rc, buf.getvalue()


# Each operation kind and its public call.  Names are looked up on the
# package at call time, so the traced process runs the wrapped ones.
CALLS = {
    "eval": lambda fp, op: fp.eval_auto(fp.Order.of(op[1]), op[2]),
    "cover": lambda fp, op: fp.eval_cover(
        fp.Order.of(op[1]), fp.CoverPoint(z=op[2], word=fp.PathWord(op[3]))
    ),
    "cut": lambda fp, op: fp.eval_on_cut(fp.Order.of(op[1]), op[2], op[3]),
    "check": lambda fp, op: fp.crosscheck_point(fp.Order.of(op[1]), op[2]),
    "selfcheck": lambda fp, op: fp.run_selfcheck(),
    "table": _table,
}


def execute(fp, op: tuple) -> tuple[int, object]:
    """Run one operation; returns (elapsed ns, the call's result or the
    exception it raised)."""
    call = CALLS[op[0]]
    t0 = time.perf_counter_ns()
    try:
        out = call(fp, op)
    except Exception as exc:  # every failure of the program is counted, none stops the run
        out = exc
    return time.perf_counter_ns() - t0, out


def _grid_points(argv) -> int:
    n = 1
    for arg in argv:
        if arg.startswith(("--z-re=", "--z-im=")):
            n *= int(arg.rsplit(":", 1)[1])
    return n


class Tally:
    """Points attempted, points that got a value, failures by kind, the
    records the correctness check may sample (only with `keep_records`),
    the sampled values it found outside their err_estimate, and problems:
    outcomes that break the package's interface rather than fail inside it."""

    def __init__(self, typed_error: type, keep_records: bool = False) -> None:
        self.typed_error = typed_error
        self.keep_records = keep_records
        self.points = 0
        self.ok = 0
        self.failures: Counter = Counter()
        self.problems: list[str] = []
        self.violations: list[str] = []
        self.records: list[tuple] = []
        self.checked = 0

    def _raised(self, op: tuple, exc: Exception, n: int = 1) -> None:
        self.failures[type(exc).__name__] += n
        if not isinstance(exc, self.typed_error):
            self.problems.append(f"untyped {type(exc).__name__} on {op!r}: {exc}")

    def add(self, op: tuple, out) -> None:
        kind = op[0]
        if kind == "table":
            self._add_table(op, out)
            return
        self.points += 1
        if isinstance(out, Exception):
            self._raised(op, out)
        elif kind in ("check", "selfcheck"):
            if all(r.passed for r in out):
                self.ok += 1
            else:
                self.failures["bound"] += 1
                if kind == "selfcheck":
                    self.problems.append("the bundled selfcheck failed")
        else:
            self.ok += 1
            if self.keep_records:
                self.records.append((op, out.value, out.err_estimate))

    def _add_table(self, op: tuple, out) -> None:
        expected = _grid_points(op[2])
        self.points += expected
        if isinstance(out, Exception):
            self._raised(op, out, expected)
            return
        rc, text = out
        rows = text.splitlines()[1:]
        if rc != 0 or len(rows) != expected:
            self.failures["exit"] += expected
            self.problems.append(f"table exit {rc} with {len(rows)} of {expected} rows: {op[2]}")
            return
        for row in rows:
            f = row.split(",")
            if f[2]:
                self.ok += 1
                if self.keep_records:
                    z = complex(float(f[0]), float(f[1]))
                    value = complex(float(f[2]), float(f[3]))
                    self.records.append((("eval", op[1], z), value, float(f[4])))
            elif f[5] not in OUT_OF_SCOPE:
                self.failures[TABLE_FAILURES.get(f[5], f[5])] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def check_records(tally: Tally, seed: int) -> None:
    """Compare a seeded sample of CHECK_SAMPLES returned values with mpmath.
    A value outside its own err_estimate plus the test suite's slack is a
    failed operation of kind `bound`, listed in `tally.violations`."""
    import reference

    records = tally.records
    for idx in random.Random(f"check:{seed}").sample(range(len(records)), min(CHECK_SAMPLES, len(records))):
        op, value, err = records[idx]
        if op[0] == "eval":
            ref = reference.li(op[1], op[2])
        elif op[0] == "cut":
            ref = reference.side_limit(op[1], op[2], op[3])
        else:
            ref = reference.cover(op[1], op[2], op[3])
        tally.checked += 1
        if reference.violates(value, err, ref):
            tally.failures["bound"] += 1
            tally.violations.append(f"{op!r} value={value!r} err={err!r} ref={ref!r}")


def verdict(tally: Tally, more_problems=()) -> dict:
    """`failed` counts every failure: typed raises, crosscheck backend
    disagreements and checked values outside their err_estimate alike.
    `correct` is false when the package broke its interface (an untyped
    exception, an incomplete table, a failing bundled selfcheck)."""
    problems = list(dict.fromkeys(tally.problems + list(more_problems)))
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    for line in tally.violations:
        print(f"outside its err_estimate: {line}", file=sys.stderr)
    return {
        "attempted": tally.points,
        "failed": tally.failed,
        "correct": not problems,
        "detail": {
            "failures": dict(tally.failures),
            "fail_share": tally.failed / tally.points,
            "checked": tally.checked,
            "outside_err_estimate": tally.violations,
            "problems": len(problems),
        },
    }


class Reference:
    """Fixed inputs, the same on every workload: the ROADMAP's reference
    table, the bundled selfcheck, and crosscheck_point on the bundled
    probe grid."""

    def __init__(self, fp, tally: Tally) -> None:
        self.fp = fp
        self.tally = tally
        self.table_s: list[float] = []
        self.selfcheck_s: list[float] = []
        self.checks_per_s: list[float] = []

    def _timed(self, op: tuple) -> int:
        ns, out = execute(self.fp, op)
        self.tally.add(op, out)
        return ns

    def round(self) -> None:
        self.table_s.append(self._timed(workloads.REFERENCE_OP) / 1e9)
        for _ in range(SELFCHECK_PER_ROUND):
            self.selfcheck_s.append(self._timed(("selfcheck",)) / 1e9)
        probe_ns = 0
        probes = 0
        for _ in range(PROBE_GRID_PER_ROUND):
            for alpha in workloads.PROBE_ALPHAS:
                for z in workloads.PROBE_ZS:
                    probe_ns += self._timed(("check", complex(alpha), z))
                    probes += 1
        self.checks_per_s.append(probes / (probe_ns / 1e9))


class Counted:
    """The tally of the first FIXED_OPS operations of the seeded stream:
    the same operations, and so the same counts, however many calls the
    timed part gets through."""

    def __init__(self, fp, workload: str) -> None:
        self.tally = Tally(fp.FracpolylogError, keep_records=True)
        self.left = workloads.FIXED_OPS[workload]

    def add(self, op: tuple, out) -> None:
        if self.left > 0:
            self.left -= 1
            self.tally.add(op, out)

    def finish(self, fp, stream) -> Tally:
        """Run, untimed, whatever the timed part did not reach."""
        while self.left > 0:
            op = next(stream)
            self.add(op, execute(fp, op)[1])
        return self.tally


def run_stream(fp, stream, tally: Tally, counted: Counted, seconds: float) -> tuple[int, int, list]:
    """Run the seeded stream for `seconds` of wall time; returns the calls
    made, the nanoseconds spent inside them and their latencies in us."""
    calls = 0
    busy_ns = 0
    latencies_us = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = next(stream)
        ns, out = execute(fp, op)
        busy_ns += ns
        calls += 1
        before = tally.points
        tally.add(op, out)
        counted.add(op, out)
        # a table call is sampled as its time per point
        latencies_us.append(ns / 1e3 / max(1, tally.points - before))
    return calls, busy_ns, latencies_us


def measure(fp, workload: str, seed: int, seconds: float) -> dict:
    ref_tally = Tally(fp.FracpolylogError)
    ref = Reference(fp, ref_tally)
    tally = Tally(fp.FracpolylogError)
    counted = Counted(fp, workload)
    stream = workloads.OpStream(workload, seed)
    segments: list[list[float]] = []
    calls = 0
    busy_ns = 0
    ref.round()
    for _ in range(REFERENCE_ROUNDS - 1):
        c, ns, latencies_us = run_stream(fp, stream, tally, counted, seconds / (REFERENCE_ROUNDS - 1))
        calls += c
        busy_ns += ns
        segments.append(latencies_us)
        ref.round()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    busy_s = busy_ns / 1e9

    fixed = counted.finish(fp, stream)
    check_records(fixed, seed)
    pooled = [x for seg in segments for x in seg]
    result = verdict(fixed, tally.problems + ref_tally.problems)
    # setup_s is measured by run.py, in fresh interpreters
    result["metrics"] = {
        "points_per_s": tally.points / busy_s,
        "evals_per_s": tally.ok / busy_s,
        "eval_p50_us": statistics.median(pooled),
        # the tail of each segment, then their median: a slow spell of the
        # machine inside one segment does not move it
        "eval_p99_us": statistics.median(
            statistics.quantiles(seg, n=100, method="inclusive")[98] for seg in segments
        ),
        "checks_per_s": calls / busy_s if workload == "crosscheck" else statistics.median(ref.checks_per_s),
        "table_s": statistics.median(ref.table_s),
        "selfcheck_s": statistics.median(ref.selfcheck_s),
        "peak_rss_mb": peak_rss_mb,
    }
    result["detail"].update(
        calls=calls,
        latency_samples=len(pooled),
        busy_s=busy_s,
        reference_phase_failures=dict(ref_tally.failures),
    )
    return result


def run_fixed(fp, workload: str, seed: int, tracer=None) -> tuple[float, Tally, Tally, dict]:
    """Run the prelude and then the fixed-length list.  Returns the time
    inside the calls, the tally of the list, that of the prelude, and the
    calls, raises and milliseconds of the evaluations near z = 1 with a
    non-integer order."""
    prelude = Tally(fp.FracpolylogError)
    tally = Tally(fp.FracpolylogError, keep_records=True)
    near1 = {"calls": 0, "raised": 0, "ms": 0.0}
    busy_ns = 0
    for i, op in enumerate(workloads.fixed_ops(workload, seed)):
        if tracer is not None:
            tracer.op = i
        ns, out = execute(fp, op)
        busy_ns += ns
        (prelude if i < len(workloads.PRELUDE[workload]) else tally).add(op, out)
        if workloads.is_near_one_noninteger(op):
            near1["calls"] += 1
            near1["raised"] += isinstance(out, Exception)
            near1["ms"] += ns / 1e6
    return busy_ns / 1e9, tally, prelude, near1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--mode", required=True, choices=("measure", "fixed", "traced"))
    p.add_argument("--seconds", type=float, default=15.0)
    args = p.parse_args(argv)

    fp = import_package()
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()

    import numpy

    env = {"numpy": numpy.__version__, "patched": tracing.count_patched()}

    if args.mode == "measure":
        result = measure(fp, args.workload, args.seed, args.seconds)
    elif args.mode == "fixed":
        busy_s, tally, prelude, near1 = run_fixed(fp, args.workload, args.seed)
        check_records(tally, args.seed)
        result = verdict(tally, prelude.problems)
        result["busy_s"] = busy_s
        result["near1"] = near1
    else:
        busy_s, _, _, _ = run_fixed(fp, args.workload, args.seed, tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz")
        tracer.write(spans_path)
        result = {
            "busy_s": busy_s,
            "spans": tracer.summary(),
            "counters": dict(tracer.counters),
            "absent": tracer.absent,
            "span_count": len(tracer.start),
            "spans_file": os.path.relpath(spans_path, ROOT),
        }
    import mpmath

    env["mpmath"] = mpmath.__version__
    result["env"] = env
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
