"""Spans around the package's public functions, for the traced run only.

The package binds names at import (``from .quadrature import
integrate_adaptive``), so patching the defining module is not enough: the
tracer replaces the function object wherever a ``fracpolylog`` module
holds it, as a module attribute or as a value of a module-level dict.
It is installed only in the traced worker process, after the package is
imported and before any workload call is made.  Importing this module
installs nothing; untraced processes use it only to count wrappers, which
must be zero there.

Spans (name, start, end, parent, op id) are kept in flat in-memory lists
and written out once, after the run.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter

# layer -> (defining module, public names traced)
LAYERS = {
    "kernel": ("fracpolylog.kernel", ("gamma", "riemann_zeta", "c_alpha")),
    "quadrature": ("fracpolylog.quadrature", ("integrate_adaptive", "tanh_sinh")),
    "evaluators": (
        "fracpolylog.evaluators",
        (
            "eval_series",
            "eval_hankel",
            "eval_appell",
            "eval_zeta_series",
            "eval_mittag_leffler",
            "eval_negint_closed",
            "eval_auto",
            "eval_on_cut",
        ),
    ),
    "domain": ("fracpolylog.domain", ("m_alpha_k", "branch_value")),
    "monodromy": ("fracpolylog.monodromy", ("transport", "eval_cover")),
    "validation": ("fracpolylog.validation", ("crosscheck_point", "run_selfcheck")),
    "cli": ("fracpolylog.cli", ("cmd_table",)),
}

SPAN_ATTR = "_perfbench_span"

# the dispatchers whose results make up the dispatch mix
_DISPATCH = ("evaluators.eval_auto", "evaluators.eval_on_cut")


def span_name(layer: str, name: str) -> str:
    return "cli.table" if name == "cmd_table" else f"{layer}.{name}"


SPAN_NAMES = tuple(span_name(layer, n) for layer, (_, names) in LAYERS.items() for n in names)


def _package_modules() -> list:
    return [
        m
        for key, m in list(sys.modules.items())
        if m is not None and (key == "fracpolylog" or key.startswith("fracpolylog."))
    ]


def count_patched() -> int:
    """Number of tracer wrappers reachable from the package's modules."""
    seen = 0
    for mod in _package_modules():
        for value in vars(mod).values():
            if hasattr(value, SPAN_ATTR):
                seen += 1
            elif isinstance(value, dict):
                seen += sum(1 for v in value.values() if hasattr(v, SPAN_ATTR))
    return seen


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.absent: list[str] = []
        self.op = -1
        # one entry per span
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.op_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, (mod_name, names) in LAYERS.items():
            module = sys.modules.get(mod_name)
            for name in names:
                full = span_name(layer, name)
                orig = getattr(module, name, None) if module is not None else None
                if not callable(orig):
                    self.absent.append(full)
                    continue
                self._patch_everywhere(orig, self._wrap(orig, full))

    def _patch_everywhere(self, orig, wrapper) -> None:
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            value[k] = wrapper

    def _wrap(self, orig, full: str):
        name_id = len(self.names)
        self.names.append(full)
        names, parents, ops, starts, ends = (
            self.name_of,
            self.parent,
            self.op_id,
            self.start,
            self.end,
        )
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter_ns
        is_quad = full.startswith("quadrature.")
        is_dispatch = full in _DISPATCH
        is_zeta = full == "evaluators.eval_zeta_series"
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(name_id)
            parents.append(parent)
            ops.append(tracer.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = orig(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                if is_zeta and parent >= 0 and tracer.names[names[parent]] == "evaluators.eval_auto":
                    counters["evaluators.zeta_fallbacks"] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if is_quad:
                counters[full + ".evaluations"] += out.evaluations
                if not out.converged:
                    counters[full + ".unconverged"] += 1
            elif is_dispatch:
                counters["evaluators.method." + out.method] += 1
            return out

        wrapper.__name__ = getattr(orig, "__name__", full)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        setattr(wrapper, SPAN_ATTR, full)
        return wrapper

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time in microseconds."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {
            full: {"calls": 0, "self_us": 0.0} for full in self.names
        }
        for i in range(n):
            rec = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["self_us"] += (dur - child[i]) / 1e3
        return out

    def write(self, path: str) -> None:
        """All spans as gzip'd tab-separated text, times relative to the first."""
        t0 = self.start[0] if self.start else 0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span\tname\tparent\top\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.parent[i]}\t{self.op_id[i]}"
                    f"\t{self.start[i] - t0}\t{self.end[i] - t0}\n"
                )
