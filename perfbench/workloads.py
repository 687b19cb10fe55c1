"""Seeded inputs for the benchmark workloads.

Pure Python: nothing here imports numpy or the package, so the same seed
gives the same inputs whatever the state of the program under test.  An
operation is a plain tuple whose first field names the public call that
runs it (see ``worker.py``).

Draws are stratified in blocks: every block of a workload's stream holds
a fixed number of operations of each kind, in a seeded order, with
seeded parameters inside each kind (low-discrepancy ones, see `Halton`,
for grid, point and crosscheck).  That keeps the mix of dispatch branches
(and so the run-to-run cost of a time-limited run) the same from seed to
seed while the individual inputs still differ.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("grid", "point", "cover", "crosscheck")

# The ROADMAP's reference table: alpha = 0.3+0.7i on a 100x100 grid over
# Re z in [-3, 3], Im z in [-2, 2].  A table operation is (kind, alpha, argv).
REFERENCE_OP = (
    "table",
    complex(0.3, 0.7),
    ("table", "--alpha=0.3+0.7i", "--z-re=-3:3:100", "--z-im=-2:2:100"),
)

# The bundled probe grid of the package's selfcheck (6 orders x 6 points),
# copied here so the benchmark's inputs do not move if the fixture does.
PROBE_ALPHAS = (0.5, -0.5, 1.5, -1.5, complex(0.3, 0.7), complex(-1.2, -0.4))
PROBE_ZS = (
    complex(0.3, 0.0),
    complex(0.3, 0.5196152422706632),
    complex(-2.0, 0.0),
    complex(-10.0, 0.0),
    complex(0.9, 0.0),
    complex(1.5, 0.8),
)

GRID_SIDE = 30  # every seeded grid is GRID_SIDE x GRID_SIDE points


def alpha_text(a: complex) -> str:
    """CLI literal for a complex order, exact to binary64."""
    return f"{a.real!r}{a.imag:+.17g}i"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _polar(r: float, theta: float) -> complex:
    return complex(r * math.cos(theta), r * math.sin(theta))


def _z(u_r: float, u_arg: float, lo: float, hi: float) -> complex:
    """|z| log-uniform on [lo, hi], argument uniform, from two uniforms."""
    return _polar(lo * (hi / lo) ** u_r, math.pi * (2.0 * u_arg - 1.0))


def _scattered_z(rng: random.Random, lo: float, hi: float) -> complex:
    return _z(rng.random(), rng.random(), lo, hi)


def _radical_inverse(n: int, base: int) -> float:
    inv, scale = 0.0, 1.0 / base
    while n:
        n, digit = divmod(n, base)
        inv += digit * scale
        scale /= base
    return inv


class Halton:
    """Halton points in [0, 1)^6, one sequence per kind of operation, each
    from a seeded starting index.  Any run of consecutive points covers the
    cube evenly, so a time-limited run sees the same spread of inputs, and
    of their costs, whatever the seed; the points themselves change with it.
    Independent draws made the steep cost tails (the failures near z = 1,
    the slowest crosschecks) move the throughput and eval_p99_us by 7-15%
    from seed to seed."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._next: dict[str, int] = {}

    def draw(self, kind: str) -> tuple[float, ...]:
        n = self._next.get(kind) or self._rng.randrange(1, 1 << 20)
        self._next[kind] = n + 1
        return tuple(_radical_inverse(n, b) for b in (2, 3, 5, 7, 11, 13))


def _near_one_noninteger(u: tuple) -> tuple[complex, complex]:
    """(alpha, z) with non-integer alpha, real in (-20, 20) or complex with
    |alpha| <= 20 (half each), and |z - 1| log-uniform on [1e-6, 1e-1]."""
    u_r, u_arg, u_a, u_b = u[:4]
    z = 1.0 + _z(u_r, u_arg, 1e-6, 1e-1)
    if u_b < 0.5:
        return complex(-20.0 + 40.0 * u_a, 0.0), z
    return _polar(20.0 * math.sqrt(u_a), math.pi * (4.0 * u_b - 3.0)), z


def is_near_one_noninteger(op: tuple) -> bool:
    """An evaluation at |z - 1| <= 1e-1 with a non-integer order: the domain
    hole next to z = 1, whatever kind of draw produced it."""
    if op[0] != "eval" or abs(op[2] - 1.0) > 1e-1:
        return False
    return op[1].imag != 0.0 or op[1].real != math.floor(op[1].real)


def _near_one(rng: random.Random) -> complex:
    """z with |z - 1| log-uniform on [1e-6, 1e-1], argument uniform."""
    return 1.0 + _scattered_z(rng, 1e-6, 1e-1)


def _signed(u: float, lo: float, hi: float) -> float:
    """A magnitude in (lo, hi) with either sign, from one uniform."""
    return (lo + (hi - lo) * (2.0 * u % 1.0)) * (1.0 if u < 0.5 else -1.0)


def _real_alpha(rng: random.Random, lo: float, hi: float) -> complex:
    return complex(rng.uniform(lo, hi), 0.0)


def _complex_alpha(rng: random.Random, re_lo: float, re_hi: float, im_max: float) -> complex:
    im = rng.uniform(0.1, im_max) * rng.choice((-1.0, 1.0))
    return complex(rng.uniform(re_lo, re_hi), im)


def _word(rng: random.Random) -> tuple[tuple[str, int], ...]:
    """Random path word: length 1..12, exponents in +-1..+-8."""
    return tuple(
        (rng.choice(("c0", "c1")), rng.randint(1, 8) * rng.choice((-1, 1)))
        for _ in range(rng.randint(1, 12))
    )


# ---------------------------------------------------------------------------
# one block of each workload's stream


def _grid_block(rng: random.Random, halton: Halton) -> list[tuple]:
    # Re alpha < 0 in half of them: the zeta expansion then takes the points
    # left of z = 1
    kinds = ["real+", "real-", "complex+", "complex-"]
    rng.shuffle(kinds)
    ops = []
    for kind in kinds:
        u = halton.draw(kind)
        re = 0.05 + 7.95 * u[0] if kind.endswith("+") else -8.0 + 7.95 * u[0]
        a = complex(re, 0.0 if kind.startswith("real") else _signed(u[1], 0.1, 3.0))
        c_re, c_im = -3.0 + 6.0 * u[2], -2.0 + 4.0 * u[3]
        h_re, h_im = 0.25 + 2.75 * u[4], 0.25 + 1.75 * u[5]
        argv = (
            "table",
            f"--alpha={alpha_text(a)}",
            f"--z-re={c_re - h_re!r}:{c_re + h_re!r}:{GRID_SIDE}",
            f"--z-im={c_im - h_im!r}:{c_im + h_im!r}:{GRID_SIDE}",
        )
        ops.append(("table", a, argv))
    return ops


# Per block of 320 point evaluations; 18 of them sit within 1e-1 of z = 1.
# Non-integer orders fail there from |z - 1| ~ 1e-3 inward, at 10 to 1000
# times the cost of a typical call, so they are kept to 2 in 320: the
# failures then stay clearly below the 1% tail that eval_p99_us reads,
# and take about a fifth of the run's time.  The share was chosen to keep
# eval_p99_us steady, not taken from a known use, so that metric does not
# see this hole; the per-layer near1.* metrics report it on its own.
_POINT_KINDS = (
    ["real"] * 111
    + ["complex"] * 111
    + ["nonint@1"] * 2
    + ["negint"] * 24
    + ["negint@1"] * 8
    + ["one"] * 24
    + ["one@1"] * 8
    + ["posint"] * 32
)


def _point_op(kind: str, rng: random.Random, halton: Halton) -> tuple:
    if kind == "nonint@1":
        return ("eval", *_near_one_noninteger(halton.draw(kind)))
    if kind in ("real", "complex"):
        u = halton.draw(kind)
        if kind == "real":
            a = complex(-20.0 + 40.0 * u[0], 0.0)
        else:
            a = _polar(20.0 * math.sqrt(u[0]), math.pi * (2.0 * u[3] - 1.0))
        return ("eval", a, _z(u[1], u[2], 1e-2, 1e6))
    cls, _, near = kind.partition("@")
    if cls == "negint":
        a = complex(-rng.randint(0, 20), 0.0)
    elif cls == "one":
        a = 1.0 + 0.0j
    else:
        a = complex(rng.randint(2, 20), 0.0)
    if cls == "posint":
        # integer orders >= 2 are in scope only inside the unit disk
        z = _scattered_z(rng, 1e-2, 0.999)
    elif near:
        z = _near_one(rng)
    else:
        z = _scattered_z(rng, 1e-2, 1e6)
    return ("eval", a, z)


def _point_block(rng: random.Random, halton: Halton) -> list[tuple]:
    kinds = list(_POINT_KINDS)
    rng.shuffle(kinds)
    return [_point_op(kind, rng, halton) for kind in kinds]


def _cover_block(rng: random.Random, halton: Halton) -> list[tuple]:
    ops = []
    for kind in ("cover-real", "cover-complex", "cut-real", "cut-complex"):
        if kind.endswith("real"):
            a = _real_alpha(rng, -10.0, 10.0)
        else:
            a = _complex_alpha(rng, -10.0, 10.0, 0.5)
        if kind.startswith("cover"):
            ops.append(("cover", a, _scattered_z(rng, 1e-2, 1e3), _word(rng)))
        else:
            x = 1.0 + _log_uniform(rng, 1e-3, 999.0)
            ops.append(("cut", a, x, rng.choice(("above", "below"))))
    rng.shuffle(ops)
    return ops


def _crosscheck_block(rng: random.Random, halton: Halton) -> list[tuple]:
    ops = []
    for kind in ("real+", "real-", "complex+", "complex-", "real+", "real-", "complex-", "negint"):
        u_re, u_im, u_r, u_arg = halton.draw(kind)[:4]
        re = 0.05 + 7.95 * u_re if kind.endswith("+") else -8.0 + 7.95 * u_re
        if kind.startswith("real"):
            a = complex(re, 0.0)
        elif kind.startswith("complex"):
            a = complex(re, _signed(u_im, 0.1, 2.0))
        else:
            a = complex(-1.0 - math.floor(12.0 * u_re), 0.0)
        ops.append(("check", a, _z(u_r, u_arg, 1e-2, 1e3)))
    rng.shuffle(ops)
    return ops


_BLOCKS = {
    "grid": _grid_block,
    "point": _point_block,
    "cover": _cover_block,
    "crosscheck": _crosscheck_block,
}

# What a fixed-length (traced) run executes before the seeded stream, so
# that its layers get spans; it is not counted in `attempted`/`failed`.
PRELUDE = {
    "grid": [REFERENCE_OP],
    "point": [],
    "cover": [],
    "crosscheck": [("selfcheck",)],
}

# Seeded operations in a fixed-length (traced) run, and the prefix of the
# stream that `attempted`/`failed` count in every run: about three seconds
# of work at the first benchmarked commit, so counts repeat exactly per seed.
FIXED_OPS = {"grid": 12, "point": 16000, "cover": 5000, "crosscheck": 10000}


class OpStream:
    """Endless seeded stream of operations, generated one block at a time."""

    def __init__(self, workload: str, seed: int):
        if workload not in _BLOCKS:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
        self._block = _BLOCKS[workload]
        self._rng = random.Random(f"{workload}:{seed}")
        self._halton = Halton(self._rng)
        self._pending: list[tuple] = []

    def __iter__(self):
        return self

    def __next__(self) -> tuple:
        if not self._pending:
            self._pending = self._block(self._rng, self._halton)[::-1]
        return self._pending.pop()

    def take(self, n: int) -> list[tuple]:
        return [next(self) for _ in range(n)]


def fixed_ops(workload: str, seed: int) -> list[tuple]:
    return PRELUDE[workload] + OpStream(workload, seed).take(FIXED_OPS[workload])
