"""Cross-backend agreement checks and the bundled selfcheck suite.

A `CheckReport` records one measurement against one bound.  Reports are
constructed through `CheckReport.measured_against`, which takes the
bound first and a thunk for the measurement, so a bound can never be
adjusted after the measured value is known.

`run_selfcheck` is deterministic: the probe grid, the finite-difference
points, and the RNG seeds all come from the packaged `probes.json`
fixture, so a failure reproduces bit for bit.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable

from .domain import PathWord, m_alpha_k, parse_word
from .errors import ConvergenceError, DomainError, UnsupportedError
from .evaluators import (
    DEFAULT_CONFIG,
    ToleranceConfig,
    asymptotic_leading,
    eval_appell,
    eval_auto,
    eval_hankel,
    eval_mittag_leffler,
    eval_negint_closed,
    eval_on_cut,
    eval_series,
    eval_zeta_series,
    hankel_contour_integral,
)
from .kernel import (
    TWO_PI,
    Order,
    c_alpha,
    gamma,
    principal_log,
    riemann_zeta,
    _zeta_euler_maclaurin,
)
from .monodromy import ml_equivariance_check, transport

PAIR_SLACK = 1e-9


@dataclass(frozen=True)
class CheckReport:
    name: str
    inputs: str
    measured: float
    bound: float
    passed: bool

    def __post_init__(self) -> None:
        if self.passed != (self.measured <= self.bound):
            raise ValueError("passed flag must equal measured <= bound")

    @classmethod
    def measured_against(
        cls, name: str, inputs: str, bound: float, measure: Callable[[], float]
    ) -> "CheckReport":
        bound = float(bound)
        try:
            measured = float(measure())
        except (DomainError, ConvergenceError, UnsupportedError) as exc:
            # a check that cannot even be measured has failed
            measured = math.inf
            inputs = f"{inputs}; error: {exc}"
        passed = measured <= bound
        return cls(name=name, inputs=inputs, measured=measured, bound=bound, passed=passed)

    @classmethod
    def skipped(cls, name: str, inputs: str) -> "CheckReport":
        return cls(name=name, inputs=inputs, measured=0.0, bound=0.0, passed=True)


def _fmt_c(z: complex) -> str:
    return format(z.real, ".6g") + ("+" if z.imag >= 0 else "-") + format(abs(z.imag), ".6g") + "i"


# ---------------------------------------------------------------------------
# cross-backend agreement


def _applicable_backends(a: Order, z: complex, cfg: ToleranceConfig):
    """Yield (tag, result-or-None, note) for every backend at this point."""
    alpha = a.alpha
    candidates: list[tuple[str, Callable[[], object]]] = []
    if a.is_integer() and a.nearest_integer <= -1:
        candidates.append(("NegIntClosed", lambda: eval_negint_closed(a, z, cfg)))
    if abs(z) < 1.0:
        candidates.append(("Series", lambda: eval_series(a, z, cfg)))
    if alpha.real > 0.0:
        candidates.append(("Appell", lambda: eval_appell(a, z, cfg)))
    if not a.is_integer():
        candidates.append(("Hankel", lambda: eval_hankel(a, z, cfg)))
        if alpha.real < 0.0:
            candidates.append(("MittagLeffler", lambda: eval_mittag_leffler(a, z, cfg)))
            w = principal_log(z)
            if w.real < 0.0 and abs(w) < TWO_PI:
                candidates.append(("ZetaSeries", lambda: eval_zeta_series(a, z, cfg)))

    for tag, thunk in candidates:
        try:
            yield tag, thunk(), ""
        except (DomainError, UnsupportedError) as exc:
            yield tag, None, f"skipped: {exc}"
        except ConvergenceError as exc:
            yield tag, None, f"failed to converge: {exc}"


def crosscheck_point(
    a: Order, z: complex, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> list[CheckReport]:
    """Evaluate every applicable backend at (alpha, z) and compare all pairs.

    The agreement bound for a pair is the sum of the two error estimates
    plus a fixed slack of 1e-9.  Points on the cut produce a single
    skipped report marked OnCut.
    """
    a = Order.of(a)
    z = complex(z)
    where = f"alpha={_fmt_c(a.alpha)} z={_fmt_c(z)}"
    if abs(z.imag) <= 1e-12 and z.real >= 1.0 - 1e-12:
        return [CheckReport.skipped("agree/pair", f"{where}; OnCut, all backends skipped")]

    results = []
    reports: list[CheckReport] = []
    for tag, res, note in _applicable_backends(a, z, cfg):
        if res is None:
            reports.append(CheckReport.skipped("agree/backend", f"{where} {tag}; {note}"))
        else:
            results.append((tag, res))

    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            tag_i, res_i = results[i]
            tag_j, res_j = results[j]
            bound = res_i.err_estimate + res_j.err_estimate + PAIR_SLACK
            diff = abs(res_i.value - res_j.value)
            reports.append(
                CheckReport.measured_against(
                    f"agree/pair[{tag_i},{tag_j}]", where, bound, lambda d=diff: d
                )
            )
    if len(results) < 2:
        reports.append(
            CheckReport.skipped("agree/pair", f"{where}; fewer than two applicable backends")
        )
    return reports


def ladder_check(
    a: Order,
    z: complex,
    h: float,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    backend: str = "auto",
) -> CheckReport:
    """Central-difference check of z d/dz Li_alpha = Li_(alpha-1).

    The finite difference amplifies evaluation noise by 1/h, so the
    evaluations run at a tightened target regardless of cfg.
    """
    a = Order.of(a)
    z = complex(z)
    tight = replace(cfg, target_abs_err=min(cfg.target_abs_err, 1e-12))
    evaluate = eval_hankel if backend == "hankel" else eval_auto
    down = Order.of(a.alpha - 1.0)

    direct = evaluate(down, z, tight)
    plus = evaluate(a, z + h, tight)
    minus = evaluate(a, z - h, tight)
    derivative = z * (plus.value - minus.value) / (2.0 * h)
    name = "ladder/hankel-ode" if backend == "hankel" else "ladder/derivative"
    return CheckReport.measured_against(
        name,
        f"alpha={_fmt_c(a.alpha)} z={_fmt_c(z)} h={h:.3g}",
        1e-5,
        lambda: abs(derivative - direct.value) / abs(direct.value),
    )


# ---------------------------------------------------------------------------
# the bundled suite


def _load_probes() -> dict:
    text = resources.files("fracpolylog").joinpath("probes.json").read_text(encoding="utf-8")
    return json.loads(text)


def _jump_checks(probes: dict, cfg: ToleranceConfig) -> list[CheckReport]:
    reports = []
    spec = probes["jump"]
    for alpha in spec["alphas"]:
        a = Order.of(alpha)
        for x in spec["xs"]:
            above = eval_on_cut(a, x, "above", cfg)
            below = eval_on_cut(a, x, "below", cfg)
            closed = (TWO_PI * 1j / gamma(a.alpha)) * cmath.exp(
                (a.alpha - 1.0) * cmath.log(math.log(x))
            )
            measured_jump = above.value - below.value
            reports.append(
                CheckReport.measured_against(
                    "jump/closed-form",
                    f"alpha={_fmt_c(a.alpha)} x={x:g}",
                    spec["relative_bound"],
                    lambda m=measured_jump, c=closed: abs(m - c) / abs(c),
                )
            )
    # algebraic version of the same jump through the branch-term closed form
    a = Order.of(0.5)
    above = eval_on_cut(a, 2.0, "above", cfg)
    below = eval_on_cut(a, 2.0, "below", cfg)
    factor = 1.0 - cmath.exp(TWO_PI * 1j * a.alpha)
    algebraic = factor * m_alpha_k(a, 2.0 + 0.0j, 0)
    reports.append(
        CheckReport.measured_against(
            "jump/branch-term",
            "alpha=0.5 x=2",
            1e-6,
            lambda: abs((above.value - below.value) - algebraic),
        )
    )
    return reports


def _monodromy_checks(probes: dict) -> list[CheckReport]:
    reports = []
    spec = probes["words"]
    rng = random.Random(spec["seed"])
    alphas = [Order.of(complex(re, im)) for re, im in spec["alphas"]]
    for idx in range(spec["count"]):
        length = rng.randint(1, spec["max_len"])
        letters = tuple(
            (rng.choice(("c0", "c1")), rng.choice((-2, -1, 1, 2))) for _ in range(length)
        )
        word = PathWord(letters)
        round_trip = word * word.inverse()
        a = alphas[idx % len(alphas)]
        vec = transport(round_trip, a)
        worst = abs(vec.li_coeff - 1.0)
        for coeff in vec.m_coeffs.values():
            worst = max(worst, abs(coeff))
        reports.append(
            CheckReport.measured_against(
                "monodromy/group-law",
                f"word #{idx} len={length} alpha={_fmt_c(a.alpha)}",
                spec["bound"],
                lambda w=worst: w,
            )
        )
    # index-shift law: c0^n moves the branch-term support created by c1
    a = alphas[0]
    factor = cmath.exp(TWO_PI * 1j * a.alpha)
    for n in range(-3, 4):
        vec = transport(parse_word(f"c0^{n} c1" if n else "c1"), a)
        ok = (
            vec.li_coeff == 1.0
            and set(vec.m_coeffs) == {n}
            and abs(vec.m_coeffs[n] - (factor - 1.0)) == 0.0
        )
        reports.append(
            CheckReport.measured_against(
                "monodromy/shift-law",
                f"n={n} alpha={_fmt_c(a.alpha)}",
                0.0,
                lambda good=ok: 0.0 if good else 1.0,
            )
        )
    for a in alphas:
        eq = ml_equivariance_check(a)
        reports.append(
            CheckReport.measured_against(
                "monodromy/equivariance",
                f"alpha={_fmt_c(a.alpha)}",
                0.0,
                lambda r=eq: r.residual,
            )
        )
        reports.append(
            CheckReport.measured_against(
                "monodromy/equivariance-variation",
                f"alpha={_fmt_c(a.alpha)}; mismatch magnitude pinned to 1",
                0.0,
                lambda r=eq: abs(r.variation_residual - 1.0),
            )
        )
    return reports


def _kernel_checks(probes: dict) -> list[CheckReport]:
    reports = []
    spec = probes["kernel"]
    rng = random.Random(spec["seed"])
    bound = spec["bound"]

    # recurrence Gamma(s+1) = s Gamma(s)
    worst_rec = 0.0
    count = 0
    while count < spec["recurrence_points"]:
        s = complex(
            rng.uniform(-spec["recurrence_radius"], spec["recurrence_radius"]),
            rng.uniform(-spec["recurrence_radius"], spec["recurrence_radius"]),
        )
        if abs(s - round(s.real)) < 1e-3 or abs(s + 1 - round(s.real + 1)) < 1e-3:
            continue
        count += 1
        lhs = gamma(s + 1.0)
        rhs = s * gamma(s)
        worst_rec = max(worst_rec, abs(lhs - rhs) / max(1.0, abs(lhs) + abs(rhs)))
    reports.append(
        CheckReport.measured_against(
            "kernel/gamma-recurrence",
            f"{spec['recurrence_points']} random s, |Re|,|Im| <= {spec['recurrence_radius']:g}",
            bound,
            lambda: worst_rec,
        )
    )

    # 1/((1 - e^{2 pi i a}) Gamma(a)) = C_a / (2 pi i), measured relative to
    # the common scale: |C_a| reaches 1e7 inside the sample disk, where an
    # absolute 1e-12 residual is below one ulp of the value
    worst_ref = 0.0
    count = 0
    while count < spec["reflection_points"]:
        radius = spec["reflection_radius"] * math.sqrt(rng.random())
        angle = rng.uniform(0.0, TWO_PI)
        al = complex(radius * math.cos(angle), radius * math.sin(angle))
        if abs(al - round(al.real)) < 1e-3:
            continue
        count += 1
        lhs = 1.0 / ((1.0 - cmath.exp(TWO_PI * 1j * al)) * gamma(al))
        rhs = c_alpha(al) / (TWO_PI * 1j)
        worst_ref = max(worst_ref, abs(lhs - rhs) / max(1.0, abs(lhs) + abs(rhs)))
    reports.append(
        CheckReport.measured_against(
            "kernel/reflection",
            f"{spec['reflection_points']} random alpha, |alpha| <= {spec['reflection_radius']:g}",
            bound,
            lambda: worst_ref,
        )
    )

    reports.append(
        CheckReport.measured_against(
            "kernel/zeta-2",
            "zeta(2) vs pi^2/6",
            bound,
            lambda: abs(riemann_zeta(2.0) - math.pi * math.pi / 6.0),
        )
    )
    reports.append(
        CheckReport.measured_against(
            "kernel/zeta-neg1",
            "zeta(-1) vs -1/12",
            bound,
            lambda: abs(riemann_zeta(-1.0) - (-1.0 / 12.0)),
        )
    )
    # functional equation at s = -1.5, with the left side summed directly by
    # Euler-Maclaurin (still convergent there) rather than through the same
    # functional equation, so the two routes are genuinely different
    s = -1.5
    lhs = _zeta_euler_maclaurin(complex(s))
    rhs = (
        2.0 ** s
        * math.pi ** (s - 1.0)
        * math.sin(0.5 * math.pi * s)
        * gamma(1.0 - s)
        * riemann_zeta(1.0 - s)
    )
    reports.append(
        CheckReport.measured_against(
            "kernel/zeta-functional",
            "s=-1.5, direct Euler-Maclaurin vs reflected",
            bound,
            lambda: abs(lhs - rhs),
        )
    )
    return reports


def _special_value_checks(cfg: ToleranceConfig) -> list[CheckReport]:
    reports = []
    for alpha in (1.5, 2.5):
        a = Order.of(alpha)
        res = eval_appell(a, 1.0 + 0.0j, cfg)
        ref = riemann_zeta(alpha)
        reports.append(
            CheckReport.measured_against(
                "special/value-at-one",
                f"alpha={alpha:g}",
                res.err_estimate + 1e-12,
                lambda r=res, f=ref: abs(r.value - f),
            )
        )
    # the real-axis integral times Gamma(a)(1 - e^{2 pi i a}) equals the raw
    # loop integral
    a = Order.of(0.5)
    z = 0.3 + 0.0j
    appell = eval_appell(a, z, cfg)
    raw, _raw_err = hankel_contour_integral(a, z, cfg)
    lhs = appell.value * gamma(a.alpha) * (1.0 - cmath.exp(TWO_PI * 1j * a.alpha))
    reports.append(
        CheckReport.measured_against(
            "special/link-identity",
            "alpha=0.5 z=0.3",
            1e-8,
            lambda: abs(lhs - raw),
        )
    )
    return reports


def _realvalue_checks(probes: dict, cfg: ToleranceConfig) -> list[CheckReport]:
    reports = []
    spec = probes["realvalue"]
    for alpha in spec["alphas"]:
        a = Order.of(alpha)
        worst: dict[str, float] = {}
        for x in spec["zs"]:
            for tag, res, _note in _applicable_backends(a, complex(x), cfg):
                if res is not None:
                    worst[tag] = max(worst.get(tag, 0.0), abs(res.value.imag))
        for tag in sorted(worst):
            reports.append(
                CheckReport.measured_against(
                    "real/imag-part",
                    f"alpha={alpha:g} backend={tag} over z in (0.1, 0.9)",
                    spec["bound"],
                    lambda w=worst[tag]: w,
                )
            )
    return reports


def _asymptotic_checks(probes: dict, cfg: ToleranceConfig) -> list[CheckReport]:
    spec = probes["asymptotic"]
    a = Order.of(complex(*spec["alpha"]))

    def deviation(z: complex) -> float:
        res = eval_hankel(a, z, cfg)
        lead = asymptotic_leading(a, z)
        return abs(res.value / lead - 1.0)

    z_near = complex(*spec["z_near"])
    z_far = complex(*spec["z_far"])
    dev_near = deviation(z_near)
    dev_far = deviation(z_far)
    return [
        CheckReport.measured_against(
            "asym/leading-bound",
            f"alpha={_fmt_c(a.alpha)} z={_fmt_c(z_far)}",
            spec["bound"],
            lambda: dev_far,
        ),
        CheckReport.measured_against(
            "asym/deviation-shrinks",
            f"deviation at {_fmt_c(z_far)} vs {_fmt_c(z_near)}",
            dev_near,
            lambda: dev_far,
        ),
    ]


def run_selfcheck(cfg: ToleranceConfig = DEFAULT_CONFIG) -> list[CheckReport]:
    """All packaged checks: backend agreement on the probe grid, derivative
    ladder, cut jumps, monodromy algebra, kernel identities, special
    values, real-valuedness, asymptotics.  Deterministic given cfg."""
    probes = _load_probes()
    reports: list[CheckReport] = []

    grid = probes["crosscheck"]
    for alpha in grid["alphas"]:
        a = Order.of(complex(*alpha))
        for z_parts in grid["zs"]:
            reports.extend(crosscheck_point(a, complex(*z_parts), cfg))

    ladder = probes["ladder"]
    for point in ladder["points"]:
        a = Order.of(complex(*point["alpha"]))
        z = complex(*point["z"])
        h = ladder["h_rel"] * abs(z)
        reports.append(ladder_check(a, z, h, cfg, backend=point["backend"]))

    reports.extend(_jump_checks(probes, cfg))
    reports.extend(_monodromy_checks(probes))
    reports.extend(_kernel_checks(probes))
    reports.extend(_special_value_checks(cfg))
    reports.extend(_realvalue_checks(probes, cfg))
    reports.extend(_asymptotic_checks(probes, cfg))

    reports.sort(key=lambda r: (r.name, r.inputs))
    return reports


def reports_to_jsonl(reports: list[CheckReport]) -> str:
    lines = []
    for r in reports:
        measured = min(r.measured, 1e300)
        lines.append(
            json.dumps(
                {
                    "name": r.name,
                    "inputs": r.inputs,
                    "measured": measured,
                    "bound": r.bound,
                    "passed": r.passed,
                },
                ensure_ascii=True,
            )
        )
    return "\n".join(lines)


def summarize(reports: list[CheckReport]) -> str:
    n_pass = sum(r.passed for r in reports)
    lines = [f"{n_pass}/{len(reports)} checks passed"]
    width = max((len(r.name) for r in reports), default=4)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name:<{width}}  measured={r.measured:.3e}  bound={r.bound:.3e}  {r.inputs}"
        )
    return "\n".join(lines)


__all__ = [
    "CheckReport",
    "crosscheck_point",
    "ladder_check",
    "reports_to_jsonl",
    "run_selfcheck",
    "summarize",
]
