"""Action of the loop group on branches of Li_alpha.

The fundamental group of C minus {0, 1} is free on two loops: c0 around
the origin and c1 around 1.  On the span of Li and the branch terms
M[k] the loops act linearly:

    c0:  Li fixed,              M[k] -> M[k+1]
    c1:  Li -> Li + (E - 1) M[0],   M[0] -> E M[0],   M[k != 0] fixed

with E = e^(2 pi i alpha).  In coefficient form (the `BranchVector`
convention: a vector IS the branch, expressed in the frame of the
principal-sheet functions) c1 therefore sends the coefficient pair
(lambda, mu_0) to (lambda, E mu_0 + (E - 1) lambda).

The c1-action on M[0] used here is E M[0], the unique choice consistent
with the bilateral decomposition Li = sum_k M[k]: applying c1 to both
sides forces M[0] -> E M[0] given the action on Li.  One sometimes sees
(E - 1) M[0] quoted instead, which describes the variation (the jump)
rather than the transported branch; `ml_equivariance_check` pins the
difference, reporting residual 0 for the action used here and residual
of magnitude exactly 1 for the variation formula misread as an action.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

from .domain import (
    GENERATORS,
    BranchVector,
    CoverPoint,
    EvalResult,
    PathWord,
    branch_value,
    reduce_word,
)
from .evaluators import DEFAULT_CONFIG, ToleranceConfig, eval_auto
from .kernel import TWO_PI, Order, require_noninteger


def _loop_factor(a: Order, n: int = 1) -> complex:
    return cmath.exp(TWO_PI * 1j * a.alpha * n)


def _loop(v: BranchVector, gen: str, n: int, a: Order) -> BranchVector:
    """n turns of the loop gen (inverse turns for n < 0) acting on v, in
    closed form: c0^n shifts k -> k + n, and c1^n sends (lambda, mu_0) to
    (lambda, E^n mu_0 + (E^n - 1) lambda)."""
    if gen == "c0":
        return BranchVector(v.li_coeff, {k + n: c for k, c in v.m_coeffs.items()})
    power = _loop_factor(a, n)
    coeffs = dict(v.m_coeffs)
    coeffs[0] = power * coeffs.get(0, 0.0 + 0.0j) + (power - 1.0) * v.li_coeff
    return BranchVector(v.li_coeff, coeffs)


def apply_generator(v: BranchVector, g: str, a: Order) -> BranchVector:
    """One loop generator acting on a branch vector; g is one of
    c0, c1, c0inv, c1inv."""
    a = Order.of(a)
    require_noninteger(a)
    gen = g.removesuffix("inv")
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {g!r}; expected c0, c1, c0inv or c1inv")
    return _loop(v, gen, 1 if gen == g else -1, a)


def transport(w: PathWord, a: Order) -> BranchVector:
    """Branch vector reached from the principal sheet along the word.

    Letters of the reduced word are applied rightmost first: the word
    "c0 c1" means traverse c1, then c0, matching the convention that in
    a composite superscript the leftmost loop acts last.
    """
    a = Order.of(a)
    require_noninteger(a)
    v = BranchVector()
    for gen, exp in reversed(reduce_word(w).letters):
        v = _loop(v, gen, exp, a)
    return v


def eval_cover(a: Order, p: CoverPoint, cfg: ToleranceConfig = DEFAULT_CONFIG) -> EvalResult:
    """Value of Li_alpha at a cover point: transport the branch vector
    along the point's word, evaluate the principal sheet, combine."""
    a = Order.of(a)
    require_noninteger(a)
    word = reduce_word(p.word)
    vec = transport(word, a)
    base = eval_auto(a, p.z, cfg)
    result = branch_value(a, vec, p.z, base)
    if not word.is_identity and result.method != "CoverTransport":
        result = replace(result, method="CoverTransport")
    return result


@dataclass(frozen=True)
class EquivarianceReport:
    """Outcome of the coefficient-level consistency check between the
    c1-action on Li and on the bilateral sum of the M[k].

    Coefficients are tracked as exact integer pairs (p, q) meaning
    p + q E, so `residual` is exactly 0.0 when the actions agree and
    `variation_residual` is exactly 1.0 for the variation formula."""

    alpha: complex
    truncation: int
    residual: float
    variation_residual: float
    tail_truncated: bool = True


def ml_equivariance_check(a: Order, truncation: int = 40) -> EquivarianceReport:
    """Check that c1 acting on sum_{|k| <= truncation} M[k] matches the
    c1-action on Li, coefficient by coefficient.

    Li maps to Li + (E-1) M[0]; expanding Li as the bilateral sum, the
    k = 0 coefficient must go 1 -> 1 + (E-1) = E, exactly the M[0] ->
    E M[0] action.  The same bookkeeping with the variation formula
    M[0] -> (E-1) M[0] leaves a mismatch of -1 at k = 0.
    """
    a = Order.of(a)
    require_noninteger(a)
    factor = _loop_factor(a)

    # coefficient of M[k] as an integer pair (p, q) = p + q E
    one = (1, 0)
    zero = (0, 0)

    def add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        return (x[0] + y[0], x[1] + y[1])

    def magnitude(x: tuple[int, int]) -> float:
        return abs(x[0] + x[1] * factor)

    ks = range(-truncation, truncation + 1)

    # side A: act on the expanded sum directly
    acted_sum = {k: (one if k != 0 else (0, 1)) for k in ks}
    # side B: act on Li, then expand; Li -> Li + (E-1) M[0]
    acted_li = {k: one for k in ks}
    acted_li[0] = add(acted_li[0], (-1, 1))

    residual = max(
        magnitude((acted_sum[k][0] - acted_li[k][0], acted_sum[k][1] - acted_li[k][1]))
        for k in ks
    )

    # the variation formula, misread as the transport action
    varied = {k: (one if k != 0 else (-1, 1)) for k in ks}
    variation_residual = max(
        magnitude((varied[k][0] - acted_li[k][0], varied[k][1] - acted_li[k][1])) for k in ks
    )

    return EquivarianceReport(
        alpha=a.alpha,
        truncation=truncation,
        residual=residual,
        variation_residual=variation_residual,
    )


__all__ = [
    "EquivarianceReport",
    "apply_generator",
    "eval_cover",
    "ml_equivariance_check",
    "transport",
]
