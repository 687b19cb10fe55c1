"""Evaluation backends for Li_alpha and the dispatch policy tying them together.

Six representations, each with its own region of validity:

* `eval_series`: the defining power series, |z| < 1.
* `eval_appell`: the real-axis integral z/(e^q - z) weighted by q^(alpha-1),
  Re alpha > 0, z off the cut [1, inf); the only backend that reaches z = 1
  (for Re alpha > 1, where it produces zeta(alpha)).
* `eval_hankel`: the loop-contour version of the same integral, valid for
  every non-integer alpha and z off the cut.
* `eval_mittag_leffler`: the bilateral sum of branch terms M_alpha[k],
  Re alpha < 0.
* `eval_zeta_series`: the expansion of Li_alpha(z) in powers of w = Log z
  with zeta-value coefficients, Re alpha < 0, Re w < 0, |w| < 2 pi.
* `eval_jonquiere`: the same bilateral sum split at k = 0 and continued in
  alpha, i.e. two Hurwitz zeta values (Jonquiere's relation); any
  non-integer alpha with Re alpha < 28, z off the cut or a side limit on
  it, no quadrature.

plus the closed forms at nonpositive integer order (`eval_negint_closed`)
and at alpha = 1.  Every backend takes (a, z, cfg) and returns an
`EvalResult` whose err_estimate bounds the error of the returned value;
estimates are computed from a priori tail bounds, rounding floors and
measured quadrature differences, never tuned to match a comparison value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .domain import EPS_CUT, EvalResult, log_pos_cut
from .errors import ConvergenceError, DomainError, FracpolylogError, UnsupportedError
from .kernel import (
    TWO_PI,
    Order,
    _hurwitz_cutoff,
    c_alpha,
    gamma,
    gamma_error,
    hurwitz_zeta,
    principal_log,
    principal_pow,
    riemann_zeta,
    rounding_floor,
)
from .kernel import ZETA_MAX_ABS
from .quadrature import integrate_adaptive, tanh_sinh

_EPS = 2.0 ** -52


@dataclass(frozen=True)
class ToleranceConfig:
    """Accuracy and effort knobs shared by all backends.

    target_abs_err is the absolute error each backend aims for; the
    reported err_estimate may exceed it when a hard bound says so.
    """

    target_abs_err: float = 1e-10
    max_series_terms: int = 10_000_000
    quad_max_depth: int = 12
    hankel_angle: float = math.pi / 4.0
    hankel_radius_cap: float = 1.0
    ml_direct_terms: int = 64
    cut_offset: float = 1e-7

    def __post_init__(self) -> None:
        for f in fields(self):
            if not (getattr(self, f.name) > 0):
                raise ValueError(f"{f.name} must be positive")
        if not (self.hankel_angle < 0.5 * math.pi):
            raise ValueError("hankel_angle must lie in (0, pi/2)")


DEFAULT_CONFIG = ToleranceConfig()


ON_CUT_MESSAGE = "on branch cut [1,inf); use jump or --side"


def _near_cut(z: complex) -> bool:
    return abs(z.imag) <= EPS_CUT and z.real >= 1.0 - EPS_CUT


def _check_branch_points(z: complex) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("z must be finite")
    if abs(z) <= EPS_CUT:
        raise DomainError("evaluation at the branch point 0 is undefined")
    if abs(z - 1.0) <= EPS_CUT:
        raise DomainError("evaluation at the branch point 1 is undefined")


# ---------------------------------------------------------------------------
# power series


def _series_tail(abs_z: float, re_a: float, n: int) -> float:
    """Bound on sum_{m>n} |z|^m m^(-Re a); |n^(-alpha)| = n^(-Re alpha)
    exactly for positive integer n, so no Im-alpha factor appears."""
    t_next = abs_z ** (n + 1) * float(n + 1) ** (-re_a)
    ratio = abs_z * ((n + 2.0) / (n + 1.0)) ** max(0.0, -re_a)
    if ratio >= 1.0:
        return math.inf
    return t_next / (1.0 - ratio)


def eval_series(a: Order, z: complex, cfg: ToleranceConfig = DEFAULT_CONFIG) -> EvalResult:
    """Partial sum of sum_n z^n / n^alpha with a certified geometric tail bound.

    Valid for |z| < 1 and arbitrary complex alpha.
    """
    z = complex(z)
    _check_branch_points(z)
    abs_z = abs(z)
    if abs_z >= 1.0:
        raise DomainError(f"series requires |z| < 1, got |z| = {abs_z}")
    alpha = a.alpha
    tol = 0.5 * cfg.target_abs_err

    n_terms = 8
    while _series_tail(abs_z, alpha.real, n_terms) > tol:
        n_terms *= 2
        if n_terms > cfg.max_series_terms:
            achieved = _series_tail(abs_z, alpha.real, cfg.max_series_terms)
            raise ConvergenceError(
                f"series needs more than {cfg.max_series_terms} terms", achieved=achieved
            )
    bound = _series_tail(abs_z, alpha.real, n_terms)

    log_z = principal_log(z)
    abs_log_z, abs_alpha = abs(log_z), abs(alpha)
    total = 0.0 + 0.0j
    floor = 0.0
    chunk = 65536
    for start in range(1, n_terms + 1, chunk):
        n = np.arange(start, min(start + chunk, n_terms + 1), dtype=float)
        log_n = np.log(n)
        terms = np.exp(n * log_z - alpha * log_n)
        total += complex(np.sum(terms))
        # |n log z - alpha log n| <= n |log z| + |alpha| log n
        floor += float(rounding_floor(np.abs(terms), n * abs_log_z + abs_alpha * log_n))
    err = bound + floor
    return EvalResult(value=total, err_estimate=err, method="Series")


# ---------------------------------------------------------------------------
# Appell integral


def eval_appell(a: Order, z: complex, cfg: ToleranceConfig = DEFAULT_CONFIG) -> EvalResult:
    """(1/Gamma(alpha)) * integral over (0, inf) of q^(alpha-1) z/(e^q - z).

    Requires Re alpha > 0.  z may approach the cut from either side (poles
    of the integrand near the real axis are subtracted analytically and
    reinstated in closed form); z = 1 itself is allowed when Re alpha > 1,
    where the value is zeta(alpha).
    """
    z = complex(z)
    alpha = a.alpha
    if alpha.real <= 0.0:
        raise DomainError(f"Appell integral requires Re(alpha) > 0, got {alpha}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("z must be finite")
    at_one = abs(z - 1.0) <= EPS_CUT
    if at_one:
        if alpha.real <= 1.0:
            raise DomainError("z = 1 needs Re(alpha) > 1 for an integrable endpoint")
        z = 1.0 + 0.0j
    elif _near_cut(z) and z.real > 1.0:
        raise DomainError("z on the cut [1, inf); take a side limit instead")

    tol = cfg.target_abs_err
    log_tol = abs(math.log(tol))
    big_q = max(40.0, 2.0 * log_tol, math.log(2.0 * abs(z) + 2.0) + log_tol + 5.0)
    one_minus_z = 1.0 - z

    # endpoint exponent of the integrand at q -> 0+
    sing = alpha.real - 2.0 if at_one else alpha.real - 1.0
    m1 = log_tol + 25.0
    umax_left = m1 / (2.0 * (1.0 + sing)) if sing < 0.0 else 0.5 * m1
    t_left = min(math.asinh(2.0 * umax_left / math.pi), 6.5)
    t_right = min(math.asinh(m1 / math.pi), 6.5)

    # pole of z/(e^q - z) close to the integration interval: residue is
    # exactly 1 at q_0 = Log z, since e^{q_0} = z; the k != 0 poles sit at
    # least pi away from the real axis and never need this
    subtract: list[tuple[complex, complex]] = []
    if not at_one:
        q_0 = principal_log(z)
        if 0.0 < q_0.real < big_q and abs(q_0.imag) < 0.5:
            c_0 = cmath.exp((alpha - 1.0) * principal_log(q_0))
            subtract.append((q_0, c_0))

    def integrand(q: np.ndarray) -> np.ndarray:
        val = np.exp((alpha - 1.0) * np.log(q)) * (z / (np.expm1(q) + one_minus_z))
        for q_k, c_k in subtract:
            val = val - c_k / (q - q_k)
        return val

    quad = tanh_sinh(integrand, big_q, t_left, t_right, tol, max_level=cfg.quad_max_depth)
    if not quad.converged:
        raise ConvergenceError("Appell quadrature did not converge", achieved=quad.err)
    raw = quad.value
    # the subtracted pole terms integrate to c_k Log((Q - q_k)/(-q_k));
    # the principal log of the ratio is correct because a straight segment
    # subtends an angle < pi at any point off it
    for q_k, c_k in subtract:
        raw += c_k * cmath.log((big_q - q_k) / (-q_k))

    decay = max(alpha.real - 1.0, 0.0)
    tail = 2.0 * max(abs(z), 1.0) * math.exp(decay * math.log(big_q) - big_q)
    tail /= max(0.5, 1.0 - decay / big_q)

    gamma_a = gamma(alpha)
    value = raw / gamma_a
    err = (quad.err + tail) / abs(gamma_a)
    return EvalResult(value=value, err_estimate=err, method="Appell")


# ---------------------------------------------------------------------------
# Hankel contour


def hankel_contour_integral(
    a: Order, z: complex, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[complex, float]:
    """Raw contour integral of q^(alpha-1) z/(e^q - z) over the tilted loop,
    without the C_alpha/(2 pi i) normalisation.

    The loop runs from argument 2 pi - eta inward along a ray to radius r,
    around the circle |q| = r to argument eta, and back out to radius S.
    The phase of q^(alpha-1) follows the assigned argument continuously
    from 2 pi - eta down to eta; it is never reduced to the principal range.
    """
    z = complex(z)
    _check_branch_points(z)
    alpha = a.alpha
    log_z = principal_log(z)
    tol = cfg.target_abs_err

    s_cut = max(40.0, 2.0 * abs(math.log(tol)))
    k_max = int((s_cut + abs(log_z)) / TWO_PI) + 2
    poles = [log_z + TWO_PI * 1j * k for k in range(-k_max, k_max + 1)]
    poles = [q for q in poles if abs(q) <= s_cut + TWO_PI]
    min_angle = min(abs(cmath.phase(q)) for q in poles)
    min_modulus = min(abs(q) for q in poles)
    if min_angle == 0.0:
        raise DomainError("z lies on the branch cut [1, inf); no clearing contour exists")

    eta = min(cfg.hankel_angle, 0.49 * min_angle)
    radius = min(cfg.hankel_radius_cap, 0.49 * min_modulus)
    cos_eta = math.cos(eta)
    # grow S until the integrand at |q| = S is below tol/8
    log_target = math.log(tol / 8.0)
    margin = math.log(2.0 * (abs(z) + 1.0)) + TWO_PI * abs(alpha.imag)
    while (alpha.real - 1.0) * math.log(s_cut) - s_cut * cos_eta + margin > log_target:
        s_cut *= 1.25

    def rational(q: np.ndarray) -> np.ndarray:
        return z / (np.exp(q) - z)

    def ray_piece(phi: float, theta_assigned: float, orientation: float) -> tuple[complex, float]:
        direction = cmath.exp(1j * phi)
        subs: list[tuple[complex, complex]] = []
        for q_k in poles:
            s_proj = (q_k * cmath.exp(-1j * phi)).real
            s_clamped = min(max(s_proj, radius), s_cut)
            if abs(q_k - s_clamped * direction) < 1.0:
                # phase of q_k on this ray's branch of the power
                ph = cmath.phase(q_k)
                while ph <= theta_assigned - math.pi:
                    ph += TWO_PI
                while ph > theta_assigned + math.pi:
                    ph -= TWO_PI
                c_k = cmath.exp((alpha - 1.0) * complex(math.log(abs(q_k)), ph))
                subs.append((q_k, c_k))

        def integrand(s: np.ndarray) -> np.ndarray:
            q = s * direction
            val = np.exp((alpha - 1.0) * (np.log(s) + 1j * theta_assigned)) * rational(q)
            for q_k, c_k in subs:
                val = val - c_k / (q - q_k)
            return val * direction

        breaks = [radius]
        while breaks[-1] < s_cut:
            breaks.append(min(breaks[-1] * 2.0, s_cut))
        quad = integrate_adaptive(integrand, breaks, tol, max_depth=cfg.quad_max_depth)
        if not quad.converged:
            raise ConvergenceError("Hankel ray quadrature did not converge", achieved=quad.err)
        total = quad.value
        start = radius * direction
        end = s_cut * direction
        for q_k, c_k in subs:
            total += c_k * cmath.log((end - q_k) / (start - q_k))
        return orientation * total, quad.err

    def arc_integrand(theta: np.ndarray) -> np.ndarray:
        q = radius * np.exp(1j * theta)
        power = np.exp((alpha - 1.0) * (math.log(radius) + 1j * theta))
        return power * rational(q) * 1j * q

    upper, err_upper = ray_piece(eta, eta, +1.0)
    lower, err_lower = ray_piece(-eta, TWO_PI - eta, -1.0)
    n_arc = max(4, int((TWO_PI - 2.0 * eta) / 0.7) + 1)
    arc_breaks = np.linspace(eta, TWO_PI - eta, n_arc + 1)
    arc_quad = integrate_adaptive(arc_integrand, arc_breaks, tol, max_depth=cfg.quad_max_depth)
    if not arc_quad.converged:
        raise ConvergenceError("Hankel arc quadrature did not converge", achieved=arc_quad.err)

    # the arc is traversed with decreasing argument
    value = upper + lower - arc_quad.value
    tail = 2.0 * math.exp((alpha.real - 1.0) * math.log(s_cut) - s_cut * cos_eta + margin) / cos_eta
    err = err_upper + err_lower + arc_quad.err + tail
    return value, err


def eval_hankel(a: Order, z: complex, cfg: ToleranceConfig = DEFAULT_CONFIG) -> EvalResult:
    """C_alpha/(2 pi i) times the loop integral; any non-integer alpha,
    z off the cut [1, inf)."""
    alpha = a.alpha
    if a.is_integer():
        raise DomainError(
            f"Hankel representation needs non-integer order, got alpha = {alpha}",
            pole=a.nearest_integer,
        )
    raw, raw_err = hankel_contour_integral(a, z, cfg)
    factor = c_alpha(a) / (TWO_PI * 1j)
    return EvalResult(
        value=factor * raw,
        err_estimate=abs(factor) * raw_err,
        method="Hankel",
    )


# ---------------------------------------------------------------------------
# Mittag-Leffler sum of branch terms


def eval_mittag_leffler(a: Order, z: complex, cfg: ToleranceConfig = DEFAULT_CONFIG) -> EvalResult:
    """Bilateral sum of C_alpha (Log z + 2 pi i k)^(alpha-1) over k.

    Requires Re alpha < 0 (absolute convergence) and non-integer alpha.
    The tails |k| > K are replaced by the closed-form antiderivative plus
    Euler-Maclaurin corrections through the third-derivative term; the
    error estimate integrates the first omitted correction.
    """
    z = complex(z)
    _check_branch_points(z)
    alpha = a.alpha
    if a.is_integer():
        raise DomainError(
            f"branch-term sum needs non-integer order, got alpha = {alpha}",
            pole=a.nearest_integer,
        )
    if alpha.real >= 0.0:
        raise DomainError(f"branch-term sum requires Re(alpha) < 0, got {alpha}")

    log_z = principal_log(z)
    k_direct = max(2, int(cfg.ml_direct_terms))
    total = 0.0 + 0.0j
    mass = 0.0
    for k in range(-k_direct, k_direct + 1):
        term = cmath.exp((alpha - 1.0) * log_pos_cut(log_z + TWO_PI * 1j * k))
        total += term
        mass += abs(term)

    edge = k_direct + 1.0
    decay_coeff = TWO_PI - abs(log_z) / edge
    if decay_coeff <= 0.0:
        raise ConvergenceError(
            "ml_direct_terms too small for this z: tail estimate diverges",
            achieved=math.inf,
        )

    def power(base: complex, exponent: complex) -> complex:
        return cmath.exp(exponent * log_pos_cut(base))

    for sign in (1.0, -1.0):
        step = sign * TWO_PI * 1j
        edge_point = log_z + step * edge
        total += -power(edge_point, alpha) / (step * alpha)
        total += 0.5 * power(edge_point, alpha - 1.0)
        total += -step * (alpha - 1.0) * power(edge_point, alpha - 2.0) / 12.0
        total += (
            step ** 3
            * (alpha - 1.0)
            * (alpha - 2.0)
            * (alpha - 3.0)
            * power(edge_point, alpha - 4.0)
            / 720.0
        )

    # first omitted Euler-Maclaurin correction: |B6|/6! int |f^(6)|
    falling = abs(
        (alpha - 1.0) * (alpha - 2.0) * (alpha - 3.0) * (alpha - 4.0) * (alpha - 5.0) * (alpha - 6.0)
    )
    re_a = alpha.real
    tail_err = (
        2.0
        * (1.0 / 42.0)
        / 720.0
        * TWO_PI ** 6
        * falling
        * math.exp(TWO_PI * abs(alpha.imag))
        * decay_coeff ** (re_a - 7.0)
        * edge ** (re_a - 6.0)
        / (6.0 - re_a)
    )
    coeff = c_alpha(a)
    value = coeff * total
    err = abs(coeff) * (tail_err + 16.0 * _EPS * mass)
    return EvalResult(value=value, err_estimate=err, method="MittagLeffler")


# ---------------------------------------------------------------------------
# zeta-coefficient expansion at z = e^w


def eval_zeta_series(a: Order, z: complex, cfg: ToleranceConfig = DEFAULT_CONFIG) -> EvalResult:
    """Li_alpha(z) = C_alpha w^(alpha-1) + sum_n zeta(alpha - n) w^n / n!
    with w = Log z.

    Guaranteed domain: Re alpha < 0 with non-integer alpha, Re w < 0,
    0 < |w| < 2 pi.  The coefficient zeta values must stay inside the
    kernel's admissible range, which caps how many terms are available.

    The singular term is the k = 0 branch term, so its power carries the
    [0, 2*pi) argument convention.  The principal branch would put a cut
    on the negative real w axis, right through the middle of the
    expansion's domain, while Li_alpha(e^w) itself is analytic there.
    """
    alpha = a.alpha
    if a.is_integer():
        raise DomainError(
            f"expansion needs non-integer order, got alpha = {alpha}",
            pole=a.nearest_integer,
        )
    if alpha.real >= 0.0:
        raise DomainError(f"expansion requires Re(alpha) < 0, got {alpha}")
    w = principal_log(z)
    if w.real >= 0.0:
        raise DomainError(f"expansion requires Re(w) < 0, got w = {w}")
    if abs(w) >= TWO_PI:
        raise DomainError(f"expansion requires |w| < 2*pi, got |w| = {abs(w)}")

    tol = 0.5 * cfg.target_abs_err
    ratio = abs(w) / TWO_PI
    growth = -alpha.real  # exponent of the polynomial factor in the term bound
    # |zeta(alpha-n)| <= zeta(3) e^{pi |Im alpha|/2} 2^{Re alpha} pi^{Re alpha - 1}
    #                    * Gamma(1+n-Re alpha)/n! * (2 pi)^{-n} for 1+n-Re alpha >= 3,
    # by the functional equation, and Gamma(1+n+g)/n! <= (1+n+g)^g (log-convexity),
    # so |term_n| <= scale * (1+n+g)^g * ratio^n
    scale = 1.21 * math.exp(0.5 * math.pi * abs(alpha.imag)) * 2.0 ** alpha.real * math.pi ** (
        alpha.real - 1.0
    )

    def tail_bound(n: int) -> float:
        ratio_eff = ratio * math.exp(growth / (n + 2.0 + growth))
        if ratio_eff >= 1.0:
            return math.inf
        return scale * (n + 2.0 + growth) ** growth * ratio ** (n + 1) / (1.0 - ratio_eff)

    log_w = log_pos_cut(w)
    singular = c_alpha(a) * cmath.exp((alpha - 1.0) * log_w)
    total = singular
    # next to z = 1 the singular term dwarfs the rest; its floor is that
    # of C_alpha and of exp at an exponent of size |alpha - 1| |log w|
    floor = abs(singular) * (
        gamma_error(1.0 - alpha, a.integer_distance)
        + _EPS * (8.0 + abs(alpha - 1.0) * abs(log_w))
    )
    mass = 0.0
    w_pow = 1.0 + 0.0j  # w^n / n!
    n = 0
    while True:
        s = alpha - n
        if abs(s) > ZETA_MAX_ABS:
            raise DomainError(
                f"zeta coefficient argument {s} exceeds the kernel range before convergence"
            )
        term = riemann_zeta(s) * w_pow
        total += term
        mass += abs(term)
        if n >= 2 and tail_bound(n) <= tol:
            break
        n += 1
        w_pow *= w / n
        if n > 200:
            raise ConvergenceError(
                "expansion did not converge within 200 terms", achieved=tail_bound(n - 1)
            )

    # each zeta value carries Gamma's relative error (|s| <= |alpha| + n)
    err = tail_bound(n) + 16.0 * _EPS * (abs(total) + (1.0 + abs(alpha) + n) * mass) + floor
    return EvalResult(value=total, err_estimate=err, method="ZetaSeries")


# ---------------------------------------------------------------------------
# Jonquiere's relation: two Hurwitz zeta values


_LOG_TWO_PI = math.log(TWO_PI)
_LOG_5 = math.log(5.0)
# the Hurwitz kernel's remainder bound needs Re(1 - alpha) > -29
_JONQUIERE_MAX_RE = 28.0


def _jonquiere(a: Order, log_z: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Li_alpha = Gamma(1-alpha) (2 pi)^(alpha-1) [i^(1-alpha) zeta(1-alpha, h)
    + i^(alpha-1) zeta(1-alpha, 1-h)] at every point of the arrays, with
    h = Log z / (2 pi i) mod 1 (DLMF 25.12.13).

    `upper` marks arg z in [0, pi], or the upper side of the cut; there
    h = Log z / (2 pi i), elsewhere h = 1 + Log z / (2 pi i).  Whichever
    shift is small is formed from Log z without a cancelling addition,
    so z next to 1 keeps its digits.  Returns (values, err_estimates).
    """
    s = 1.0 - a.alpha
    q = (log_z.imag - 1j * log_z.real) / TWO_PI
    n = len(q)
    zeta, remainder, floor = hurwitz_zeta(
        s, np.concatenate((np.where(upper, q, q + 1.0), np.where(upper, 1.0 - q, -q)))
    )
    rotate = cmath.exp(0.5j * math.pi * s)  # i^(1-alpha)
    prefactor = gamma(s) * cmath.exp(-s * _LOG_TWO_PI)
    c_up, c_down = prefactor * rotate, prefactor / rotate
    t_up, t_down = c_up * zeta[:n], c_down * zeta[n:]
    value = t_up + t_down
    # the coefficients are exponentials at exponents of size
    # |s| (pi/2 + log 2 pi); Gamma's own error scales the whole value
    err = (
        abs(c_up) * (remainder[:n] + floor[:n])
        + abs(c_down) * (remainder[n:] + floor[n:])
        + _EPS * (8.0 + abs(s) * (0.5 * math.pi + _LOG_TWO_PI)) * (np.abs(t_up) + np.abs(t_down))
        + gamma_error(s, a.integer_distance) * np.abs(value)
    )
    return value, err


def _jonquiere_reach(a: Order, cfg: ToleranceConfig) -> float:
    """Largest |Log z| at which eval_auto takes Jonquiere's relation at
    order a (-inf: nowhere), from an a-priori estimate of the rounding
    floor that does not scale with the answer.

    The n = 0 Hurwitz term carries the branch term C_alpha (Log z)^(alpha-1),
    so its floor is a fixed fraction of the value, as in every backend.
    The rest cancels: the tail reaches W^(Re alpha) / |alpha| (the pole of
    zeta at s = 1 - alpha = 1) and for Re alpha > 0 the terms n >= 1 reach
    W^(Re alpha), with W = N + 1 + |Log z| / 2 pi, all times the prefactor
    |Gamma(1-alpha)| (2 pi)^(Re alpha - 1) e^(pi |Im alpha| / 2), while the
    result does not grow with them.  Their ulp floor, eps (8 + |s| (1 +
    log W)) times that mass, must stay within target_abs_err.
    """
    alpha = a.alpha
    if a.is_integer() or alpha.real >= _JONQUIERE_MAX_RE:
        return -math.inf
    s = 1.0 - alpha
    if alpha.real > 1.0:
        # a lower bound on the estimate below, at W = 5 <= N + 1 and without
        # Gamma: |Gamma(1-alpha)| >= pi e^(-pi |Im alpha|) / Gamma(Re alpha)
        lower = (
            math.log(math.pi * _EPS * (8.0 + abs(s) * (1.0 + _LOG_5)) * (1.0 / abs(alpha) + 1.0))
            + (alpha.real - 1.0) * _LOG_TWO_PI
            - 0.5 * math.pi * abs(alpha.imag)
            - math.lgamma(alpha.real)
            + alpha.real * _LOG_5
        )
        if lower > math.log(cfg.target_abs_err):
            return -math.inf
    n_direct = _hurwitz_cutoff(s)[0]
    try:
        log_prefactor = math.log(abs(gamma(s))) - s.real * _LOG_TWO_PI
    except DomainError:
        return -math.inf
    growth = alpha.real
    budget = (
        math.log(cfg.target_abs_err / _EPS)
        - log_prefactor
        - 0.5 * math.pi * abs(alpha.imag)
        - math.log(1.0 / abs(alpha) + (1.0 if growth > 0.0 else 0.0))
    )
    # largest W with g(log W) = growth * log W + log(8 + |s| (1 + log W))
    # <= budget; for Re alpha <= 0, g falls with W, so W = N + 1 decides
    log_w = math.log(n_direct + 1.0)
    excess = growth * log_w + math.log(8.0 + abs(s) * (1.0 + log_w)) - budget
    if excess > 0.0:
        return -math.inf
    if growth <= 0.0:
        return math.inf
    # g is increasing and concave, so Newton steps from a point where
    # g <= budget rise towards the root without ever passing it
    for _ in range(8):
        slope = growth + abs(s) / (8.0 + abs(s) * (1.0 + log_w))
        log_w = min(log_w - excess / slope, 700.0)
        excess = growth * log_w + math.log(8.0 + abs(s) * (1.0 + log_w)) - budget
    return TWO_PI * (math.exp(log_w) - n_direct - 1.0)


def eval_jonquiere(
    a: Order, z: complex, cfg: ToleranceConfig = DEFAULT_CONFIG, side: str | None = None
) -> EvalResult:
    """Li_alpha(z) from two Hurwitz zeta values (Jonquiere's relation).

    Any non-integer alpha with Re alpha < 28 and z off the cut; no
    quadrature.  With `side` ("above" or "below"), z must be a real
    x > 1 and the result is the exact side limit of Li_alpha on the cut.
    The Hurwitz terms cancel for large Re alpha, next to positive
    integer orders and next to alpha = 0; the error estimate carries
    that loss, and eval_auto only routes here where it is small.
    """
    if a.is_integer():
        raise DomainError(
            f"Jonquiere's relation needs non-integer order, got alpha = {a.alpha}",
            pole=a.nearest_integer,
        )
    z = complex(z)
    _check_branch_points(z)
    if side is None:
        if _near_cut(z):
            raise DomainError(ON_CUT_MESSAGE)
        log_z, upper = principal_log(z), z.imag >= 0.0
    else:
        side_key = side.strip().lower()
        if side_key not in ("above", "below"):
            raise ValueError(f"side must be 'above' or 'below', got {side!r}")
        if z.imag != 0.0 or not z.real > 1.0:
            raise DomainError(f"a side limit needs real z > 1, got z = {z}")
        log_z, upper = complex(math.log(z.real), 0.0), side_key == "above"
    value, err = _jonquiere(a, np.array([log_z]), np.array([upper]))
    return _jonquiere_result(value[0], err[0])


def _jonquiere_result(value: complex, err: float) -> EvalResult:
    value, err = complex(value), float(err)
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise DomainError("Li_alpha(z) overflows double precision here")
    return EvalResult(value=value, err_estimate=err, method="Jonquiere")


# ---------------------------------------------------------------------------
# closed forms at nonpositive integer order


def _eulerian_numerator(m: int) -> list[int]:
    """Coefficients (ascending) of the numerator polynomial P_m with
    Li_{-m}(z) = P_m(z) / (1-z)^(m+1), from the derivative ladder:
    P_m = z * (P'_{m-1} (1-z) + m P_{m-1}), P_0 = z."""
    coeffs = [0, 1]
    for order in range(1, m + 1):
        deriv = [k * coeffs[k] for k in range(1, len(coeffs))]
        inner = [0] * (len(coeffs) + 1)
        for k, c in enumerate(deriv):
            inner[k] += c
            inner[k + 1] -= c
        for k, c in enumerate(coeffs):
            inner[k] += order * c
        coeffs = [0] + inner
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
    return coeffs


def eval_negint_closed(a: Order, z: complex, cfg: ToleranceConfig = DEFAULT_CONFIG) -> EvalResult:
    """Li_{-m}(z) at the order alpha = -m, integer m >= 0, as the exact
    rational function P_m(z)/(1-z)^(m+1), with integer numerator
    coefficients (P_0 = z).  cfg is not used: the form is exact."""
    if not (a.is_integer() and a.nearest_integer <= 0):
        raise DomainError(f"closed form needs a nonpositive integer order, got alpha = {a.alpha}")
    m = -a.nearest_integer
    z = complex(z)
    if abs(z - 1.0) <= EPS_CUT:
        raise DomainError("rational closed form has a pole at z = 1")
    coeffs = _eulerian_numerator(m)
    num = 0.0 + 0.0j
    mass = 0.0
    for c in reversed(coeffs):
        num = num * z + c
        mass = mass * abs(z) + abs(c)
    try:
        denom = (1.0 - z) ** (m + 1)
        value = num / denom
        err = (4.0 * m + 16.0) * _EPS * (mass / abs(denom) + abs(value))
    except (OverflowError, ZeroDivisionError):
        value = err = math.inf
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise DomainError("the rational closed form overflows double precision here")
    return EvalResult(value=value, err_estimate=err, method="NegIntClosed")


def _li_order_one(z: complex) -> EvalResult:
    """Li_1(z) = -Log(1 - z); the principal log puts the cut on [1, inf).
    1 - z and the log each round to within an ulp of the result."""
    value = -principal_log(1.0 - z)
    err = 4.0 * _EPS * (1.0 + abs(value))
    return EvalResult(value=value, err_estimate=err, method="LogClosed")


# ---------------------------------------------------------------------------
# asymptotic leading term


def asymptotic_leading(a: Order, z: complex) -> complex:
    """-(Log z)^alpha / Gamma(alpha+1), the leading large-|z| behaviour.

    Requires Re alpha > 0, |z| > e, z off the cut.
    """
    z = complex(z)
    alpha = a.alpha
    if alpha.real <= 0.0:
        raise DomainError(f"leading term requires Re(alpha) > 0, got {alpha}")
    if abs(z) <= math.e:
        raise DomainError(f"leading term requires |z| > e, got |z| = {abs(z)}")
    if _near_cut(z):
        raise DomainError("z on the branch cut [1, inf)")
    return -principal_pow(principal_log(z), alpha) / gamma(alpha + 1.0)


# ---------------------------------------------------------------------------
# dispatch


def _zeta_series_feasible(a: Order, w: complex, cfg: ToleranceConfig) -> bool:
    """Conservative term-count estimate: the kernel's zeta range caps n at
    roughly |alpha| + n <= bound, so large |w| with very negative Re alpha
    must fall through to the contour instead."""
    ratio = min(0.95, abs(w) / TWO_PI * 1.2)
    if ratio <= 0.0:
        return True
    needed = math.log(0.25 * cfg.target_abs_err) / math.log(ratio)
    return abs(a.alpha) + needed + 2.0 <= ZETA_MAX_ABS


def _zeta_first(a: Order, log_z: complex, cfg: ToleranceConfig) -> bool:
    return (
        a.alpha.real < 0.0
        and log_z.real < 0.0
        and abs(log_z) < 5.0
        and _zeta_series_feasible(a, log_z, cfg)
    )


def eval_auto(a: Order, z: complex, cfg: ToleranceConfig = DEFAULT_CONFIG) -> EvalResult:
    """Pick a backend: closed form at nonpositive integer alpha, series in
    the half disk, the logarithm at alpha = 1, zeta expansion near z = 1
    on the left, Jonquiere's relation where its a-priori rounding floor
    meets target_abs_err, otherwise the contour (non-integer alpha) or the
    real-axis integral (positive integer alpha inside the unit disk).
    """
    z = complex(z)
    _check_branch_points(z)
    if _near_cut(z):
        raise DomainError(ON_CUT_MESSAGE)

    if a.is_integer() and a.nearest_integer <= 0:
        return eval_negint_closed(a, z, cfg)

    if abs(z) <= 0.5:
        return eval_series(a, z, cfg)

    if a.is_integer():
        if a.nearest_integer == 1:
            return _li_order_one(z)
        if abs(z) >= 1.0:
            raise UnsupportedError("integer order >= 2 outside the unit disk is not supported")
        return eval_appell(a, z, cfg)

    log_z = principal_log(z)
    if _zeta_first(a, log_z, cfg):
        try:
            return eval_zeta_series(a, z, cfg)
        except (DomainError, ConvergenceError):
            pass  # the pre-check is an estimate; the backends below always apply
    if abs(log_z) <= _jonquiere_reach(a, cfg):
        return eval_jonquiere(a, z, cfg)
    return eval_hankel(a, z, cfg)


def eval_auto_many(
    a: Order, zs, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> list[EvalResult | FracpolylogError]:
    """eval_auto at every z in zs, in order: each entry is the EvalResult
    eval_auto returns there, bitwise, or the FracpolylogError it raises.

    The points whose first choice is Jonquiere's relation share one
    Hurwitz kernel call; every other point goes through eval_auto itself.
    """
    reach = _jonquiere_reach(a, cfg)
    out: list[EvalResult | FracpolylogError | None] = []
    picked: list[int] = []
    log_zs: list[complex] = []
    uppers: list[bool] = []
    for z in zs:
        z = complex(z)
        if (
            reach >= 0.0
            and abs(z) > 0.5
            and math.isfinite(abs(z))
            and abs(z - 1.0) > EPS_CUT
            and not _near_cut(z)
        ):
            log_z = principal_log(z)
            if abs(log_z) <= reach and not _zeta_first(a, log_z, cfg):
                picked.append(len(out))
                log_zs.append(log_z)
                uppers.append(z.imag >= 0.0)
                out.append(None)
                continue
        try:
            out.append(eval_auto(a, z, cfg))
        except FracpolylogError as exc:
            out.append(exc)
    if picked:
        values, errs = _jonquiere(a, np.array(log_zs), np.array(uppers))
        for i, value, err in zip(picked, values, errs):
            try:
                out[i] = _jonquiere_result(value, err)
            except FracpolylogError as exc:
                out[i] = exc
    return out


def eval_on_cut(
    a: Order, x: float, side: str, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Side limit of Li_alpha on the cut (1, inf), `side` "above" or "below".

    Where eval_auto's gate admits Jonquiere's relation at |Log z| = log x,
    the limit is exact (delta = 0).  Otherwise it is a Richardson
    extrapolation: evaluate at x + i*delta and x + 2i*delta (delta signed
    by `side`) and return 2 F(delta) - F(2 delta), cancelling the leading
    linear dependence on delta, through the contour backend (non-integer
    alpha) or the real-axis integral (positive integer alpha).
    Nonpositive integer alpha is rational and has no jump, so the closed
    form is returned directly.
    """
    x = float(x)
    side_key = side.strip().lower()
    if side_key not in ("above", "below"):
        raise ValueError(f"side must be 'above' or 'below', got {side!r}")
    delta = cfg.cut_offset
    if not x > 1.0 + 100.0 * delta:
        raise DomainError(f"need x > 1 with clearance 100*cut_offset, got x = {x}")

    if a.is_integer():
        if a.nearest_integer <= 0:
            return eval_negint_closed(a, complex(x), cfg)
        backend = eval_appell
    elif math.log(x) <= _jonquiere_reach(a, cfg):
        return eval_jonquiere(a, complex(x), cfg, side=side_key)
    else:
        backend = eval_hankel

    sign = 1.0 if side_key == "above" else -1.0
    near = backend(a, complex(x, sign * delta), cfg)
    far = backend(a, complex(x, sign * 2.0 * delta), cfg)
    value = 2.0 * near.value - far.value
    err = abs(near.value - far.value) + 2.0 * near.err_estimate + far.err_estimate
    return EvalResult(value=value, err_estimate=err, method=near.method)


__all__ = [
    "DEFAULT_CONFIG",
    "ON_CUT_MESSAGE",
    "ToleranceConfig",
    "asymptotic_leading",
    "eval_appell",
    "eval_auto",
    "eval_auto_many",
    "eval_hankel",
    "eval_jonquiere",
    "eval_mittag_leffler",
    "eval_negint_closed",
    "eval_on_cut",
    "eval_series",
    "eval_zeta_series",
    "hankel_contour_integral",
]
