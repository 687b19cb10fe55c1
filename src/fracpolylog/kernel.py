"""Scalar special-function kernel: branch conventions, gamma, zeta.

Everything downstream assumes one fixed branch convention: principal
argument in (-pi, pi], with arg = +pi exactly on the negative real axis.
That choice makes the leading Mittag-Leffler term positive real for
z in (0,1) and real order, which is the normalization the rest of the
package is built around.

gamma uses the Lanczos rational approximation (g = 607/128, 15 terms)
with the reflection formula for Re(s) < 1/2.  riemann_zeta uses
Euler-Maclaurin with 20 direct terms and Bernoulli corrections through
B30, switching to the functional equation for Re(s) < 1/2.  Both are
double precision only; arguments far outside |s| ~ 30 are rejected
instead of silently degrading.

hurwitz_zeta is the same Euler-Maclaurin sum over an array of shifts a,
with a cutoff picked from s and Johansson's rigorous remainder bound;
rounding_floor is the ulp floor shared by every sum of exponentials.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi

_EPS = 2.0 ** -52

# Orders closer than this to an integer are treated as integer.
EPS_INT = 1e-9

GAMMA_MAX_ABS = 35.0
ZETA_MAX_ABS = 30.0


@dataclass(frozen=True)
class Order:
    """A complex order alpha together with its distance to the nearest integer."""

    alpha: complex
    integer_distance: float

    @classmethod
    def of(cls, alpha: complex | float | Order) -> "Order":
        if isinstance(alpha, Order):
            return alpha
        a = complex(alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise DomainError("order must be finite")
        n = round(a.real)
        return cls(alpha=a, integer_distance=abs(a - n))

    @property
    def nearest_integer(self) -> int:
        return int(round(self.alpha.real))

    def is_integer(self, eps_int: float = EPS_INT) -> bool:
        return self.integer_distance < eps_int


def require_noninteger(a: Order) -> None:
    if a.is_integer():
        raise DomainError(
            f"order {a.alpha} is within {EPS_INT:g} of the integer {a.nearest_integer}",
            pole=a.nearest_integer,
        )


def principal_log(z: complex) -> complex:
    """log on the principal branch, arg in (-pi, pi], +pi on negative reals.

    cmath.log honours the sign of a zero imaginary part (so -1 - 0j maps to
    -i*pi); collapsing imag == 0 to +0.0 enforces the closed upper edge.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("log of zero")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("log of non-finite value")
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.log(z)


def principal_pow(w: complex, s: complex) -> complex:
    """w**s through the principal log; w = 0 is rejected rather than special-cased."""
    return cmath.exp(complex(s) * principal_log(w))


# Lanczos coefficients for g = 607/128, n = 15 (Godfrey's set; relative
# error a few 1e-14 for complex arguments with |s| <= 35).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _lanczos_positive(s: complex) -> complex:
    # valid for Re(s) >= 0.5
    w = s - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, 15):
        acc += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(TWO_PI) * cmath.exp((w + 0.5) * cmath.log(t) - t) * acc


def gamma(s: complex) -> complex:
    """Complex Gamma(s); poles at non-positive integers raise DomainError."""
    s = complex(s)
    if abs(s) > GAMMA_MAX_ABS:
        raise DomainError(f"gamma argument |s| > {GAMMA_MAX_ABS:g} is out of kernel range")
    if s.real < 0.5:
        n = round(s.real)
        if n <= 0 and abs(s - n) < EPS_INT:
            raise DomainError(f"gamma pole at s = {n}", pole=int(n))
        # reflection: Gamma(s) Gamma(1-s) = pi / sin(pi s)
        return math.pi / (cmath.sin(math.pi * s) * _lanczos_positive(1.0 - s))
    return _lanczos_positive(s)


def gamma_error(s: complex, integer_distance: float) -> float:
    """Relative error bound of gamma(s): the Lanczos sum (measured below
    3e-14 for |s| <= 35 against mpmath), plus, left of Re s = 1/2, the
    rounding of pi s inside sin(pi s), which grows as s nears a pole;
    `integer_distance` is the distance from s to the nearest integer."""
    rel = 16.0 * _EPS * (1.0 + abs(s))
    if s.real < 0.5:
        rel += 4.0 * math.pi * _EPS * abs(s) / integer_distance
    return rel


# Bernoulli numbers B2, B4, ..., B30.
_B2J = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
)

_ZETA_N = 20
_LOG_ZETA_N = math.log(_ZETA_N)


def _zeta_euler_maclaurin(s: complex) -> complex:
    # s != 1; the truncated correction series keeps this accurate well
    # left of the abscissa (the terms carry s (s+1) ... so it even
    # terminates exactly at s = 0, -1), degrading only past Re s ~ -25
    acc = 0j
    for n in range(1, _ZETA_N):
        acc += cmath.exp(-s * math.log(n))
    ns = cmath.exp(-s * _LOG_ZETA_N)
    acc += 0.5 * ns
    acc += _ZETA_N * ns / (s - 1.0)
    poch = s  # rising product s (s+1) ... (s + 2j - 2)
    factorial = 2.0  # (2j)!
    npow = ns / _ZETA_N  # N^{-(s + 2j - 1)}
    prev_mag = math.inf
    for j, b in enumerate(_B2J, start=1):
        term = (b / factorial) * poch * npow
        mag = abs(term)
        if mag > prev_mag:
            # asymptotic series started diverging; stop before it hurts
            break
        acc += term
        prev_mag = mag
        if mag < 1e-18 * abs(acc):
            break
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        factorial *= (2 * j + 1) * (2 * j + 2)
        npow /= float(_ZETA_N * _ZETA_N)
    return acc


def rounding_floor(abs_terms: np.ndarray, abs_args: np.ndarray) -> np.ndarray:
    """Ulp floor of a sum of terms t = exp(x), summed along the last axis.

    An exponent x is computed with an absolute error of a few ulp of the
    magnitudes that make it up, and exp turns that into a relative error
    of the term; so each term contributes eps * |t| * (8 + X), where X is
    at least |x| (callers pass a triangle-inequality bound on it).  The
    constant 8 covers the exponential itself and the summation.
    """
    return _EPS * np.add.reduce(abs_terms * (8.0 + abs_args), axis=-1)


# B_{2j} / (2j)! for j = 1..15, the Euler-Maclaurin correction weights
_B2J_WEIGHTS = tuple(b / math.factorial(2 * j) for j, b in enumerate(_B2J, start=1))
_HURWITZ_M = len(_B2J)
_LOG_LAST_WEIGHT = math.log(abs(_B2J_WEIGHTS[-1]))
_HURWITZ_CUTOFFS = tuple((n, math.log(n)) for n in (4, 6, 8, 12, 16, 24, 32, 48, 64))
_LOG_EPS_16 = math.log(_EPS / 16.0)


def _hurwitz_cutoff(s: complex) -> tuple[int, float]:
    """Direct-sum length N for zeta(s, a), and the a-independent factor of
    the remainder bound, log(|B_2M|/(2M)! |(s)_2M| / (sigma + 2M - 1)).

    N is the smallest candidate whose bound at Re a = 0 falls below
    eps/16 of the largest direct term, N^(-sigma) or 1; a short sum keeps
    the rounding floor low when sigma < 0, where the terms grow with n.
    """
    k = s.real + 2 * _HURWITZ_M - 1
    if not k > 0.0:
        raise DomainError(f"Hurwitz zeta needs Re(s) > {1 - 2 * _HURWITZ_M}, got s = {s}")
    poch = 1.0 + 0.0j
    for j in range(2 * _HURWITZ_M):
        poch *= s + j
    if poch == 0.0:
        # s is a nonpositive integer: the correction series terminates
        return _HURWITZ_CUTOFFS[0][0], -math.inf
    size = abs(poch)
    if math.isfinite(size):
        log_poch = math.log(size)
    else:
        log_poch = math.fsum(math.log(abs(s + j)) for j in range(2 * _HURWITZ_M))
    base = _LOG_LAST_WEIGHT + log_poch - math.log(k)
    for n, log_n in _HURWITZ_CUTOFFS:
        if base - k * log_n <= _LOG_EPS_16 + max(0.0, -s.real * log_n):
            break
    return n, base


def hurwitz_zeta(s: complex, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """zeta(s, a) = sum_{n>=0} (n + a)^(-s) for an array of shifts a.

    Euler-Maclaurin with N direct terms (N picked from s alone) and the
    Bernoulli corrections through B30.  Returns (value, remainder bound,
    rounding floor), each shaped like a.  The remainder bound is
    Johansson's (Numer. Algorithms 2015),
    |R| <= |B_2M|/(2M)! |(s)_2M| e^(|Im s| |arg(N+a)|) (N + Re a)^(1-sigma-2M)
    / (sigma + 2M - 1), rigorous for Re a >= 0 and sigma + 2M > 1.

    Requires Re a >= 0, a != 0 and s != 1.  The terms of all shifts sit
    along the last axis of one array and are combined by elementwise
    operations and per-row sums only, so every element of the result is
    bitwise the same whether a holds one shift or a thousand.
    """
    s = complex(s)
    if s == 1.0:
        raise DomainError("Hurwitz zeta pole at s = 1", pole=1)
    a = np.asarray(a, dtype=complex)
    n_direct, log_bound = _hurwitz_cutoff(s)
    abs_s = abs(s)

    # direct terms (n + a)^(-s), n < N
    log_u = np.log(a[..., None] + np.arange(n_direct, dtype=float))
    terms = np.exp(-s * log_u)
    value = np.add.reduce(terms, axis=-1)
    floor = rounding_floor(np.abs(terms), abs_s * (1.0 + np.abs(log_u)))

    # (N+a)^(-s) [(N+a)/(s-1) + 1/2 + sum_j B_2j/(2j)! (s)_(2j-1) (N+a)^(1-2j)]
    v = a + n_direct
    log_v = np.log(v)
    half = np.exp(-s * log_v)
    weights = list(_B2J_WEIGHTS)
    poch = s  # (s)_(2j-1)
    for j in range(_HURWITZ_M):
        weights[j] *= poch
        poch *= (s + 2 * j + 1) * (s + 2 * j + 2)
    weights = np.array(weights)
    w = 1.0 / v
    powers = np.empty(a.shape + (_HURWITZ_M,), dtype=complex)
    powers[..., 0] = w
    powers[..., 1:] = (w * w)[..., None]
    powers = np.multiply.accumulate(powers, axis=-1)  # w, w^3, ..., w^(2M-1)
    corr = powers * weights
    ratio = v / (s - 1.0)
    value = value + half * (ratio + 0.5 + np.add.reduce(corr, axis=-1))
    tail_mass = np.abs(half) * (np.abs(ratio) + 0.5 + np.add.reduce(np.abs(corr), axis=-1))
    floor = floor + _EPS * (8.0 + 2.0 * _HURWITZ_M + abs_s * (1.0 + np.abs(log_v))) * tail_mass

    # Re v >= N > 0, so |arg v| = atan(|Im v| / Re v)
    remainder = np.exp(
        log_bound
        - (s.real + 2 * _HURWITZ_M - 1) * np.log(v.real)
        + abs(s.imag) * np.arctan(np.abs(v.imag) / v.real)
    )
    return value, remainder, floor


def riemann_zeta(s: complex) -> complex:
    """zeta(s) for |s| <= 30, rejecting the pole at s = 1."""
    s = complex(s)
    if abs(s) > ZETA_MAX_ABS:
        raise DomainError(f"zeta argument |s| > {ZETA_MAX_ABS:g} is out of kernel range")
    if abs(s - 1.0) < EPS_INT:
        raise DomainError("zeta pole at s = 1", pole=1)
    if s.real >= -0.25:
        # direct summation; reflecting here would evaluate zeta(1 - s)
        # arbitrarily close to the pole (fatally so at s = 0)
        return _zeta_euler_maclaurin(s)
    # functional equation: zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
    return (
        cmath.exp(s * math.log(2.0))
        * cmath.exp((s - 1.0) * math.log(math.pi))
        * cmath.sin(0.5 * math.pi * s)
        * gamma(1.0 - s)
        * _zeta_euler_maclaurin(1.0 - s)
    )


def c_alpha(a: Order | complex) -> complex:
    """The normalizing constant C_alpha = e^{i pi (-alpha - 1)} Gamma(1 - alpha).

    Satisfies 1 / ((1 - e^{2 pi i alpha}) Gamma(alpha)) = C_alpha / (2 pi i),
    which run_selfcheck exercises as the double-gamma residual.
    """
    a = Order.of(a)
    require_noninteger(a)
    al = a.alpha
    return cmath.exp(1j * math.pi * (-al - 1.0)) * gamma(1.0 - al)
