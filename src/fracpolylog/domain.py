"""Points on the branched cover, path words, and branch-shift data.

The function Li_alpha lives on the universal cover of C minus {0, 1}.  A
point of the cover is a base point z together with a word in the loop
generators c0 (around 0) and c1 (around 1).  Moving between sheets only
ever adds multiples of the elementary branch terms

    M_alpha[k](z) = C_alpha * (Log z + 2*pi*i*k)^(alpha-1),

so a sheet is described by a sparse vector: one coefficient for Li itself
plus finitely many coefficients for the M_alpha[k].  This module holds
those value types and the closed-form M_alpha[k]; the group action that
produces the vectors lives in `monodromy`.

Branch convention for M_alpha[k]: the outer power is taken with the
argument of (Log z + 2*pi*i*k) in [0, 2*pi), i.e. the power's cut lies
along the positive real axis of the q-plane.  The inner Log z is
principal.  With this choice M_alpha[k] and M_alpha[-k] are complex
conjugates for real alpha and z in (0, 1), and the Mittag-Leffler sum of
the M_alpha[k] reproduces Li_alpha for Re alpha < 0.  Taking the outer
power principal instead breaks both properties.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field

from .errors import DomainError
from .kernel import TWO_PI, EPS_INT, Order, c_alpha, principal_log

# Base points this close to a branch point are rejected outright.
EPS_CUT = 1e-12

_EPS = 2.0 ** -52

_METHODS = frozenset(
    {
        "Series",
        "Appell",
        "Hankel",
        "MittagLeffler",
        "ZetaSeries",
        "NegIntClosed",
        "Jonquiere",
        "LogClosed",
        "CoverTransport",
    }
)

GENERATORS = ("c0", "c1")


def log_pos_cut(w: complex) -> complex:
    """Logarithm with the cut along [0, inf): Im(result) in [0, 2*pi).

    Positive real w gets argument 0.  A negative signed-zero imaginary
    part is normalised away first, so w = x - 0.0j behaves like x + 0.0j
    rather than falling just below the cut.
    """
    val = principal_log(w)
    if val.imag < 0.0:
        return complex(val.real, val.imag + TWO_PI)
    return val


@dataclass(frozen=True)
class PathWord:
    """Reduced or unreduced word in the free group on c0, c1.

    `letters` is a tuple of (generator, exponent) pairs with generator in
    {"c0", "c1"} and nonzero integer exponent.  The empty tuple is the
    identity.  Construction does not reduce; call `reduce_word`.
    """

    letters: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        for gen, exp in self.letters:
            if gen not in GENERATORS:
                raise ValueError(f"unknown generator {gen!r}")
            if not isinstance(exp, int) or exp == 0:
                raise ValueError(f"exponent must be a nonzero integer, got {exp!r}")

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "PathWord") -> "PathWord":
        return PathWord(self.letters + other.letters)

    def inverse(self) -> "PathWord":
        return PathWord(tuple((g, -e) for g, e in reversed(self.letters)))


_LETTER_RE = re.compile(r"^(c0|c1)(?:\^(-?\d+))?$")


def parse_word(text: str) -> PathWord:
    """Parse whitespace-separated letters `c0`, `c1`, optionally `^<int>`.

    Examples: "c1 c0^-2 c1^3"; the empty string is the identity.
    """
    letters: list[tuple[str, int]] = []
    for tok in text.split():
        m = _LETTER_RE.match(tok)
        if m is None:
            raise ValueError(f"bad path letter {tok!r}; expected c0 or c1 with optional ^<int>")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        if exp != 0:
            letters.append((m.group(1), exp))
    return PathWord(tuple(letters))


def format_word(w: PathWord) -> str:
    if w.is_identity:
        return ""
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in w.letters)


def reduce_word(w: PathWord) -> PathWord:
    """Free reduction: merge adjacent runs of the same generator, drop zeros.

    Idempotent; the result is the normal form of the group element.
    """
    out: list[tuple[str, int]] = []
    for gen, exp in w.letters:
        if out and out[-1][0] == gen:
            # a cancelled run exposes the letter below it to the next merge
            exp += out.pop()[1]
        if exp:
            out.append((gen, exp))
    return PathWord(tuple(out))


@dataclass(frozen=True)
class CoverPoint:
    """Base point plus the path class that selects a sheet."""

    z: complex
    word: PathWord = field(default_factory=PathWord)

    def __post_init__(self) -> None:
        z = complex(self.z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainError("cover point must be finite")
        if abs(z) <= EPS_CUT:
            raise DomainError("cover point too close to the branch point 0")
        if abs(z - 1.0) <= EPS_CUT:
            raise DomainError("cover point too close to the branch point 1")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class BranchVector:
    """Sparse element of the span of {Li_alpha} + {M_alpha[k] : k in Z}.

    `li_coeff` multiplies the principal-sheet Li; `m_coeffs` maps the
    index k to the coefficient of M_alpha[k].  Exact-zero coefficients
    are pruned on construction so equality of vectors is equality of
    supports plus coefficients.
    """

    li_coeff: complex = 1.0 + 0.0j
    m_coeffs: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        pruned = {int(k): complex(v) for k, v in self.m_coeffs.items() if v != 0}
        object.__setattr__(self, "li_coeff", complex(self.li_coeff))
        object.__setattr__(self, "m_coeffs", pruned)

    @property
    def is_li_only(self) -> bool:
        return not self.m_coeffs and self.li_coeff == 1.0 + 0.0j

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BranchVector):
            return NotImplemented
        return self.li_coeff == other.li_coeff and self.m_coeffs == other.m_coeffs

    def __hash__(self) -> int:
        return hash((self.li_coeff, tuple(sorted(self.m_coeffs.items()))))


@dataclass(frozen=True)
class EvalResult:
    """Value, an error estimate that bounds the truncation error, and the
    tag of the backend that produced it."""

    value: complex
    err_estimate: float
    method: str

    def __post_init__(self) -> None:
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError("evaluation produced a non-finite value")
        if not (self.err_estimate >= 0.0):
            raise ValueError("error estimate must be nonnegative")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "err_estimate", float(self.err_estimate))


def m_alpha_k(
    a: Order,
    z: complex,
    k: int,
    *,
    log_z: complex | None = None,
) -> complex:
    """The branch term C_alpha * (Log z + 2*pi*i*k)^(alpha-1).

    `log_z` overrides the principal Log z; pass Log z + 2*pi*i*j to
    shift the whole index lattice by j (then m_alpha_k(a, z, k) equals
    m_alpha_k(a, z, 0, log_z=Log z + 2*pi*i*k) exactly).

    The outer power uses the [0, 2*pi) argument convention, see the
    module docstring.  Integer alpha is rejected (C_alpha degenerates);
    z = 1 with k = 0 is rejected (the power's base vanishes).
    """
    alpha = a.alpha
    if a.is_integer():
        raise DomainError(
            f"branch terms need non-integer order, got alpha = {alpha}",
            pole=a.nearest_integer,
        )
    base = (principal_log(z) if log_z is None else complex(log_z)) + TWO_PI * 1j * k
    if base == 0:
        raise DomainError("branch term undefined: log z + 2*pi*i*k = 0 (z on the k = 0 ray at 1)")
    return c_alpha(a) * cmath.exp((alpha - 1.0) * log_pos_cut(base))


def branch_value(a: Order, v: BranchVector, z: complex, base: EvalResult) -> EvalResult:
    """Combine a principal-sheet evaluation with branch terms.

    Returns li_coeff * base.value + sum_k m_coeffs[k] * M_alpha[k](z).
    The M_alpha[k] are closed forms accurate to a few ulps, so the error
    estimate is |li_coeff| * base.err plus an ulp-level term per branch
    contribution.
    """
    total = v.li_coeff * base.value
    err = abs(v.li_coeff) * base.err_estimate
    for k, mu in sorted(v.m_coeffs.items()):
        term = mu * m_alpha_k(a, z, k)
        total += term
        err += 8.0 * _EPS * abs(term)
    method = base.method if v.is_li_only else "CoverTransport"
    return EvalResult(value=total, err_estimate=err, method=method)


__all__ = [
    "EPS_CUT",
    "EPS_INT",
    "GENERATORS",
    "BranchVector",
    "CoverPoint",
    "EvalResult",
    "PathWord",
    "branch_value",
    "format_word",
    "log_pos_cut",
    "m_alpha_k",
    "parse_word",
    "reduce_word",
]
