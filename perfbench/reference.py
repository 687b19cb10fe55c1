"""Independent reference values in mpmath, for the correctness check.

Nothing here calls the package: the principal-sheet value comes from
``mpmath.polylog``, side limits from ``polylog`` a hair above or below
the cut, and cover values from a branch vector transported here in
extended precision, combined with branch terms built here.  The branch
conventions are those the package documents: principal Log z, and the
outer power of M_alpha[k] = C_alpha (Log z + 2 pi i k)^(alpha-1) taken
with its argument in [0, 2 pi).
"""

from __future__ import annotations

import mpmath as mp

DPS = 30

# The rounding slack the test suite allows on top of a backend's own
# err_estimate: 1e-9 absolute (tests/test_evaluators.py) or 1e-12 relative
# to the value (tests/test_acceptance.py, criterion 11), whichever is larger.
SLACK_ABS = 1e-9
SLACK_REL = 1e-12


def _mpc(z: complex) -> mp.mpc:
    return mp.mpc(z.real, z.imag)


def li(alpha: complex, z: complex) -> complex:
    """Li_alpha(z) on the principal sheet."""
    with mp.workdps(DPS):
        return complex(mp.polylog(_mpc(alpha), _mpc(z)))


def side_limit(alpha: complex, x: float, side: str) -> complex:
    sign = 1 if side == "above" else -1
    with mp.workdps(DPS + 10):
        return complex(mp.polylog(_mpc(alpha), mp.mpc(x, sign * mp.mpf("1e-30"))))


def _log_pos_cut(w):
    val = mp.log(w)
    return val + 2j * mp.pi if mp.im(val) < 0 else val


def cover(alpha: complex, z: complex, letters) -> complex:
    """li * Li_alpha(z) + sum_k mu_k M_alpha[k](z) for the branch vector
    (li, mu) reached along `letters`, rightmost letter first:
    c0 shifts k -> k + 1; c1 sends (li, mu_0) to (li, E mu_0 + (E - 1) li)
    with E = exp(2 pi i alpha)."""
    with mp.workdps(DPS):
        a = _mpc(alpha)
        zz = _mpc(z)
        e = mp.exp(2j * mp.pi * a)
        lam = mp.mpc(1)
        mu: dict[int, mp.mpc] = {}
        for gen, exp in reversed(letters):
            if gen == "c0":
                mu = {k + exp: c for k, c in mu.items()}
                continue
            for _ in range(abs(exp)):
                mu0 = mu.get(0, mp.mpc(0))
                mu[0] = e * mu0 + (e - 1) * lam if exp > 0 else (mu0 - (e - 1) * lam) / e
        total = lam * mp.polylog(a, zz)
        c_alpha = mp.exp(1j * mp.pi * (-a - 1)) * mp.gamma(1 - a)
        log_z = mp.log(zz)
        for k, c in mu.items():
            total += c * c_alpha * mp.exp((a - 1) * _log_pos_cut(log_z + 2j * mp.pi * k))
        return complex(total)


def violates(value: complex, err: float, ref: complex) -> bool:
    return abs(ref - value) > err + max(SLACK_ABS, SLACK_REL * abs(ref))
