import cmath
import math
import random

import numpy as np
import pytest

from fracpolylog import (
    DomainError,
    Order,
    c_alpha,
    gamma,
    hurwitz_zeta,
    principal_log,
    principal_pow,
    riemann_zeta,
)
from fracpolylog.kernel import rounding_floor

from .oracles import frozen_real

SQRT_PI = math.sqrt(math.pi)


class TestOrder:
    def test_of_accepts_reals_and_complex(self):
        assert Order.of(0.5).alpha == 0.5 + 0j
        assert Order.of(1 + 2j).alpha == 1 + 2j

    def test_integer_detection(self):
        assert Order.of(3.0).is_integer()
        assert Order.of(3.0 + 4e-10j).is_integer()
        assert not Order.of(0.5).is_integer()
        assert not Order.of(3.0 + 1e-6j).is_integer()

    def test_nearest_integer_and_distance(self):
        a = Order.of(2.9999999998)
        assert a.nearest_integer == 3
        assert a.integer_distance == pytest.approx(2e-10, rel=1e-3)
        assert Order.of(-1.5).nearest_integer in (-2, -1)
        assert Order.of(-1.5).integer_distance == pytest.approx(0.5)

    def test_custom_tolerance(self):
        a = Order.of(2.0 + 1e-6j)
        assert not a.is_integer()
        assert a.is_integer(eps_int=1e-3)


class TestPrincipalLog:
    def test_positive_real(self):
        assert principal_log(math.e) == pytest.approx(1.0)

    def test_negative_real_gets_plus_pi(self):
        # both signed zeros on the imaginary part land on the upper rim
        assert principal_log(complex(-2.0, 0.0)).imag == pytest.approx(math.pi)
        assert principal_log(complex(-2.0, -0.0)).imag == pytest.approx(math.pi)

    def test_lower_half_plane_stays_negative(self):
        assert principal_log(complex(-2.0, -1e-12)).imag < 0

    def test_rejects_zero_and_nonfinite(self):
        with pytest.raises(DomainError):
            principal_log(0.0)
        with pytest.raises(DomainError):
            principal_log(complex(math.inf, 0.0))

    def test_pow_on_negative_axis(self):
        # (-1)^(-3/2) = exp(-3/2 * i pi) = i on the principal branch
        v = principal_pow(-1.0, -1.5)
        assert v == pytest.approx(1j, abs=1e-15)


class TestGamma:
    def test_half_integer_values(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)
        assert gamma(1.5) == pytest.approx(SQRT_PI / 2, rel=1e-14)
        assert gamma(-0.5) == pytest.approx(-2 * SQRT_PI, rel=1e-14)

    def test_factorials(self):
        for n in range(1, 12):
            assert gamma(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-13)

    def test_recurrence_at_random_points(self):
        rng = random.Random(20240917)
        for _ in range(50):
            s = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if Order.of(s).integer_distance < 1e-2 and s.real < 0.5:
                continue
            lhs = gamma(s + 1)
            rhs = s * gamma(s)
            assert abs(lhs - rhs) / max(1.0, abs(lhs)) < 1e-12

    def test_conjugate_symmetry(self):
        s = 2.3 + 1.7j
        assert gamma(s.conjugate()) == pytest.approx(gamma(s).conjugate(), rel=1e-13)

    def test_matches_stdlib_on_the_real_line(self):
        for x in (0.1, 0.37, 2.5, 7.25, 12.0):
            assert gamma(x).real == pytest.approx(math.gamma(x), rel=1e-13)
            assert gamma(x).imag == 0.0

    def test_poles_and_range(self):
        for n in (0, -1, -2, -7):
            with pytest.raises(DomainError) as exc:
                gamma(float(n))
            assert exc.value.pole == n
        with pytest.raises(DomainError):
            gamma(40.0)


class TestZeta:
    def test_closed_forms(self):
        assert riemann_zeta(2.0).real == pytest.approx(math.pi**2 / 6, rel=1e-14)
        assert riemann_zeta(4.0).real == pytest.approx(math.pi**4 / 90, rel=1e-14)
        assert riemann_zeta(0.0).real == pytest.approx(-0.5, rel=1e-14)
        assert riemann_zeta(-1.0).real == pytest.approx(-1.0 / 12.0, rel=1e-14)
        assert riemann_zeta(-2.0).real == pytest.approx(0.0, abs=1e-15)

    def test_against_direct_dirichlet_summation(self):
        assert riemann_zeta(1.5).real == pytest.approx(frozen_real("zeta_3_2"), abs=1e-13)
        assert riemann_zeta(2.5).real == pytest.approx(frozen_real("zeta_5_2"), abs=1e-13)

    def test_functional_equation_via_stdlib_gamma(self):
        # chi(s) built from math/cmath only, zeta(2.5) from the frozen
        # Dirichlet table: an all-external route to zeta(-1.5)
        s = -1.5
        chi = 2.0**s * math.pi ** (s - 1) * math.sin(math.pi * s / 2) * math.gamma(1 - s)
        want = chi * frozen_real("zeta_5_2")
        assert riemann_zeta(s).real == pytest.approx(want, abs=1e-13)

    def test_pole_and_range(self):
        with pytest.raises(DomainError):
            riemann_zeta(1.0)
        with pytest.raises(DomainError):
            riemann_zeta(32.0)


class TestCAlpha:
    def test_half_order_values(self):
        # e^{i pi(-a-1)} Gamma(1-a) at a = 1/2 is i sqrt(pi), at a = -1/2
        # it is -i sqrt(pi)/2
        assert c_alpha(Order.of(0.5)) == pytest.approx(1j * SQRT_PI, abs=1e-14)
        assert c_alpha(Order.of(-0.5)) == pytest.approx(-0.5j * SQRT_PI, abs=1e-14)

    def test_accepts_plain_complex(self):
        assert c_alpha(0.5) == c_alpha(Order.of(0.5))

    def test_reflection_against_direct_product(self):
        for a in (0.3 + 0.4j, -1.2, 2.7 - 0.9j):
            want = cmath.exp(1j * math.pi * (-a - 1)) * gamma(1 - a)
            got = c_alpha(Order.of(a))
            assert got == pytest.approx(want, rel=1e-13)

    def test_integer_order_rejected(self):
        with pytest.raises(DomainError) as exc:
            c_alpha(Order.of(2.0))
        assert exc.value.pole == 2


class TestHurwitzZeta:
    CATALAN = 0.915965594177219015054603514932

    def check(self, s, shift, want):
        value, remainder, floor = hurwitz_zeta(s, np.array([shift]))
        assert abs(value[0] - want) <= remainder[0] + floor[0], (s, shift)

    def test_unit_shift_is_riemann_zeta(self):
        self.check(1.5, 1.0, frozen_real("zeta_3_2"))
        self.check(2.5, 1.0, frozen_real("zeta_5_2"))

    def test_half_shift_and_quarter_shift(self):
        # zeta(s, 1/2) = (2^s - 1) zeta(s); zeta(2, 1/4) = pi^2 + 8 G
        self.check(1.5, 0.5, (2.0 ** 1.5 - 1.0) * frozen_real("zeta_3_2"))
        self.check(2.0, 0.25, math.pi ** 2 + 8.0 * self.CATALAN)

    def test_shift_recurrence_off_the_real_axis(self):
        # zeta(s, a) - zeta(s, a + 1) = a^(-s), left of the abscissa too
        for s in (0.5 + 3j, -2.5 + 1j, 12.0 - 4j):
            a = np.array([0.3 + 0.8j, 0.05 - 2.0j])
            value, rem, floor = hurwitz_zeta(s, a)
            shifted, rem1, floor1 = hurwitz_zeta(s, a + 1.0)
            for k in range(2):
                lhs = value[k] - shifted[k]
                rhs = cmath.exp(-s * cmath.log(a[k]))
                assert abs(lhs - rhs) <= rem[k] + floor[k] + rem1[k] + floor1[k] + 4e-16 * abs(rhs)

    def test_one_shift_is_bitwise_a_row_entry(self):
        rng = random.Random(3)
        row = np.array([complex(rng.random(), rng.uniform(-3.0, 3.0)) for _ in range(37)])
        for s in (0.7 - 0.7j, -3.2, 21.0 + 2.0j):
            batch = hurwitz_zeta(s, row)
            for k in (0, 17, 36):
                single = hurwitz_zeta(s, row[k : k + 1])
                for got, want in zip(single, batch):
                    assert got[0] == want[k]

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0, np.array([0.5]))
        with pytest.raises(DomainError):
            hurwitz_zeta(-29.5, np.array([0.5]))


class TestRoundingFloor:
    def test_scales_with_the_exponent(self):
        terms = np.array([[1.0, 2.0]])
        assert rounding_floor(terms, np.zeros((1, 2)))[0] == pytest.approx(24.0 * 2.0 ** -52)
        assert rounding_floor(terms, np.array([[100.0, 0.0]]))[0] == pytest.approx(124.0 * 2.0 ** -52)
