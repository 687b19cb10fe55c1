import cmath
import math
import random

import pytest

from fracpolylog import (
    ConvergenceError,
    DEFAULT_CONFIG,
    DomainError,
    Order,
    ToleranceConfig,
    UnsupportedError,
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
    principal_log,
)
from fracpolylog.evaluators import ON_CUT_MESSAGE

from .oracles import (
    SERIES_FLOOR_ALPHA,
    SERIES_FLOOR_Z,
    Z_EXP_M1,
    Z_EXP_MHALF,
    Z_HEX,
    frozen_complex,
    frozen_real,
)

LN2 = math.log(2.0)
CFG = DEFAULT_CONFIG


def assert_close_within(result, want, slack=1e-9):
    """The backend's own error estimate plus a small slack must cover
    the distance to the reference value."""
    diff = abs(result.value - complex(want))
    assert diff <= result.err_estimate + slack, (
        f"off by {diff:.3e}, claimed {result.err_estimate:.3e}"
    )


class TestToleranceConfig:
    def test_defaults_are_valid(self):
        assert CFG.target_abs_err == 1e-10

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            ToleranceConfig(target_abs_err=0.0)
        with pytest.raises(ValueError):
            ToleranceConfig(max_series_terms=-1)
        with pytest.raises(ValueError):
            ToleranceConfig(hankel_angle=2.0)  # must stay inside (0, pi/2)

    def test_replace_style_construction(self):
        loose = ToleranceConfig(target_abs_err=1e-6)
        assert loose.target_abs_err == 1e-6
        assert loose.max_series_terms == CFG.max_series_terms


class TestSeries:
    def test_log_order(self):
        r = eval_series(Order.of(1.0), 0.5, CFG)
        assert_close_within(r, LN2, slack=0.0)
        assert r.method == "Series"

    def test_rational_order(self):
        r = eval_series(Order.of(-1.0), 0.5, CFG)
        assert_close_within(r, 2.0, slack=0.0)

    def test_against_brute_force_table(self):
        cases = [
            (0.5, 0.25, "li_half_quarter"),
            (0.5, 0.9, "li_half_0p9"),
            (1.5, 0.5, "li_3half_0p5"),
            (-0.5, 0.3, "li_mhalf_0p3"),
            (-1.5, 0.3, "li_m3half_0p3"),
            (-0.5, Z_HEX, "li_mhalf_zhex"),
            (-1.5, Z_HEX, "li_m3half_zhex"),
            (0.3 + 0.7j, 0.3, "li_calpha_0p3"),
        ]
        for alpha, z, name in cases:
            r = eval_series(Order.of(alpha), z, CFG)
            assert_close_within(r, frozen_complex(name), slack=1e-13)

    def test_error_estimate_is_honest_near_the_rim(self):
        r = eval_series(Order.of(0.5), 0.9, CFG)
        assert abs(r.value - frozen_real("li_half_0p9")) <= r.err_estimate

    def test_rounding_floor_covers_large_exponents(self):
        # |n log z - alpha log n| reaches ~100 here; a floor of 8 ulp of the
        # term mass once claimed 92 against a true error of 104
        a = Order.of(SERIES_FLOOR_ALPHA)
        want = frozen_complex("li_series_floor")
        for res in (eval_series(a, SERIES_FLOOR_Z), eval_auto(a, SERIES_FLOOR_Z)):
            assert res.method == "Series"
            assert abs(res.value - want) <= res.err_estimate

    def test_tiny_budget_raises_with_achieved(self):
        tight = ToleranceConfig(target_abs_err=1e-10, max_series_terms=5)
        with pytest.raises(ConvergenceError) as exc:
            eval_series(Order.of(0.5), 0.9, tight)
        assert exc.value.achieved is not None
        assert exc.value.achieved > 1e-10

    def test_rejects_outside_disk(self):
        with pytest.raises(DomainError):
            eval_series(Order.of(0.5), 1.5, CFG)


class TestAppell:
    def test_dilogarithm_closed_form(self):
        want = math.pi**2 / 12 - LN2**2 / 2
        r = eval_appell(Order.of(2.0), 0.5, CFG)
        assert_close_within(r, want, slack=0.0)
        assert r.method == "Appell"

    def test_against_integral_anchors(self):
        for alpha, z, name in [
            (0.5, -2.0, "ia_half_m2"),
            (0.5, -10.0, "ia_half_m10"),
            (1.5, -2.0, "ia_3half_m2"),
            (0.3 + 0.7j, -2.0, "ia_calpha_m2"),
        ]:
            r = eval_appell(Order.of(alpha), z, CFG)
            assert_close_within(r, frozen_complex(name), slack=1e-12)

    def test_value_at_one_is_zeta(self):
        r = eval_appell(Order.of(1.5), 1.0, CFG)
        assert_close_within(r, frozen_real("zeta_3_2"), slack=1e-12)
        r = eval_appell(Order.of(2.5), 1.0, CFG)
        assert_close_within(r, frozen_real("zeta_5_2"), slack=1e-12)

    def test_at_one_needs_convergent_sum(self):
        with pytest.raises(DomainError):
            eval_appell(Order.of(0.5), 1.0, CFG)

    def test_requires_positive_real_order(self):
        with pytest.raises(DomainError):
            eval_appell(Order.of(-0.5), 0.3, CFG)

    def test_just_off_the_cut(self):
        # the integrand's pole sits a hair from the path; subtraction
        # must keep the estimate honest
        a = Order.of(1.0)
        delta = 1e-7
        up = eval_appell(a, 2.0 + 1j * delta, CFG)
        want = -cmath.log(1.0 - (2.0 + 1j * delta))
        assert abs(up.value - want) <= up.err_estimate + 1e-10


class TestHankel:
    def test_against_integral_anchors(self):
        for alpha, z, name in [
            (0.5, -2.0, "ia_half_m2"),
            (0.5, -10.0, "ia_half_m10"),
            (1.5, -2.0, "ia_3half_m2"),
            (0.3 + 0.7j, -2.0, "ia_calpha_m2"),
        ]:
            r = eval_hankel(Order.of(alpha), z, CFG)
            assert_close_within(r, frozen_complex(name), slack=1e-12)
            assert r.method == "Hankel"

    def test_inside_disk_against_series_table(self):
        r = eval_hankel(Order.of(0.5), 0.25, CFG)
        assert_close_within(r, frozen_real("li_half_quarter"), slack=1e-12)
        r = eval_hankel(Order.of(-1.5), Z_HEX, CFG)
        assert_close_within(r, frozen_complex("li_m3half_zhex"), slack=1e-12)

    def test_negative_orders_far_out(self):
        # closed form z/(1-z)^2 continues Li_{-1}; compare at a
        # non-integer order nearby through the series table instead
        r = eval_hankel(Order.of(-0.5), 0.3, CFG)
        assert_close_within(r, frozen_real("li_mhalf_0p3"), slack=1e-12)

    def test_integer_order_rejected(self):
        with pytest.raises(DomainError):
            eval_hankel(Order.of(2.0), 0.3, CFG)

    def test_on_cut_rejected(self):
        with pytest.raises(DomainError) as exc:
            eval_hankel(Order.of(0.5), 3.0, CFG)
        assert "cut" in str(exc.value)

    def test_raw_loop_relates_to_real_axis_integral(self):
        # the loop integral equals (1 - e^{2 pi i alpha}) Gamma(alpha)
        # times the real-axis one where both converge
        a = Order.of(0.5)
        z = 0.3
        loop, loop_err = hankel_contour_integral(a, z, CFG)
        line = eval_appell(a, z, CFG)
        factor = (1.0 - cmath.exp(2j * math.pi * a.alpha)) * math.gamma(0.5)
        assert abs(loop - factor * line.value) <= loop_err + abs(factor) * line.err_estimate + 1e-10


class TestMittagLeffler:
    def test_against_series_table(self):
        for alpha, z, name in [
            (-0.5, 0.3, "li_mhalf_0p3"),
            (-1.5, 0.3, "li_m3half_0p3"),
            (-0.5, Z_HEX, "li_mhalf_zhex"),
            (-1.5, Z_HEX, "li_m3half_zhex"),
        ]:
            r = eval_mittag_leffler(Order.of(alpha), z, CFG)
            assert_close_within(r, frozen_complex(name), slack=1e-12)
            assert r.method == "MittagLeffler"

    def test_branch_sum_converges_outside_disk(self):
        r = eval_mittag_leffler(Order.of(-0.5), -2.0, CFG)
        h = eval_hankel(Order.of(-0.5), -2.0, CFG)
        assert abs(r.value - h.value) <= r.err_estimate + h.err_estimate

    def test_requires_negative_real_part(self):
        with pytest.raises(DomainError):
            eval_mittag_leffler(Order.of(0.5), 0.3, CFG)

    def test_more_direct_terms_tightens_the_estimate(self):
        few = ToleranceConfig(ml_direct_terms=8)
        many = ToleranceConfig(ml_direct_terms=128)
        a = Order.of(-0.5)
        r_few = eval_mittag_leffler(a, 0.3, few)
        r_many = eval_mittag_leffler(a, 0.3, many)
        assert r_many.err_estimate < r_few.err_estimate
        assert abs(r_few.value - r_many.value) <= r_few.err_estimate + r_many.err_estimate


class TestZetaSeries:
    def test_against_series_table(self):
        r = eval_zeta_series(Order.of(-0.5), Z_EXP_M1, CFG)
        assert_close_within(r, frozen_real("li_mhalf_e_m1"), slack=1e-12)
        r = eval_zeta_series(Order.of(-1.5), Z_EXP_MHALF, CFG)
        assert_close_within(r, frozen_real("li_m3half_e_mhalf"), slack=1e-12)
        assert r.method == "ZetaSeries"

    def test_lower_half_plane_w(self):
        # the singular term carries the [0, 2 pi) branch; the principal
        # one would jump across the negative real w axis
        a = Order.of(-2.3)
        w = -1.2 - 0.8j
        r = eval_zeta_series(a, cmath.exp(w), CFG)
        s = eval_series(a, cmath.exp(w), CFG)
        assert abs(r.value - s.value) <= r.err_estimate + s.err_estimate

    def test_truncation_order_scales_linearly_in_w(self):
        # dropping everything past the constant term leaves O(w):
        # shrinking |w| tenfold shrinks the remainder about tenfold
        a = Order.of(-0.5)
        rem = []
        for w in (-1e-3, -1e-4):
            z = cmath.exp(w)
            full = eval_zeta_series(a, z, CFG).value
            # the singular term at the w the function forms from z
            sing = frozen_singular_term(a, principal_log(z))
            zeta0 = frozen_zeta_at(a)
            rem.append(abs(full - sing - zeta0))
        ratio = rem[0] / rem[1]
        assert 8.0 < ratio < 12.0

    def test_rejects_bad_domains(self):
        with pytest.raises(DomainError):
            eval_zeta_series(Order.of(0.5), Z_EXP_M1, CFG)  # Re alpha >= 0
        with pytest.raises(DomainError):
            eval_zeta_series(Order.of(-0.5), math.e, CFG)  # Re w >= 0
        with pytest.raises(DomainError):
            eval_zeta_series(Order.of(-0.5), math.exp(-7.0), CFG)  # |w| >= 2 pi


def frozen_singular_term(a: Order, w: complex) -> complex:
    from fracpolylog import c_alpha, log_pos_cut

    return c_alpha(a) * cmath.exp((a.alpha - 1.0) * log_pos_cut(complex(w)))


def frozen_zeta_at(a: Order) -> complex:
    from fracpolylog import riemann_zeta

    return riemann_zeta(a.alpha)


class TestNegIntClosed:
    def test_worked_examples(self):
        assert eval_negint_closed(Order.of(-1), 0.5).value == pytest.approx(2.0, abs=1e-14)
        assert eval_negint_closed(Order.of(-2), 0.5).value == pytest.approx(6.0, abs=1e-14)
        assert eval_negint_closed(Order.of(-1), -1.0).value == pytest.approx(-0.25, abs=1e-16)

    def test_rational_forms_deeper(self):
        # z (1 + 4 z + z^2) / (1 - z)^4 at z = 0.9
        z = 0.9
        want = z * (1 + 4 * z + z * z) / (1 - z) ** 4
        assert eval_negint_closed(Order.of(-3), z).value == pytest.approx(want, rel=1e-13)

    def test_against_series_inside_disk(self):
        for m in (1, 2, 3, 4):
            for z in (0.5, -0.5, 0.3 + 0.4j):
                closed = eval_negint_closed(Order.of(-m), z)
                series = eval_series(Order.of(float(-m)), z, CFG)
                assert abs(closed.value - series.value) <= (
                    closed.err_estimate + series.err_estimate
                )

    def test_method_tag_and_validation(self):
        assert eval_negint_closed(Order.of(-1), 0.5).method == "NegIntClosed"
        with pytest.raises(DomainError):
            eval_negint_closed(Order.of(0.5), 0.5)  # not a nonpositive integer
        assert eval_negint_closed(Order.of(0), 0.5).value == 1.0  # z / (1 - z)
        with pytest.raises(DomainError):
            eval_negint_closed(Order.of(-2), 1.0)

    def test_huge_z_gives_a_value_or_a_typed_error(self):
        # (1 - z)^(m+1) overflows long before the value does; that must be
        # a DomainError, never an OverflowError or a non-finite value
        for z in (1e80 + 1j, 1e200 + 1j):
            with pytest.raises(DomainError):
                eval_negint_closed(Order.of(-3), z)
        rng = random.Random(20)
        for m in range(21):
            for _ in range(40):
                z = cmath.rect(10.0 ** rng.uniform(0.0, 300.0), rng.uniform(-math.pi, math.pi))
                try:
                    r = eval_negint_closed(Order.of(-m), z)
                except DomainError:
                    continue
                assert cmath.isfinite(r.value) and math.isfinite(r.err_estimate)


class TestAsymptoticLeading:
    def test_grows_like_log_power(self):
        a = Order.of(0.5)
        z = -1e6
        lead = asymptotic_leading(a, z)
        want = -cmath.log(complex(z)) ** 0.5 / math.gamma(1.5)
        assert lead == pytest.approx(want, rel=1e-14)

    def test_relative_deviation_shrinks(self):
        a = Order.of(0.5)
        devs = []
        for z in (-1e3, -1e6):
            lead = asymptotic_leading(a, z)
            full = eval_hankel(a, z, CFG)
            devs.append(abs(full.value - lead) / abs(lead))
        assert devs[1] < devs[0] < 0.3

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            asymptotic_leading(Order.of(-0.5), -10.0)
        with pytest.raises(DomainError):
            asymptotic_leading(Order.of(0.5), 0.5)


class TestDispatch:
    def test_closed_form_wins_for_nonpositive_integers(self):
        assert eval_auto(Order.of(-2.0), 0.7).method == "NegIntClosed"
        assert eval_auto(Order.of(0.0), 0.7).method == "NegIntClosed"

    def test_half_disk_goes_to_series(self):
        assert eval_auto(Order.of(0.5), 0.5).method == "Series"
        assert eval_auto(Order.of(1.0), 0.5).method == "Series"

    def test_left_neighborhood_of_one_uses_zeta_expansion(self):
        r = eval_auto(Order.of(-0.5), 0.95)
        assert r.method == "ZetaSeries"

    def test_contour_handles_the_rest(self):
        # an order whose Hurwitz terms cancel too much for the Jonquiere gate
        assert eval_auto(Order.of(6.5), -3.0).method == "Hankel"
        assert eval_auto(Order.of(6.5), 0.7 + 0.7j).method == "Hankel"

    def test_jonquiere_takes_admitted_orders(self):
        assert eval_auto(Order.of(0.5), -3.0).method == "Jonquiere"
        assert eval_auto(Order.of(0.5), 0.7 + 0.7j).method == "Jonquiere"

    def test_order_one_is_the_logarithm_off_the_cut(self):
        from mpmath import log, mp, mpc

        for z in (-3.0, 0.7 + 0.7j, 0.9, 1e6j, -1e6 + 1.0j, 2.0 + 1e-3j, 2.0 - 1e-3j, 1.0 + 1e-8j):
            r = eval_auto(Order.of(1.0), z)
            assert r.method == "LogClosed"
            with mp.workdps(30):
                want = complex(-log(1 - mpc(z.real, z.imag)))
            assert abs(r.value - want) <= r.err_estimate, z

    def test_positive_integer_order_inside_disk_uses_integral(self):
        assert eval_auto(Order.of(2.0), 0.9).method == "Appell"

    def test_positive_integer_order_outside_disk_unsupported(self):
        with pytest.raises(UnsupportedError):
            eval_auto(Order.of(2.0), -3.0)

    def test_branch_cut_rejected_with_guidance(self):
        with pytest.raises(DomainError) as exc:
            eval_auto(Order.of(0.5), 2.0)
        assert str(exc.value) == ON_CUT_MESSAGE

    def test_branch_points_rejected(self):
        with pytest.raises(DomainError):
            eval_auto(Order.of(0.5), 0.0)
        with pytest.raises(DomainError):
            eval_auto(Order.of(0.5), 1.0)

    def test_all_routes_agree_at_a_crossroads(self):
        # z = exp(-1) sits inside the half disk, the zeta expansion's
        # window, and every integral's domain at alpha = -1/2
        a = Order.of(-0.5)
        want = frozen_real("li_mhalf_e_m1")
        for fn in (eval_series, eval_hankel, eval_mittag_leffler):
            r = fn(a, Z_EXP_M1, CFG)
            assert_close_within(r, want, slack=1e-12)
        r = eval_zeta_series(a, Z_EXP_M1, CFG)
        assert_close_within(r, want, slack=1e-12)


class TestOnCut:
    def test_log_order_jump_is_two_pi_i(self):
        a = Order.of(1.0)
        up = eval_on_cut(a, 2.0, "above", CFG)
        down = eval_on_cut(a, 2.0, "below", CFG)
        jump = up.value - down.value
        assert jump == pytest.approx(2j * math.pi, abs=1e-9)

    def test_sides_are_conjugate_for_real_order(self):
        a = Order.of(0.5)
        up = eval_on_cut(a, 2.0, "above", CFG)
        down = eval_on_cut(a, 2.0, "below", CFG)
        assert up.value == pytest.approx(down.value.conjugate(), abs=1e-8)

    def test_nonpositive_integer_order_has_no_jump(self):
        a = Order.of(-1.0)
        up = eval_on_cut(a, 2.0, "above", CFG)
        want = 2.0 / (1.0 - 2.0) ** 2
        assert up.value == pytest.approx(want, abs=1e-12)
        assert up.method == "NegIntClosed"

    def test_rejects_points_too_close_to_one(self):
        with pytest.raises(DomainError):
            eval_on_cut(Order.of(0.5), 1.0 + 1e-9, "above", CFG)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            eval_on_cut(Order.of(0.5), 2.0, "sideways", CFG)
