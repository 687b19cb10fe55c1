"""Jonquiere's relation: the backend, its dispatch gate, the batched row
path, and the seeded honesty sweep against frozen mpmath values."""

import cmath
import math

import pytest

from fracpolylog import (
    DEFAULT_CONFIG,
    ConvergenceError,
    DomainError,
    FracpolylogError,
    Order,
    ToleranceConfig,
    eval_auto,
    eval_auto_many,
    eval_jonquiere,
    eval_on_cut,
    gamma,
)
from fracpolylog.evaluators import _jonquiere_reach

from .oracles import frozen_complex, frozen_real, frozen_sweep, sweep_points

SWEEP = list(zip(sweep_points(), frozen_sweep()))


def test_sweep_oracles_line_up_with_the_points():
    assert len(sweep_points()) == len(frozen_sweep())


def test_jonquiere_is_honest_on_the_sweep():
    for (kind, alpha, z, side), want in SWEEP:
        res = eval_jonquiere(Order.of(alpha), z, side=side)
        assert res.method == "Jonquiere"
        assert abs(res.value - want) <= res.err_estimate, (kind, alpha, z, side)


def test_eval_auto_is_honest_on_the_sweep():
    methods = {}
    for (kind, alpha, z, side), want in SWEEP:
        a = Order.of(alpha)
        try:
            res = eval_on_cut(a, z.real, side) if side else eval_auto(a, z)
        except ConvergenceError:
            # the contour next to z = 1 at near-integer orders; a typed
            # failure, never a wrong value
            assert kind == "nearint"
            continue
        methods[res.method] = methods.get(res.method, 0) + 1
        assert abs(res.value - want) <= res.err_estimate, (kind, alpha, z, side, res.method)
    assert methods.get("Jonquiere", 0) >= 100
    assert methods.get("Hankel", 0) >= 10


class TestBackend:
    def test_against_integral_anchors(self):
        for alpha, z, name in ((0.5, -2.0, "ia_half_m2"), (0.5, -10.0, "ia_half_m10"),
                               (1.5, -2.0, "ia_3half_m2"), (0.3 + 0.7j, -2.0, "ia_calpha_m2")):
            res = eval_jonquiere(Order.of(alpha), z)
            assert abs(res.value - frozen_complex(name)) <= res.err_estimate

    def test_inside_disk_against_series_oracle(self):
        res = eval_jonquiere(Order.of(0.5), 0.9)
        assert abs(res.value - frozen_real("li_half_0p9")) <= res.err_estimate
        assert abs(res.value.imag) < 1e-14

    def test_continuous_across_the_negative_axis(self):
        # arg z = pi takes the upper shift, arg z = -pi + 0 the lower one
        a = Order.of(0.3 + 0.7j)
        upper = eval_jonquiere(a, complex(-3.0, 0.0))
        lower = eval_jonquiere(a, complex(-3.0, -1e-15))
        assert abs(upper.value - lower.value) <= upper.err_estimate + lower.err_estimate + 1e-14

    def test_side_limits_are_exact(self):
        # the jump across the cut is 2 pi i (log x)^(alpha-1) / Gamma(alpha)
        for alpha, x in ((0.5, 2.0), (-1.5, 1.001), (0.3 + 0.7j, 300.0)):
            a = Order.of(alpha)
            above = eval_jonquiere(a, x, side="above")
            below = eval_jonquiere(a, x, side="below")
            closed = TWO_PI_I / gamma(a.alpha) * cmath.exp((a.alpha - 1.0) * math.log(math.log(x)))
            budget = above.err_estimate + below.err_estimate + 1e-13 * abs(closed)
            assert abs((above.value - below.value) - closed) <= budget

    def test_side_limits_match_points_just_off_the_cut(self):
        a = Order.of(-0.5 + 1.0j)
        for side, sign in (("above", 1.0), ("below", -1.0)):
            limit = eval_jonquiere(a, 5.0, side=side)
            near = eval_jonquiere(a, complex(5.0, sign * 1e-11))
            assert abs(limit.value - near.value) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_jonquiere(Order.of(2.0), -3.0)
        with pytest.raises(DomainError):
            eval_jonquiere(Order.of(0.5), 2.0)
        with pytest.raises(DomainError):
            eval_jonquiere(Order.of(0.5), 0.5, side="above")
        with pytest.raises(DomainError):
            eval_jonquiere(Order.of(0.5), 1.0)
        with pytest.raises(ValueError):
            eval_jonquiere(Order.of(0.5), 2.0, side="left")


TWO_PI_I = 2j * math.pi


class TestGate:
    def test_admits_small_and_negative_orders_everywhere(self):
        for alpha in (0.5, 0.3 + 0.7j, -3.5, -20.5 + 2.0j):
            assert _jonquiere_reach(Order.of(alpha), DEFAULT_CONFIG) > 1e3

    def test_rejects_large_orders_and_near_cancelling_ones(self):
        for alpha in (6.5, 3.3, 1e-6, 1.0 + 1e-6, 2.0 - 1e-6j, 2.0):
            assert _jonquiere_reach(Order.of(alpha), DEFAULT_CONFIG) == -math.inf

    def test_tiny_positive_real_part(self):
        # the estimate is nearly flat in |Log z| here; the search for its
        # root once overshot into the log of a negative number
        for alpha, z in ((1.52587890625e-4, -0.2767 + 1.3498j), (8.4e-5 - 4.902j, 83.67 - 18.44j)):
            a = Order.of(alpha)
            assert _jonquiere_reach(a, DEFAULT_CONFIG) > 1e3
            assert eval_auto(a, z).method == "Jonquiere"

    def test_reach_grows_with_the_target(self):
        a = Order.of(2.8)
        tight = _jonquiere_reach(a, DEFAULT_CONFIG)
        loose = _jonquiere_reach(a, ToleranceConfig(target_abs_err=1e-6))
        assert 0.0 < tight < loose

    def test_on_cut_uses_the_gate(self):
        assert eval_on_cut(Order.of(0.5), 2.0, "above").method == "Jonquiere"
        assert eval_on_cut(Order.of(6.5), 2.0, "above").method == "Hankel"


class TestMany:
    ZS = (
        0.0, 1.0, 2.0, 2.0 + 1e-13j, 0.25, 0.3 + 0.2j, 0.95, -3.0, 0.7 + 0.7j,
        -40.0 + 25.0j, 1e5 - 3e5j, 1.0 + 1e-6j, complex("inf"), 1.5 - 0.8j,
    )

    @pytest.mark.parametrize("alpha", [0.5, -0.5, 2.8, 6.5, 1.0, 2.0, -2.0, 0.3 + 0.7j])
    def test_bitwise_equal_to_eval_auto(self, alpha):
        a = Order.of(alpha)
        for z, got in zip(self.ZS, eval_auto_many(a, self.ZS)):
            try:
                want = eval_auto(a, z)
            except FracpolylogError as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            assert got == want, (alpha, z)
