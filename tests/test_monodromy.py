import cmath
import math
import random

import pytest

from fracpolylog import (
    BranchVector,
    CoverPoint,
    DEFAULT_CONFIG,
    DomainError,
    Order,
    apply_generator,
    eval_auto,
    eval_cover,
    m_alpha_k,
    ml_equivariance_check,
    parse_word,
    transport,
)

A_HALF = Order.of(0.5)
E_HALF = cmath.exp(2j * math.pi * 0.5)  # loop factor at alpha = 1/2


def loop_factor(a: Order) -> complex:
    return cmath.exp(2j * math.pi * a.alpha)


class TestGenerators:
    def test_loop_around_zero_fixes_pure_li(self):
        v = BranchVector(li_coeff=1.0)
        assert apply_generator(v, "c0", A_HALF) == v

    def test_loop_around_zero_shifts_branch_indices(self):
        v = BranchVector(li_coeff=0.0, m_coeffs={0: 1.0})
        got = apply_generator(v, "c0", A_HALF)
        assert got == BranchVector(li_coeff=0.0, m_coeffs={1: 1.0})
        back = apply_generator(got, "c0inv", A_HALF)
        assert back == v

    def test_loop_around_one_adds_branch_term(self):
        v = BranchVector(li_coeff=1.0)
        got = apply_generator(v, "c1", A_HALF)
        want = BranchVector(li_coeff=1.0, m_coeffs={0: E_HALF - 1.0})
        assert got.li_coeff == want.li_coeff
        assert got.m_coeffs[0] == pytest.approx(E_HALF - 1.0)

    def test_loop_around_one_scales_existing_m0(self):
        v = BranchVector(li_coeff=0.0, m_coeffs={0: 1.0})
        got = apply_generator(v, "c1", A_HALF)
        assert got.m_coeffs[0] == pytest.approx(loop_factor(A_HALF))

    def test_c1_inverse_round_trip(self):
        a = Order.of(0.3 + 0.2j)
        v = BranchVector(li_coeff=1.5 - 0.5j, m_coeffs={-1: 0.7j, 0: 2.0, 3: -1.0})
        there = apply_generator(v, "c1", a)
        back = apply_generator(there, "c1inv", a)
        assert back.li_coeff == v.li_coeff
        for k, mu in v.m_coeffs.items():
            assert back.m_coeffs[k] == pytest.approx(mu, abs=1e-14)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            apply_generator(BranchVector(), "c2", A_HALF)

    def test_integer_order_rejected(self):
        with pytest.raises(DomainError):
            apply_generator(BranchVector(), "c1", Order.of(1.0))


class TestTransport:
    def test_identity_word(self):
        v = transport(parse_word(""), A_HALF)
        assert v == BranchVector()

    def test_single_loop_around_one(self):
        v = transport(parse_word("c1"), A_HALF)
        assert v.li_coeff == 1.0
        assert v.m_coeffs[0] == pytest.approx(E_HALF - 1.0)

    def test_conjugated_loop_lands_on_shifted_index(self):
        # c0 c1 c0^-1 marks the loop around 1 as seen one sheet up
        v = transport(parse_word("c0 c1 c0^-1"), A_HALF)
        assert set(v.m_coeffs) == {1}
        assert v.m_coeffs[1] == pytest.approx(E_HALF - 1.0)

    def test_word_times_inverse_transports_to_identity(self):
        rng = random.Random(77)
        gens = ["c0", "c1"]
        for _ in range(25):
            letters = " ".join(
                f"{rng.choice(gens)}^{rng.choice([-2, -1, 1, 2])}" for _ in range(rng.randint(1, 6))
            )
            w = parse_word(letters)
            v = transport(w * w.inverse(), Order.of(0.3 + 0.2j))
            assert v.li_coeff == pytest.approx(1.0, abs=1e-13)
            for mu in v.m_coeffs.values():
                assert abs(mu) < 1e-13

    @pytest.mark.parametrize("alpha", [0.3 + 0.2j, -1.7, 2.5 - 0.4j, 9.5 + 0.5j])
    def test_run_of_loops_around_one_is_repeated_generator(self, alpha):
        # transport takes c1^n in closed form; n single steps must agree
        a = Order.of(alpha)
        for n in [k for k in range(-8, 9) if k]:
            got = transport(parse_word(f"c1^{n}"), a)
            want = BranchVector()
            for _ in range(abs(n)):
                want = apply_generator(want, "c1" if n > 0 else "c1inv", a)
            assert got.li_coeff == want.li_coeff
            assert set(got.m_coeffs) == set(want.m_coeffs) == {0}
            mu = want.m_coeffs[0]
            assert abs(got.m_coeffs[0] - mu) <= 1e-13 * max(1.0, abs(mu)), (alpha, n)

    def test_commutator_is_nontrivial(self):
        # the cover is genuinely non-abelian: [c0, c1] keeps branch terms
        v = transport(parse_word("c0 c1 c0^-1 c1^-1"), A_HALF)
        assert not BranchVector(li_coeff=v.li_coeff, m_coeffs=v.m_coeffs).is_li_only


class TestEvalCover:
    def test_base_sheet_matches_auto(self):
        p = CoverPoint(z=0.3)
        base = eval_auto(A_HALF, 0.3, DEFAULT_CONFIG)
        got = eval_cover(A_HALF, p, DEFAULT_CONFIG)
        assert got.value == base.value
        assert got.method == base.method

    def test_loop_around_zero_changes_nothing_on_li(self):
        p = CoverPoint(z=0.3, word=parse_word("c0"))
        base = eval_auto(A_HALF, 0.3, DEFAULT_CONFIG)
        got = eval_cover(A_HALF, p, DEFAULT_CONFIG)
        assert got.value == pytest.approx(base.value, abs=1e-14)
        assert got.method == "CoverTransport"

    def test_loop_around_one_subtracts_twice_m0_at_half(self):
        # at alpha = 1/2 the factor e^{2 pi i alpha} - 1 equals -2
        p = CoverPoint(z=0.3, word=parse_word("c1"))
        base = eval_auto(A_HALF, 0.3, DEFAULT_CONFIG)
        got = eval_cover(A_HALF, p, DEFAULT_CONFIG)
        want = base.value - 2.0 * m_alpha_k(A_HALF, 0.3, 0)
        assert got.value == pytest.approx(want, rel=1e-12)

    def test_unwound_value_is_single_valued(self):
        # pushing along w and coming back along w^-1 restores the value
        w = parse_word("c1 c0^2 c1^-1")
        p = CoverPoint(z=-2.0 + 0.5j, word=w * w.inverse())
        base = eval_auto(A_HALF, -2.0 + 0.5j, DEFAULT_CONFIG)
        got = eval_cover(A_HALF, p, DEFAULT_CONFIG)
        assert got.value == pytest.approx(base.value, rel=1e-12)


class TestEquivariance:
    def test_residual_is_exactly_zero(self):
        for a in (A_HALF, Order.of(0.3 + 0.2j), Order.of(-1.7)):
            rep = ml_equivariance_check(a)
            assert rep.residual == 0.0
            assert rep.tail_truncated

    def test_misstated_action_misses_by_exactly_one(self):
        # the plausible-but-wrong variant (E - 1 scaling instead of E on
        # the existing m0) differs by one unit of M[0] forever
        rep = ml_equivariance_check(A_HALF)
        assert rep.variation_residual == 1.0

    def test_truncation_recorded(self):
        rep = ml_equivariance_check(A_HALF, truncation=17)
        assert rep.truncation == 17
