"""The package's acceptance gate: twelve end-to-end criteria.

Each function checks one numbered criterion at its stated tolerance;
the conftest hook echoes a PASS/FAIL line per criterion after the run.
Reference values come from the independent extended-precision oracles
frozen in tests/oracles.py, never from the code under test.
"""

import cmath
import json
import math
import random
import subprocess
import sys
import time

from fracpolylog import (
    DEFAULT_CONFIG,
    Order,
    PathWord,
    ToleranceConfig,
    asymptotic_leading,
    c_alpha,
    crosscheck_point,
    eval_appell,
    eval_auto,
    eval_hankel,
    eval_jonquiere,
    eval_mittag_leffler,
    eval_negint_closed,
    eval_on_cut,
    eval_series,
    eval_zeta_series,
    gamma,
    ladder_check,
    ml_equivariance_check,
    riemann_zeta,
    transport,
)
from fracpolylog.cli import main
from fracpolylog.evaluators import ON_CUT_MESSAGE

from .oracles import Z_HEX, frozen_complex, frozen_real

# the shared 6 x 6 probe grid: orders x arguments
GRID_ALPHAS = (0.5, -0.5, 1.5, -1.5, 0.3 + 0.7j, -1.2 - 0.4j)
GRID_ZS = (
    0.3 + 0.0j,
    0.6 * cmath.exp(1j * math.pi / 3.0),
    -2.0 + 0.0j,
    -10.0 + 0.0j,
    0.9 + 0.0j,
    1.5 + 0.8j,
)


def test_criterion_01_every_backend_pair_agrees_on_the_probe_grid():
    start = time.perf_counter()
    failures = []
    measured_pairs = 0
    for alpha in GRID_ALPHAS:
        for z in GRID_ZS:
            for rep in crosscheck_point(Order.of(alpha), z):
                if rep.name.startswith("agree/pair["):
                    measured_pairs += 1
                if not rep.passed:
                    failures.append(
                        f"{rep.name} {rep.inputs}: {rep.measured:.3e} > {rep.bound:.3e}"
                    )
    elapsed = time.perf_counter() - start
    assert not failures, "disagreeing backend pairs:\n" + "\n".join(failures)
    assert measured_pairs >= 20, f"only {measured_pairs} backend pairs were comparable"
    assert elapsed < 60.0, f"grid sweep took {elapsed:.1f} s"


def test_criterion_02_integral_at_one_matches_the_zeta_oracle():
    for alpha, name in ((1.5, "zeta_3_2"), (2.5, "zeta_5_2")):
        res = eval_appell(Order.of(alpha), 1.0 + 0.0j)
        diff = abs(res.value - frozen_real(name))
        assert diff <= 1e-8, f"alpha={alpha}: off the Dirichlet oracle by {diff:.3e}"


def test_criterion_03_branch_term_sum_matches_the_series():
    anchors = {
        (-0.5, 0.3 + 0.0j): frozen_real("li_mhalf_0p3") + 0.0j,
        (-1.5, 0.3 + 0.0j): frozen_real("li_m3half_0p3") + 0.0j,
        (-0.5, Z_HEX): frozen_complex("li_mhalf_zhex"),
        (-1.5, Z_HEX): frozen_complex("li_m3half_zhex"),
    }
    for (alpha, z), oracle in anchors.items():
        a = Order.of(alpha)
        ml = eval_mittag_leffler(a, z)
        series = eval_series(a, z)
        assert abs(ml.value - series.value) <= 1e-8, f"alpha={alpha} z={z}"
        # both routes must also sit on the independent oracle
        assert abs(ml.value - oracle) <= 1e-8, f"alpha={alpha} z={z} vs oracle"
        assert abs(series.value - oracle) <= 1e-8, f"alpha={alpha} z={z} vs oracle"


def test_criterion_04_zeta_expansion_matches_the_series():
    for alpha, w in ((-1.5, -0.5 + 0.0j), (-0.5, -1.0 + 0.0j)):
        a = Order.of(alpha)
        via_w = eval_zeta_series(a, cmath.exp(w))
        via_z = eval_series(a, cmath.exp(w))
        diff = abs(via_w.value - via_z.value)
        assert diff <= 1e-8, f"alpha={alpha} w={w}: routes differ by {diff:.3e}"


def test_criterion_05_cut_jump_matches_the_closed_form():
    for alpha in (0.5, 1.5):
        a = Order.of(alpha)
        for x in (2.0, 10.0):
            above = eval_on_cut(a, x, "above")
            below = eval_on_cut(a, x, "below")
            jump = above.value - below.value
            # closed form built from the math module only
            closed = 2.0j * math.pi * math.log(x) ** (alpha - 1.0) / math.gamma(alpha)
            rel = abs(jump - closed) / abs(closed)
            assert rel < 1e-5, f"alpha={alpha} x={x}: relative error {rel:.3e}"


def test_criterion_06_derivative_ladder_and_contour_ode():
    points = ((0.5, 0.4 + 0.0j), (1.5, -2.0 + 0.0j), (-0.5, 0.3 + 0.0j))
    for alpha, z in points:
        rep = ladder_check(Order.of(alpha), z, h=1e-5 * abs(z))
        assert rep.passed and rep.measured < 1e-5, f"{rep.inputs}: {rep.measured:.3e}"
    rep = ladder_check(Order.of(0.5), -3.0 + 0.0j, h=3e-5, backend="hankel")
    assert rep.passed and rep.measured < 1e-5, f"{rep.inputs}: {rep.measured:.3e}"


def test_criterion_07_word_inverses_and_generator_equivariance():
    rng = random.Random(20240918)
    exponents = (-3, -2, -1, 1, 2, 3)
    for trial in range(100):
        letters = tuple(
            (rng.choice(("c0", "c1")), rng.choice(exponents))
            for _ in range(rng.randint(1, 8))
        )
        w = PathWord(letters)
        a = Order.of(0.5 if trial % 2 == 0 else 0.3 + 0.7j)
        v = transport(w * w.inverse(), a)
        assert abs(v.li_coeff - 1.0) <= 1e-13, f"trial {trial}: li {v.li_coeff}"
        for k, c in v.m_coeffs.items():
            assert abs(c) <= 1e-13, f"trial {trial}: m[{k}] = {c}"

    for alpha in (0.5, -1.7, 0.3 + 0.7j):
        rep = ml_equivariance_check(Order.of(alpha))
        assert rep.residual == 0.0, f"alpha={alpha}: residual {rep.residual}"
        # the variation formula is not the transport action: the mismatch
        # is pinned at magnitude exactly 1
        assert rep.variation_residual == 1.0, f"alpha={alpha}: {rep.variation_residual}"


def test_criterion_08_asymptotic_deviation_shrinks_far_out():
    a = Order.of(0.5)

    def deviation(x: float) -> float:
        res = eval_hankel(a, complex(x))
        return abs(res.value / asymptotic_leading(a, complex(x)) - 1.0)

    dev_near = deviation(-1.0e3)
    dev_far = deviation(-1.0e6)
    assert dev_far < 0.3, f"deviation at -1e6 is {dev_far:.3f}"
    assert dev_far < dev_near, f"{dev_far:.3e} not below {dev_near:.3e}"


def test_criterion_09_gamma_reflection_and_zeta_identities():
    # 1/((1 - e^{2 pi i a}) Gamma(a)) = C_a / (2 pi i) at 100 random
    # non-integer orders in the disk |a| <= 5, measured relative to the
    # common scale (the value itself reaches ~1e7 inside the disk, where
    # an absolute 1e-12 would be below one ulp)
    rng = random.Random(20240919)
    checked = 0
    while checked < 100:
        radius = 5.0 * math.sqrt(rng.random())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        al = complex(radius * math.cos(angle), radius * math.sin(angle))
        if abs(al - round(al.real)) < 1e-3:  # keep clear of the poles
            continue
        checked += 1
        lhs = 1.0 / ((1.0 - cmath.exp(2.0j * math.pi * al)) * gamma(al))
        rhs = c_alpha(al) / (2.0j * math.pi)
        residual = abs(lhs - rhs) / max(1.0, abs(lhs) + abs(rhs))
        assert residual < 1e-12, f"alpha={al}: reflection residual {residual:.3e}"

    assert abs(riemann_zeta(2.0) - math.pi**2 / 6.0) <= 1e-12
    assert abs(riemann_zeta(-1.0) - (-1.0 / 12.0)) <= 1e-12

    # reflection at s = -3/2, right-hand side assembled from the math
    # module and the frozen Dirichlet value at 5/2
    s = -1.5
    rhs = (
        2.0**s
        * math.pi ** (s - 1.0)
        * math.sin(0.5 * math.pi * s)
        * math.gamma(1.0 - s)
        * frozen_real("zeta_5_2")
    )
    assert abs(riemann_zeta(s) - rhs) <= 1e-12


def test_criterion_10_real_orders_give_real_values_on_the_real_interval():
    for alpha in (0.5, -0.5, 1.5, -1.5):
        a = Order.of(alpha)
        for i in range(1, 10):
            z = complex(i / 10.0, 0.0)
            results = [
                eval_series(a, z),
                eval_hankel(a, z),
                eval_jonquiere(a, z),
            ]
            if alpha > 0:
                results.append(eval_appell(a, z))
            else:
                results.append(eval_mittag_leffler(a, z))
                results.append(eval_zeta_series(a, z))
            for res in results:
                assert abs(res.value.imag) < 1e-10, (
                    f"alpha={alpha} z={z.real} {res.method}: Im = {res.value.imag:.3e}"
                )


def test_criterion_11_closed_forms_certify_the_series():
    tight = ToleranceConfig(target_abs_err=1e-13)
    for m in (1, 2, 3):
        for x in (0.5, -0.5, 0.9):
            closed = eval_negint_closed(Order.of(-m), complex(x))
            series = eval_series(Order.of(float(-m)), complex(x), tight)
            scale = max(1.0, abs(closed.value))
            diff = abs(closed.value - series.value)
            assert diff <= 1e-12 * scale, (
                f"m={m} z={x}: {diff:.3e} beyond 1e-12 of scale {scale:.3e}"
            )


_CLI_SHIM = "import sys; from fracpolylog.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _CLI_SHIM, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_criterion_12_cli_contract(capsys):
    # a fractional order on the series disk
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_SHIM, "eval", "--alpha", "0.5", "--z", "0.25"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["method"] == "Series"
    value = complex(record["value"]["re"], record["value"]["im"])
    budget = record["err_estimate"] + 1e-9
    assert abs(value - frozen_real("li_half_quarter")) <= budget

    # the classical logarithm case
    proc = _run_cli("eval", "--alpha", "1", "--z", "0.5")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    value = complex(record["value"]["re"], record["value"]["im"])
    budget = record["err_estimate"] + 1e-9
    assert abs(value - 0.6931471805599453) <= budget

    # a point on the cut must fail loudly with guidance
    proc = _run_cli("eval", "--alpha", "0.5", "--z", "2")
    assert proc.returncode == 2, proc.stderr
    assert ON_CUT_MESSAGE in proc.stderr

    # a dense table finishes quickly and never emits a NaN
    start = time.perf_counter()
    code = main(["table", "--alpha", "0.5", "--z-re=-0.9:0.9:101", "--z-im=-0.9:0.9:101"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z_re,z_im,val_re,val_im,err,method"
    assert len(lines) == 1 + 101 * 101
    assert "nan" not in out.lower()
    assert elapsed < 30.0, f"table took {elapsed:.1f} s"
