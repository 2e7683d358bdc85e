import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dehnlab import (
    PRINTED_F_LIMIT_Z2,
    SHARP_F_LIMIT_Z2,
    TruncatedSeries,
    a_coefficients,
    bartholdi_transform,
    closed_walk_series_z2,
    f_recurrence,
    grigorchuk_beta,
    nonbacktracking_counts,
    series_rational_expand,
    sharp_ratio_report,
    sharp_sigma,
    sharp_sigma_forms,
)
from dehnlab.cogrowth import f_ratio_z2, g_even_z2


def test_rational_expansions():
    h = series_rational_expand((0, 1), (1, 0, 3), 7)
    assert h.coeffs == (0, 1, 0, -3, 0, 9, 0, -27)
    pre = series_rational_expand((1, 0, -1), (1, 0, 3), 4)
    assert pre.coeffs == (1, 0, -4, 0, 12)


def test_compose_identity_and_guard():
    s = TruncatedSeries((1, 2, 3, 4))
    t = TruncatedSeries.t(3)
    assert s.compose(t).coeffs == s.coeffs
    with pytest.raises(ValueError):
        s.compose(TruncatedSeries((1, 1, 0, 0)))


def test_series_arithmetic_associativity():
    rng = random.Random(90)
    for _ in range(25):
        a = TruncatedSeries(tuple(rng.randint(-5, 5) for _ in range(8)))
        b = TruncatedSeries(tuple(rng.randint(-5, 5) for _ in range(8)))
        c = TruncatedSeries(tuple(rng.randint(-5, 5) for _ in range(8)))
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        # composition associativity: inner series with zero constant term
        f = TruncatedSeries((0,) + tuple(rng.randint(-3, 3) for _ in range(7)))
        g = TruncatedSeries((0,) + tuple(rng.randint(-3, 3) for _ in range(7)))
        left = a.compose(f).compose(g).coeffs
        right = a.compose(f.compose(g)).coeffs
        assert left == right


def test_series_inverse_guard():
    with pytest.raises(ValueError):
        TruncatedSeries((0, 1)).inverse()
    inv = TruncatedSeries((2, 1)).inverse()
    assert inv.coeffs[0] == Fraction(1, 2)


def test_bartholdi_transform_z2():
    f = bartholdi_transform(closed_walk_series_z2(10), 2, 10)
    assert f.coeffs[0] == 1
    assert f.coeffs[2] == 0
    assert f.coeffs[4] == 8
    assert all(f.coeffs[k] == 0 for k in (1, 3, 5, 7, 9))


def test_bartholdi_constant_series():
    one = TruncatedSeries.one(6)
    f = bartholdi_transform(one, 2, 6)
    assert f.coeffs == series_rational_expand((1, 0, -1), (1, 0, 3), 6).coeffs


def test_a_coefficients():
    a = a_coefficients(4)
    assert a[0] == 1
    assert a[1] == 4
    assert a[2] == 12
    assert a[3] == 76
    assert a[4] == 508


def _a_double_sum(n_max):
    """The defining double sum for A_{2n}, term by term with binomials."""
    return [1] + [
        sum(
            math.comb(2 * k, k) ** 2 * math.comb(n + k - 1, 2 * k - 1) * (-3) ** (n - k)
            for k in range(1, n + 1)
        )
        for n in range(1, n_max + 1)
    ]


def test_a_coefficients_equal_the_double_sum():
    ref = _a_double_sum(120)
    for n in range(121):
        assert a_coefficients(n) == ref[: n + 1]


@given(st.integers(0, 80), st.integers(0, 80))
def test_a_coefficients_are_prefix_stable(m, n):
    m, n = min(m, n), max(m, n)
    assert a_coefficients(m) == a_coefficients(n)[: m + 1]


@pytest.mark.parametrize("fn", [a_coefficients, f_recurrence, sharp_ratio_report])
@pytest.mark.parametrize("n_max", [-1, -2])
def test_negative_sizes_raise(fn, n_max):
    with pytest.raises(ValueError):
        fn(n_max)


def test_f_recurrence_values(z2):
    f = f_recurrence(3)
    assert f == [1, 0, 8, 40]
    # f_4 equals the unit-square circuits counted directly
    assert nonbacktracking_counts(z2, 4).get(z2.identity()) == 8
    assert nonbacktracking_counts(z2, 6).get(z2.identity()) == f[3]


def test_three_way_agreement(z2):
    n_half = 10
    rec = f_recurrence(n_half)
    trans = bartholdi_transform(closed_walk_series_z2(2 * n_half), 2, 2 * n_half)
    for k in range(n_half + 1):
        dp = nonbacktracking_counts(z2, 2 * k).get(z2.identity()) if k else 1
        assert rec[k] == trans.coeffs[2 * k] == dp


def test_g_series_consistency():
    gs = closed_walk_series_z2(12)
    for k in range(0, 13):
        expected = g_even_z2(k // 2) if k % 2 == 0 else 0
        assert gs.coeffs[k] == expected
    assert g_even_z2(1) == 4 and g_even_z2(2) == 36


def test_grigorchuk_formula():
    assert grigorchuk_beta(3.0, 2) == pytest.approx(4.0)
    q = math.sqrt(3.0)
    assert grigorchuk_beta(q, 2) == pytest.approx(2 * q / 4)  # boundary: second branch
    for r in (2, 3, 5):
        assert grigorchuk_beta(2 * r - 1, r) == pytest.approx(2 * r)
    with pytest.raises(ValueError):
        grigorchuk_beta(0.0, 2)


def test_grigorchuk_inversion_and_growth_rate():
    # beta = 4 forces alpha = 3 on the first branch: alpha + 3/alpha = 4
    alpha = 3.0
    assert alpha + 3.0 / alpha == pytest.approx(4.0)
    # and the counts do grow at that rate (within 2% at the largest index)
    fs = f_recurrence(200)
    growth = fs[200] ** (1.0 / 400.0)
    assert abs(growth - 3.0) / 3.0 < 0.02


def test_sharp_sigma():
    assert sharp_sigma(2) == pytest.approx(math.sqrt(3) + 1)
    assert sharp_sigma(5) == pytest.approx(1.0)
    for r in range(2, 11):
        b, c = sharp_sigma_forms(r)
        assert abs(b - c) < 1e-12
    with pytest.raises(ValueError):
        sharp_sigma(1)


def test_sharp_ratio_report():
    rows = sharp_ratio_report(40)
    assert rows[1][0] == 4
    assert rows[1][1] == pytest.approx(float(Fraction(8 * 4, 81)))
    ratios = {two_n: v for two_n, v in rows}
    # monotone convergence is not asserted (small lengths wobble with parity);
    # the tail is increasing and eventually close to the empirical limit
    assert all(ratios[two_n] < ratios[two_n + 2] for two_n in range(16, 80, 2))
    assert ratios[80] < SHARP_F_LIMIT_Z2
    assert abs(ratios[80] - SHARP_F_LIMIT_Z2) / SHARP_F_LIMIT_Z2 < 0.02
    assert abs(ratios[80] - SHARP_F_LIMIT_Z2) < abs(
        ratios[20] - SHARP_F_LIMIT_Z2
    )
    # the printed limit constant is exposed alongside but the exact counts
    # converge to (sqrt(3)+1) times it; see the second-moment certificate
    # beside acceptance criterion 6
    assert SHARP_F_LIMIT_Z2 == pytest.approx((math.sqrt(3) + 1) * PRINTED_F_LIMIT_Z2)


def test_f_ratio_z2_guard():
    with pytest.raises(ValueError):
        f_ratio_z2(7)


def test_f_ratio_z2_is_the_correctly_rounded_fraction():
    fs = f_recurrence(320)
    for n in range(1, 321):
        assert f_ratio_z2(2 * n, fs[n]) == float(Fraction(fs[n] * 2 * n, 3 ** (2 * n)))
