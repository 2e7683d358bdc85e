"""Acceptance suite: one test per numbered criterion.

Each test prints a `PASS criterion k` line with its measured numbers and
elapsed time, and asserts the stated tolerances and runtime budgets.
Criterion 6 passes: the exact count sequence is measured against the derived
limit 4/(3 pi), which the second-moment certificate pins; the printed
constant, (sqrt(3)+1) times smaller, is only reported (see the docstrings of
the two criterion 6 tests).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from dehnlab import (
    PRINTED_F_LIMIT_Z2,
    SHARP_F_LIMIT_Z2,
    Word,
    abelianize,
    bartholdi_transform,
    bound_fit,
    builtin_presentation,
    closed_walk_closed_form_z2,
    closed_walk_series_z2,
    dehn_exact,
    f_recurrence,
    free_reduce,
    h_split_holds,
    h_split_range,
    lazy_mean,
    length_A,
    make_rng,
    mean_exact,
    nonbacktracking_counts,
    osmean_sampled,
    relation_check,
    smean_exact,
    smean_sampled,
    tail_report_sampled_zr,
    walk_counts,
)
from dehnlab.area import _area_z2_codes, area_oracle
from dehnlab.cogrowth import f_ratio_z2
from dehnlab.counting import tail_fraction_exact_1d_holds
from dehnlab.dehnstats import iter_closed_codes


def _elapsed(t0):
    return time.time() - t0


def test_criterion_01_cogrowth_triple_agreement(z2):
    t0 = time.time()
    n_half = 12
    rec = f_recurrence(n_half)
    trans = bartholdi_transform(closed_walk_series_z2(2 * n_half), 2, 2 * n_half)
    for k in range(n_half + 1):
        dp = nonbacktracking_counts(z2, 2 * k).get(z2.identity()) if k else 1
        assert rec[k] == trans.coeffs[2 * k] == dp, f"disagreement at 2n={2 * k}"
    assert rec[1] == 0 and rec[2] == 8
    dt = _elapsed(t0)
    assert dt < 10
    print(f"\nPASS criterion 1: recurrence = transform = DP for all n <= 12; "
          f"f_2=0, f_4=8 ({dt:.1f}s)")


def test_criterion_02_closed_walk_closed_form(z2):
    t0 = time.time()
    for n in range(0, 13):
        assert walk_counts(z2, 2 * n).get(z2.identity()) == math.comb(2 * n, n) ** 2
    assert closed_walk_closed_form_z2(2) == 4
    assert closed_walk_closed_form_z2(4) == 36
    for n in range(0, 15):
        assert walk_counts(z2, n).total() == 4**n
    dt = _elapsed(t0)
    assert dt < 30
    print(f"\nPASS criterion 2: N_e(2n)=C(2n,n)^2 for n<=12; mass 4^n for n<=14 ({dt:.1f}s)")


def _uniform_closed_word(rng, n):
    while True:
        counts = rng.multinomial(n, [0.25, 0.25, 0.25, 0.25])
        if counts[0] == counts[1] and counts[2] == counts[3]:
            slots = np.repeat(np.arange(4, dtype=np.int16), counts)
            rng.shuffle(slots)
            return tuple(
                (int(s) // 2 + 1) if s % 2 == 0 else -(int(s) // 2 + 1) for s in slots
            )


def test_criterion_03_area_engine_validation(z2):
    t0 = time.time()
    checked = 0
    for n in (0, 2, 4, 6, 8):
        for codes in iter_closed_codes(z2, n):
            assert area_oracle(z2, Word(codes)) == _area_z2_codes(codes), codes
            checked += 1
    rng = make_rng(30303)
    for n in (10, 12):
        for _ in range(250):
            codes = _uniform_closed_word(rng, n)
            assert area_oracle(z2, Word(codes)) == _area_z2_codes(codes), codes
            checked += 1
    dt = _elapsed(t0)
    assert dt < 300
    print(f"\nPASS criterion 3: winding = oracle on {checked} closed words, "
          f"zero disagreements ({dt:.1f}s)")


def test_criterion_04_mean_dehn_anchors(z2):
    t0 = time.time()
    assert int(dehn_exact(z2, 2).value) == 0 and int(dehn_exact(z2, 4).value) == 1
    assert smean_exact(z2, 2).value == 0
    assert smean_exact(z2, 4).value == Fraction(2, 9)
    assert mean_exact(z2, 4).value == Fraction(8, 41)
    assert lazy_mean(z2, 4).value == Fraction(8, 61)
    rows = relation_check(z2, 12)
    assert all(r.ok for r in rows)
    dt = _elapsed(t0)
    assert dt < 600
    print(f"\nPASS criterion 4: D(2)=0 D(4)=1 smean(4)=2/9 mean(4)=8/41 "
          f"lazy(4)=8/61; mean<=max smean exact for n<=12 ({dt:.1f}s)")


def test_criterion_05_stirling_check():
    t0 = time.time()
    worst = 0.0
    for two_n in range(200, 2001, 200):
        n = two_n // 2
        g = math.comb(two_n, n) ** 2
        ratio = float(Fraction(g * two_n, 2 * 16**n)) * math.pi
        worst = max(worst, abs(ratio - 1.0))
    assert worst < 0.01
    dt = _elapsed(t0)
    assert dt < 60
    print(f"\nPASS criterion 5: |N_e(2n) 2n pi / (2 16^n) - 1| <= {worst:.5f} < 0.01 "
          f"on 2n in [200,2000] ({dt:.1f}s)")


def test_criterion_06_sharp_ratio():
    """The scaled non-backtracking returns f_{2n} * 2n / 3^{2n} approach 4/(3 pi).

    The exact counts are pinned three independent ways by criterion 1. The
    limit SHARP_F_LIMIT_Z2 = 4/(3 pi) follows from diffusion constant 1 (see
    the certificate below); the printed constant 4/(3(sqrt(3)+1) pi) is
    (sqrt(3)+1) times smaller, and no tolerance reconciles the counts with it.
    """
    t0 = time.time()
    fs = f_recurrence(500)
    r1000 = f_ratio_z2(1000, fs[500])
    r100 = f_ratio_z2(100, fs[50])
    dt = _elapsed(t0)
    assert dt < 60
    assert abs(r1000 - SHARP_F_LIMIT_Z2) / SHARP_F_LIMIT_Z2 <= 0.05, (
        "exact counts converge to 4/(3 pi) = (sqrt(3)+1) x the printed constant"
    )
    assert abs(r1000 - SHARP_F_LIMIT_Z2) < abs(r100 - SHARP_F_LIMIT_Z2)
    print(f"\nPASS criterion 6: ratio(1000)={r1000:.6f}, ratio(100)={r100:.6f}, "
          f"limit 4/(3pi)={SHARP_F_LIMIT_Z2:.6f}, "
          f"printed constant={PRINTED_F_LIMIT_Z2:.6f} ({dt:.1f}s)")


def test_criterion_06_second_moment_certificate(z2):
    """Diffusion constant 1: the certificate that 4/(3 pi) is the limit.

    For every length n the exact non-backtracking tables satisfy
    sum_v x_v^2 N'_v(n) = sum_v y_v^2 N'_v(n) = 3^{n-1} (4n - 3) + 1, about n
    per walk, so each coordinate gains variance 1 per step. sharp_sigma(2) =
    sqrt(3)+1 is the printed sigma^2, not this walk's diffusion constant.
    """
    t0 = time.time()
    for n in range(1, 31):
        counts = nonbacktracking_counts(z2, n).counts
        sx = sum(v.free_part[0] ** 2 * c for v, c in counts.items())
        sy = sum(v.free_part[1] ** 2 * c for v, c in counts.items())
        assert sx == sy == 3 ** (n - 1) * (4 * n - 3) + 1, (n, sx, sy)
    dt = _elapsed(t0)
    print(f"\nPASS criterion 6 certificate: second moments exact for n=1..30 ({dt:.1f}s)")


def test_criterion_07_tail_bounds(z2):
    t0 = time.time()
    for n in range(4, 1001, 4):
        for c in (1.0, 1.5, 2.0, 3.0):
            assert tail_fraction_exact_1d_holds(n, c), (n, c)
    rep = tail_report_sampled_zr(2, 1000, 2.0, 10**6, seed=424242)
    assert rep.holds, rep
    dt = _elapsed(t0)
    assert dt < 120
    print(f"\nPASS criterion 7: exact 1-d tails <= 2.7/n^(c-1/2) on the full grid; "
          f"MC tail fraction {rep.fraction:.2e} <= bound {rep.bound_value:.2e} ({dt:.1f}s)")


TREND_NS = (64, 128, 256, 512, 1024)


def _trend_fit(p, comb, kind_fn, samples, seed):
    reports = [kind_fn(p, comb, n, samples, seed + i) for i, n in enumerate(TREND_NS)]
    return bound_fit(reports)


def test_criterion_08_mean_dehn_trend(z2, st2):
    t0 = time.time()
    fits = {}
    for name, fn in (("osmean", osmean_sampled), ("smean", smean_sampled)):
        fit = _trend_fit(z2, st2, fn, 10_000, seed=97531)
        assert fit.no_growth, (name, fit.slope, fit.slope_stderr)
        fits[name] = fit
    dt = _elapsed(t0)
    assert dt < 600
    msg = ", ".join(
        f"{k}: slope {v.slope:+.2e} +- {v.slope_stderr:.2e}" for k, v in fits.items()
    )
    print(f"\nPASS criterion 8: normalized sampled means show no growth ({msg}) ({dt:.1f}s)")


def test_criterion_09_h_inequality_threshold():
    t0 = time.time()
    assert not h_split_holds(14)
    assert h_split_range(15, 10**6).all()
    # the ceiling form the splitting argument consumes is implied and holds too
    assert h_split_range(15, 10**6, ceil_variant=True).all()
    dt = _elapsed(t0)
    assert dt < 1
    print(f"\nPASS criterion 9: 2h((n+1)/2)+n ln n <= h(n) fails at 14, "
          f"holds on [15, 10^6] ({dt:.2f}s)")


def test_criterion_10_length_hierarchy():
    t0 = time.time()
    w = Word.from_tokens("a1 a1 A1 a1 a1 a1")
    z10 = builtin_presentation("z10")
    from dehnlab import cyclic

    z5 = cyclic(5)
    la = length_A(w)
    lf = length_A(free_reduce(w))
    lg = z10.group_length(z10.canonical_of_word(w), la)
    lh = z5.group_length(z5.canonical_of_word(w), la)
    assert (la, lf, lg) == (6, 4, 4)
    assert lh == 1
    rng = make_rng(1618)
    for name in ("z2", "z3", "z10", "zxz2"):
        p = builtin_presentation(name)
        codes = [c for i in range(1, p.r + 1) for c in (i, -i)]
        for _ in range(10_000):
            n = int(rng.integers(0, 13))
            word = Word(tuple(codes[int(k)] for k in rng.integers(0, len(codes), n)))
            la = length_A(word)
            lf = length_A(free_reduce(word))
            v = abelianize(word, p.r)
            lzr = sum(abs(x) for x in v)
            lg = p.group_length(p.canonical_form(v), max(la, 1))
            assert la >= lf >= lzr >= lg
    dt = _elapsed(t0)
    assert dt < 30
    print(f"\nPASS criterion 10: (|w|_A,|w|_F,|w|_G)=(6,4,4), |w|_H=1; hierarchy on "
          f"4 x 10^4 random words ({dt:.1f}s)")


def test_criterion_11_determinism(z2, st2):
    t0 = time.time()
    # byte identity of repeated sampled runs at full acceptance sizes
    rep_a = tail_report_sampled_zr(2, 1000, 2.0, 10**6, seed=424242)
    rep_b = tail_report_sampled_zr(2, 1000, 2.0, 10**6, seed=424242)
    assert repr(rep_a) == repr(rep_b)
    os_a = osmean_sampled(z2, st2, 256, 10_000, seed=808)
    os_b = osmean_sampled(z2, st2, 256, 10_000, seed=808)
    assert json.dumps(os_a.as_dict(), sort_keys=True) == json.dumps(os_b.as_dict(), sort_keys=True)

    # the same statistical gates pass for fresh seeds in >= 95% of 20 trials
    passes = 0
    trials = 20
    for trial in range(trials):
        seed = 52000 + 1000 * trial
        ok = True
        fit_o = _trend_fit(z2, st2, osmean_sampled, 2500, seed)
        ok &= fit_o.no_growth
        fit_s = _trend_fit(z2, st2, smean_sampled, 2500, seed + 500)
        ok &= fit_s.no_growth
        tail = tail_report_sampled_zr(2, 1000, 2.0, 100_000, seed=seed + 999)
        ok &= tail.holds
        passes += bool(ok)
    assert passes >= math.ceil(0.95 * trials), f"{passes}/{trials} trials passed"
    dt = _elapsed(t0)
    print(f"\nPASS criterion 11: same-seed runs byte-identical; {passes}/{trials} "
          f"fresh-seed trials passed the gates ({dt:.1f}s)")
