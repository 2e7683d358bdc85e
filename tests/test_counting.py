import functools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dehnlab import (
    AbelianPresentation,
    BudgetError,
    Word,
    assumption_functions,
    builtin_presentation,
    closed_walk_closed_form_z2,
    enumerate_words,
    free_abelian,
    kolmogorov_bound,
    make_rng,
    nonbacktracking_counts,
    sample_words,
    tail_bound_1d,
    tail_bound_zr,
    tail_count_exact_1d,
    tail_report_exact_1d,
    tail_report_sampled_zr,
    walk_counts,
)
from dehnlab import counting
from dehnlab.counting import (
    _CELL_LIMIT,
    _crt,
    _moduli,
    endpoint_samples_zr,
    tail_fraction_exact_1d_holds,
)
from dehnlab.presentation import load_presentation_text


def test_walk_counts_examples(z2):
    t2 = walk_counts(z2, 2)
    assert t2.get(z2.canonical_form((1, 1))) == 2
    assert t2.get(z2.identity()) == 4
    assert walk_counts(z2, 3).total() == 64


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize("counts", [walk_counts, nonbacktracking_counts])
@pytest.mark.parametrize("group", ["z2", "z10"])
def test_walk_counts_reject_a_negative_length(group, counts, n, request):
    # n = -2 on z10 once read as the n = 0 table or died in numpy's reshape
    with pytest.raises(ValueError, match="word length must be non-negative"):
        counts(request.getfixturevalue(group), n)


def test_walk_counts_budget(z2, monkeypatch):
    monkeypatch.setattr(counting, "DEFAULT_STATE_BUDGET", 5)
    with pytest.raises(BudgetError):
        walk_counts(z2, 10)


# (presentation, largest n) for the dense DP against enumeration; the images of
# a1, a2 in <a1,a2 | a1^2 a2^3> are 3 and -2 on its one free axis
DENSE_CASES = {
    "z2": (lambda: builtin_presentation("z2"), 6),
    "z3": (lambda: builtin_presentation("z3"), 5),
    "z10": (lambda: builtin_presentation("z10"), 6),
    "zxz2": (lambda: builtin_presentation("zxz2"), 6),
    "a1^2a2^3": (lambda: AbelianPresentation(2, [Word((1, 1, 2, 2, 2))]), 6),
    "a1^6,a2^4": (lambda: AbelianPresentation(3, [Word((1,) * 6), Word((2,) * 4)]), 6),
}


@pytest.mark.parametrize("name", sorted(DENSE_CASES))
def test_dense_counts_match_enumeration(name):
    make, n_max = DENSE_CASES[name]
    p = make()
    for n in range(n_max + 1):
        walks, nonbacktracking = Counter(), Counter()
        for w in enumerate_words(p.r, n):
            v = p.canonical_of_word(w)
            walks[v] += 1
            if all(a != -b for a, b in zip(w.codes, w.codes[1:])):
                nonbacktracking[v] += 1
        assert walk_counts(p, n).counts == walks, n
        assert nonbacktracking_counts(p, n).counts == nonbacktracking, n


# (n, moduli) where the moduli count steps 1 -> 2 and 2 -> 3: walks hold 4^n,
# non-backtracking walks 4 * 3^(n - 1)
WALK_STEPS = [(29, 1), (30, 2), (58, 2), (59, 3)]
NONBACKTRACKING_STEPS = [(36, 1), (37, 2), (74, 2), (75, 3)]


@pytest.mark.parametrize("n, moduli", WALK_STEPS)
def test_walk_counts_where_the_moduli_count_steps(z2, n, moduli):
    assert len(_moduli(4**n, 4)) == moduli
    t = walk_counts(z2, n)
    assert t.total() == 4**n
    assert t.get(z2.identity()) == (math.comb(n, n // 2) ** 2 if n % 2 == 0 else 0)
    assert all(type(c) is int for c in t.counts.values())
    assert nonbacktracking_counts(z2, n).total() == 4 * 3 ** (n - 1)


@pytest.mark.parametrize("n, moduli", NONBACKTRACKING_STEPS)
def test_nonbacktracking_counts_where_the_moduli_count_steps(z2, n, moduli):
    assert len(_moduli(4 * 3 ** (n - 1), 4)) == moduli
    t = nonbacktracking_counts(z2, n)
    assert t.total() == 4 * 3 ** (n - 1)
    assert all(type(c) is int for c in t.counts.values())
    assert walk_counts(z2, n).total() == 4**n


# rank 5: a non-backtracking step sums 10 differences, so a reduced frame
# grows 10x in one step
RANK5 = """
generators 5
relator a1 a1 a1
relator a2 a2
relator a3 a3
relator a4 a4 a4 a4
relator a5 a5
"""


def _nonbacktracking_reference(p, n):
    """N'_v(n) by a dict over (endpoint, last code) in Python ints."""
    step = functools.cache(lambda v, c: p.compose(v, p.generator_image(c)))
    states = {(p.identity(), 0): 1}
    for _ in range(n):
        nxt = Counter()
        for (v, last), count in states.items():
            for c in p.generator_codes:
                if c != -last:
                    nxt[step(v, c), c] += count
        states = nxt
    out = Counter()
    for (v, _), count in states.items():
        out[v] += count
    return out


def test_rank5_nonbacktracking_counts_on_four_moduli():
    p = load_presentation_text(RANK5)
    n = 60
    assert len(_moduli(10 * 9 ** (n - 1), 10)) == 4
    t = nonbacktracking_counts(p, n)
    assert t.counts == _nonbacktracking_reference(p, n)
    assert t.total() == 10 * 9 ** (n - 1)
    for m in range(5):
        assert nonbacktracking_counts(p, m).counts == _nonbacktracking_reference(p, m)


@pytest.mark.parametrize("bound", [1, 2**59, 4**100, 2**5000])
@pytest.mark.parametrize("growth", [2, 16, 18, 100])
def test_moduli_are_pairwise_coprime_below_their_size(bound, growth):
    moduli = _moduli(bound, growth)
    # one modulus holds exact cells, which never reduce, so only several
    # moduli need room for a step of the given growth
    size = _CELL_LIMIT // (16 if len(moduli) == 1 else max(growth, 16))
    assert all(1 < m < size for m in moduli)
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(moduli) for b in moduli[:i])
    assert math.prod(moduli) > bound >= math.prod(moduli[:-1])
    assert _moduli(bound, growth) == moduli


@given(st.data())
def test_crt_round_trip(data):
    moduli = _moduli(data.draw(st.sampled_from([1, 2**59, 2**200, 2**1000])))
    big = math.prod(moduli)
    xs = data.draw(st.lists(st.integers(0, big - 1), min_size=1, max_size=8))
    # residues may sit anywhere in int64: add a multiple of each modulus
    lift = data.draw(st.integers(0, 15))
    residues = np.array([[x % m + lift * m for x in xs] for m in moduli], dtype=np.int64)
    assert _crt(residues, moduli) == xs
    assert _crt(residues.reshape(len(moduli), len(xs), 1), moduli) == xs


def _enumerated_counts(p, n):
    """(walks, non-backtracking walks) per endpoint, over all (2r)^n words.

    The words are listed level by level as exponent vectors, with a flag for
    a backtrack anywhere in the word.
    """
    r = p.r
    letters = np.vstack([np.eye(r, dtype=np.int8), -np.eye(r, dtype=np.int8)])
    ends = np.zeros((1, r), dtype=np.int8)
    last = np.array([-1])
    clean = np.array([True])
    for _ in range(n):
        ends = (ends[:, None, :] + letters[None]).reshape(-1, r)
        code = np.tile(np.arange(2 * r), len(last))
        clean = np.repeat(clean, 2 * r) & (np.repeat(last, 2 * r) != (code + r) % (2 * r))
        last = code
    box = (2 * n + 1,) * r
    tables = []
    for rows in (ends, ends[clean]):
        table = Counter()
        per_vector = np.bincount(np.ravel_multi_index(tuple(rows.T + n), box), minlength=math.prod(box))
        for key in np.flatnonzero(per_vector).tolist():
            v = tuple(int(x) - n for x in np.unravel_index(key, box))
            table[p.canonical_form(v)] += int(per_vector[key])
        tables.append(table)
    return tables


@pytest.mark.parametrize("name", ["z2", "zxz2", "z3"])
def test_dense_counts_on_tiny_moduli_match_enumeration(name, tiny_moduli):
    p = builtin_presentation(name)
    for n in range(9):
        walks, nonbacktracking = _enumerated_counts(p, n)
        assert walk_counts(p, n).counts == walks, n
        assert nonbacktracking_counts(p, n).counts == nonbacktracking, n
    assert max(tiny_moduli) > 1


def test_walk_budget_checked_before_allocation(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("frame allocated before the budget check")

    monkeypatch.setattr(np, "zeros", no_allocation)
    with pytest.raises(BudgetError):
        walk_counts(free_abelian(3), 100)  # 201^3 cells at the default budget


def test_nonbacktracking_budget_counts_each_last_letter(z2, monkeypatch):
    cells = 21 * 21  # the n = 10 frame on Z^2
    monkeypatch.setattr(counting, "DEFAULT_STATE_BUDGET", cells)
    assert walk_counts(z2, 10).total() == 4**10
    monkeypatch.setattr(counting, "DEFAULT_STATE_BUDGET", 4 * cells)
    nonbacktracking_counts(z2, 10)
    monkeypatch.setattr(counting, "DEFAULT_STATE_BUDGET", 4 * cells - 1)
    with pytest.raises(BudgetError):
        nonbacktracking_counts(z2, 10)


def test_nonbacktracking_examples(z2):
    assert nonbacktracking_counts(z2, 2).get(z2.identity()) == 0
    assert nonbacktracking_counts(z2, 4).get(z2.identity()) == 8
    assert nonbacktracking_counts(z2, 1).total() == 4


def test_mass_conservation(z2, z10, zxz2):
    for p in (z2, z10, zxz2):
        r = p.r
        for n in range(0, 11):
            assert walk_counts(p, n).total() == (2 * r) ** n
            if n >= 1:
                assert nonbacktracking_counts(p, n).total() == 2 * r * (2 * r - 1) ** (n - 1)


def test_closed_form_examples():
    assert closed_walk_closed_form_z2(2) == 4
    assert closed_walk_closed_form_z2(4) == 36
    assert closed_walk_closed_form_z2(5) == 0
    with pytest.raises(ValueError):
        closed_walk_closed_form_z2(-2)


def test_exact_tail_check_reads_the_tail_constant(monkeypatch):
    # the exact check and tail_bound_1d share TAIL_K_1D, so they move together
    assert tail_fraction_exact_1d_holds(100, 1.0)
    monkeypatch.setattr(counting, "TAIL_K_1D", 0.05)
    assert not tail_report_exact_1d(100, 1.0).holds
    assert not tail_fraction_exact_1d_holds(100, 1.0)


def test_closed_form_matches_dp(z2):
    for n in range(0, 9):
        assert walk_counts(z2, n).get(z2.identity()) == closed_walk_closed_form_z2(n)


def test_symmetry_of_count_table(z2):
    t = walk_counts(z2, 7)
    for v, c in t.counts.items():
        x, y = v.free_part
        for sx, sy in ((1, -1), (-1, 1), (-1, -1)):
            assert t.get(z2.canonical_form((sx * x, sy * y))) == c
        assert t.get(z2.canonical_form((y, x))) == c


def test_max_count_near_origin(z2):
    # empirical observation, reported rather than assumed: the largest N_v(n)
    # sits at a vertex with |v| <= 1 for every n <= 14
    for n in range(1, 15):
        t = walk_counts(z2, n)
        best = max(t.counts.items(), key=lambda kv: kv[1])
        assert sum(abs(x) for x in best[0].free_part) <= 1


def test_return_count_scaling_bounded(z2):
    # N_e(2n) * (2n) / 16^n stays within positive constants on the computed range
    for n in range(1, 13):
        val = Fraction(closed_walk_closed_form_z2(2 * n) * 2 * n, 16**n)
        assert Fraction(2, 5) < val < Fraction(7, 10)


def test_kolmogorov_bound():
    n, c = 100, 2.0
    t = math.sqrt(math.log(n))
    val = kolmogorov_bound(t, c * t, 1.0, math.sqrt(n))
    expected = math.exp(
        -c * math.log(n) + 0.5 * math.log(n) * (1 + 0.5 * math.sqrt(math.log(n) / n))
    )
    assert val == pytest.approx(expected, rel=1e-12)
    # monotone in eps
    assert kolmogorov_bound(t, 10.0, 1.0, 10.0) < kolmogorov_bound(t, 5.0, 1.0, 10.0)
    # boundary t*d == s_n accepted, above rejected
    kolmogorov_bound(2.0, 1.0, 5.0, 10.0)
    with pytest.raises(ValueError):
        kolmogorov_bound(2.1, 1.0, 5.0, 10.0)
    with pytest.raises(ValueError):
        kolmogorov_bound(2.0, 0.0, 1.0, 10.0)


def test_tail_bound_1d_values():
    assert tail_bound_1d(100, 2.0) == pytest.approx(2.7 / 1000.0)
    assert tail_bound_1d(4, 0.5) == pytest.approx(2.7)
    assert tail_bound_1d(4, 1.0) == pytest.approx(1.35)
    with pytest.raises(ValueError):
        tail_bound_1d(1, 2.0)


def test_tail_count_exact_1d():
    assert tail_count_exact_1d(2, 1.0) == 2
    assert tail_count_exact_1d(2, 2.0) == 0
    n = 100
    ell = math.sqrt(n * math.log(n))
    frac = Fraction(tail_count_exact_1d(n, ell), 2**n)
    assert float(frac) <= 2.7 / math.sqrt(n)


def test_tail_holds_on_grid():
    for n in range(4, 201, 4):
        for c in (1.0, 1.5, 2.0, 3.0):
            assert tail_fraction_exact_1d_holds(n, c), (n, c)


def test_tail_report_exact():
    rep = tail_report_exact_1d(64, 2.0)
    assert rep.exact and rep.holds
    assert rep.total == 2**64


def test_tail_bound_zr():
    val = tail_bound_zr(100, 2.0, 2)
    assert val == pytest.approx(5.4 / (2 * math.sqrt(100 * math.log(100))) ** 1.5)
    with pytest.raises(ValueError):
        tail_bound_zr(100, 0.5, 2)
    vals = [tail_bound_zr(100, c, 2) for c in (1.0, 1.5, 2.0, 3.0)]
    assert vals == sorted(vals, reverse=True)


def test_tail_report_sampled():
    rep = tail_report_sampled_zr(2, 200, 2.0, 20_000, seed=41)
    assert not rep.exact
    assert rep.holds
    assert rep.ci_low <= rep.fraction <= rep.ci_high


def test_assumption_functions():
    f, g, c0 = assumption_functions(2)
    n = math.e**2
    assert f(n) == pytest.approx(math.sqrt(2 * math.e**2))
    for n in (5, 50, 500):
        assert g(n) ** 4 == pytest.approx(n * math.log(n), rel=1e-9)
    assert assumption_functions(3).c0 == 1.5
    with pytest.raises(ValueError):
        assumption_functions(0)


def test_sample_words_determinism():
    a = [w.codes for w in sample_words(2, 6, 5, seed=2026)]
    b = [w.codes for w in sample_words(2, 6, 5, seed=2026)]
    assert a == b
    c = [w.codes for w in sample_words(2, 6, 5, seed=2027)]
    assert a != c


def test_sample_words_uniformity():
    n, count = 10, 10_000
    letters = [c for w in sample_words(2, n, count, seed=5) for c in w.codes]
    total = n * count
    for code in (1, -1, 2, -2):
        k = letters.count(code)
        p = 0.25
        sigma = math.sqrt(total * p * (1 - p))
        assert abs(k - total * p) <= 3 * sigma


def test_sample_closure_rate_z2(z2):
    count = 20_000
    n = 10
    closed = 0
    for w in sample_words(2, n, count, seed=11):
        if z2.is_identity(w):
            closed += 1
    p = closed_walk_closed_form_z2(n) / 4**n
    sigma = math.sqrt(count * p * (1 - p))
    assert abs(closed - count * p) <= 4 * sigma


def test_endpoint_sampler_matches_walk_moments():
    rng = make_rng(77)
    lengths = endpoint_samples_zr(2, 100, 50_000, rng)
    # mean L1 distance of a 100-step walk: each coordinate is a lazy-ish walk;
    # compare against the exact DP distribution
    from dehnlab import builtin_presentation, walk_counts

    z2 = builtin_presentation("z2")
    t = walk_counts(z2, 100 // 2)  # shorter length for an exact cross-check
    rng2 = make_rng(78)
    short = endpoint_samples_zr(2, 50, 50_000, rng2)
    exact_mean = sum(
        c * sum(abs(x) for x in v.free_part) for v, c in t.counts.items()
    ) / t.total()
    stderr = float(np.std(short)) / math.sqrt(len(short))
    assert abs(float(np.mean(short)) - exact_mean) <= 4 * stderr
