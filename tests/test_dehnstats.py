import functools
import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dehnlab import (
    GeodesicCombing,
    bound_fit,
    builtin_presentation,
    dehn_exact,
    h_split_holds,
    h_split_holds_ceil,
    h_split_range,
    lazy_mean,
    make_combing,
    mean_exact,
    nv_asymptotics_report,
    osmean_by_endpoint,
    osmean_exact,
    osmean_sampled,
    relation_check,
    smean_exact,
    smean_sampled,
    walk_counts,
)
from dehnlab import dehnstats
from dehnlab.area import _area_z2_codes, area_oracle
from dehnlab.counting import (
    _moduli,
    closed_walk_closed_form_z2,
    make_rng,
    sample_letter_matrix,
    slots_to_codes,
)
from dehnlab.dehnstats import (
    DEFAULT_DP_BUDGET,
    SAMPLE_BLOCK_LETTERS,
    SAMPLE_CHUNK_BLOCKS,
    DehnReport,
    _z2_level_sums,
    closed_level_stats,
    iter_closed_codes,
    level_sums,
)
from dehnlab.errors import BudgetError
from dehnlab.words import Word, enumerate_code_tuples

from conftest import WALK_PRESENTATIONS

# agreed on by the winding DP and by the full 4^12 enumeration
OSMEAN_Z2_N12 = Fraction(843903, 262144)
# Regression pins beyond the reach of enumeration: checked only against a
# second, independently written winding DP, never by listing words.
SMEAN_Z2_N16 = Fraction(16711976, 8281845)
SMEAN_Z2_N20 = Fraction(338481430, 125495513)
OSMEAN_Z2_N16 = Fraction(2425584311, 536870912)
# Beyond the per-column DP's default budget: the per-column table, the osmean
# route before the superposed DP, gave these with a raised budget.
OSMEAN_Z2_N26 = Fraction(4436307520345747, 562949953421312)
OSMEAN_Z2_N32 = Fraction(22947445364538871905, 2305843009213693952)


@functools.cache
def _enumerated_staircase_table(n):
    """Per-endpoint [count, open-area sum] by listing all 4^n words (read-only)."""
    out = {}
    for codes in enumerate_code_tuples(2, n):
        x = codes.count(1) - codes.count(-1)
        y = codes.count(2) - codes.count(-2)
        back = (-2 if y > 0 else 2,) * abs(y) + (-1 if x > 0 else 1,) * abs(x)
        entry = out.setdefault((x, y), [0, 0])
        entry[0] += 1
        entry[1] += _area_z2_codes(codes + back)
    return out


def test_dehn_exact_values(z2):
    vals = [int(dehn_exact(z2, n).value) for n in range(9)]
    assert vals[2] == 0
    assert vals[4] == 1
    assert vals == sorted(vals)
    assert vals[8] == 4


def _rectangle(m):
    """The floor(m/4) x (m/2 - floor(m/4)) rectangle: a closed Z^2 word of length m."""
    a = m // 4
    b = m // 2 - a
    return (1,) * a + (2,) * b + (-1,) * a + (-2,) * b


def test_dehn_z2_closed_form_matches_enumeration(z2):
    levels = [closed_level_stats(z2, t)[2] for t in range(11)]
    assert [int(dehn_exact(z2, n).value) for n in range(11)] == list(itertools.accumulate(levels, max))


def test_dehn_z2_closed_form_is_attained_by_the_rectangle(z2):
    # D(m) = D(m + 1) = floor(m^2 / 16), the rectangle's area, at every even m
    for m in range(0, 201, 2):
        word = _rectangle(m)
        assert len(word) == m and z2.is_identity(Word(word))
        area = _area_z2_codes(word)
        assert area == m * m // 16
        assert dehn_exact(z2, m).value == dehn_exact(z2, m + 1).value == area, m
    # beyond that, the rectangle's side lengths give its area
    for n in range(4002):
        report = dehn_exact(z2, n)
        m = n - n % 2
        assert report.n == n and report.value == m // 4 * (m // 2 - m // 4), n


def test_dehn_other_groups(z10, zxz2):
    # the only positive-area closed words of length <= 10 in Z/10 are a^(+-10)
    assert [int(dehn_exact(z10, n).value) for n in range(11)] == [0] * 10 + [1]
    # b^2 fills with one relator, b^4 with two
    assert [int(dehn_exact(zxz2, n).value) for n in range(5)] == [0, 0, 1, 1, 2]


@pytest.mark.parametrize("group, n_max", [("zxz2", 8), ("z3", 6), ("z10", 10)])
def test_dehn_reads_levels_n_and_n_minus_1_only(group, n_max, request):
    # w -> w a1 A1 keeps the free reduction, so no level maximum falls two lengths on
    p = request.getfixturevalue(group)
    running = 0
    for n in range(n_max + 1):
        running = max(running, closed_level_stats(p, n)[2])
        assert dehn_exact(p, n).value == running, n


def test_zxz2_length_8_pins(zxz2):
    # 190 oracle searches, each steered by the least chain
    assert closed_level_stats(zxz2, 8) == (12870, 18184, 4)
    assert smean_exact(zxz2, 8).value == Fraction(9092, 6435)
    assert dehn_exact(zxz2, 8).value == 4


# Pinned from the torsion-bound heuristic, before the least chain steered the
# oracle on Z x Z_m: a heuristic changes the search, never the least cost.
@pytest.mark.parametrize(
    "group, levels",
    [
        ("zxz3", [(1, 0, 0), (0, 0, 0), (4, 0, 0), (2, 2, 1), (36, 8, 1), (50, 70, 2), (402, 196, 2)]),
        ("z2xz", [(1, 0, 0), (0, 0, 0), (6, 2, 1), (0, 0, 0), (70, 52, 2), (0, 0, 0), (924, 1008, 3)]),
    ],
)
def test_level_stats_of_presentation_files(group, levels, request):
    p = request.getfixturevalue(group)
    assert [closed_level_stats(p, n) for n in range(7)] == levels


@pytest.mark.parametrize("group", ["z2", "zxz2"])  # the Z^2 routes and the enumerating ones
@pytest.mark.parametrize(
    "statistic",
    [
        dehn_exact,
        smean_exact,
        mean_exact,
        lazy_mean,
        relation_check,
        level_sums,
        closed_level_stats,
        osmean_exact,
        osmean_by_endpoint,
    ],
    ids=lambda fn: fn.__name__,
)
def test_negative_length_raises(group, statistic):
    p = builtin_presentation(group)
    args = (p, make_combing(p, "bfs-lex")) if statistic.__name__.startswith("osmean") else (p,)
    with pytest.raises(ValueError, match="non-negative"):
        statistic(*args, -1)


def test_unknown_keywords_raise(z2, st2):
    # no route swallows a stale or misspelt keyword
    with pytest.raises(TypeError):
        dehn_exact(z2, 4, engine="oracle")
    with pytest.raises(TypeError):
        mean_exact(z2, 4, bogus=1)
    with pytest.raises(TypeError):
        osmean_exact(z2, st2, 4, bogus=1)


def test_smean_values(z2):
    assert smean_exact(z2, 2).value == 0
    assert smean_exact(z2, 4).value == Fraction(2, 9)
    assert smean_exact(z2, 3).value == 0  # empty sphere


def test_smean_odd_zero_for_even_relators(z2, zxz2):
    for p in (z2, zxz2):
        for n in (1, 3, 5, 7):
            assert smean_exact(p, n).value == 0


def test_smean_reads_only_its_own_level(zxz2):
    # Level 7 of zxz2 is empty, so no area is needed; the oracle would run out
    # of expansions on the level-4 word (1, 2, -1, 2).
    assert smean_exact(zxz2, 7, max_expansions=0).value == 0


def test_mean_values(z2):
    assert mean_exact(z2, 4).value == Fraction(8, 41)
    assert mean_exact(z2, 0).value == 0
    assert mean_exact(z2, 2).value == 0


def test_lazy_mean_values(z2):
    for n in (0, 1, 2, 3):
        assert lazy_mean(z2, n).value == 0
    assert lazy_mean(z2, 4).value == Fraction(8, 61)


def test_lazy_mean_below_mean(z2):
    # shorter words weighted up; reported comparison, not a theorem
    for n in range(4, 11):
        assert lazy_mean(z2, n).value <= mean_exact(z2, n).value


def test_level_stats_match_walk_counts(z2, zxz2):
    for n in range(0, 9):
        count, _, _ = closed_level_stats(z2, n)
        assert count == walk_counts(z2, n).get(z2.identity())
    # pruned enumeration itself (no areas) for the torsion group
    for n in range(0, 9):
        count = sum(1 for _ in iter_closed_codes(zxz2, n))
        assert count == walk_counts(zxz2, n).get(zxz2.identity())
    for n in range(0, 7):
        count, _, _ = closed_level_stats(zxz2, n)
        assert count == walk_counts(zxz2, n).get(zxz2.identity())


def test_osmean_small_values(z2, st2):
    assert osmean_exact(z2, st2, 1).value == 0
    assert osmean_exact(z2, st2, 2).value == Fraction(1, 4)


def test_osmean_n2_off_staircase_words(z2, st2):
    # the four words stepping in the b direction first enclose one cell each
    from dehnlab import area_open, enumerate_words

    ones = [
        w.codes
        for w in enumerate_words(2, 2)
        if area_open(z2, st2, w).upper == 1
    ]
    assert sorted(ones) == [(-2, -1), (-2, 1), (2, -1), (2, 1)]


def test_osmean_fast_path_matches_generic(z2, st2):
    from dehnlab import area_exact_z2, close_path, enumerate_words, sphere_size

    for n in (3, 5, 6):
        brute = sum(area_exact_z2(close_path(st2, w)) for w in enumerate_words(2, n))
        assert osmean_exact(z2, st2, n).value == Fraction(brute, sphere_size(2, n))


def test_osmean_off_z2_matches_brute_force(z10):
    # the enumeration route on a torsion group, against area_open word by word
    from dehnlab import area_open, enumerate_words

    bfs = make_combing(z10, "bfs-lex")
    for n in range(9):
        brute = sum(area_open(z10, bfs, w).upper for w in enumerate_words(1, n))
        assert osmean_exact(z10, bfs, n).value == Fraction(brute, 2**n)
        wt = walk_counts(z10, n)
        table = osmean_by_endpoint(z10, bfs, n)
        assert {v: cnt for v, (cnt, _) in table.items()} == wt.counts
    assert osmean_exact(z10, bfs, 8).value == Fraction(9, 128)


def test_osmean_zxz2_matches_brute_force(zxz2):
    # open words on a torsion group with a commutator: the oracle fills the closures
    from dehnlab import area_open, enumerate_words

    bfs = make_combing(zxz2, "bfs-lex")
    for n in range(4):
        brute = sum(area_open(zxz2, bfs, w).upper for w in enumerate_words(2, n))
        assert osmean_exact(zxz2, bfs, n).value == Fraction(brute, 4**n)


def test_osmean_by_endpoint_decomposition(z2, st2):
    for n in range(0, 9):
        table = osmean_by_endpoint(z2, st2, n)
        assert sum(cnt for cnt, _ in table.values()) == 4**n
        num = sum(s for _, s in table.values())
        assert osmean_exact(z2, st2, n).value == Fraction(num, 4**n)
        wt = walk_counts(z2, n)
        for v, (cnt, _) in table.items():
            assert wt.get(v) == cnt


def test_winding_dp_matches_enumeration(z2, st2):
    # smean, mean and lazy-mean at n are all read from level_sums(p, n)
    levels = [closed_level_stats(z2, t)[:2] for t in range(11)]
    for n in range(11):
        assert level_sums(z2, n) == levels[: n + 1]
        table = _enumerated_staircase_table(n)
        total = sum(s for _, s in table.values())
        assert osmean_exact(z2, st2, n).value == Fraction(total, 4**n)
        if n <= 8:  # osmean_by_endpoint enumerates too
            assert osmean_by_endpoint(z2, st2, n) == {z2.canonical_form(v): e for v, e in table.items()}


def test_osmean_n12_live(z2, st2):
    t0 = time.perf_counter()
    assert osmean_exact(z2, st2, 12).value == OSMEAN_Z2_N12
    assert time.perf_counter() - t0 < 2


def test_pins_beyond_enumeration(z2, st2):
    assert smean_exact(z2, 16).value == SMEAN_Z2_N16
    assert smean_exact(z2, 20).value == SMEAN_Z2_N20
    assert osmean_exact(z2, st2, 16).value == OSMEAN_Z2_N16


def test_osmean_pins_on_several_moduli(z2, st2, monkeypatch):
    moduli = []
    crt = dehnstats._crt

    def counted_crt(residues, mods):
        moduli.append(len(mods))
        return crt(residues, mods)

    monkeypatch.setattr(dehnstats, "_crt", counted_crt)
    assert osmean_exact(z2, st2, 26).value == OSMEAN_Z2_N26
    assert osmean_exact(z2, st2, 32).value == OSMEAN_Z2_N32
    assert moduli[-1] >= 2


def test_bfs_lex_osmean_on_z2_takes_the_dp_route(z2, monkeypatch):
    # bfs-lex is the staircase on Z^2, so it shares the winding DP
    def no_walks(*args):
        raise AssertionError("the Z^2 osmean enumerated words")

    monkeypatch.setattr(dehnstats, "_walks", no_walks)
    rep = osmean_exact(z2, make_combing(z2, "bfs-lex"), 16)
    assert rep.value == OSMEAN_Z2_N16
    assert rep.combing == "bfs-lex"


class _Admitted(Exception):
    pass


def test_dp_budget(z2, st2, monkeypatch):
    # The DPs check DEFAULT_DP_BUDGET before they allocate their first frame:
    # it admits smean to n = 32 and osmean to n = 87 ...
    def admitted(*args, **kwargs):
        raise _Admitted

    assert DEFAULT_DP_BUDGET == 2**28
    monkeypatch.setattr(np, "zeros", admitted)
    for n in range(33):
        with pytest.raises(_Admitted):
            smean_exact(z2, n)
    with pytest.raises(_Admitted):
        osmean_exact(z2, st2, 87)
    # ... and refuses smean at n = 40 and osmean at n = 88 before any work
    with pytest.raises(BudgetError):
        smean_exact(z2, 40)
    with pytest.raises(BudgetError):
        osmean_exact(z2, st2, 88)
    with pytest.raises(BudgetError):
        level_sums(z2, 10, budget=1000)


# the n = 34 area sum, from the Python-int DP that the residue DP replaced
LEVEL_AREA_SUM_Z2_N34 = 28470335613898535424


def test_level_sums_on_two_moduli():
    # C(32, 16)^2 fits one modulus and C(34, 17)^2 does not
    assert len(_moduli(math.comb(32, 16) ** 2)) == 1
    assert len(_moduli(math.comb(34, 17) ** 2)) == 2
    levels = _z2_level_sums(34)
    assert [c for c, _ in levels] == [closed_walk_closed_form_z2(t) for t in range(35)]
    assert levels[34][1] == LEVEL_AREA_SUM_Z2_N34
    assert all(type(c) is int and type(s) is int for c, s in levels)


def test_level_sums_on_tiny_moduli_match_enumeration(z2, tiny_moduli):
    assert level_sums(z2, 10) == [closed_level_stats(z2, t)[:2] for t in range(11)]
    assert max(tiny_moduli) > 1


def test_osmean_total_on_tiny_moduli_matches_enumeration(z2, st2, tiny_moduli):
    for n in range(9):
        total = sum(s for _, s in _enumerated_staircase_table(n).values())
        assert osmean_exact(z2, st2, n).value == Fraction(total, 4**n), n
    assert max(tiny_moduli) > 1


def test_level_stats_keyed_on_every_oracle_argument():
    # results for one oracle budget must not be served for another; at
    # length 4 the bracket alone certifies every class, so no budget starves
    p = builtin_presentation("zxz2")
    assert closed_level_stats(p, 6) == (924, 1008, 3)
    with pytest.raises(BudgetError):
        closed_level_stats(p, 6, max_expansions=0)


@pytest.mark.parametrize("name, n_max", [("zxz2", 6), ("z3", 4), ("a1a1a2,[a1,a2]", 6)])
def test_level_stats_match_a_plain_oracle_loop(name, n_max):
    # one oracle search per class of words must give what a search per word gives
    p = WALK_PRESENTATIONS[name]()
    for n in range(n_max + 1):
        areas = [area_oracle(p, Word(codes)) for codes in iter_closed_codes(p, n)]
        assert closed_level_stats(p, n) == (len(areas), sum(areas), max(areas, default=0))


def test_smean_zxz2_6_pin(zxz2):
    assert closed_level_stats(zxz2, 6) == (924, 1008, 3)
    assert smean_exact(zxz2, 6).value == Fraction(12, 11)


@pytest.mark.parametrize("name", ["zxz2", "a1a1a2,[a1,a2]"])
def test_oracle_memo_lives_for_one_call(name):
    # a default call fills every class; a later starved call must search again
    p = WALK_PRESENTATIONS[name]()
    closed_level_stats(p, 6)
    with pytest.raises(BudgetError):
        closed_level_stats(p, 6, max_expansions=0)


def test_relation_check(z2):
    rows = relation_check(z2, 10)
    assert all(r.ok for r in rows)
    assert rows[4].mean_value == Fraction(8, 41)
    assert rows[4].max_smean == Fraction(2, 9)
    assert rows[0].mean_value == 0


def test_sampled_osmean_agrees_with_exact(z2, st2):
    exact = float(osmean_exact(z2, st2, 8).value)
    rep = osmean_sampled(z2, st2, 8, 20_000, seed=101)
    stderr = (rep.ci_high - rep.ci_low) / (2 * 1.96)
    assert abs(rep.estimate - exact) <= 3 * stderr
    assert rep.combing == "staircase"


@pytest.mark.parametrize("n,seed", [(4, 55), (8, 5508), (12, 5512)])
def test_sampled_smean_agrees_with_exact(z2, st2, n, seed):
    rep = smean_sampled(z2, st2, n, 20_000, seed=seed)
    stderr = (rep.ci_high - rep.ci_low) / (2 * 1.96)
    assert abs(rep.estimate - float(smean_exact(z2, n).value)) <= 3 * stderr


def test_sampled_osmean_n12_agrees_with_exact(z2, st2):
    exact = osmean_exact(z2, st2, 12).value
    rep = osmean_sampled(z2, st2, 12, 20_000, seed=7171)
    stderr = (rep.ci_high - rep.ci_low) / (2 * 1.96)
    assert abs(rep.estimate - float(exact)) <= 3 * stderr


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("sampler", [osmean_sampled, smean_sampled])
def test_samplers_reject_nonpositive_sample_counts(z2, st2, sampler, samples):
    # odd n: smean's exact zero must not hide the bad count
    with pytest.raises(ValueError):
        sampler(z2, st2, 5, samples, seed=1)


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize("sampler", [osmean_sampled, smean_sampled])
def test_samplers_reject_a_negative_length(z2, st2, sampler, n):
    # n = -1 is odd, so smean's exact zero must not hide it either
    with pytest.raises(ValueError, match="word length must be non-negative"):
        sampler(z2, st2, n, 10, seed=1)


def test_smean_sampled_odd_is_exact_zero(z2, st2):
    rep = smean_sampled(z2, st2, 5, 100, seed=1)
    assert rep.value == 0


def _osmean_rows(z2, comb, n, samples, seed):
    codes = slots_to_codes(sample_letter_matrix(2, n, samples, make_rng(seed)))
    for row in codes.tolist():
        end = z2.canonical_form((row.count(1) - row.count(-1), row.count(2) - row.count(-2)))
        yield row + list(comb.comb_to(end).inverse().codes)


def _scored_rows(monkeypatch, sampler, *args, **kw):
    """One sampler call's report, and every code row its blocks scored with its area."""
    kernel, blocks, areas = dehnstats._area_z2_rows, [], []

    def spy(codes):
        blocks.append(np.array(codes))
        areas.append(kernel(codes))
        return areas[-1]

    monkeypatch.setattr(dehnstats, "_area_z2_rows", spy)
    report = sampler(*args, **kw)
    monkeypatch.undo()
    return report, np.concatenate(blocks), np.concatenate(areas)


def _chunk_rows(n):
    return max(1, SAMPLE_BLOCK_LETTERS // n) * SAMPLE_CHUNK_BLOCKS


@pytest.mark.parametrize(
    "n,samples",
    [
        pytest.param(1024, 1, id="1"),
        pytest.param(1024, SAMPLE_BLOCK_LETTERS // 1024 + 1, id="17"),
        (1024, _chunk_rows(1024) + 1),
        # odd n with an odd number of rows per block: the odd letter count of
        # a block must not end a chunk, or the chunked draw leaves one draw's stream
        (3001, _chunk_rows(3001) + 1),
    ],
)
def test_block_scoring_matches_the_per_word_kernel(z2, st2, n, samples, monkeypatch):
    # one row, one row past a full block and one past a full chunk: the
    # blocks score every row once, and the chunks draw the stream of one
    # draw of every word; the open rows are closed by each combing's comb_to
    bfs = make_combing(z2, "bfs-lex")
    for comb in (st2, bfs):
        rows = _osmean_rows(z2, comb, n, samples, 20061)
        areas = np.array([_area_z2_codes(row) for row in rows], dtype=np.float64)
        assert len(areas) == samples
        assert osmean_sampled(z2, comb, n, samples, seed=20061).estimate == float(np.mean(areas))
    if n % 2 == 0:
        # smean's draw has no per-word replay, so score the rows it drew
        rep, rows, scored = _scored_rows(monkeypatch, smean_sampled, z2, st2, n, samples, seed=20061)
        areas = np.array([_area_z2_codes(row) for row in rows.tolist()], dtype=np.float64)
        assert len(areas) == samples
        assert (scored == areas).all()
        assert rep.estimate == float(np.mean(areas))


@pytest.mark.parametrize("n", [0, 2, 6, 1002, 1024])
def test_smean_scores_closed_words_of_length_n(z2, st2, n, monkeypatch):
    # one row past a chunk; 1002 and 6 leave a part byte of random bits
    samples = _chunk_rows(max(n, 1)) + 1
    _, rows, _ = _scored_rows(monkeypatch, smean_sampled, z2, st2, n, samples, seed=2024)
    assert rows.shape == (samples, n)
    assert np.isin(rows, [-2, -1, 1, 2]).all()
    for a in (1, 2):
        assert ((rows == a).sum(axis=1) == (rows == -a).sum(axis=1)).all()


@pytest.mark.parametrize("n,seed", [(6, 606), (8, 808)])
def test_smean_draws_every_balanced_row_equally_often(z2, st2, n, seed, monkeypatch):
    # a word's rows of x + y and x - y steps: each a uniform balanced row, and
    # the pair uniform over all C(n, n/2)^2 closed words
    from scipy.stats import chisquare

    _, rows, _ = _scored_rows(monkeypatch, smean_sampled, z2, st2, n, 100_000, seed=seed)
    weights = 1 << np.arange(n)
    u = ((rows > 0) * weights).sum(axis=1)
    v = (((rows == 1) | (rows == -2)) * weights).sum(axis=1)
    patterns = math.comb(n, n // 2)
    _, single = np.unique(np.concatenate([u, v]), return_counts=True)
    _, pair = np.unique(u * 2**n + v, return_counts=True)
    assert (len(single), len(pair)) == (patterns, patterns**2)
    assert chisquare(single).pvalue > 1e-3
    assert chisquare(pair).pvalue > 1e-3


def test_sampled_estimates_at_benchmark_sizes_are_pinned(z2, st2):
    # the seeded n = 1024 estimates the whole-sample draws gave before the
    # samplers drew in chunks (smean's since its bits-and-flips draw); a
    # change of sampling stream must be declared
    bfs = make_combing(z2, "bfs-lex")
    assert osmean_sampled(z2, st2, 1024, 2000, seed=1).estimate == 412.3165
    assert osmean_sampled(z2, bfs, 1024, 1500, seed=1).estimate == 408.0253333333333
    assert smean_sampled(z2, st2, 1024, 1500, seed=1).estimate == 241.062


@pytest.mark.parametrize("sampler", [osmean_sampled, smean_sampled])
def test_sampler_memory_does_not_grow_with_the_sample_count(z2, st2, sampler):
    # 2000 words of 512 letters are four chunks; ten times as many words
    # must not raise the traced peak by more than their 8-byte areas
    sampler(z2, st2, 512, 100, seed=5)  # warm-up: numpy's lazy imports and caches
    peaks = []
    for samples in (2_000, 20_000):
        tracemalloc.start()
        try:
            sampler(z2, st2, 512, samples, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("n", [0, 1, 7, 1024])
def test_sampled_osmean_is_the_same_for_both_combings(z2, st2, n):
    bfs = make_combing(z2, "bfs-lex")
    a = osmean_sampled(z2, st2, n, 300, seed=1307)
    b = osmean_sampled(z2, bfs, n, 300, seed=1307)
    assert (a.estimate, a.ci_low, a.ci_high) == (b.estimate, b.ci_low, b.ci_high)
    assert (a.combing, b.combing) == ("staircase", "bfs-lex")


def test_sampled_osmean_builds_its_closing_rows(z2, monkeypatch):
    # the closing rows come from the endpoints (dx, dy), not from comb_to
    def no_comb_to(self, v):
        raise AssertionError("osmean_sampled called comb_to")

    monkeypatch.setattr(GeodesicCombing, "comb_to", no_comb_to)
    for kind in ("staircase", "bfs-lex"):
        osmean_sampled(z2, make_combing(z2, kind), 64, 50, seed=3)


def test_sampled_reports_are_deterministic(z2, st2):
    a = osmean_sampled(z2, st2, 6, 2_000, seed=42)
    b = osmean_sampled(z2, st2, 6, 2_000, seed=42)
    assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(b.as_dict(), sort_keys=True)
    c = osmean_sampled(z2, st2, 6, 2_000, seed=43)
    assert a.estimate != c.estimate
    d = smean_sampled(z2, st2, 6, 2_000, seed=42)
    e = smean_sampled(z2, st2, 6, 2_000, seed=42)
    assert d.estimate == e.estimate
    # Frozen seeded values: a change of sampling stream must be declared.
    assert a.estimate == 1.361
    assert d.estimate == 0.501
    assert osmean_sampled(z2, st2, 256, 300, seed=12).estimate == 95.85333333333334
    assert smean_sampled(z2, st2, 256, 300, seed=12).estimate == 54.53


def test_sampling_requires_standard_z2(z10):
    comb = make_combing(z10, "bfs-lex")
    with pytest.raises(ValueError):
        osmean_sampled(z10, comb, 4, 10, seed=1)


def test_report_normalization_and_dict():
    r = DehnReport(n=4, kind="smean", value=Fraction(2, 9))
    assert r.normalized == pytest.approx(float(Fraction(2, 9)) / (4 * math.log(4) ** 2))
    assert DehnReport(n=1, kind="D", value=Fraction(0)).normalized is None
    d = r.as_dict()
    assert d["value"] == "2/9"
    s = DehnReport(n=8, kind="osmean", estimate=1.5, ci_low=1.4, ci_high=1.6, samples=10, seed=3)
    dd = s.as_dict()
    assert dd["value"]["estimate"] == 1.5 and dd["value"]["seed"] == 3


def test_h_split_threshold():
    assert not h_split_holds(14)
    assert h_split_holds(15)
    assert h_split_holds(16)
    # the ceiling variant is implied wherever the majorized form holds, and
    # even-n slack lets it hold already at 14
    assert h_split_holds_ceil(14)
    assert not h_split_holds_ceil(13)
    assert h_split_range(15, 2000).all()
    assert h_split_range(15, 2000, ceil_variant=True).all()
    assert not h_split_range(10, 14).all()


def test_bound_fit():
    reports = [
        DehnReport(n=n, kind="osmean", estimate=0.25 * n * math.log(n))
        for n in (64, 128, 256, 512, 1024)
    ]
    fit = bound_fit(reports)
    # values normalized by n (ln n)^2 decay like 1/ln n: negative trend
    assert fit.slope < 0
    assert fit.no_growth
    assert len(fit.ns) == 5
    assert fit.running_max[0] == max(fit.normalized)
    growing = [DehnReport(n=n, kind="osmean", estimate=n**2) for n in (64, 128, 256, 512)]
    gfit = bound_fit(growing)
    assert gfit.slope > 0 and not gfit.no_growth
    with pytest.raises(ValueError):
        bound_fit([reports[0]])


def test_bound_fit_needs_two_distinct_lengths():
    # one length leaves no spread in ln n to fit a slope over
    same = [DehnReport(n=8, kind="osmean", estimate=e) for e in (1.0, 2.0)]
    with pytest.raises(ValueError):
        bound_fit(same)
    with pytest.raises(ValueError):
        bound_fit(same + [DehnReport(n=1, kind="osmean", estimate=0.0)])
    fit = bound_fit(same + [DehnReport(n=16, kind="osmean", estimate=3.0)])
    assert fit.ns == (8, 8, 16) and math.isfinite(fit.slope)


def test_nv_asymptotics_report():
    rows = nv_asymptotics_report(100)
    assert rows[0][0] == 2
    assert rows[0][1] == pytest.approx(math.pi / 4)
    ratios = [v for _, v in rows]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 1.0) < 0.01


def test_closed_enumeration_matches_guba_count(z2):
    # the closed-word count per length is the squared central binomial
    for n in range(0, 11):
        count = sum(1 for _ in iter_closed_codes(z2, n))
        expected = math.comb(n, n // 2) ** 2 if n % 2 == 0 else 0
        assert count == expected


@pytest.mark.parametrize("name", sorted(WALK_PRESENTATIONS))
def test_closed_words_in_enumeration_order(name):
    # membership and order, against filtering every word of each length
    p = WALK_PRESENTATIONS[name]()
    for n in range(8):
        expected = [w for w in enumerate_code_tuples(p.r, n) if p.is_identity(Word(w))]
        assert list(iter_closed_codes(p, n)) == expected, n


def test_enum_budget(z2, st2):
    from dehnlab import BudgetError

    # exact osmean on Z^2 is the DP, which the word budget does not bound ...
    assert osmean_exact(z2, st2, 30).value > 0
    # ... while its enumeration oracle and the closed-word DFS refuse 4^30 words
    with pytest.raises(BudgetError):
        osmean_by_endpoint(z2, st2, 30)
    with pytest.raises(BudgetError):
        closed_level_stats(z2, 30)
