import random

import numpy as np
import pytest

import dehnlab.area as area_module
from dehnlab import (
    AbelianPresentation,
    AreaResult,
    Word,
    area_closed_at,
    area_exact_z2,
    area_lower_zr,
    area_open,
    area_oracle,
    area_upper_dc,
    closed_area_result,
    free_abelian,
    make_combing,
    smean_sampled,
    winding_field,
)
from dehnlab.area import (
    ORACLE_CUTOFF,
    _area_lower_bound,
    _area_z2_codes,
    _area_z2_rows,
    _bound_scorer,
    _column_shape,
    _fill_info,
    _relator_cores,
    _relator_rotations,
)
from dehnlab.dehnstats import closed_level_stats, iter_closed_codes
from dehnlab.errors import BudgetError
from dehnlab.words import reduce_codes

from conftest import WALK_PRESENTATIONS, W


def _random_closed_z2(rng, n):
    while True:
        codes = tuple(rng.choice((1, -1, 2, -2)) for _ in range(n))
        if sum(1 for c in codes if c == 1) == sum(1 for c in codes if c == -1) and sum(
            1 for c in codes if c == 2
        ) == sum(1 for c in codes if c == -2):
            return Word(codes)


def test_winding_shortcuts_need_the_standard_z2_presentation(z2, monkeypatch):
    c = W("a1 a2 A1 A2")
    doubled = AbelianPresentation(2, [c * c])  # abelianizes to 0, but is not [a1, a2]
    assert not doubled.is_standard_z2
    assert area_oracle(doubled, c * c) == 1
    assert closed_area_result(doubled, c * c) == AreaResult.of(1)
    with pytest.raises(ValueError):
        smean_sampled(doubled, make_combing(doubled, "staircase"), 4, 10, seed=1)
    empty = AbelianPresentation(2, [])  # [a1, a2] has no filling here
    assert not empty.is_standard_z2
    with pytest.raises(ValueError):
        closed_area_result(empty, c)

    winding_calls = []

    def spy(codes):
        winding_calls.append(codes)
        return kernel(codes)

    kernel = area_module._area_z2_codes
    monkeypatch.setattr(area_module, "_area_z2_codes", spy)
    assert closed_area_result(z2, c * c) == AreaResult.of(2)
    assert winding_calls == [(c * c).codes]


def test_winding_field_examples():
    assert winding_field(W("a1 a2 A1 A2")).cells == {(0, 0): 1}
    assert winding_field(W("a1 A1")).cells == {}
    assert winding_field(W("a2 a1 A2 A1")).cells == {(0, 0): -1}


def test_winding_rejects_open_words():
    with pytest.raises(ValueError):
        winding_field(W("a1 a2"))
    with pytest.raises(ValueError):
        area_exact_z2(W("a1"))
    with pytest.raises(ValueError):
        area_exact_z2(Word((1, 0, -1), lazy=True))
    with pytest.raises(ValueError):
        area_exact_z2(W("a3 A3"))  # outside the two-generator alphabet


def test_batched_winding_matches_the_per_word_kernel(z2):
    words = [codes for n in range(0, 9, 2) for codes in iter_closed_codes(z2, n)]
    expected = [_area_z2_codes(codes) for codes in words]
    for width in (8, 9, 13):
        block = np.zeros((len(words), width), dtype=np.int8)
        for row, codes in zip(block, words):
            row[: len(codes)] = codes
        assert _area_z2_rows(block).tolist() == expected


def test_batched_winding_rejects_open_rows_and_foreign_letters():
    with pytest.raises(ValueError, match="not closed"):
        _area_z2_rows(np.array([[1, 2, -1, -2], [1, 2, 0, 0]]))
    with pytest.raises(ValueError, match="not closed"):
        _area_z2_rows(np.array([[1, 2], [-2, -1]]))  # closed only across the row break
    with pytest.raises(ValueError, match="letter code 3"):
        _area_z2_rows(np.array([[1, 3, -3, -1]]))
    assert _area_z2_rows(np.zeros((3, 5), dtype=np.int8)).tolist() == [0, 0, 0]
    assert _area_z2_rows(np.zeros((2, 0), dtype=np.int8)).tolist() == [0, 0]


def test_area_exact_examples():
    assert area_exact_z2(W("a1 a2 A1 A2")) == 1
    assert area_exact_z2(W("a1 A1")) == 0
    assert area_exact_z2(W("a1 a1 a2 A1 A1 A2")) == 2


def test_area_oracle_examples(z2, z10):
    assert area_oracle(z2, W("a1 a2 A1 A2")) == 1
    assert area_oracle(z2, Word()) == 0
    assert area_oracle(z10, Word((1,) * 10)) == 1


def test_area_oracle_preconditions(z2):
    with pytest.raises(ValueError):
        area_oracle(z2, W("a1 a2"))  # not closed
    from dehnlab import AbelianPresentation

    no_rel = AbelianPresentation(2, [])
    with pytest.raises(ValueError):
        area_oracle(no_rel, W("a1 a2 A1 A2"))  # nothing to fill the commutator with
    assert area_oracle(no_rel, W("a1 A1")) == 0  # freely trivial needs no relator


def test_oracle_agreement_small_exhaustive(z2):
    for n in (0, 2, 4, 6):
        for codes in iter_closed_codes(z2, n):
            w = Word(codes)
            assert area_oracle(z2, w) == area_exact_z2(w), codes


def test_oracle_agreement_random_length10(z2):
    rng = random.Random(555)
    for _ in range(100):
        w = _random_closed_z2(rng, 10)
        assert area_oracle(z2, w) == area_exact_z2(w)


def test_area_axioms_on_z2():
    rng = random.Random(808)
    for _ in range(1000):
        w1 = _random_closed_z2(rng, rng.choice((4, 6, 8)))
        w2 = _random_closed_z2(rng, rng.choice((4, 6, 8)))
        a1, a2 = area_exact_z2(w1), area_exact_z2(w2)
        assert area_exact_z2(w1 * w2) <= a1 + a2
        assert area_exact_z2(w1.inverse()) == a1
        v = Word(tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 6))))
        assert area_exact_z2(v * w1 * v.inverse()) == a1


def test_freely_equal_words_have_equal_area():
    rng = random.Random(313)
    for _ in range(300):
        w = _random_closed_z2(rng, 8)
        k = rng.randint(0, 8)
        x = rng.choice((1, -1, 2, -2))
        padded = Word(w.codes[:k] + (x, -x) + w.codes[k:])
        assert area_exact_z2(padded) == area_exact_z2(w)


def test_area_open_examples(z2, st2):
    assert area_open(z2, st2, W("a1 a2")) == AreaResult.of(0)
    assert area_open(z2, st2, W("a2 a1")) == AreaResult.of(1)
    for v in [(2, 3), (-4, 1)]:
        g = st2.comb_to(z2.canonical_form(v))
        assert area_open(z2, st2, g).upper == 0


def test_area_closed_at(z2, st2):
    w = W("a1 a2 A1 A2")
    r = area_closed_at(z2, st2, w, z2.canonical_form((5, 5)))
    assert r == AreaResult.of(1)
    assert area_closed_at(z2, st2, Word(), z2.canonical_form((2, 0))).upper == 0
    r = area_closed_at(z2, st2, W("a2 a1 A2 A1"), z2.canonical_form((1, 0)))
    assert r == AreaResult.of(1)
    # oracle cross-check at small offsets
    for v in [(1, 0), (0, 1), (1, 1)]:
        t = st2.comb_to(z2.canonical_form(v))
        conj = t * w * t.inverse()
        assert area_oracle(z2, conj) == 1
    with pytest.raises(ValueError):
        area_closed_at(z2, st2, W("a1"), z2.identity())


def test_unknown_keywords_raise(z2, st2):
    # standard Z^2 never reaches the oracle, so only the signatures can reject these
    w = W("a1 a2 A1 A2")
    with pytest.raises(TypeError):
        closed_area_result(z2, w, bogus=1)
    with pytest.raises(TypeError):
        closed_area_result(z2, w, oracle_cutoff=16)
    with pytest.raises(TypeError):
        area_open(z2, st2, W("a1 a2"), engine="oracle")
    with pytest.raises(TypeError):
        area_closed_at(z2, st2, w, z2.identity(), bogus=1)
    with pytest.raises(TypeError):
        area_upper_dc(z2, st2, w, typo=3)


def test_area_upper_dc_bounds(z2, st2):
    rng = random.Random(2718)
    for _ in range(200):
        w = _random_closed_z2(rng, 12)
        exact = area_exact_z2(w)
        bound = area_upper_dc(z2, st2, w, leaf_size=4)
        assert bound >= exact
    # random length-20 closed words, compared against the exact engine
    for _ in range(1000):
        w = _random_closed_z2(rng, 20)
        assert area_upper_dc(z2, st2, w, leaf_size=8) >= area_exact_z2(w)


@pytest.mark.parametrize("leaf_size", [0, -1])
def test_area_upper_dc_needs_a_positive_leaf_size(z2, st2, leaf_size):
    # a leaf of 0 letters would split a one-letter word into itself forever
    with pytest.raises(ValueError, match="leaf_size"):
        area_upper_dc(z2, st2, W("a1 a2 A1"), leaf_size=leaf_size)


def test_area_upper_dc_geodesics(z2, st2):
    for v in [(6, 5), (-7, 2), (0, 9)]:
        g = st2.comb_to(z2.canonical_form(v))
        assert area_upper_dc(z2, st2, g, leaf_size=2) == 0


def test_area_upper_dc_other_groups(z10, zxz2):
    from dehnlab import make_combing

    for p in (z10, zxz2):
        comb = make_combing(p, "bfs-lex")
        w = Word((1,) * 10) if p is z10 else W("a2 a1 a2 A1")
        bound = area_upper_dc(p, comb, w, leaf_size=4)
        exact = area_oracle(p, w)
        assert bound >= exact


def test_area_lower_zr(z3):
    w = W("a1 a2 A1 A2")
    assert area_lower_zr(w, 3) == 1
    w2 = W("a1 a2 A1 A2 a2 a3 A2 A3")
    assert area_lower_zr(w2, 3) == 2
    assert area_oracle(z3, w2) == 2
    assert area_lower_zr(W("a1 A1 a2 A2"), 3) == 0
    # the figure eight: signed areas cancel, winding areas do not
    eight = W("a1 a2 A1 A2 a1 A2 A1 a2")
    assert area_lower_zr(eight, 3) == 2 == area_oracle(z3, eight)
    # [[a1, a2], a3]: every projection has winding area 0, so the oracle stays
    nested = W("a1 a2 A1 A2 a3 a2 a1 A2 A1 A3")
    assert area_lower_zr(nested, 3) == 0
    assert area_oracle(z3, nested) == 2
    with pytest.raises(ValueError):
        area_lower_zr(W("a1"), 3)
    with pytest.raises(ValueError):
        area_lower_zr(W("a1"), 1)  # no generator plane, still not closed
    with pytest.raises(ValueError, match="outside alphabet"):
        area_lower_zr(W("a4 A4"), 3)


@pytest.mark.parametrize("group", ["z3", "zxz2"])
def test_closed_area_result_matches_oracle_on_short_words(group, request):
    p = request.getfixturevalue(group)
    lower_bound = _area_lower_bound(p)
    for n in range(7):
        for codes in iter_closed_codes(p, n):
            w = Word(codes)
            area = area_oracle(p, w)
            assert closed_area_result(p, w) == AreaResult.of(area), codes
            assert lower_bound(codes) <= area, codes


def test_closed_area_result_long_torsion_words(zxz2):
    # the least chain (here |a2 exponent sum| / 2) meets the filling: exact, no search
    assert closed_area_result(zxz2, Word((2,) * 18)) == AreaResult.of(9)
    # past the oracle cutoff a conjugate of a2 a2, with one power cell and no
    # square, is exact without a search: the filler fills its cyclic core
    w = Word((1,) * 9 + (2, 2) + (-1,) * 9)
    assert closed_area_result(zxz2, w) == AreaResult.of(1)
    # a2^-1 a1^-3 a2 a1^3 has exponent sums 0 and area 3: where the torsion
    # bound read 0, a starved search already brackets it from the area up
    w = Word((-2, -1, -1, -1, 2, 1, 1, 1))
    assert closed_area_result(zxz2, w, max_expansions=0) == AreaResult(3, 9, False)
    assert closed_area_result(zxz2, w) == AreaResult.of(3)


def _route(p):
    """The name of the lower-bound route `_bound_scorer` picks for p."""
    return _bound_scorer(p, _relator_rotations(p)).__name__


def test_column_shape_reads_z_times_z_m_only(zxz2, zxz3, z2xz, z2, z3, z10):
    assert _column_shape(zxz2) == (1, 2, 2)
    assert _column_shape(zxz3) == (1, 2, 3)
    assert _column_shape(z2xz) == (2, 1, 2)
    assert {_route(q) for q in (zxz2, zxz3, z2xz)} == {"chain"}
    # inverted and rotated relators, and a trivial one, read the same
    p = AbelianPresentation(2, [Word((-2, -2, -2, -2)), Word((-1, 2, 1, -2)), Word((1, -1))])
    assert _column_shape(p) == (1, 2, 4)
    assert _route(p) == "chain"
    others = [
        z2,
        z3,
        z10,
        WALK_PRESENTATIONS["a1a1a2,[a1,a2]"](),
        AbelianPresentation(2, [Word((1, 1)), Word((2, 2)), Word((1, 2, -1, -2))]),
        AbelianPresentation(2, [Word((2, 2)), Word((1, 2, -1, -2)), Word((2, 1, -2, -1))]),
        AbelianPresentation(2, [Word((1, 1)), Word((2, 2))]),
        AbelianPresentation(2, [Word((2,)), Word((1, 2, -1, -2))]),
    ]
    assert [_column_shape(p) for p in others] == [None] * len(others)
    assert [_route(p) for p in others] == ["planes"] * 2 + ["torsion"] * (len(others) - 2)


@pytest.mark.parametrize(
    "group, codes, bound",
    [
        ("zxz2", (2, 2), 1),
        ("zxz2", (1, 2, 2, -1), 1),
        ("zxz2", (1, 2, -1, -2), 1),
        ("zxz2", (1, 2, -1, 2), 2),  # a1 a2 A1 a2: one square and one power cell
        ("zxz2", (1, 1, 2, -1, -1, 2), 3),
        ("zxz3", (2, 2, 2), 1),
        ("zxz3", (1, 2, 2, -1, 2), 2),
        ("zxz3", (1, 2, 2, -1, -2, -2), 2),
        ("z2xz", (1, 2, 1, -2), 2),
        ("z2xz", (2, 2, 1, -2, -2, 1), 3),
    ],
)
def test_least_chain_pins(group, codes, bound, request):
    p = request.getfixturevalue(group)
    assert _area_lower_bound(p)(codes) == bound
    assert area_oracle(p, Word(codes)) == bound


def test_least_chain_lies_below_the_area_on_a_zero_cycle(zxz2):
    # every edge is crossed as often each way, so the least chain is 0; the
    # word is no conjugate of one relator, so its area is at least 2
    codes = (-1, -2, 1, -2, -2, -1, 2, 1, 2, 2)
    assert _area_lower_bound(zxz2)(codes) == 0
    assert area_oracle(zxz2, Word(codes)) == 2


def test_least_chain_is_the_area_on_every_zxz2_word_of_length_6(zxz2):
    # observed, not proven: the chain bound can lie below the area elsewhere
    lower_bound = _area_lower_bound(zxz2)
    count = 0
    for codes in iter_closed_codes(zxz2, 6):
        assert lower_bound(codes) == area_oracle(zxz2, Word(codes)), codes
        count += 1
    assert count == 924


# zxz2 n = 6: 924 closed words in 28 classes, the bracket meets on 19. On
# zxz3 n = 5 one searched class has a bracket of width 1 and area 2.
@pytest.mark.parametrize(
    "group, n, stats, searches", [("zxz2", 6, (924, 1008, 3), 9), ("zxz3", 5, (50, 70, 2), 2)]
)
def test_exact_enumeration_settles_a_class_from_its_bracket_before_searching(
    group, n, stats, searches, request, monkeypatch
):
    p = request.getfixturevalue(group)
    expansions = []  # per area_oracle call, its _moves calls
    oracle, moves = area_module.area_oracle, area_module._moves

    def spy_oracle(p, w, **kw):
        expansions.append(0)
        return oracle(p, w, **kw)

    def spy_moves(*args):
        expansions[-1] += 1
        return moves(*args)

    monkeypatch.setattr(area_module, "area_oracle", spy_oracle)
    monkeypatch.setattr(area_module, "_moves", spy_moves)
    assert closed_level_stats(p, n) == stats
    assert sum(1 for k in expansions if k) == searches
    # a searched class still needs its exact area
    with pytest.raises(BudgetError):
        closed_level_stats(p, n, max_expansions=0)


def _no_moves(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle expanded a word")

    monkeypatch.setattr(area_module, "_moves", refuse)


def test_oracle_settles_a_word_from_its_root_bracket(zxz2, monkeypatch):
    _no_moves(monkeypatch)
    assert area_oracle(zxz2, Word((2,) * 18)) == 9
    assert area_oracle(zxz2, Word((1,) * 9 + (2, 2) + (-1,) * 9)) == 1


def test_closed_area_result_past_the_cutoff_is_the_root_bracket(zxz2, monkeypatch):
    _no_moves(monkeypatch)
    w = W("A2 A2 A1 A2 A1 A2 a1 A2 A1 A2 A2 a1 a1 A1 a2 a1 a2 a2 a2 a2")
    assert len(reduce_codes(w.codes)) == 18 > ORACLE_CUTOFF
    assert closed_area_result(zxz2, w) == AreaResult(4, 18, False)


@pytest.mark.parametrize("group", ["z2", "zxz2"])
def test_closed_area_result_rejects_lazy_words(group, request):
    p = request.getfixturevalue(group)
    for w in (Word((1, 2, -1, -2), lazy=True), W("a1 e a2 A1 A2")):
        with pytest.raises(ValueError, match="paths are non-lazy words"):
            closed_area_result(p, w)


def test_filler_needs_each_least_power_to_divide_the_others():
    # a1^4 and a1^6 make a1^2 trivial, which no block of a1^4 cancels
    p = AbelianPresentation(2, [Word((1,) * 4), Word((1,) * 6), W("a1 a2 A1 A2")])
    assert _fill_info(_relator_cores(p), 2) is None
    assert area_oracle(p, W("a1 a1")) == 2
    assert closed_area_result(p, W("a1 a1")) == AreaResult.of(2)
    # past ORACLE_CUTOFF the word is still searched, not bracketed
    assert closed_area_result(p, Word((2,) + (1,) * 18 + (-2,))) == AreaResult.of(3)
    q = AbelianPresentation(2, [Word((1,) * 4), Word((1,) * 8), W("a1 a2 A1 A2")])
    assert _fill_info(_relator_cores(q), 2) == {1: 4}


def test_sandwich_on_z3(z3):
    comb = make_combing(z3, "staircase")
    rng = random.Random(161)
    codes_pool = (1, -1, 2, -2, 3, -3)
    checked = 0
    while checked < 60:
        codes = tuple(rng.choice(codes_pool) for _ in range(8))
        v = [0, 0, 0]
        for c in codes:
            v[abs(c) - 1] += 1 if c > 0 else -1
        if v != [0, 0, 0]:
            continue
        w = Word(codes)
        lo = area_lower_zr(w, 3)
        mid = area_oracle(z3, w)
        hi = area_upper_dc(z3, comb, w, leaf_size=8)
        assert lo <= mid <= hi
        checked += 1


def test_oracle_budget_interval(z2):
    # conjugated relator: winding lower bound 1, sort-and-cancel upper bound 7
    w = W("A2 A2 A2 a1 a2 A1 a2 a2")
    exact = area_exact_z2(w)
    assert exact == 1
    got = area_oracle(z2, w, max_expansions=0)
    assert isinstance(got, AreaResult)
    assert not got.exact
    assert got.lower <= exact <= got.upper
    # tight budgets can still certify when the two bounds meet
    square = W("a1 a1 a2 a2 A1 A1 A2 A2")
    assert area_oracle(z2, square, max_expansions=0) == area_exact_z2(square) == 4


# The least max_expansions at which area_oracle returns an int. Any change
# to the oracle's successor sets, heap keys or heuristic changes the order in
# which words are popped, and with it these budgets. Each word needs at least
# one expansion, so both sides of its threshold are tested.
@pytest.mark.parametrize(
    "group, codes, budget, area",
    [
        ("zxz2", (2, -1, 2, 1, -2, -1, 2, 1, -2, -2), 6, 2),
        ("zxz2", (-2, -1, -1, 1, 1, 1, 1, -2, -1, -1), 3, 3),
        ("zxz2", (-2, 1, 1, -2, -2, -2, -1, 1, -1, -1), 4, 4),
        ("z3", (-2, -2, -1, 1, 2, 3, -1, 2, 1, -3), 13, 2),
        ("z3", (-2, -3, 2, 2, 1, 3, 1, -2, -1, -1), 70, 5),
        ("z3", (2, 1, 1, -3, -2, -1, 2, -1, -2, 3), 103, 4),
    ],
)
def test_oracle_expansion_thresholds(group, codes, budget, area, request):
    p = request.getfixturevalue(group)
    assert area_oracle(p, Word(codes), max_expansions=budget) == area
    assert isinstance(area_oracle(p, Word(codes), max_expansions=budget - 1), AreaResult)


@pytest.mark.parametrize(
    "core",
    [
        # the 4 rotations of a1 a2 A1 A2 and of its inverse a2 a1 A2 A1
        (1, 2, -1, -2), (2, -1, -2, 1), (-1, -2, 1, 2), (-2, 1, 2, -1),
        (2, 1, -2, -1), (1, -2, -1, 2), (-2, -1, 2, 1), (-1, 2, 1, -2),
    ],
)
def test_fill_info_accepts_commutator_rotations(core):
    assert _fill_info([core], 2) == {}


@pytest.mark.parametrize(
    "core", [(1, 2, 1, -2), (1, 2, -1, 2), (1, 1, -2, -2), (1, -2, 1, 2), (2, 2, 2, -1)]
)
def test_fill_info_rejects_other_four_letter_relators(core):
    assert _fill_info([core], 2) is None


def test_area_result_validation():
    with pytest.raises(ValueError):
        AreaResult(3, 2, False)
    with pytest.raises(ValueError):
        AreaResult(2, 2, False)
    assert AreaResult.of(5).exact


def test_free_abelian_z4_plane_bound():
    z4 = free_abelian(4)
    w = W("a1 a4 A1 A4")
    assert area_lower_zr(w, 4) == 1
    assert area_oracle(z4, w) == 1
