"""Property tests: the winding DP against enumeration, area on Z^2 (symmetries,
winding field, the batched kernel, the Dehn bound), the projected-winding
bound on Z^3, the oracle's symmetries on zxz2 and Z^3, its move generator and
its per-move scores, the least-chain bound on Z x Z_m, and the Smith normal form."""

from fractions import Fraction

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from dehnlab import (
    Word,
    area_exact_z2,
    area_lower_zr,
    area_oracle,
    builtin_presentation,
    close_path,
    enumerate_words,
    make_combing,
    osmean_by_endpoint,
    osmean_exact,
    winding_field,
)
from dehnlab.area import (
    _area_lower_bound,
    _area_z2_codes,
    _area_z2_rows,
    _column_shape,
    _move_scorer,
    _moves,
    _relator_flips,
    _relator_rotations,
)
from dehnlab.dehnstats import closed_level_stats, level_sums
from dehnlab.presentation import free_abelian, load_presentation_text, smith_normal_form
from dehnlab.words import reduce_codes

from conftest import PRESENTATION_FILES, WALK_PRESENTATIONS

Z2 = builtin_presentation("z2")
STAIRCASE = make_combing(Z2, "staircase")


@given(st.integers(0, 10))
def test_dp_level_sums_match_enumeration(n):
    assert level_sums(Z2, n) == [closed_level_stats(Z2, t)[:2] for t in range(n + 1)]


@given(st.integers(0, 8))
def test_dp_osmean_matches_close_path_enumeration(n):
    table: dict = {}
    for w in enumerate_words(2, n):
        entry = table.setdefault(Z2.canonical_of_word(w), [0, 0])
        entry[0] += 1
        entry[1] += area_exact_z2(close_path(STAIRCASE, w))
    assert osmean_by_endpoint(Z2, STAIRCASE, n) == table
    total = sum(s for _, s in table.values())
    assert osmean_exact(Z2, STAIRCASE, n).value == Fraction(total, 4**n)


@st.composite
def closed_words(draw, r, max_size=24):
    """A random Z^r path closed by an arbitrary reordering of its return."""
    letters = [c for i in range(1, r + 1) for c in (i, -i)]
    codes = draw(st.lists(st.sampled_from(letters), max_size=max_size))
    back = []
    for i in range(1, r + 1):
        e = codes.count(i) - codes.count(-i)
        back += [-i if e > 0 else i] * abs(e)
    return tuple(codes) + tuple(draw(st.permutations(back)))


# The 8 symmetries of the square as letter maps: (swap the axes, sign of a, sign of b).
SQUARE_SYMMETRIES = [(swap, sa, sb) for swap in (False, True) for sa in (1, -1) for sb in (1, -1)]


def _apply(sym, codes):
    swap, sa, sb = sym
    out = []
    for c in codes:
        axis = abs(c)
        sign = (1 if c > 0 else -1) * (sa if axis == 1 else sb)
        out.append(sign * ((3 - axis) if swap else axis))
    return tuple(out)


@given(closed_words(2), st.integers(0, 64))
def test_z2_area_invariant_under_rotation_and_inversion(codes, shift):
    area = area_exact_z2(Word(codes))
    k = shift % len(codes) if codes else 0
    assert area_exact_z2(Word(codes[k:] + codes[:k])) == area
    assert area_exact_z2(Word(tuple(-c for c in reversed(codes)))) == area


@given(closed_words(2))
def test_z2_area_invariant_under_square_symmetries(codes):
    area = area_exact_z2(Word(codes))
    assert {area_exact_z2(Word(_apply(sym, codes))) for sym in SQUARE_SYMMETRIES} == {area}


@given(closed_words(2))
def test_winding_field_mass_is_the_area(codes):
    assert winding_field(Word(codes)).l1() == area_exact_z2(Word(codes))


@given(st.lists(st.tuples(closed_words(2), st.integers(0, 5)), min_size=1, max_size=6))
def test_batched_winding_matches_the_per_word_kernel(rows):
    width = max(len(codes) + pad for codes, pad in rows)
    block = np.zeros((len(rows), width), dtype=np.int8)
    for row, (codes, _) in zip(block, rows):
        row[: len(codes)] = codes
    assert _area_z2_rows(block).tolist() == [area_exact_z2(Word(codes)) for codes, _ in rows]


@given(closed_words(2, max_size=40))
@example((1, 1, 2, 2, -1, -1, -2, -2))  # the 2 x 2 square: the bound is attained
@example((1, 2, 2, -1, -2, -2) * 2)  # the 1 x 2 rectangle traversed twice
def test_z2_area_within_the_proven_dehn_bound(codes):
    # the bound dehn_exact's closed form rests on: area <= floor(length^2 / 16)
    assert _area_z2_codes(codes) <= len(codes) ** 2 // 16


@given(closed_words(3), st.integers(0, 64), st.permutations((1, 2, 3)))
def test_projected_winding_invariant_under_rotation_inversion_and_relabelling(codes, shift, perm):
    bound = area_lower_zr(Word(codes), 3)
    k = shift % len(codes) if codes else 0
    assert area_lower_zr(Word(codes[k:] + codes[:k]), 3) == bound
    assert area_lower_zr(Word(tuple(-c for c in reversed(codes))), 3) == bound
    relabelled = tuple((1 if c > 0 else -1) * perm[abs(c) - 1] for c in codes)
    assert area_lower_zr(Word(relabelled), 3) == bound


@given(closed_words(2))
def test_projected_winding_of_a_plane_word_is_its_area(codes):
    assert area_lower_zr(Word(codes), 3) == area_exact_z2(Word(codes))


ZXZ2 = builtin_presentation("zxz2")
Z3 = builtin_presentation("z3")


def test_relator_flips():
    assert _relator_flips(ZXZ2) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert len(_relator_flips(Z3)) == 8
    # a1 a1 a2 is kept only by flipping both generators
    assert _relator_flips(WALK_PRESENTATIONS["a1a1a2,[a1,a2]"]()) == [(1, 1), (-1, -1)]


@st.composite
def zxz2_closed_words(draw):
    """A closed zxz2 word of at most 8 letters: a closed Z^2 word and maybe a2^+-2."""
    codes = draw(closed_words(2, max_size=3))
    k = draw(st.integers(0, len(codes)))
    return codes[:k] + draw(st.sampled_from([(), (2, 2), (-2, -2)])) + codes[k:]


def _oracle_images(p, codes):
    """The oracle's area on codes, its inverse and every relator flip of codes."""
    inverse = tuple(-c for c in reversed(codes))
    images = [inverse] + [
        tuple(signs[abs(c) - 1] * c for c in codes) for signs in _relator_flips(p)
    ]
    return {area_oracle(p, Word(w)) for w in images}


@given(zxz2_closed_words())
def test_oracle_invariant_under_inversion_and_flips_on_zxz2(codes):
    assert _oracle_images(ZXZ2, codes) == {area_oracle(ZXZ2, Word(codes))}


@given(closed_words(3, max_size=4))
def test_oracle_invariant_under_inversion_and_flips_on_z3(codes):
    assert _oracle_images(Z3, codes) == {area_oracle(Z3, Word(codes))}


MOVE_GROUPS = {
    "zxz2": ZXZ2,
    "z3": Z3,
    "a1a1a2,[a1,a2]": WALK_PRESENTATIONS["a1a1a2,[a1,a2]"](),
}


@st.composite
def reduced_words_and_caps(draw):
    """(group name, a random freely reduced word, a length cap at least its length)."""
    name = draw(st.sampled_from(sorted(MOVE_GROUPS)))
    r = MOVE_GROUPS[name].r
    letters = [c for i in range(1, r + 1) for c in (i, -i)]
    codes: list[int] = []
    for _ in range(draw(st.integers(0, 10))):
        codes.append(draw(st.sampled_from([c for c in letters if not codes or c != -codes[-1]])))
    maxrel = max(len(rel) for rel in _relator_rotations(MOVE_GROUPS[name]))
    return name, tuple(codes), len(codes) + draw(st.integers(0, 2 * maxrel))


# x rel x^-1 with rel = a2 a2: the rotation is used up and the two sides cancel too
@example(("zxz2", (1, -2, -2, -1), 4))
@given(reduced_words_and_caps())
def test_oracle_moves_are_the_capped_free_reductions(case):
    name, codes, cap = case
    rots = _relator_rotations(MOVE_GROUPS[name])
    got = {}
    for i, t, word in _moves(codes, rots, cap):
        assert (i, t) not in got
        got[(i, t)] = word
    every = {}
    for i in range(len(codes) + 1):
        for t, rel in enumerate(rots):
            word = reduce_codes(codes[:i] + rel + codes[i:])
            if len(word) <= cap:
                every[(i, t)] = word
    # each move is the capped free reduction of its splice ...
    assert all(every.get(key) == word for key, word in got.items())
    # ... it is left out only when the rotation ends in the letter before the split ...
    assert {key for key in every if key not in got} == {
        (i, t) for i, t in every if i and rots[t][-1] == codes[i - 1]
    }
    # ... and leaving those out loses no successor
    assert set(got.values()) == set(every.values())


SCORED_GROUPS = {
    "z2": Z2,
    "z3": Z3,
    "z4": free_abelian(4),
    # every relator closed in Z^3; [a1^2, a2^2] winds 4 cells, so the unit is 4
    "z3,[a1a1,a2a2]": load_presentation_text(
        "generators 3\nrelator a1 a2 A1 A2\nrelator a1 a3 A1 A3\nrelator a2 a3 A2 A3\n"
        "relator a1 a1 a2 a2 A1 A1 A2 A2\n"
    ),
    "zxz2": ZXZ2,
    "a1a1a2,[a1,a2]": MOVE_GROUPS["a1a1a2,[a1,a2]"],
}


@st.composite
def scored_words(draw):
    """(group name, a closed Z^r word) for a group of SCORED_GROUPS."""
    name = draw(st.sampled_from(sorted(SCORED_GROUPS)))
    return name, draw(closed_words(SCORED_GROUPS[name].r, max_size=12))


# the 2 x 1 rectangle: the [a1^2, a2^2] cells overlap its winding at a shifted base point
@example(("z3,[a1a1,a2a2]", (1, 1, 2, -1, -1, -2)))
@given(scored_words())
def test_oracle_scores_each_move_as_the_lower_bound_of_its_word(case):
    # the scorer updates the popped word's bound by the move; it must be the
    # bound of the pushed word, or the search order and expansion counts change
    name, codes = case
    p = SCORED_GROUPS[name]
    bound = _area_lower_bound(p)
    rots = _relator_rotations(p)
    start = reduce_codes(codes)
    cap = len(start) + 2 * max(map(len, rots))
    score = _move_scorer(p, rots)(start)
    assert all(score(i, t, word) == bound(word) for i, t, word in _moves(start, rots, cap))


CHAIN_GROUPS = {
    "zxz2": ZXZ2,
    **{name: load_presentation_text(text) for name, text in PRESENTATION_FILES.items()},
}


@st.composite
def torsion_closed_words(draw):
    """(group name, a closed word) on one of the Z x Z_m of CHAIN_GROUPS.

    At most 4 random letters, closed by a permutation of their return: the
    free generator's exponent sum back to 0, the torsion one's to a multiple
    of m, either way round. On zxz2 that is at most 8 letters.
    """
    name = draw(st.sampled_from(sorted(CHAIN_GROUPS)))
    a, b, m = _column_shape(CHAIN_GROUPS[name])
    codes = draw(st.lists(st.sampled_from([a, -a, b, -b]), max_size=4))
    ea = codes.count(a) - codes.count(-a)
    eb = codes.count(b) - codes.count(-b)
    back = [-a if ea > 0 else a] * abs(ea)
    back += draw(st.sampled_from([[b] * (-eb % m), [-b] * (eb % m)]))
    return name, tuple(codes) + tuple(draw(st.permutations(back)))


def _window_chain(codes, a, b, m):
    """The least chain by a plain DP over the window |a_x| <= U0, the test reference.

    It walks the word's full 1-cycle, checks that the a = 0 chain (squares
    H_{x,s}, power cells c_x) fills it, and then tries every a_x in the
    window against every a_{x-1}. The window holds an optimum: square (x, 0)
    has coefficient a_x, so a chain with |a_x| > U0 costs more than the
    a = 0 chain, which costs U0.
    """
    x = s = lo = hi = 0
    za: dict = {}
    zb: dict = {}
    for c in codes:
        if c == a:
            za[x, s] = za.get((x, s), 0) + 1
            x += 1
        elif c == -a:
            x -= 1
            za[x, s] = za.get((x, s), 0) - 1
        elif c == b:
            zb[x, s] = zb.get((x, s), 0) + 1
            s = (s + 1) % m
        else:
            s = (s - 1) % m
            zb[x, s] = zb.get((x, s), 0) - 1
        lo, hi = min(lo, x), max(hi, x)
    H = {x: [sum(za.get((x, t), 0) for t in range(1, k + 1)) for k in range(m)] for x in range(lo, hi)}
    c = {x: zb.get((x, 0), 0) for x in range(lo, hi + 1)}
    for x in range(lo, hi + 1):
        assert sum(za.get((x, s), 0) for s in range(m)) == 0
        for s in range(m):
            west, east = H.get(x - 1, [0] * m)[s], H.get(x, [0] * m)[s]
            assert west - east + c[x] == zb.get((x, s), 0)
    u0 = sum(abs(h) for col in H.values() for h in col) + sum(map(abs, c.values()))
    cost = {0: 0}  # a_{lo - 1} = 0
    for x in range(lo, hi):
        cost = {
            ax: sum(abs(ax + h) for h in H[x])
            + min(v + abs(ax - prev + c[x]) for prev, v in cost.items())
            for ax in range(-u0, u0 + 1)
        }
    return min(v + abs(c[hi] - prev) for prev, v in cost.items())


@given(torsion_closed_words())
@example(("zxz2", (-2, -1, -1, -1, 2, 1, 1, 1)))  # area 3, exponent sums 0
@example(("zxz3", (1, 2, 2, -1, -2, -2)))
# column 0 leaves its cost least on a_0 in [2, 4], which column 1 must not overcharge
@example(("zxz3", (1, 2, -1, -2) * 2 + (1, 2, 2, -1, -2, -2) * 2 + (1, 1, 2, -1, -2, -1)))
def test_least_chain_is_the_window_dp(case):
    name, codes = case
    p = CHAIN_GROUPS[name]
    assert _area_lower_bound(p)(codes) == _window_chain(codes, *_column_shape(p))


@given(torsion_closed_words())
def test_least_chain_between_the_torsion_bound_and_the_area(case):
    name, codes = case
    p = CHAIN_GROUPS[name]
    _, b, m = _column_shape(p)
    bound = _area_lower_bound(p)(codes)
    torsion = -(-abs(codes.count(b) - codes.count(-b)) // m)
    assert torsion <= bound <= area_oracle(p, Word(codes))


@given(torsion_closed_words(), st.integers(0, 64))
def test_least_chain_invariant_under_rotation_inversion_and_flips(case, shift):
    name, codes = case
    p = CHAIN_GROUPS[name]
    bound = _area_lower_bound(p)
    k = shift % len(codes) if codes else 0
    images = [codes[k:] + codes[:k], tuple(-c for c in reversed(codes))]
    images += [tuple(signs[abs(c) - 1] * c for c in codes) for signs in _relator_flips(p)]
    assert {bound(w) for w in images} == {bound(codes)}


@given(torsion_closed_words())
def test_least_chain_is_consistent_across_moves(case):
    # the oracle's heuristic moves by at most 1 along every edge of its search
    name, codes = case
    p = CHAIN_GROUPS[name]
    bound = _area_lower_bound(p)
    rots = _relator_rotations(p)
    start = reduce_codes(codes)
    h = bound(start)
    assert h == bound(codes)
    cap = len(start) + 2 * max(map(len, rots))
    assert all(abs(bound(word) - h) <= 1 for _, _, word in _moves(start, rots, cap))


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(0, 4))
    return [draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)) for _ in range(rows)]


@given(integer_matrices())
def test_smith_normal_form_is_a_unimodular_diagonalization(M):
    import sympy

    rows, cols = len(M), len(M[0])
    snf = smith_normal_form(M)
    d = snf.diagonal
    assert len(d) == min(rows, cols) and all(x >= 0 for x in d)
    # a divisibility chain; zeros only at the end
    assert all((b % a == 0) if a else b == 0 for a, b in zip(d, d[1:]))
    U = sympy.Matrix(rows, rows, [x for row in snf.U for x in row])
    V = sympy.Matrix(cols, cols, [x for row in snf.V for x in row])
    D = sympy.zeros(rows, cols)
    for i, x in enumerate(d):
        D[i, i] = x
    assert U * sympy.Matrix(rows, cols, [x for row in M for x in row]) * V == D
    assert abs(U.det()) == 1 and abs(V.det()) == 1
