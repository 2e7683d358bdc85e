import random

import pytest

from dehnlab import (
    Word,
    area_exact_z2,
    area_open,
    close_path,
    comb_between,
    enumerate_words,
    length_A,
    make_combing,
)
from dehnlab.combing import COMBING_KINDS
from dehnlab.words import enumerate_code_tuples

from conftest import WALK_PRESENTATIONS, W


def test_staircase_examples(z2, st2):
    assert st2.comb_to(z2.canonical_form((2, 1))).tokens() == "a1 a1 a2"
    assert st2.comb_to(z2.canonical_form((0, 0))).codes == ()
    assert st2.comb_to(z2.canonical_form((-1, 2))).tokens() == "A1 a2 a2"
    # the four words stepping in the b direction first enclose one cell each
    ones = [w.codes for w in enumerate_words(2, 2) if area_open(z2, st2, w).upper == 1]
    assert sorted(ones) == [(-2, -1), (-2, 1), (2, -1), (2, 1)]


@pytest.mark.parametrize("name, radius", [("z2", 12), ("z3", 6), ("[a1,a2]^2", 6)])
def test_comb_to_is_the_tree_path_on_zr(name, radius):
    # on standard free presentations both kinds build the staircase word
    # directly; the BFS parent tree, the least geodesic, stays the reference
    p = WALK_PRESENTATIONS[name]()
    for kind in COMBING_KINDS:
        comb = make_combing(p, kind)
        for v in p.length_table(radius):
            assert comb.comb_to(v).codes == p._tree_codes(v), (kind, v)


def test_staircase_needs_standard_free(z10):
    with pytest.raises(ValueError):
        make_combing(z10, "staircase")
    with pytest.raises(ValueError):
        make_combing(z10, "spiral")


def test_comb_between_examples(z2, st2):
    u, v = z2.canonical_form((1, 0)), z2.canonical_form((1, 1))
    assert comb_between(st2, u, v).tokens() == "a2"
    assert comb_between(st2, u, u).codes == ()
    u, v = z2.canonical_form((2, 1)), z2.canonical_form((0, 0))
    assert comb_between(st2, u, v).tokens() == "A1 A1 A2"


@pytest.mark.parametrize("kind", ["staircase", "bfs-lex"])
def test_geodesy_on_z2_ball(z2, kind):
    comb = make_combing(z2, kind)
    # exhaustive over the radius-20 ball
    for x in range(-20, 21):
        for y in range(-20, 21):
            if abs(x) + abs(y) > 20:
                continue
            v = z2.canonical_form((x, y))
            w = comb.comb_to(v)
            assert length_A(w) == z2.group_length(v, 20)
            assert z2.canonical_of_word(w) == v


@pytest.mark.parametrize("name", ["z10", "zxz2"])
def test_geodesy_bfs_lex_general(name):
    from dehnlab import builtin_presentation

    p = builtin_presentation(name)
    comb = make_combing(p, "bfs-lex")
    for g, ell in p.length_table(9).items():
        w = comb.comb_to(g)
        assert length_A(w) == ell
        assert p.canonical_of_word(w) == g


@pytest.mark.parametrize("name", sorted(WALK_PRESENTATIONS))
def test_bfs_lex_is_least_geodesic(name):
    # the tree word to v is the first length-|v| word reaching v in the
    # order a1 < A1 < a2 < A2 ..., found by brute force
    p = WALK_PRESENTATIONS[name]()
    comb = make_combing(p, "bfs-lex")
    for ell in range(5):
        least = {}
        for codes in enumerate_code_tuples(p.r, ell):
            least.setdefault(p.canonical_of_word(Word(codes)), codes)
        for v in (g for g, k in p.length_table(ell).items() if k == ell):
            assert comb.comb_to(v).codes == least[v], (v, ell)


def test_translation_identity(z2, st2):
    rng = random.Random(31)
    for _ in range(1000):
        u = z2.canonical_form((rng.randint(-8, 8), rng.randint(-8, 8)))
        v = z2.canonical_form((rng.randint(-8, 8), rng.randint(-8, 8)))
        direct = st2.comb_to(z2.compose(z2.inverse_cf(u), v))
        assert comb_between(st2, u, v).codes == direct.codes


def test_close_path_examples(z2, st2):
    closed = close_path(st2, W("a1 a2"))
    assert closed.tokens() == "a1 a2 A2 A1"
    loop = W("a1 a2 A1 A2")
    assert close_path(st2, loop).codes == loop.codes
    for v in [(3, 2), (-1, 4), (0, -5)]:
        g = st2.comb_to(z2.canonical_form(v))
        assert area_exact_z2(close_path(st2, g)) == 0


def test_close_path_is_closed(z2, st2):
    rng = random.Random(77)
    for _ in range(500):
        n = rng.randint(0, 12)
        w = Word(tuple(rng.choice((1, -1, 2, -2)) for _ in range(n)))
        closed = close_path(st2, w)
        assert z2.is_identity(closed)
        assert length_A(closed) <= 2 * length_A(w)


def test_close_path_rejects_lazy(st2):
    with pytest.raises(ValueError):
        close_path(st2, Word((1, 0), lazy=True))


def test_bfs_lex_equals_staircase_on_z2(z2, st2):
    # with the (generator, sign) tie-break order the tree combing coincides
    # with the staircase on the integer lattice; reported as equality
    bfs = make_combing(z2, "bfs-lex")
    for x in range(-8, 9):
        for y in range(-8, 9):
            if abs(x) + abs(y) > 8:
                continue
            v = z2.canonical_form((x, y))
            assert bfs.comb_to(v).codes == st2.comb_to(v).codes
