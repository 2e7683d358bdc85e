import itertools
import math
import random

import pytest

from dehnlab import (
    BudgetError,
    Word,
    ball_size,
    enumerate_words,
    free_reduce,
    lazy_count,
    length_A,
    sphere_size,
)

from conftest import W


def test_free_reduce_examples():
    assert free_reduce(W("a1 a1 A1 a1 a1 a1")).codes == (1, 1, 1, 1)
    assert free_reduce(Word()).codes == ()
    assert free_reduce(W("a1 a2 A2 A1")).codes == ()


def test_free_reduce_rejects_lazy():
    with pytest.raises(ValueError):
        free_reduce(Word((1, 0, 2), lazy=True))


def test_length_A():
    assert length_A(W("a1 a1 A1 a1 a1 a1")) == 6
    assert length_A(Word()) == 0
    assert length_A(Word((1, 0, 2), lazy=True)) == 3


def test_sphere_ball_lazy_sizes():
    assert sphere_size(2, 3) == 64
    assert sphere_size(1, 0) == 1
    assert sphere_size(2, 10) == 1048576
    assert ball_size(2, 1) == 5
    assert ball_size(2, 2) == 21
    assert ball_size(1, 3) == 15
    assert lazy_count(2, 2) == 25
    assert lazy_count(2, 0) == 1
    assert lazy_count(1, 3) == 27


@pytest.mark.parametrize("r", [1, 2, 3])
def test_lazy_count_binomial_identity(r):
    for n in range(21):
        assert sum(math.comb(n, m) * (2 * r) ** m for m in range(n + 1)) == lazy_count(r, n)


def test_enumerate_words_small():
    assert [w.codes for w in enumerate_words(1, 1)] == [(1,), (-1,)]
    assert [w.codes for w in enumerate_words(2, 1)] == [(1,), (-1,), (2,), (-2,)]
    words = list(enumerate_words(2, 2))
    assert len(words) == 16
    assert len({w.codes for w in words}) == 16


@pytest.mark.parametrize("r,n", [(1, 4), (2, 3), (3, 2)])
def test_enumerate_counts_match_sphere(r, n):
    assert sum(1 for _ in enumerate_words(r, n)) == sphere_size(r, n)


def test_enumerate_budget():
    with pytest.raises(BudgetError):
        list(enumerate_words(2, 30, budget=1000))


def test_free_reduce_idempotent_and_parity():
    # exhaustive at small lengths, seeded samples at length 10
    for n in range(0, 7):
        for w in enumerate_words(2, n):
            red = free_reduce(w)
            assert free_reduce(red).codes == red.codes
            assert length_A(w) >= length_A(red)
            assert (length_A(w) - length_A(red)) % 2 == 0
    rng = random.Random(4711)
    for _ in range(2000):
        w = Word(tuple(rng.choice((1, -1, 2, -2)) for _ in range(10)))
        red = free_reduce(w)
        assert free_reduce(red).codes == red.codes
        assert (length_A(w) - length_A(red)) % 2 == 0


def test_word_tokens_roundtrip():
    w = W("a1 A1 a2 A2")
    assert w.tokens() == "a1 A1 a2 A2"
    lazy = Word((1, 0, -2), lazy=True)
    assert lazy.tokens() == "a1 e A2"
    assert Word.from_tokens(lazy.tokens()).codes == lazy.codes
    with pytest.raises(ValueError):
        Word.from_tokens("a1 q7")
    with pytest.raises(ValueError):
        Word((1, 0, 2))  # pause in a non-lazy word


def test_word_algebra():
    w = W("a1 a2")
    assert (w * w.inverse()).codes == (1, 2, -2, -1)
    assert w.inverse().inverse().codes == w.codes


def test_enumeration_order_is_product_order():
    expected = list(itertools.product((1, -1, 2, -2), repeat=2))
    assert [w.codes for w in enumerate_words(2, 2)] == expected
