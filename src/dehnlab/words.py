"""Words over a signed generator alphabet: reduction, lengths, counting, enumeration.

Letters are encoded as signed integers: +i is the generator a_i, -i is its
inverse, and 0 is the pause symbol allowed only in lazy words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetError

PAUSE = 0

DEFAULT_ENUMERATION_BUDGET = 2**26


@dataclass(frozen=True)
class Word:
    """A finite sequence of letters; `lazy` words may contain pause symbols."""

    codes: tuple[int, ...] = ()
    lazy: bool = False

    def __post_init__(self):
        object.__setattr__(self, "codes", tuple(int(c) for c in self.codes))
        if not self.lazy and PAUSE in self.codes:
            raise ValueError("pause symbol in a non-lazy word")

    def __len__(self) -> int:
        return len(self.codes)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.codes + other.codes, self.lazy or other.lazy)

    def inverse(self) -> "Word":
        return Word(tuple(-c for c in reversed(self.codes)), self.lazy)

    def tokens(self) -> str:
        """Serialize to the token format `a1 A1 a2 ... e` (capital = inverse)."""
        parts = []
        for c in self.codes:
            if c == PAUSE:
                parts.append("e")
            elif c > 0:
                parts.append(f"a{c}")
            else:
                parts.append(f"A{-c}")
        return " ".join(parts)

    @classmethod
    def from_tokens(cls, text: str, lazy: bool | None = None) -> "Word":
        codes = []
        for tok in text.split():
            if tok == "e":
                codes.append(PAUSE)
            elif tok[0] in "aA" and tok[1:].isascii() and tok[1:].isdigit() and int(tok[1:]) >= 1:
                idx = int(tok[1:])
                codes.append(idx if tok[0] == "a" else -idx)
            else:
                raise ValueError(f"bad word token: {tok!r}")
        if lazy is None:
            lazy = PAUSE in codes
        return cls(tuple(codes), lazy)

    def __repr__(self) -> str:
        body = self.tokens() if self.codes else "<empty>"
        return f"Word({body})" + (" [lazy]" if self.lazy else "")


def reduce_codes(codes) -> tuple[int, ...]:
    """Freely reduce a code sequence (no pauses) by stack cancellation."""
    out: list[int] = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def free_reduce(w: Word) -> Word:
    """Free reduction of a non-lazy word; the result length is the F-length."""
    if w.lazy:
        raise ValueError("free reduction is defined for non-lazy words only")
    return Word(reduce_codes(w.codes))


def length_A(w: Word) -> int:
    """Letter count, pauses included for lazy words."""
    return len(w.codes)


def _check_length(n: int) -> None:
    """Refuse a negative word length: no statistic or walk count is defined there."""
    if n < 0:
        raise ValueError(f"word length must be non-negative, got {n}")


def sphere_size(r: int, n: int) -> int:
    """Number of length-n words over r generators: (2r)^n."""
    return (2 * r) ** n


def ball_size(r: int, n: int) -> int:
    """Number of words of length <= n: ((2r)^(n+1) - 1) / (2r - 1)."""
    return ((2 * r) ** (n + 1) - 1) // (2 * r - 1)


def lazy_count(r: int, n: int) -> int:
    """Number of length-n lazy words: (2r+1)^n."""
    return (2 * r + 1) ** n


def check_enumeration_budget(r: int, n: int) -> None:
    """Raise BudgetError when the (2r)^n length-n words exceed DEFAULT_ENUMERATION_BUDGET.

    The one word budget of the package, read at call time.
    """
    if sphere_size(r, n) > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetError(
            f"enumeration of ({2 * r})^{n} words exceeds budget {DEFAULT_ENUMERATION_BUDGET}"
        )


def enumerate_code_tuples(r: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield each of the (2r)^n length-n code tuples once, in deterministic order.

    Order is lexicographic by letter code sequence a1 < A1 < a2 < A2 < ...
    """
    check_enumeration_budget(r, n)
    letters = tuple(c for i in range(1, r + 1) for c in (i, -i))
    return itertools.product(letters, repeat=n)


def enumerate_words(r: int, n: int) -> Iterator[Word]:
    """Like enumerate_code_tuples but yielding Word objects."""
    return map(Word, enumerate_code_tuples(r, n))
