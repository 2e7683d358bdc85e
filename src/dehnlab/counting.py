"""Exact walk counts, probabilistic tail bounds, and the word sampler.

All counts are arbitrary-precision integers; probabilities appear only at
the reporting edge. Sampling uses numpy's PCG64 generator seeded through
SeedSequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import BudgetError
from .presentation import AbelianPresentation, CanonicalForm
from .words import Word

RNG_ALGORITHM = "numpy PCG64 via SeedSequence(seed)"

# Certified constants from the one-dimensional tail estimate and its Z^r lift.
TAIL_K_1D = 1.35
TAIL_K_ZR = 2.7

DEFAULT_STATE_BUDGET = 5_000_000


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


@dataclass(frozen=True)
class CountTable:
    """Walk counts N_v(n) (or the non-backtracking variant) per endpoint."""

    length: int
    counts: dict
    backtracking_allowed: bool

    def total(self) -> int:
        return sum(self.counts.values())

    def get(self, v: CanonicalForm) -> int:
        return self.counts.get(v, 0)


def walk_counts(
    p: AbelianPresentation, n: int, *, max_states: int = DEFAULT_STATE_BUDGET
) -> CountTable:
    """Exact N_v(n) for every endpoint v, by length-indexed convolution."""
    counts = {p.identity(): 1}
    moves = [p.generator_image(c) for c in p.generator_codes]
    for _ in range(n):
        nxt: dict[CanonicalForm, int] = {}
        compose = p.compose
        get = nxt.get
        for g, c in counts.items():
            for mv in moves:
                h = compose(g, mv)
                nxt[h] = get(h, 0) + c
        if len(nxt) > max_states:
            raise BudgetError(f"walk DP exceeded {max_states} states")
        counts = nxt
    return CountTable(n, counts, True)


def nonbacktracking_counts(
    p: AbelianPresentation, n: int, *, max_states: int = DEFAULT_STATE_BUDGET
) -> CountTable:
    """Exact N'_v(n): walks never followed by the inverse of the last step."""
    if n == 0:
        return CountTable(0, {p.identity(): 1}, False)
    state: dict[tuple[CanonicalForm, int], int] = {}
    for c in p.generator_codes:
        state[(p.generator_image(c), c)] = 1
    for _ in range(n - 1):
        nxt: dict[tuple[CanonicalForm, int], int] = {}
        compose = p.compose
        for (g, last), cnt in state.items():
            for c in p.generator_codes:
                if c == -last:
                    continue
                key = (compose(g, p.generator_image(c)), c)
                nxt[key] = nxt.get(key, 0) + cnt
        if len(nxt) > max_states:
            raise BudgetError(f"non-backtracking DP exceeded {max_states} states")
        state = nxt
    counts: dict[CanonicalForm, int] = {}
    for (g, _last), cnt in state.items():
        counts[g] = counts.get(g, 0) + cnt
    return CountTable(n, counts, False)


def closed_walk_closed_form_z2(n: int) -> int:
    """Closed Z^2 walks of length n: C(n, n/2)^2 for even n, zero for odd n."""
    if n < 0:
        raise ValueError("length must be non-negative")
    if n % 2:
        return 0
    return math.comb(n, n // 2) ** 2


def kolmogorov_bound(t: float, eps: float, d: float, s_n: float) -> float:
    """Exponential tail bound for sums of bounded pairwise independent variables.

    Pr(S_n > eps * s_n) <= exp(-t*eps + t^2/2 * (1 + t*d/(2 s_n))),
    valid for 0 < t*d <= s_n and eps > 0.
    """
    if not (t > 0 and t * d <= s_n):
        raise ValueError("requires 0 < t*d <= s_n")
    if not eps > 0:
        raise ValueError("requires eps > 0")
    return math.exp(-t * eps + 0.5 * t * t * (1.0 + 0.5 * t * d / s_n))


def tail_bound_1d(n: int, c: float) -> float:
    """Certified fraction of length-n one-letter words with |sum| > c sqrt(n ln n).

    The count bound is 2 * 1.35 * 2^n / n^(c - 1/2); returned as the fraction
    of 2^n.
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    return 2 * TAIL_K_1D / n ** (c - 0.5)


def tail_count_exact_1d(n: int, ell: float) -> int:
    """Exact number of words in {a, a^-1}^n whose exponent sum exceeds ell in absolute value."""
    total = 0
    for k in range(n + 1):
        if abs(2 * k - n) > ell:
            total += math.comb(n, k)
    return total


def tail_bound_zr(n: int, c: float, r: int) -> float:
    """Certified fraction of length-n words with group length > r c sqrt(n ln n).

    Valid for c > 1/2; the bound is r * 2.7 / (c sqrt(n ln n))^(c - 1/2).
    """
    if c <= 0.5:
        raise ValueError("requires c > 1/2")
    if n < 2:
        raise ValueError("requires n >= 2")
    return r * TAIL_K_ZR / (c * math.sqrt(n * math.log(n))) ** (c - 0.5)


class AssumptionFunctions(NamedTuple):
    """Growth functions certifying the tail assumption for rank-r abelian groups."""

    f: Callable[[float], float]
    g: Callable[[float], float]
    c0: float


def assumption_functions(r: int) -> AssumptionFunctions:
    """f(n) = (n ln n)^(1/2), g(n) = (n ln n)^(1/(2r)), and c0 = r/2."""
    if r < 1:
        raise ValueError("rank must be positive")

    def f(n):
        return math.sqrt(n * math.log(n))

    def g(n):
        return (n * math.log(n)) ** (1.0 / (2 * r))

    return AssumptionFunctions(f, g, r / 2.0)


@dataclass(frozen=True)
class TailReport:
    """Observed versus certified tail mass for one (n, c) pair."""

    n: int
    c: float
    r: int
    threshold: float
    exceed_count: int | float
    total: int
    fraction: float
    bound_value: float
    exact: bool
    ci_low: float | None = None
    ci_high: float | None = None
    seed: int | None = None

    @property
    def holds(self) -> bool:
        return self.fraction <= self.bound_value


def tail_report_exact_1d(n: int, c: float) -> TailReport:
    """Exact binomial tail versus the certified 1-d bound."""
    ell = c * math.sqrt(n * math.log(n))
    count = tail_count_exact_1d(n, ell)
    return TailReport(
        n=n,
        c=c,
        r=1,
        threshold=ell,
        exceed_count=count,
        total=2**n,
        fraction=float(Fraction(count, 2**n)),
        bound_value=tail_bound_1d(n, c),
        exact=True,
    )


def tail_fraction_exact_1d_holds(n: int, c: float) -> bool:
    """Exact-rational comparison count/2^n <= 2.7 / n^(c-1/2).

    For 2c integral the comparison squares both sides to stay in Q; other
    exponents fall back to a float comparison.
    """
    ell = c * math.sqrt(n * math.log(n))
    count = tail_count_exact_1d(n, ell)
    frac = Fraction(count, 2**n)
    two_c = 2 * c
    if two_c == int(two_c):
        # frac <= K / n^(c - 1/2)  <=>  frac^2 * n^(2c - 1) <= K^2
        k = Fraction(27, 10)
        return frac * frac * Fraction(n) ** (int(two_c) - 1) <= k * k
    return float(frac) <= tail_bound_1d(n, c)


def endpoint_samples_zr(
    r: int, n: int, samples: int, rng: np.random.Generator, chunk: int = 1 << 20
) -> np.ndarray:
    """L1 group lengths of uniform word endpoints in Z^r, via multinomial counts."""
    out = np.empty(samples, dtype=np.int64)
    done = 0
    probs = [1.0 / (2 * r)] * (2 * r)
    while done < samples:
        take = min(chunk, samples - done)
        counts = rng.multinomial(n, probs, size=take)
        disp = counts[:, 0::2] - counts[:, 1::2]
        out[done : done + take] = np.abs(disp).sum(axis=1)
        done += take
    return out


def tail_report_sampled_zr(
    r: int, n: int, c: float, samples: int, seed: int
) -> TailReport:
    """Monte Carlo endpoint-distance tail in Z^r versus the certified bound."""
    rng = make_rng(seed)
    threshold = r * c * math.sqrt(n * math.log(n))
    lengths = endpoint_samples_zr(r, n, samples, rng)
    exceed = int(np.count_nonzero(lengths > threshold))
    frac = exceed / samples
    half = 1.96 * math.sqrt(max(frac * (1 - frac), 1e-300) / samples)
    return TailReport(
        n=n,
        c=c,
        r=r,
        threshold=threshold,
        exceed_count=exceed,
        total=samples,
        fraction=frac,
        bound_value=tail_bound_zr(n, c, r),
        exact=False,
        ci_low=max(0.0, frac - half),
        ci_high=frac + half,
        seed=seed,
    )


def sample_letter_matrix(
    r: int, n: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform letter slots in 0..2r-1 (slot 2k is a_{k+1}, slot 2k+1 its inverse)."""
    return rng.integers(0, 2 * r, size=(count, n), dtype=np.int16)


def slots_to_codes(slots: np.ndarray) -> np.ndarray:
    """Letter codes of a slot array, elementwise: slot 2k -> k+1, slot 2k+1 -> -(k+1)."""
    table = np.arange(1, int(slots.max(initial=0)) // 2 + 2, dtype=slots.dtype).repeat(2)
    table[1::2] *= -1
    return table[slots]


def sample_words(r: int, n: int, count: int, seed: int) -> Iterator[Word]:
    """`count` uniform length-n words, bit-reproducible from the seed."""
    rng = make_rng(seed)
    for row in slots_to_codes(sample_letter_matrix(r, n, count, rng)):
        yield Word(row)
