"""Exact walk counts, probabilistic tail bounds, and the word sampler.

All counts are exact integers; probabilities appear only at the reporting
edge. Sampling uses numpy's PCG64 generator seeded through SeedSequence.

Walk counts live on a dense frame: an axis per free coordinate, spanning
+-n * max_c |free part of generator c|, then an axis per torsion modulus.
A step sums the frame rolled by each generator image; the rolls wrap the
torsion axes, and no walk reaches the edge of a free axis. Cells are int64
residues mod enough moduli to hold every count (`_moduli`), rebuilt by CRT.
DEFAULT_STATE_BUDGET bounds the frame's cells, times 2r for non-backtracking
counts, and is checked before anything is allocated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .cogrowth import g_even_z2
from .errors import BudgetError
from .presentation import AbelianPresentation, CanonicalForm
from .words import Word, _check_length

if TYPE_CHECKING:
    import numpy as np

RNG_ALGORITHM = "numpy PCG64 via SeedSequence(seed)"

# Certified constants from the one-dimensional tail estimate and its Z^r lift.
TAIL_K_1D = 1.35
TAIL_K_ZR = 2.7

DEFAULT_STATE_BUDGET = 5_000_000

_CELL_LIMIT = 1 << 63  # every DP cell is an int64 below this
_CRT_CHUNK = 1 << 13  # _crt holds this many cells' residues as Python ints at a time


def make_rng(seed: int) -> np.random.Generator:
    import numpy as np
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _moduli(bound: int, growth: int = 16) -> tuple[int, ...]:
    """The fewest pairwise-coprime moduli whose product exceeds bound.

    The numpy DPs here and in dehnstats count in int64 residues mod these,
    rebuilt by `_crt` at read-out. They are the descending odd numbers below
    _CELL_LIMIT // max(growth, 16) coprime to all kept before, so a frame
    reduced below them takes a step that multiplies it by growth (or 16). A
    bound below _CELL_LIMIT // 16 gets one modulus of that size whatever the
    growth: its cells are the exact values and are never reduced.
    """
    chosen: list[int] = []
    product = 1
    m = (_CELL_LIMIT // 16 - 2) | 1
    if bound >= m:
        m = (_CELL_LIMIT // max(growth, 16) - 2) | 1
    while product <= bound:
        if all(math.gcd(m, c) == 1 for c in chosen):
            chosen.append(m)
            product *= m
        m -= 2
    return tuple(chosen)


def _crt(residues: np.ndarray, moduli: tuple[int, ...]) -> list[int]:
    """The ints in [0, prod(moduli)) whose residues mod moduli[i] are row i, in C order."""
    big = math.prod(moduli)
    units = [big // m * pow(big // m, -1, m) for m in moduli]  # 1 mod m, 0 mod the others
    rows = residues.reshape(len(moduli), -1)
    chunks = (rows[:, i : i + _CRT_CHUNK].tolist() for i in range(0, rows.shape[1], _CRT_CHUNK))
    return [sum(map(operator.mul, units, col)) % big for chunk in chunks for col in zip(*chunk)]


def _reduce_first(top: int, growth: int, bound: int, moduli: tuple[int, ...]) -> tuple[bool, int]:
    """Whether to reduce a frame before a step, and its cell bound after the step.

    Cells are >= 0 and at most the values they stand for, so a step leaves them
    at most min(growth * top, bound). Only if that could reach _CELL_LIMIT is
    the frame first reduced to cells below moduli[0]; one modulus never is.
    """
    wide = min(growth * top, bound) >= _CELL_LIMIT
    return wide, min(growth * (moduli[0] - 1 if wide else top), bound)


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


def _dense_counts(p: AbelianPresentation, n: int, backtracking_allowed: bool) -> CountTable:
    _check_length(n)
    import numpy as np
    images = [p.generator_image(c) for c in p.generator_codes]
    reach = [n * max(abs(g.free_part[i]) for g in images) for i in range(p.free_rank)]
    # a trivial group gets one axis of one cell
    shape = tuple(2 * h + 1 for h in reach) + p.torsion_moduli or (1,)
    shifts = [g.free_part + g.torsion_part or (0,) for g in images]
    cells = math.prod(shape) * (1 if backtracking_allowed else len(shifts))
    if cells > DEFAULT_STATE_BUDGET:
        raise BudgetError(f"walk frame of {cells} cells exceeds {DEFAULT_STATE_BUDGET} states")
    growth = len(shifts)  # a step sums 2r frames or 2r differences
    bound = growth**n if backtracking_allowed else growth * (growth - 1) ** max(n - 1, 0)
    moduli = _moduli(bound, growth)
    m = np.array(moduli).reshape((-1,) + (1,) * len(shape))
    axes = tuple(range(1, len(shape) + 1))
    total = np.zeros((len(moduli),) + shape, dtype=np.int64)
    total[(slice(None),) + tuple(reach) + (0,) * (len(shape) - len(reach))] = 1
    top = 1
    last = None
    for _ in range(n):
        wide, top = _reduce_first(top, growth, bound, moduli)
        if backtracking_allowed:
            # S' = sum_c roll(S, shift_c), added in place into the first roll:
            # at most three frames are alive
            if wide:
                total %= m
            frame = total
            total = np.roll(frame, shifts[0], axis=axes)
            for s in shifts[1:]:
                total += np.roll(frame, s, axis=axes)
            continue
        # S'[c] = roll(sum(S) - S[-c], shift_c); codes come in (c, -c) pairs. A
        # reduction acts on what the step sums: S, or each difference.
        if last is None:
            terms = [total % m if wide else total] * growth
        else:
            terms = (total - last[i ^ 1] for i in range(growth))
            if wide:
                terms = (t % m for t in terms)
        last = [np.roll(t, s, axis=axes) for t, s in zip(terms, shifts)]
        total = reduce(np.add, last)
    k, t = p.free_rank, len(p.torsion_moduli)
    idx = np.nonzero(total.any(axis=0))
    values = _crt(total[(slice(None),) + idx], moduli)
    points = zip(*((i - h).tolist() for i, h in zip(idx, reach + [0] * len(shape))))
    counts = {CanonicalForm(c[:k], c[k : k + t]): v for c, v in zip(points, values)}
    return CountTable(n, counts, backtracking_allowed)


def walk_counts(p: AbelianPresentation, n: int) -> CountTable:
    """Exact N_v(n) per endpoint v, by rolling one dense frame per generator.

    Cells are int64 residues modulo enough moduli to hold (2r)^n, rebuilt by
    CRT; DEFAULT_STATE_BUDGET bounds the frame's cells.
    """
    return _dense_counts(p, n, True)


def nonbacktracking_counts(p: AbelianPresentation, n: int) -> CountTable:
    """Exact N'_v(n): walks never followed by the inverse of the last step.

    One dense frame per last letter, residues as in walk_counts but for the
    2r (2r - 1)^(n - 1) walks; DEFAULT_STATE_BUDGET bounds the frame's cells
    times 2r.
    """
    return _dense_counts(p, n, False)


def closed_walk_closed_form_z2(n: int) -> int:
    """Closed Z^2 walks of length n: C(n, n/2)^2 for even n, zero for odd n."""
    _check_length(n)
    return 0 if n % 2 else g_even_z2(n // 2)


def kolmogorov_bound(t: float, eps: float, d: float, s_n: float) -> float:
    """Exponential tail bound for sums of bounded pairwise independent variables.

    Pr(S_n > eps * s_n) <= exp(-t*eps + t^2/2 * (1 + t*d/(2 s_n))),
    valid for 0 < t*d <= s_n and eps > 0.
    """
    if not (t > 0 and t * d <= s_n and eps > 0):
        raise ValueError("requires 0 < t*d <= s_n and eps > 0")
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
    return sum(math.comb(n, k) for k in range(n + 1) if abs(2 * k - n) > ell)


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
    """Exact-rational comparison count/2^n <= 2 TAIL_K_1D / n^(c-1/2), the bound of tail_bound_1d.

    For 2c integral the comparison squares both sides to stay in Q; other
    exponents fall back to a float comparison.
    """
    frac = Fraction(tail_report_exact_1d(n, c).exceed_count, 2**n)
    two_c = 2 * c
    if two_c == int(two_c):
        # frac <= K / n^(c - 1/2)  <=>  frac^2 * n^(2c - 1) <= K^2
        k = 2 * Fraction(str(TAIL_K_1D))  # the decimal the constant is written as
        return frac * frac * Fraction(n) ** (int(two_c) - 1) <= k * k
    return float(frac) <= tail_bound_1d(n, c)


def endpoint_samples_zr(r: int, n: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """L1 group lengths of uniform word endpoints in Z^r, via multinomial counts."""
    import numpy as np
    chunk = 1 << 20
    out = np.empty(samples, dtype=np.int64)
    probs = [1.0 / (2 * r)] * (2 * r)
    for done in range(0, samples, chunk):
        counts = rng.multinomial(n, probs, size=min(chunk, samples - done))
        out[done : done + chunk] = np.abs(counts[:, 0::2] - counts[:, 1::2]).sum(axis=1)
    return out


def tail_report_sampled_zr(
    r: int, n: int, c: float, samples: int, seed: int
) -> TailReport:
    """Monte Carlo endpoint-distance tail in Z^r versus the certified bound."""
    rng = make_rng(seed)
    threshold = r * c * math.sqrt(n * math.log(n))
    lengths = endpoint_samples_zr(r, n, samples, rng)
    exceed = int((lengths > threshold).sum())
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
    import numpy as np
    return rng.integers(0, 2 * r, size=(count, n), dtype=np.int16)


def slots_to_codes(slots: np.ndarray) -> np.ndarray:
    """Letter codes of a slot array, elementwise: slot 2k -> k+1, slot 2k+1 -> -(k+1)."""
    import numpy as np
    table = np.arange(1, int(slots.max(initial=0)) // 2 + 2, dtype=slots.dtype).repeat(2)
    table[1::2] *= -1
    return table[slots]


def sample_words(r: int, n: int, count: int, seed: int) -> Iterator[Word]:
    """`count` uniform length-n words, bit-reproducible from the seed."""
    return map(Word, slots_to_codes(sample_letter_matrix(r, n, count, make_rng(seed))))
