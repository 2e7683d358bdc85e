"""Dehn function statistics: maxima and means of filling areas, exact and sampled.

Exact means on standard Z^2 come from a per-cell winding-number DP that totals
the area of every word of a length without listing the words: one DP per cell
column for the closed levels, one DP over all cells at once for the open
total; on Z^2 both combings are the staircase. D(n) on standard Z^2 is the
closed form floor(m^2 / 16), m the largest even number <= n, proven in
`dehn_exact`. Other presentations walk the Cayley graph: one DFS over the ball
as integer ids lists the closed words (pruned by group length) or every word
with its endpoint, and is also the test oracle of the DP and of the closed
form. Sampled values come from seeded Monte Carlo with normal-approximation
confidence intervals. All report values are exact rationals or float
estimates, normalized by n (ln n)^2 from n = 2 on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .area import _area_z2_rows, _exact_area
from .cogrowth import g_even_z2
from .combing import GeodesicCombing
from .counting import _crt, _moduli, _reduce_first, make_rng, sample_letter_matrix, slots_to_codes
from .errors import BudgetError
from .presentation import AbelianPresentation
from .words import _check_length, check_enumeration_budget, sphere_size

if TYPE_CHECKING:
    import numpy as np

KIND_D = "D"
KIND_MEAN = "mean"
KIND_SMEAN = "smean"
KIND_OSMEAN = "osmean"
KIND_LAZY_MEAN = "lazy-mean"

DEFAULT_DP_BUDGET = 2**28
Z_95 = 1.96
# The samplers score words in blocks of about this many letters, enough to
# amortize numpy's per-call cost with temporaries under 1 MB (2^14 beat 2^15 to
# 2^17 per letter on a 2-vCPU Xeon), and draw SAMPLE_CHUNK_BLOCKS blocks at a
# time: a draw per block was slower, as glibc then remaps the temporaries.
SAMPLE_BLOCK_LETTERS = 2**14
SAMPLE_CHUNK_BLOCKS = 16
# smean's flip candidates per unbalanced row and round: 8 to 16 tie, 1 is 2.3x slower
SMEAN_FLIP_CANDIDATES = 8


@dataclass(frozen=True)
class DehnReport:
    """One statistic at one length: exact rational value or seeded estimate."""

    n: int
    kind: str
    value: Fraction | None = None
    estimate: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    samples: int | None = None
    seed: int | None = None
    combing: str | None = None

    @property
    def point(self) -> float:
        return float(self.value) if self.value is not None else float(self.estimate)

    @property
    def normalized(self) -> float | None:
        """value / (n (ln n)^2); omitted below n = 2 where ln degenerates."""
        if self.n < 2:
            return None
        return self.point / h_nlog2(self.n)

    def as_dict(self) -> dict:
        d: dict = {"n": self.n, "kind": self.kind}
        if self.value is not None:
            d["value"] = str(self.value)
        else:
            d["value"] = {
                "estimate": self.estimate,
                "ci_low": self.ci_low,
                "ci_high": self.ci_high,
                "samples": self.samples,
                "seed": self.seed,
            }
        d["normalized"] = self.normalized
        if self.combing is not None:
            d["combing"] = self.combing
        return d


# -- exact enumeration ------------------------------------------------------------


def _ball(p: AbelianPresentation, radius: int):
    """The ball |g| <= radius as integer ids, 0 the identity: (elems, dist, moves).

    moves[id][i] is the id of p.step(elems[id], generator_codes[i]), or -1
    outside the ball.
    """
    table = p.length_table(radius)
    elems = list(table)
    index = {g: i for i, g in enumerate(elems)}
    moves = [[index.get(p.step(g, c), -1) for c in p.generator_codes] for g in elems]
    return elems, list(table.values()), moves


def _walks(p: AbelianPresentation, ball, n: int, closed: bool):
    """Yield (codes, end id) for the length-n words, by DFS in generator_codes order.

    Closed walks need the ball of radius n // 2 (every prefix of a closed word
    lies that close to 1) and prune on distance; open walks need radius n.
    """
    _, dist, moves = ball
    gens = p.generator_codes
    k = len(gens)
    if n == 0:
        yield (), 0
        return
    codes = [0] * n
    ids = [0] * n
    choice = [0] * n
    depth = 0
    while depth >= 0:
        i = choice[depth]
        if i >= k:
            choice[depth] = 0
            depth -= 1
            continue
        choice[depth] = i + 1
        nxt = moves[ids[depth]][i]
        rem = n - depth - 1
        if nxt < 0 or (closed and dist[nxt] > rem):
            continue
        codes[depth] = gens[i]
        if rem == 0:
            yield tuple(codes), nxt
            continue
        depth += 1
        ids[depth] = nxt


def iter_closed_codes(p: AbelianPresentation, n: int):
    """Closed length-n code tuples, in the order of enumerate_code_tuples."""
    return (codes for codes, _ in _walks(p, _ball(p, n // 2), n, True))


def closed_level_stats(p: AbelianPresentation, n: int) -> tuple[int, int, int]:
    """(count, area sum, area max) over the closed words of length exactly n.

    Pruned enumeration: the route for every closed-word statistic on
    presentations other than standard Z^2; on Z^2 the test oracle of the
    winding DP and of D(n)'s closed form. The word budget is checked first
    (check_enumeration_budget); DEFAULT_ORACLE_EXPANSIONS caps each oracle
    search.

    Off standard Z^2 one word is filled per class of equal free reduction up
    to inversion and the relator-preserving generator flips, which the
    capped search respects, by one oracle search, which expands none where
    the root bracket meets (zxz2 has 924 closed words of length 6 in 28
    classes, 9 of them searched); `area._exact_area` builds the search's
    set-up once per call. Cyclic rotation is left out: it changes the free
    reduction that the search cap is measured from.
    """
    _check_length(n)
    check_enumeration_budget(p.r, n)
    area = _exact_area(p)
    count = 0
    asum = 0
    amax = 0
    for codes in iter_closed_codes(p, n):
        a = area(codes)
        count += 1
        asum += a
        if a > amax:
            amax = a
    return count, asum, amax


# -- per-cell winding DP on standard Z^2 --------------------------------------------
#
# The area of a closed Z^2 word is the sum over unit cells of |winding|. The
# winding of cell (u0, y0) is the number of a-steps leaving x = u0 at a height
# <= y0 minus the number of A-steps leaving x = u0 + 1 at a height <= y0, so it
# is a counter k carried along the walk, and summing |k| over the states a
# word can end in totals the area of all those words at once. The closed
# levels run one DP per cell column u0 from the origin, the height y0 over the
# rows; the open total runs one DP for all cells, since cell (u0, y0) seen from
# the origin is cell (0, 0) seen from (-u0, -y0). Reflecting either axis
# preserves areas and the staircase return, so only cells with u0, y0 >= 0 are
# run and their sums are counted four times.


def _winding_bound(n: int) -> int:
    """Largest |k| of any cell after n steps.

    Column crossings alternate in direction, so within a run of crossings on
    one side of the cell's height their contributions cancel pairwise; each
    further unit of |k| needs two more horizontal and two vertical steps.
    """
    return (n + 3) // 4


def _check_dp_budget(work: int) -> None:
    if work > DEFAULT_DP_BUDGET:
        raise BudgetError(
            f"winding DP of {work} cell-step-states exceeds budget {DEFAULT_DP_BUDGET}"
        )


def _winding_dp(N: np.ndarray, ix0: int, below: np.ndarray, n: int, moduli: tuple, bound: int):
    """Yield the frame N[row, x, y, k] after each of 0..n steps, from unit masses N.

    k, offset to the middle of its axis, counts a-steps leaving x = ix0 minus
    A-steps leaving ix0 + 1 where below[row, y] (rows broadcast) holds. Block i
    of len(moduli) equal row blocks counts mod moduli[i]. Walks leaving the
    frame are dropped. No entry counts more than bound walks; a step sums four
    neighbours and the crossings only shift counts in k, so the frame is reduced
    only as _reduce_first says.
    """
    import numpy as np
    m = np.repeat(moduli, len(N) // len(moduli)).reshape(-1, 1, 1, 1)
    top = 1
    yield N
    for _ in range(n):
        wide, top = _reduce_first(top, 4, bound, moduli)
        if wide:
            N = N % m
        new = np.empty_like(N)
        new[:, 0], new[:, -1] = N[:, 1], N[:, -2]
        np.add(N[:, :-2], N[:, 2:], out=new[:, 1:-1])
        new[:, :, 1:] += N[:, :, :-1]
        new[:, :, :-1] += N[:, :, 1:]
        up = N[:, ix0] * below  # a from x = ix0 under the cell: k + 1
        new[:, ix0 + 1] -= up
        new[:, ix0 + 1, :, 1:] += up[..., :-1]
        down = N[:, ix0 + 1] * below  # A from x = ix0 + 1 under the cell: k - 1
        new[:, ix0] -= down
        new[:, ix0, :, :-1] += down[..., 1:]
        N = new
        yield N


def _z2_level_sums(n_max: int) -> list[tuple[int, int]]:
    """(count, area sum) of the closed Z^2 words of each length t <= n_max."""
    import numpy as np
    radius = max(n_max // 2, 1)  # a walk farther out cannot close by n_max
    side = 2 * radius + 1
    kb = _winding_bound(n_max)
    _check_dp_budget(radius * radius * n_max * side * side * (2 * kb + 1))
    bound = math.comb(n_max, n_max // 2) ** 2  # walks to a point: x +- y are +-1 walks
    moduli = _moduli(bound)
    ys = np.arange(-radius, radius + 1)
    below = np.tile(ys[None, :] <= np.arange(radius)[:, None], (len(moduli), 1))[..., None]
    kabs = [abs(k) for k in range(-kb, kb + 1)] * radius
    counts = [0] * (n_max + 1)
    sums = [0] * (n_max + 1)
    start = np.zeros((len(moduli) * radius, side, side, 2 * kb + 1), dtype=np.int64)
    start[:, radius, radius, kb] = 1
    for u0 in range(radius):
        for t, N in enumerate(_winding_dp(start, u0 + radius, below, n_max, moduli, bound)):
            if t % 2:
                continue
            closed = _crt(N[:, radius, radius], moduli)  # [y0, k] in C order
            sums[t] += sum(map(operator.mul, closed, kabs))
            if u0 == 0:
                counts[t] = sum(closed[: 2 * kb + 1])
    return [(c, 4 * s) for c, s in zip(counts, sums)]


def _z2_osmean_total(n: int) -> int:
    """Total open area of all 4^n words, each closed by the staircase return.

    Unit mass starts at every (-u0, -y0), 0 <= u0, y0 < n; k is the winding of
    cell (0, 0), X, Y in [1 - 2n, n]. The return runs up or down to height
    -y0 <= 0, then along it to X = -u0 <= 0, under the cell exactly when
    X_end > 0: the cell's area is |k - [X_end > 0]|. The read-out sums, per k
    and side of X = 0, (3n)^2 entries counting (start, word) pairs, n^2 4^n in
    all: a reduced frame on moduli below 2^63 / (3n)^2 sums in int64, and one
    modulus exceeds n^2 4^n, so its entries are the exact counts.
    """
    import numpy as np
    r = max(n, 1)
    side = 3 * r
    kb = _winding_bound(n)
    _check_dp_budget(n * side * side * (2 * kb + 1))
    moduli = _moduli(r * r * 4**n, side * side)
    o = 2 * r - 1  # the index of X = 0 and of Y = 0
    N = np.zeros((len(moduli), side, side, 2 * kb + 1), dtype=np.int64)
    N[:, r : o + 1, r : o + 1, kb] = 1
    below = (np.arange(side) <= o)[None, :, None]
    for N in _winding_dp(N, o, below, n, moduli, 4**n):
        pass  # only the states after the last step are read
    if len(moduli) > 1:
        N = N % np.array(moduli).reshape(-1, 1, 1, 1)
    sides = np.stack([N[:, : o + 1].sum(axis=(1, 2)), N[:, o + 1 :].sum(axis=(1, 2))], axis=1)
    weights = [abs(k - east) for east in (0, 1) for k in range(-kb, kb + 1)]
    return 4 * sum(map(operator.mul, _crt(sides, moduli), weights))


def level_sums(p: AbelianPresentation, n_max: int) -> list[tuple[int, int]]:
    """(count, area sum) over the closed words of each length t <= n_max.

    One winding-DP pass on standard Z^2 (DEFAULT_DP_BUDGET counts cells x
    steps x states); pruned enumeration level by level elsewhere, refused
    before the first level when the words of length n_max exceed the word
    budget.
    """
    _check_length(n_max)
    if p.is_standard_z2:
        return _z2_level_sums(n_max)
    check_enumeration_budget(p.r, n_max)
    return [closed_level_stats(p, t)[:2] for t in range(n_max + 1)]


def dehn_exact(p: AbelianPresentation, n: int) -> DehnReport:
    """Exact classical D(n), the largest area of a closed word of length <= n.

    On standard Z^2, D(n) = floor(m^2 / 16) with m the largest even number
    <= n, in O(1); no budget applies. Proof:
    - A closed word's area is the sum over unit cells of |winding| (the
      identity `_area_z2_codes` computes), so by the layer cake it is the sum
      over t >= 1 of |{w >= t}| + |{w <= -t}|.
    - Across a unit edge the winding jumps by the net number of traversals of
      that edge. If its sides have windings a < b, the edge bounds {w >= t}
      for t in (a, b] and {w <= -t} for -t in [a, b), t >= 1: at most b - a
      level sets. So the level sets' perimeters sum to at most n. Each is even
      (a line along a row or column crosses a finite set of cells in and out
      alike), so they sum to at most m.
    - A union of unit cells meeting W columns and H rows has perimeter
      P >= 2 (W + H) and area <= W H <= floor(P^2 / 16). The floors
      floor((2s)^2 / 16) = floor(s^2 / 4) are nondecreasing and
      superadditive, so the area is at most floor(m^2 / 16).
    - The floor(m/4) x (m/2 - floor(m/4)) rectangle, a closed word of length
      m, attains it.
    Enumeration (`closed_level_stats`) is the formula's test oracle.

    Elsewhere, the larger `closed_level_stats` maximum of the lengths n and
    n - 1, refused before either runs when the words of length n exceed the
    word budget. The shorter levels cannot add to it: w -> w a1 A1 maps
    the closed words of length t into those of length t + 2 with the same
    free reduction, which is all the oracle sees of a word, so the level
    maximum of t + 2 is at least that of t.
    """
    _check_length(n)
    if p.is_standard_z2:
        value = (n - n % 2) ** 2 // 16
    else:
        check_enumeration_budget(p.r, n)
        value = max(closed_level_stats(p, t)[2] for t in range(max(n - 1, 0), n + 1))
    return DehnReport(n=n, kind=KIND_D, value=Fraction(value))


def _smean(count: int, asum: int) -> Fraction:
    """Spherical mean of one level; zero by convention when the sphere is empty."""
    return Fraction(0) if count == 0 else Fraction(asum, count)


def smean_exact(p: AbelianPresentation, n: int) -> DehnReport:
    """Exact spherical mean; zero by convention when the sphere is empty.

    Standard Z^2 reads level n off one DP pass; elsewhere only the closed
    words of length n are enumerated.
    """
    if p.is_standard_z2:
        level = level_sums(p, n)[n]
    else:
        level = closed_level_stats(p, n)[:2]
    return DehnReport(n=n, kind=KIND_SMEAN, value=_smean(*level))


def mean_exact(p: AbelianPresentation, n: int) -> DehnReport:
    """Exact mean over the ball of closed words of length <= n."""
    levels = level_sums(p, n)
    total = sum(c for c, _ in levels)
    asum = sum(s for _, s in levels)
    return DehnReport(n=n, kind=KIND_MEAN, value=Fraction(asum, total))


def lazy_mean(p: AbelianPresentation, n: int) -> DehnReport:
    """Mean area over closed lazy words of length n.

    A closed word of length m expands to a length-n lazy word in C(n, n-m)
    ways, all with the same area, so the average is a binomially weighted
    combination of the per-length sums.
    """
    num = 0
    den = 0
    for m, (c, s) in enumerate(level_sums(p, n)):
        mult = math.comb(n, n - m)
        num += mult * s
        den += mult * c
    value = Fraction(0) if den == 0 else Fraction(num, den)
    return DehnReport(n=n, kind=KIND_LAZY_MEAN, value=value)


# -- open means -------------------------------------------------------------------


def osmean_exact(p: AbelianPresentation, c: GeodesicCombing, n: int) -> DehnReport:
    """Exact mean open area over all (2r)^n words of length n.

    One superposed winding DP on standard Z^2, where every combing is the
    staircase (DEFAULT_DP_BUDGET counts cells x steps x states); elsewhere
    the total of osmean_by_endpoint's table (the word budget applies).
    """
    _check_length(n)
    if p.is_standard_z2:
        total = _z2_osmean_total(n)
    else:
        table = osmean_by_endpoint(p, c, n)
        total = sum(s for _, s in table.values())
    return DehnReport(
        n=n, kind=KIND_OSMEAN, value=Fraction(total, sphere_size(p.r, n)), combing=c.kind
    )


def osmean_by_endpoint(p: AbelianPresentation, c: GeodesicCombing, n: int) -> dict:
    """Per-endpoint [walk count, open-area sum] over all length-n words.

    Enumerates every word, on every presentation, and closes it by its
    endpoint's reversed combing word, so the cost grows with (2r)^n (4^n on
    Z^2), checked against the word budget first. It is the osmean route off
    standard Z^2 and the test oracle of the Z^2 winding DP.
    """
    _check_length(n)
    check_enumeration_budget(p.r, n)
    area = _exact_area(p)
    ball = _ball(p, n)
    elems = ball[0]
    out: dict = {}
    close: list = [None] * len(elems)
    for codes, end in _walks(p, ball, n, False):
        back = close[end]
        if back is None:
            back = close[end] = c.comb_to(elems[end]).inverse().codes
            out[end] = [0, 0]
        entry = out[end]
        entry[0] += 1
        entry[1] += area(codes + back)
    return {elems[end]: entry for end, entry in out.items()}


# -- sampling ---------------------------------------------------------------------


def _require_sampling_support(p: AbelianPresentation, n: int, samples: int) -> None:
    _check_length(n)
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if not p.is_standard_z2:
        raise ValueError("samplers are implemented for the standard Z^2 presentation")


def _sampled_report(kind, n, samples, seed, combing, draw, close=lambda rows: rows) -> DehnReport:
    """Mean area of `samples` sampled words, drawn one chunk at a time.

    draw(k, rng) gives the seeded stream's next k words as rows; close makes a
    block of them closed code rows, right-padded with 0, for `_area_z2_rows`.
    numpy draws int16 letters in pairs and drops a call's odd half, so an even
    SAMPLE_CHUNK_BLOCKS keeps the chunked stream equal to one draw of all the
    samples, also at odd n. One sample has no spread, so it gets no interval.
    """
    import numpy as np
    rng = make_rng(seed)
    rows = max(1, SAMPLE_BLOCK_LETTERS // max(n, 1))
    chunk = rows * SAMPLE_CHUNK_BLOCKS
    areas = np.empty(samples, dtype=np.float64)
    for start in range(0, samples, chunk):
        words = draw(min(chunk, samples - start), rng)
        for b in range(0, len(words), rows):
            areas[start + b : start + b + rows] = _area_z2_rows(close(words[b : b + rows]))
    est = float(areas.mean())
    stderr = float(areas.std(ddof=1)) / math.sqrt(samples) if samples > 1 else None
    lo, hi = (None, None) if stderr is None else (est - Z_95 * stderr, est + Z_95 * stderr)
    return DehnReport(
        n, kind, estimate=est, ci_low=lo, ci_high=hi, samples=samples, seed=seed, combing=combing
    )


def osmean_sampled(
    p: AbelianPresentation,
    c: GeodesicCombing,
    n: int,
    samples: int,
    seed: int,
) -> DehnReport:
    """Unbiased Monte Carlo estimate of the open spherical mean.

    Each sampled word, ending at (dx, dy), is closed by the staircase word
    a1^dx a2^dy, which every combing of Z^2 is, read backwards with every
    letter inverted: |dy| letters -sign(dy) a2, then |dx| letters -sign(dx) a1.
    `_sampled_report` draws the letter slots of a chunk in one call, and pads
    each block to its longest closing word.
    """
    import numpy as np
    _require_sampling_support(p, n, samples)

    def draw(k, rng):
        return slots_to_codes(sample_letter_matrix(2, n, k, rng))

    def close(part):
        dx = ((part == 1).sum(axis=1) - (part == -1).sum(axis=1))[:, None]
        dy = ((part == 2).sum(axis=1) - (part == -2).sum(axis=1))[:, None]
        ax, ay = np.abs(dx), np.abs(dy)
        j = np.arange((ax + ay).max())
        back = np.where(j < ay, -2 * np.sign(dy), np.where(j < ax + ay, -np.sign(dx), 0))
        return np.concatenate([part, back.astype(part.dtype)], axis=1)

    return _sampled_report(KIND_OSMEAN, n, samples, seed, c.kind, draw, close)


def smean_sampled(
    p: AbelianPresentation,
    c: GeodesicCombing,
    n: int,
    samples: int,
    seed: int,
) -> DehnReport:
    """Monte Carlo spherical mean over uniform closed words of length n.

    A closed Z^2 word is a pair of uniform balanced 0/1 rows u, v, the steps
    of x + y and of x - y, and its letters are the codes 3u - 1 - v. A chunk of
    k words draws 2k rows of fair bits; a row with c != n/2 ones flips
    |c - n/2| of its positions holding the surplus value, uniformly without
    replacement. Given c a fair row is a uniform c-subset, and removing a
    uniform (c - n/2)-subset leaves a uniform n/2-subset (likewise on the
    zeros if c < n/2). Flips come in rounds of SMEAN_FLIP_CANDIDATES uniform
    positions per unfinished row, taken in order: one flips if it still holds
    the surplus value, its row still needs a flip and it repeats no earlier
    candidate of its round, so each flip is uniform over the surplus left.
    A chunk's flips follow its bits, so unlike osmean's, this stream depends
    on the chunk size.
    """
    import numpy as np
    _require_sampling_support(p, n, samples)
    if n % 2:
        return DehnReport(n=n, kind=KIND_SMEAN, value=Fraction(0), combing=c.kind)
    earlier = np.tri(SMEAN_FLIP_CANDIDATES, k=-1, dtype=bool)

    def draw(k, rng):
        raw = rng.integers(0, 256, (2 * k, -(-n // 8)), dtype=np.uint8)
        bits = np.unpackbits(raw, axis=1, count=n)
        need = bits.sum(axis=1, dtype=np.int32) - n // 2
        base, surplus, need = np.arange(2 * k)[:, None] * n, need[:, None] > 0, np.abs(need)
        flat = bits.reshape(-1)
        while (left := need > 0).any():
            base, surplus, need = base[left], surplus[left], need[left]
            pos = rng.integers(0, n, (len(need), SMEAN_FLIP_CANDIDATES)) + base
            hit = flat[pos] == surplus
            hit &= ~((pos[:, :, None] == pos[:, None, :]) & earlier).any(axis=2)
            hit &= hit.cumsum(axis=1) <= need[:, None]
            flat[pos[hit]] ^= 1
            need -= hit.sum(axis=1)
        u, v = bits[0::2], bits[1::2]
        u *= 3
        u -= v
        u -= 1
        return u.view(np.int8)

    return _sampled_report(KIND_SMEAN, n, samples, seed, c.kind, draw)


# -- structural relations and asymptotic reports ------------------------------------


@dataclass(frozen=True)
class RelationRow:
    n: int
    mean_value: Fraction
    max_smean: Fraction
    ok: bool


def relation_check(p: AbelianPresentation, n_max: int) -> list[RelationRow]:
    """Exact check of mean(n) <= max over m <= n of smean(m), per length."""
    rows = []
    running_max = Fraction(0)
    total = 0
    asum = 0
    for n, (c, s) in enumerate(level_sums(p, n_max)):
        running_max = max(running_max, _smean(c, s))
        total += c
        asum += s
        mv = Fraction(asum, total)
        rows.append(RelationRow(n, mv, running_max, mv <= running_max))
    return rows


def h_nlog2(n: float) -> float:
    return n * math.log(n) ** 2


def h_split_holds(n: int) -> bool:
    """The binding splitting inequality 2 h((n+1)/2) + n ln n <= h(n).

    (n+1)/2 majorizes ceil(n/2), so this implies the ceiling variant; its
    onset is exactly n = 15.
    """
    m = (n + 1) / 2.0
    return 2.0 * m * math.log(m) ** 2 + n * math.log(n) <= h_nlog2(n)


def h_split_holds_ceil(n: int) -> bool:
    """The ceiling variant 2 h(ceil(n/2)) + n ln n <= h(n)."""
    m = (n + 1) // 2
    return 2.0 * h_nlog2(m) + n * math.log(n) <= h_nlog2(n)


def h_split_range(n_lo: int, n_hi: int, *, ceil_variant: bool = False) -> np.ndarray:
    """Vectorized truth values of the splitting inequality on [n_lo, n_hi]."""
    import numpy as np
    n = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    if ceil_variant:
        m = np.ceil(n / 2.0)
    else:
        m = (n + 1) / 2.0
    lhs = 2.0 * m * np.log(m) ** 2 + n * np.log(n)
    return lhs <= n * np.log(n) ** 2


@dataclass(frozen=True)
class BoundFit:
    """Normalized values v(n)/(n (ln n)^2) with a least-squares trend over ln n."""

    ns: tuple
    normalized: tuple
    running_max: tuple
    slope: float
    slope_stderr: float

    @property
    def slope_ci95(self) -> tuple[float, float]:
        return (self.slope - Z_95 * self.slope_stderr, self.slope + Z_95 * self.slope_stderr)

    @property
    def no_growth(self) -> bool:
        """Slope not significantly positive at the 95% level."""
        return self.slope <= Z_95 * self.slope_stderr


def bound_fit(reports: list[DehnReport]) -> BoundFit:
    import numpy as np
    pts = [(r.n, r.normalized) for r in reports if r.n >= 2]
    if len({n for n, _ in pts}) < 2:
        raise ValueError("need reports at two or more distinct n >= 2")
    ns = np.array([p[0] for p in pts], dtype=np.float64)
    ys = np.array([p[1] for p in pts], dtype=np.float64)
    xs = np.log(ns)
    xbar = xs.mean()
    ybar = ys.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    slope = float(((xs - xbar) * (ys - ybar)).sum() / sxx)
    intercept = ybar - slope * xbar
    resid = ys - (intercept + slope * xs)
    dof = len(pts) - 2
    if dof > 0:
        stderr = math.sqrt(float((resid**2).sum()) / dof / sxx)
    else:
        stderr = float("nan")
    running = np.maximum.accumulate(ys)
    return BoundFit(
        ns=tuple(int(v) for v in ns),
        normalized=tuple(float(v) for v in ys),
        running_max=tuple(float(v) for v in running),
        slope=slope,
        slope_stderr=stderr,
    )


def nv_asymptotics_report(n_max: int) -> list[tuple[int, float]]:
    """Rows (2n, g_{2n} * 2n * pi / (2 * 16^n)); the ratio tends to one."""
    rows = []
    for k in range(1, n_max + 1):
        ratio = float(Fraction(g_even_z2(k) * 2 * k, 2 * 16**k)) * math.pi
        rows.append((2 * k, ratio))
    return rows
