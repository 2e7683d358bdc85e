"""Filling areas of closed and open lattice words.

Two independent routes to the area of a closed word are kept deliberately
separate: an exact winding-number formula for the standard Z^2 presentation,
and a brute-force A* search over relator insertions that works for any
presentation. The winding formula is treated as a derived identity; the
oracle-agreement test suite is what certifies it.

Every presentation has one certified lower bound, chosen in `_bound_scorer`
from the relators' cyclic cores (`_relator_cores`): the projected winding
(the Z^2 kernel on each generator plane) when all relators are closed in
Z^r, the least integral 2-chain on <a, b | b^m, [a, b]>, and weighted torsion
exponent sums otherwise. It steers the oracle, scored per move, and is the
lower end of every bracket, which the oracle's search alone checks: where the
root word's bound meets its sort-and-cancel filling, no search is needed.

`_oracle` builds the search's set-up (rotations, scorer, cap growth) once per
presentation. `area_oracle` builds it per word; exact enumeration
(`_exact_area`) and `area_upper_dc` build it once and search many words.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .combing import GeodesicCombing, close_path, comb_between
from .errors import BudgetError
from .presentation import AbelianPresentation, CanonicalForm, abelianize
from .words import Word, reduce_codes

if TYPE_CHECKING:
    import numpy as np

DEFAULT_ORACLE_EXPANSIONS = 200_000
# closed_area_result searches words up to this reduced length when the bounds differ
ORACLE_CUTOFF = 16


@dataclass(frozen=True)
class AreaResult:
    """Certified bracket [lower, upper] around a filling area."""

    lower: int
    upper: int
    exact: bool

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound above upper bound")
        if self.exact != (self.lower == self.upper):
            raise ValueError("exact flag inconsistent with the bounds")

    @classmethod
    def of(cls, value: int) -> "AreaResult":
        return cls(value, value, True)


@dataclass(frozen=True)
class WindingField:
    """Integer winding number per unit cell (keyed by lower-left corner)."""

    cells: dict

    def l1(self) -> int:
        return sum(abs(v) for v in self.cells.values())


def _area_z2_codes(codes, cells: dict | None = None) -> int:
    """Winding area of a closed Z^2 code sequence: sum of |winding| over cells.

    A rightward traversal of the edge (u,v)-(u+1,v) adds +1 to the winding of
    every cell (u, y) with y >= v, a leftward one -1; the events are summed
    per column from the bottom up. If `cells` is given, the nonzero winding of
    each cell is stored in it, keyed by the cell's lower-left corner. Raises
    unless the path is closed and uses only the two generators.
    """
    x = y = 0
    ev: dict[tuple[int, int], int] = {}
    for c in codes:
        if c == 1:
            key = (x, y)
            ev[key] = ev.get(key, 0) + 1
            x += 1
        elif c == -1:
            x -= 1
            key = (x, y)
            ev[key] = ev.get(key, 0) - 1
        elif c == 2:
            y += 1
        elif c == -2:
            y -= 1
        else:
            raise ValueError(f"letter code {c} is not a Z^2 generator")
    if x or y:
        raise ValueError("word is not closed in Z^2")
    total = 0
    cur_col = None
    running = 0
    prev_v = 0
    for (u, v), d in sorted(ev.items()):
        if u != cur_col:
            cur_col = u
            running = 0
        elif running:
            total += abs(running) * (v - prev_v)
            if cells is not None:
                for h in range(prev_v, v):
                    cells[(u, h)] = running
        running += d
        prev_v = v
    return total


def _area_z2_rows(codes) -> np.ndarray:
    """Winding area of each row of an (S, L) matrix of closed Z^2 code rows.

    Code 0 is right padding. This is the column-event sweep of
    `_area_z2_codes` for a whole block at once: each horizontal step becomes
    one sorted (row, column, height, sign) key. A closed row crosses each
    column as often rightward as leftward, so a plain cumsum of the signs is
    the running winding inside each (row, column) segment and reads 0 between
    segments, where the key gaps it multiplies mean nothing. Raises unless
    every row is closed and uses only the two generators.
    """
    import numpy as np
    codes = np.asarray(codes)
    s, length = codes.shape
    if codes.size and (codes.min() < -2 or codes.max() > 2):
        bad = codes[(codes < -2) | (codes > 2)][0]
        raise ValueError(f"letter code {bad} is not a Z^2 generator")
    if not length:
        return np.zeros(s, dtype=np.int64)
    flat = codes.ravel()
    span = 2 * length + 1
    # x * span + y after each step; closed rows return it to 0, so one cumsum
    # over the flattened block restarts at every row
    pos = np.array([-1, -span, 0, span, 1])[flat + 2]
    np.cumsum(pos, out=pos)
    if pos[length - 1 :: length].any():
        raise ValueError("word is not closed in Z^2")
    steps = np.flatnonzero((flat == 1) | (flat == -1))
    right = flat[steps] > 0
    # the edge (u, v)-(u+1, v) has u = x before a rightward step, x after a
    # leftward one; the offset makes both digits (u, v) non-negative
    cell = pos[steps] - right * span + length * (span + 1)
    keys = ((steps // length) * span * span + cell) * 2 + right
    keys.sort()
    running = np.cumsum((keys & 1) * 2 - 1)
    keys >>= 1
    return np.bincount(
        keys[:-1] // (span * span), weights=np.abs(running[:-1]) * np.diff(keys), minlength=s
    ).astype(np.int64)


def winding_field(w: Word) -> WindingField:
    """Winding number of every unit cell with respect to the closed loop of w."""
    if w.lazy:
        raise ValueError("paths are non-lazy words")
    cells: dict[tuple[int, int], int] = {}
    _area_z2_codes(w.codes, cells)
    return WindingField(cells)


def area_exact_z2(w: Word) -> int:
    """Exact area of a closed word under <a,b | [a,b]>, via winding numbers.

    This formula is a derived identity: sum of |winding| is a provable lower
    bound (each relator application moves one cell's winding by one), and the
    oracle-agreement suite certifies it is attained.
    """
    if w.lazy:
        raise ValueError("paths are non-lazy words")
    return _area_z2_codes(w.codes)


def _projected_winding(codes, r: int, fields: dict | None = None) -> int:
    """Sum over generator pairs i<j of the winding area of the (i,j) projection.

    The projection keeps the letters of a_i and a_j, renumbered to the Z^2
    codes 1 and 2, and `_area_z2_codes` scores it. At r = 2 the projection is
    the word itself. Callers pass closed words over the rank-r alphabet. A
    given `fields` gets the (i,j) projection's nonzero cells at fields[i, j].
    """
    total = 0
    for i, j in itertools.combinations(range(1, r + 1), 2):
        plane = {i: 1, -i: -1, j: 2, -j: -2}
        cells = None if fields is None else fields.setdefault((i, j), {})
        total += _area_z2_codes([plane[c] for c in codes if c in plane], cells)
    return total


def area_lower_zr(w: Word, r: int) -> int:
    """Lower bound on area for all-commutator presentations of Z^r.

    Map a van Kampen diagram into Z^r and project it onto the (i,j) plane:
    each [a_i, a_j] face covers one unit square and every other face
    degenerates, and the winding function is the plane's only 2-chain
    filling the projected loop. So the diagram has at least the projection's
    winding area of [a_i, a_j] faces, and the projected winding is a bound.
    It is not the area: [[a1, a2], a3] has bound 0 and area 2.
    """
    if w.lazy:
        raise ValueError("paths are non-lazy words")
    if any(abelianize(w, r)):
        raise ValueError("word is not closed in Z^r")
    return _projected_winding(w.codes, r)


# -- brute-force oracle ----------------------------------------------------------


def _cyclic_reduce(codes):
    while len(codes) >= 2 and codes[0] == -codes[-1]:
        codes = codes[1:-1]
    return codes


def _relator_cores(p: AbelianPresentation) -> list[tuple[int, ...]]:
    """The nontrivial relators of p, each freely and cyclically reduced."""
    cores = (_cyclic_reduce(reduce_codes(rel.codes)) for rel in p.relators)
    return [core for core in cores if core]


def _relator_rotations(p: AbelianPresentation):
    """All cyclic rotations of the reduced relators and their inverses."""
    rots = set()
    for core in _relator_cores(p):
        for base in (core, tuple(-c for c in reversed(core))):
            rots.update(base[k:] + base[:k] for k in range(len(base)))
    return sorted(rots)


def _relator_flips(p: AbelianPresentation) -> list[tuple[int, ...]]:
    """Generator sign flips that map `_relator_rotations(p)` onto itself.

    A flip is a tuple of r signs; a_i goes to a_i^signs[i-1]. Each of the 2^r
    candidates is tested, and the identity comes first. A kept flip maps the
    oracle's search graph onto itself and leaves its cap and its lower bound
    unchanged, so `area_oracle` gives a word and its image the same area.
    """
    rots = set(_relator_rotations(p))
    out = []
    for signs in itertools.product((1, -1), repeat=p.r):
        if {tuple(signs[abs(c) - 1] * c for c in rel) for rel in rots} == rots:
            out.append(signs)
    return out


def _moves(codes, rots, cap):
    """Yield (i, t, word): the free reduction of codes[:i] + rots[t] + codes[i:].

    This is the oracle's move generator; words longer than cap are pruned.
    codes is freely reduced and every rotation cyclically reduced, so letters
    cancel only at the two junctions, and the two sides of codes meet only
    when the rotation is used up. The cancellations are counted by index and
    the cap is checked before a word is built. The pair (i, t) is skipped
    when rots[t] ends in codes[i - 1]: that word is the one made by the
    rotation rots[t][-1:] + rots[t][:-1] at i - 1, which rots also holds.
    """
    n = len(codes)
    sized = [(t, rel, len(rel)) for t, rel in enumerate(rots)]
    for i in range(n + 1):
        before = codes[i - 1] if i else 0
        after = codes[i] if i < n else 0
        for t, rel, m in sized:
            if rel[-1] == before:
                continue
            k = 0
            if rel[0] == -before:
                k = 1
                while k < i and k < m and codes[i - 1 - k] == -rel[k]:
                    k += 1
            j = 0
            if k < m and rel[-1] == -after:
                j = 1
                while j < n - i and k + j < m and codes[i + j] == -rel[m - 1 - j]:
                    j += 1
            if k + j < m:
                if n + m - 2 * (k + j) <= cap:
                    yield i, t, codes[: i - k] + rel[k : m - j] + codes[i + j :]
            else:
                a, b = i - k, i + j
                while a and b < n and codes[a - 1] == -codes[b]:
                    a -= 1
                    b += 1
                yield i, t, codes[:a] + codes[b:]


def _power_exponents(cores) -> dict[int, int]:
    """Generator index i -> least m with a pure power core a_i^+-m among `cores`."""
    power_of: dict[int, int] = {}
    for core in cores:
        if len(set(core)) == 1:
            i, m = abs(core[0]), len(core)
            power_of[i] = min(power_of.get(i, m), m)
    return power_of


def _exponent_sums(codes, r: int) -> list[int]:
    """Exponent sum of each generator a_1..a_r, at indices 1..r (index 0 is unused)."""
    exps = [0] * (r + 1)
    for c in codes:
        exps[abs(c)] += 1 if c > 0 else -1
    return exps


def _column_shape(p: AbelianPresentation):
    """(a, b, m) when p reads <a, b | b^m, [a, b]> with m >= 2, else None.

    The relator cores must be exactly one commutator of the two generators
    (any rotation or inverse, as `_fill_info` reads it) and one pure power
    b^+-m; either generator may be b.
    """
    if p.r != 2:
        return None
    cores = _relator_cores(p)
    powers = [core for core in cores if len(set(core)) == 1]
    if len(cores) != 2 or len(powers) != 1 or len(powers[0]) < 2 or _fill_info(cores, 2) is None:
        return None
    b = abs(powers[0][0])
    return 3 - b, b, len(powers[0])


def _least_chain(a: int, b: int, m: int):
    """The least L1 norm of an integral 2-chain filling a closed word's 1-cycle.

    On the Cayley complex of <a, b | b^m, [a, b]> the vertices are (x, s),
    x in Z and s in Z_m. Square cell (x, s) has the a-edges from (x, s) and
    (x, s + 1) and the b-edges from (x, s) and (x + 1, s); the m power
    cells of column x share one boundary, so they merge into one.
    - *The chain.* Let square (x, s) have coefficient alpha_{x,s} = a_x +
      H_{x,s}, where H_{x,s} is the prefix sum over t = 1..s of the net
      traversals of the a-edge from (x, t); the a-edges then balance. The
      b-edge from (x, 0) balances when the merged power cell of column x
      has beta_x = a_x - a_{x-1} + c_x, c_x the net traversals of that
      edge, and the other b-edges of the column follow. So the least chain
      minimises sum_x sum_s |a_x + H_{x,s}| + sum_x |a_x - a_{x-1} + c_x|
      over integers a_x.
    - *The region.* a_x ranges over all integers for the columns lo..hi-1
      that the word's a-edges span, and a = 0 outside them. Outside the span
      a column's squares have H = 0 and cost m |a_x|, and zeroing them
      changes the power term at the span's edge by at most the |a_x| of the
      column next to it, so an optimum has a = 0 there. No window is
      needed inside.
    - *The DP.* Let f_x(a) be the least cost of the columns up to x with
      a_x = a. Its L1 distance transform D_x(y) = min_a f_x(a) + |y - a| is
      v + dist(y, [left, right]): f_x is convex with integer slopes, so D_x
      is its least value v plus the distance to its minimisers. Then
      f_{x+1}(a) = sum_s |a + H_{x+1,s}| + D_x(a + c_{x+1}) is half the L1
      distance from a to 2m + 2 points, less a constant, and its minimisers
      run between the two middle points (a single point when m is even).
      The answer is D_{hi-1}(c_hi), since a_hi = 0.

    Three facts make it the oracle's heuristic:
    - *Admissible.* A van Kampen diagram maps to a chain with this boundary
      and no more cells, so the least chain is at most the area.
    - *Consistent.* A move adds one cell's boundary to the 1-cycle and free
      reduction leaves the cycle unchanged, so the bound moves by at most 1.
    - *Above the torsion bound.* sum_x beta_x telescopes to sum_x c_x, and
      each of the m b-edge levels is crossed e_b / m times net, so the chain
      costs at least |e_b| / m, rounded up.
    It can lie below the area (Abrams, Brady, Dani and Young, 2013), and
    does on zxz2: A1 A2 a1 A2 A2 A1 a2 a1 a2 a2 has a zero 1-cycle, so bound
    0, but is not freely trivial and is no conjugate of one relator, so its
    area is 2. Wherever the two agree, that is observed, not proven.
    """

    def bound(codes):
        x = s = lo = hi = 0
        flow: dict[tuple[int, int], int] = {}  # a-edges from (x, s), s >= 1
        rise: dict[int, int] = {}  # the b-edge from (x, 0)
        for c in codes:
            if c == a:
                if s:
                    flow[x, s] = flow.get((x, s), 0) + 1
                x += 1
                hi = max(hi, x)
            elif c == -a:
                x -= 1
                lo = min(lo, x)
                if s:
                    flow[x, s] = flow.get((x, s), 0) - 1
            elif c == b:
                if not s:
                    rise[x] = rise.get(x, 0) + 1
                s = s + 1 if s + 1 < m else 0
            else:
                s = s - 1 if s else m - 1
                if not s:
                    rise[x] = rise.get(x, 0) - 1
        v = left = right = 0
        for col in range(lo, hi):
            c = rise.get(col, 0)
            pts = [left - c, right - c, 0, 0]
            h = 0
            for t in range(1, m):
                h -= flow.get((col, t), 0)
                pts += (h, h)
            pts.sort()
            v += (sum(pts[m + 1 :]) - sum(pts[: m + 1]) - right + left) // 2
            left, right = pts[m], pts[m + 1]
        c = rise.get(hi, 0)
        return v + max(left - c, 0, c - right)

    return bound


def _bound_scorer(p: AbelianPresentation, rots):
    """codes -> (h, score): p's certified area lower bound of a closed word and of its moves.

    h is the bound of codes from scratch; score(i, t, nxt) is that of each
    `_moves(codes, rots, cap)` successor, from the change its move makes.
    This is the one place p's route is chosen:
    - *chain*: `_least_chain` on <a, b | b^m, [a, b]>, rerun per successor.
    - *planes*: when every relator is closed in Z^r, the projected winding.
    - *torsion*: otherwise |exponent sum| over the generators a_i with a pure
      power relator a_i^m_i (the least m_i), weighted by lcm / m_i.
    The last two are ceil(mass / unit), unit the largest relator mass: one
    insertion moves the mass by at most its relator's mass (on the planes it
    adds the relator's winding field, and L1 obeys the triangle inequality),
    so the bound never exceeds the insertions a filling still needs. Free
    reduction keeps the exponent sums and the 1-cycle, so the move (i, t)
    adds e(rots[t]) and the plane fields of rots[t], shifted by the prefix
    point P_i, to those of codes: the mass moves by the sum of |w + d| - |w|
    over its cells (its relator's, shifted by -P_k at offset k and negated
    for the inverse).
    """
    r = p.r
    shape = _column_shape(p)
    if shape is not None:
        bound = _least_chain(*shape)

        def chain(codes):
            return bound(codes), lambda i, t, nxt: bound(nxt)

        return chain

    def per_unit(mass):
        return -(-mass // unit) if unit else 0

    cores = _relator_cores(p)
    if not p.is_standard_free:
        power_of = _power_exponents(cores)
        lcm = math.lcm(*power_of.values())
        weights = [(i, lcm // m) for i, m in power_of.items()]

        def exponent_mass(exps):
            return sum(abs(exps[i]) * wt for i, wt in weights)

        unit = max((exponent_mass(_exponent_sums(core, r)) for core in cores), default=0)
        shifts = [tuple(_exponent_sums(rel, r)) for rel in rots]

        def torsion(codes):
            e = _exponent_sums(codes, r)
            h_of = {d: per_unit(exponent_mass([a + b for a, b in zip(e, d)])) for d in set(shifts)}
            return per_unit(exponent_mass(e)), lambda i, t, nxt: h_of[shifts[t]]

        return torsion
    shifted, unit = {}, 0
    for core in cores:
        fields: dict = {}
        unit = max(unit, _projected_winding(core, r, fields))
        cells = [(*ij, *uv, d) for ij, f in fields.items() for uv, d in f.items()]
        for sign, base in ((1, core), (-1, tuple(-c for c in reversed(core)))):
            for k in range(len(base)):
                at = _exponent_sums(base[:k], r)
                rot = [(a, b, u - at[a], v - at[b], sign * d) for a, b, u, v, d in cells]
                shifted[base[k:] + base[:k]] = rot
    rot_cells = [shifted[rel] for rel in rots]

    def planes(codes):
        fields: dict = {}
        mass = _projected_winding(codes, r, fields)
        points = [[0] * (r + 1)]
        for c in codes:
            points.append(points[-1][:])
            points[-1][abs(c)] += 1 if c > 0 else -1

        def score(i, t, nxt):
            at, total = points[i], mass
            for a, b, du, dv, d in rot_cells[t]:
                w = fields[a, b].get((at[a] + du, at[b] + dv), 0)
                total += abs(w + d) - abs(w)
            return per_unit(total)

        return per_unit(mass), score

    return planes


def _area_lower_bound(p: AbelianPresentation):
    """closed codes -> the certified lower bound h of `_bound_scorer`; the tests' reference."""
    scorer = _bound_scorer(p, _relator_rotations(p))
    return lambda codes: scorer(codes)[0]


def _oracle(p: AbelianPresentation, slack: int | None = None):
    """p's A* set-up: search(codes, max_expansions) -> exact area of freely reduced closed codes.

    The relator rotations, the `_bound_scorer` and the cap's growth over the
    root's length (slack, or twice the longest relator) are fixed once here
    and shared by every search. States are freely reduced words; one move
    splices a cyclic rotation of a relator (or inverse) into any split
    position and reduces. Intermediate words longer than the root plus the
    growth are pruned, so minimal fillings through longer intermediates would
    be missed; the exhaustive agreement suite bounds that risk empirically.
    When the root's filling (`_sort_fill_upper`) is at most its bound h, it
    is the area, returned before the first expansion: the search costs at
    least the area, and at most the filling, whose path never grows the
    word. On budget exhaustion the certified AreaResult interval [last popped
    f, filling] is returned instead of an int (a zero budget gives the root
    bracket), or BudgetError is raised when the filler does not apply.

    `_moves` generates the moves: letters cancel only at the two junctions
    of the splice, so it counts the cancellations and checks the cap before
    building a word, and it skips a rotation whose word a neighbouring
    rotation already makes at the split before. The scorer gives the root
    its f, and one call per pop does the work the successors share; then
    each pushed word is scored by the change its move makes, exactly
    `_area_lower_bound` of that word. Neither changes the successor set or
    the heap keys (f, -g, word), which are totally ordered, so the words are
    popped in the same order.
    """
    rots = _relator_rotations(p)
    grow = 2 * max(map(len, rots), default=0) if slack is None else slack
    scorer = _bound_scorer(p, rots)

    def search(start, max_expansions: int):
        if not start:
            return 0
        if not rots:
            raise ValueError("presentation has no relators to fill with")
        cap = len(start) + grow
        last_f = scorer(start)[0]
        upper = _sort_fill_upper(p, start)
        if upper is not None and upper <= last_f:
            return upper

        g_of = {start: 0}
        heap = [(last_f, 0, start)]
        expansions = 0
        while heap:
            f, negg, codes = heapq.heappop(heap)
            g = -negg
            if g > g_of.get(codes, g):
                continue
            if not codes:
                return g
            last_f = f
            expansions += 1
            if expansions > max_expansions:
                break
            g2 = g + 1
            score = scorer(codes)[1]
            for i, t, nxt in _moves(codes, rots, cap):
                if g2 < g_of.get(nxt, g2 + 1):
                    g_of[nxt] = g2
                    heapq.heappush(heap, (g2 + score(i, t, nxt), -g2, nxt))

        # Not solved: popped f values are non-decreasing lower bounds on the area.
        if upper is None:
            raise BudgetError("oracle budget exhausted and no certified upper bound applies")
        if upper <= last_f:
            return upper
        return AreaResult(last_f, upper, False)

    return search


def area_oracle(
    p: AbelianPresentation,
    w: Word,
    *,
    slack: int | None = None,
    max_expansions: int | None = None,
):
    """Exact area of a trivial word by A* search over relator insertions.

    Checks that w is a non-lazy word trivial in the group and that slack, if
    given, is at least 1, then runs one `_oracle(p, slack)` search from its
    free reduction with max_expansions (None: DEFAULT_ORACLE_EXPANSIONS at
    call time): an int, or the certified AreaResult bracket when the budget
    runs out.

    The capped search sees w only through its free reduction, and it
    respects word inversion and every flip of `_relator_flips(p)`: each maps
    the search graph onto itself and keeps the cap and the consistent
    heuristic, so A* returns the same least cost on every image (only the
    expansion count may differ, through heap tie-breaking). Cyclic rotation
    is not such a symmetry: it changes the free reduction that the cap is
    measured from, so a rotated word can search a different capped graph.
    """
    if slack is not None and slack < 1:
        raise ValueError(f"slack must be at least 1, got {slack}")
    if w.lazy:
        raise ValueError("paths are non-lazy words")
    if not p.is_identity(w):
        raise ValueError("area is defined for words mapping to 1 in the group")
    if max_expansions is None:
        max_expansions = DEFAULT_ORACLE_EXPANSIONS
    return _oracle(p, slack)(reduce_codes(w.codes), max_expansions)


def _exact_area(p: AbelianPresentation):
    """codes -> exact area: winding on standard Z^2, the oracle elsewhere.

    Words with the same free reduction up to inversion and the flips of
    `_relator_flips(p)` have the same oracle area (see `area_oracle`), so
    the first word met in a class settles it, under a memo keyed by the
    class's least image. The `_oracle` set-up is built once, and one search
    with DEFAULT_ORACLE_EXPANSIONS settles a class at any length: from the root
    bracket when its two ends meet, by the search otherwise. An interval
    raises BudgetError.
    """
    if p.is_standard_z2:
        return _area_z2_codes
    flips = _relator_flips(p)
    search = _oracle(p)
    memo: dict = {}

    def oracle_area(codes):
        reduced = reduce_codes(codes)
        key = min(
            image
            for signs in flips
            for image in (
                tuple(signs[abs(c) - 1] * c for c in reduced),
                tuple(-signs[abs(c) - 1] * c for c in reversed(reduced)),
            )
        )
        got = memo.get(key)
        if got is None:
            got = search(reduced, DEFAULT_ORACLE_EXPANSIONS)
            if isinstance(got, AreaResult):
                raise BudgetError(f"oracle could not certify an exact area for {codes}")
            memo[key] = got
        return got

    return oracle_area


# -- certified upper bounds ------------------------------------------------------


def _fill_info(cores, r: int):
    """Relator shapes usable by the sort-and-cancel filler, or None.

    Usable presentations have only commutator cores [a_i, a_j] (covering
    every generator pair) and pure power cores a_i^m, each generator's least
    power dividing its others, so that blocks of it fill every trivial word
    (a1^4 and a1^6 make a1^2 trivial); the result maps each generator with a
    power relator to that least exponent.
    """
    powers = _power_exponents(cores)
    pairs = set()
    for core in cores:
        if len(set(core)) == 1:
            if len(core) % powers[abs(core[0])]:
                return None
            continue
        # every rotation and inversion of a commutator reads x y x^-1 y^-1
        x, y = core[:2]
        if len(core) != 4 or core[2:] != (-x, -y) or abs(x) == abs(y):
            return None
        pairs.add(frozenset((abs(x), abs(y))))
    needed = {frozenset((i, j)) for i in range(1, r + 1) for j in range(i + 1, r + 1)}
    return powers if needed <= pairs else None


def _sort_fill_upper(p: AbelianPresentation, codes):
    """Certified area upper bound: sort letters by generator, cancel torsion powers.

    Each adjacent transposition of distinct generators is one commutator
    relator; each residual a_i^(m_i) block is one power relator. It fills
    the cyclic reduction: a filling of the core plus a stalk fills the word.
    Returns None when the presentation's relators do not support this filling.
    """
    info = _fill_info(_relator_cores(p), p.r)
    if info is None:
        return None
    codes = _cyclic_reduce(reduce_codes(codes))
    counts = [0] * (p.r + 1)
    inversions = 0
    exps = [0] * (p.r + 1)
    for c in codes:
        i = abs(c)
        inversions += sum(counts[i + 1 :])
        counts[i] += 1
        exps[i] += 1 if c > 0 else -1
    extra = 0
    for i in range(1, p.r + 1):
        e = exps[i]
        if e == 0:
            continue
        m = info.get(i)
        if m is None or e % m != 0:
            raise ValueError("word is not trivial for this presentation's filler")
        extra += abs(e) // m
    return inversions + extra


def closed_area_result(
    p: AbelianPresentation,
    w: Word,
    *,
    slack: int | None = None,
) -> AreaResult:
    """Best available certified area of a closed word for any presentation.

    A slack below 1 raises ValueError on every presentation. Standard Z^2 is
    exact by winding. Elsewhere `area_oracle` fills it with slack and
    DEFAULT_ORACLE_EXPANSIONS, from the root bracket where that meets; past
    ORACLE_CUTOFF letters reduced, on a presentation the filler applies to,
    it gets zero expansions, so a wider root bracket is the result.
    """
    if slack is not None and slack < 1:
        raise ValueError(f"slack must be at least 1, got {slack}")
    if w.lazy:
        raise ValueError("paths are non-lazy words")
    if p.is_standard_z2:
        return AreaResult.of(_area_z2_codes(w.codes))
    fills = _fill_info(_relator_cores(p), p.r) is not None
    cut = fills and len(reduce_codes(w.codes)) > ORACLE_CUTOFF
    got = area_oracle(p, w, slack=slack, max_expansions=0 if cut else None)
    return AreaResult.of(got) if isinstance(got, int) else got


def area_open(p: AbelianPresentation, c: GeodesicCombing, gamma: Word) -> AreaResult:
    """Area of an arbitrary path: close it through the combing, then fill."""
    return closed_area_result(p, close_path(c, gamma))


def area_closed_at(
    p: AbelianPresentation, c: GeodesicCombing, gamma: Word, u: CanonicalForm
) -> AreaResult:
    """Area of a loop based at u, via conjugation with the combing word to u."""
    if p.canonical_of_word(gamma) != p.identity():
        raise ValueError("path is not closed at its basepoint")
    t = c.comb_to(u)
    return closed_area_result(p, t * gamma * t.inverse())


def area_upper_dc(
    p: AbelianPresentation, c: GeodesicCombing, gamma: Word, leaf_size: int = 8
) -> int:
    """Certified upper bound on the open area by recursive half splitting.

    Splits at the midpoint, bounds the two halves recursively, and adds the
    filling area of the geodesic triangle between the three combing words;
    leaves are filled exactly (Z^2) or by the oracle, whose set-up is built
    once per call; triangles take the sort-and-cancel filling where it
    applies off Z^2. leaf_size is at least 1.
    """
    if gamma.lazy:
        raise ValueError("paths are non-lazy words")
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be at least 1, got {leaf_size}")
    z2 = p.is_standard_z2
    search = None if z2 else _oracle(p)

    def fill(codes) -> int:
        if z2:
            return _area_z2_codes(codes)
        got = search(reduce_codes(codes), DEFAULT_ORACLE_EXPANSIONS)
        return got if isinstance(got, int) else got.upper

    def rec(codes) -> int:
        if len(codes) <= leaf_size:
            return fill(close_path(c, Word(codes)).codes)
        mid = len(codes) // 2
        g1, g2 = codes[:mid], codes[mid:]
        u = p.canonical_form(abelianize(Word(g1), p.r))
        v = p.canonical_form(abelianize(Word(codes), p.r))
        tri = c.comb_to(u) * comb_between(c, u, v) * c.comb_to(v).inverse()
        bound = None if z2 else _sort_fill_upper(p, tri.codes)
        return rec(g1) + rec(g2) + (fill(tri.codes) if bound is None else bound)

    return rec(tuple(gamma.codes))
