"""Finite presentations of abelian quotients of the free group.

Membership and canonical forms pass through exponent vectors: the group is
Z^r modulo the column lattice of the relation matrix, diagonalized by an
exact-integer Smith normal form. Relators beyond their abelianization
(explicit commutators, say) affect areas only, never membership.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CapExceededError
from .words import Word

_Matrix = tuple[tuple[int, ...], ...]

_COMMUTATOR_ROTATIONS = frozenset(
    w[i:] + w[:i] for w in ((1, 2, -1, -2), (2, 1, -2, -1)) for i in range(4)
)


@dataclass(frozen=True)
class SnfData:
    """Diagonalization U*M*V = D with unimodular U, V and d_1 | d_2 | ..."""

    diagonal: tuple[int, ...]
    U: _Matrix
    V: _Matrix


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(M) -> SnfData:
    """Smith normal form of an integer matrix, exact throughout.

    Returns non-negative diagonal entries forming a divisibility chain,
    together with the unimodular transforms.
    """
    A = [[int(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = _identity(rows)
    V = _identity(cols)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst += q * row src
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    t = 0
    while t < min(rows, cols):
        # pivot: entry of smallest non-zero magnitude in the trailing block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        dirty = False
        for i in range(t + 1, rows):
            if A[i][t] != 0:
                q = A[i][t] // A[t][t]
                add_row(i, t, -q)
                if A[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if A[t][j] != 0:
                q = A[t][j] // A[t][t]
                add_col(j, t, -q)
                if A[t][j] != 0:
                    dirty = True
        if dirty:
            continue

        # pivot must divide the whole trailing block for the chain d_i | d_{i+1}
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if A[i][j] % A[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    for i in range(min(rows, cols)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]

    diagonal = tuple(A[i][i] for i in range(min(rows, cols)))
    return SnfData(
        diagonal,
        tuple(tuple(row) for row in U),
        tuple(tuple(row) for row in V),
    )


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical coordinates of a group element: free part and torsion residues."""

    free_part: tuple[int, ...]
    torsion_part: tuple[int, ...]


def abelianize(w: Word, r: int) -> tuple[int, ...]:
    """Exponent-sum vector of a non-lazy word: component i counts a_i minus a_i^-1."""
    if w.lazy:
        raise ValueError("abelianization is defined for non-lazy words only")
    v = [0] * r
    for c in w.codes:
        i = abs(c)
        if i > r:
            raise ValueError(f"letter index {i} outside alphabet of rank {r}")
        v[i - 1] += 1 if c > 0 else -1
    return tuple(v)


class AbelianPresentation:
    """A presentation <a_1..a_r | R> of an abelian quotient of the free group.

    The relation matrix has the abelianized relators as columns; its Smith
    normal form supplies canonical coordinates for group elements. Instances
    are immutable apart from internal memo tables.
    """

    def __init__(self, r: int, relators=(), name: str | None = None):
        self.r = int(r)
        if self.r < 1:
            raise ValueError("presentation needs at least one generator")
        self.relators = tuple(relators)
        for w in self.relators:
            if not isinstance(w, Word) or w.lazy:
                raise ValueError("relators must be non-lazy words")
        self.name = name

        cols = [abelianize(w, self.r) for w in self.relators]
        self.relation_matrix: _Matrix = tuple(
            tuple(col[i] for col in cols) for i in range(self.r)
        )
        if cols:
            self.snf = smith_normal_form(self.relation_matrix)
        else:
            self.snf = SnfData((), tuple(map(tuple, _identity(self.r))), ())

        # per transformed coordinate: d > 1 torsion, d == 1 dead, d == 0 free
        diag = list(self.snf.diagonal) + [0] * (self.r - len(self.snf.diagonal))
        self._moduli = tuple(diag)
        self._torsion_idx = tuple(i for i, d in enumerate(diag) if d > 1)
        self._free_idx = tuple(i for i, d in enumerate(diag) if d == 0)
        self.torsion_moduli = tuple(diag[i] for i in self._torsion_idx)
        self.free_rank = len(self._free_idx)

        # standard free-abelian: every relator abelianizes to zero
        self.is_standard_free = all(all(x == 0 for x in col) for col in cols)
        # standard Z^2: r = 2 and every relator is [a1, a2] up to rotation and inversion
        self.is_standard_z2 = (
            self.r == 2
            and bool(self.relators)
            and all(w.codes in _COMMUTATOR_ROTATIONS for w in self.relators)
        )

        self._identity = CanonicalForm(
            (0,) * self.free_rank, (0,) * len(self._torsion_idx)
        )
        self.generator_codes = tuple(
            c for i in range(1, self.r + 1) for c in (i, -i)
        )
        self._gen_images = {
            c: self.canonical_form(
                tuple((1 if c > 0 else -1) * int(abs(c) == i + 1) for i in range(self.r))
            )
            for c in self.generator_codes
        }
        # one BFS of the Cayley graph: each element's length and the
        # (element, code) it was first reached from, frontier in discovery
        # order and codes in generator_codes order
        self._length_table: dict[CanonicalForm, int] = {self._identity: 0}
        self._bfs_parent: dict[CanonicalForm, tuple[CanonicalForm, int] | None] = {
            self._identity: None
        }
        self._length_frontier: list[CanonicalForm] = [self._identity]
        self._length_radius = 0

    def __repr__(self) -> str:
        label = self.name or f"r={self.r},{len(self.relators)} relators"
        return f"AbelianPresentation({label})"

    # -- canonical coordinates -------------------------------------------------

    def canonical_form(self, v) -> CanonicalForm:
        """Canonical form of an exponent vector; equal iff equal in the group."""
        v = tuple(int(x) for x in v)
        if len(v) != self.r:
            raise ValueError(f"vector length {len(v)} != rank {self.r}")
        if self.is_standard_free:
            return CanonicalForm(v, ())
        U = self.snf.U
        y = [sum(U[i][j] * v[j] for j in range(self.r)) for i in range(self.r)]
        free = tuple(y[i] for i in self._free_idx)
        torsion = tuple(y[i] % self._moduli[i] for i in self._torsion_idx)
        return CanonicalForm(free, torsion)

    def canonical_of_word(self, w: Word) -> CanonicalForm:
        return self.canonical_form(abelianize(w, self.r))

    def identity(self) -> CanonicalForm:
        return self._identity

    def compose(self, g: CanonicalForm, h: CanonicalForm) -> CanonicalForm:
        free = tuple(a + b for a, b in zip(g.free_part, h.free_part))
        torsion = tuple(
            (a + b) % d
            for a, b, d in zip(g.torsion_part, h.torsion_part, self.torsion_moduli)
        )
        return CanonicalForm(free, torsion)

    def inverse_cf(self, g: CanonicalForm) -> CanonicalForm:
        free = tuple(-a for a in g.free_part)
        torsion = tuple(
            (-a) % d for a, d in zip(g.torsion_part, self.torsion_moduli)
        )
        return CanonicalForm(free, torsion)

    def generator_image(self, code: int) -> CanonicalForm:
        return self._gen_images[code]

    def step(self, g: CanonicalForm, code: int) -> CanonicalForm:
        return self.compose(g, self._gen_images[code])

    def is_identity(self, w: Word) -> bool:
        """True iff the word maps to 1 in the group (its path is closed)."""
        return self.canonical_of_word(w) == self._identity

    # -- word length in the group ----------------------------------------------

    def _grow_length_table(self, radius: int) -> None:
        while self._length_radius < radius and self._length_frontier:
            nxt = []
            for g in self._length_frontier:
                for code in self.generator_codes:
                    h = self.step(g, code)
                    if h not in self._length_table:
                        self._length_table[h] = self._length_radius + 1
                        self._bfs_parent[h] = (g, code)
                        nxt.append(h)
            self._length_frontier = nxt
            self._length_radius += 1

    def length_table(self, radius: int) -> dict[CanonicalForm, int]:
        """Group lengths of all elements with |g| <= radius (BFS, memoized)."""
        self._grow_length_table(radius)
        return {g: ell for g, ell in self._length_table.items() if ell <= radius}

    def _tree_codes(self, g: CanonicalForm) -> tuple[int, ...]:
        """Codes of the BFS tree path from 1 to g, growing the BFS until g is reached."""
        while g not in self._bfs_parent:
            if not self._length_frontier:
                raise ValueError(f"vertex {g} unreachable in the Cayley graph")
            self._grow_length_table(self._length_radius + 1)
        codes = []
        entry = self._bfs_parent[g]
        while entry is not None:
            g, code = entry
            codes.append(code)
            entry = self._bfs_parent[g]
        return tuple(reversed(codes))

    def group_length(self, g: CanonicalForm, radius_cap: int) -> int:
        """Exact |g| in the group; L1 on the free part when torsion-free."""
        if self.is_standard_free:
            return sum(abs(x) for x in g.free_part)
        if g in self._length_table:
            return self._length_table[g]
        self._grow_length_table(radius_cap)
        if g in self._length_table:
            return self._length_table[g]
        raise CapExceededError(
            f"element farther than the radius cap {radius_cap}"
        )


def format_vertex(g: CanonicalForm) -> str:
    """Serialize a canonical form: `(3,-2)`, or `(5;1)` with torsion residues."""
    free = ",".join(str(x) for x in g.free_part)
    if g.torsion_part:
        return f"({free};{','.join(str(x) for x in g.torsion_part)})"
    return f"({free})"


# -- builtin presentations and the file format ---------------------------------


def commutator(i: int, j: int) -> Word:
    return Word((i, j, -i, -j))


def free_abelian(r: int) -> AbelianPresentation:
    """Z^r with all pairwise commutator relators."""
    rels = [commutator(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    return AbelianPresentation(r, rels, name=f"Z^{r}")


def cyclic(m: int) -> AbelianPresentation:
    """Z/mZ presented as <a | a^m>."""
    return AbelianPresentation(1, [Word((1,) * m)], name=f"Z/{m}Z")


def builtin_presentation(name: str) -> AbelianPresentation:
    key = name.lower()
    if key == "z2":
        return free_abelian(2)
    if key == "z3":
        return free_abelian(3)
    if key == "z10":
        return cyclic(10)
    if key == "zxz2":
        return AbelianPresentation(
            2, [Word((2, 2)), commutator(1, 2)], name="ZxZ/2"
        )
    raise ValueError(f"unknown builtin group {name!r}")


def load_presentation_text(text: str) -> AbelianPresentation:
    """Parse the presentation file format: `generators r`, then `relator <tokens>`."""
    r = None
    relators = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        if head == "generators":
            r = int(rest)
        elif head == "relator":
            relators.append(Word.from_tokens(rest, lazy=False))
        else:
            raise ValueError(f"line {lineno}: unknown directive {head!r}")
    if r is None:
        raise ValueError("presentation file missing a `generators r` line")
    return AbelianPresentation(r, relators)


def load_presentation(path: str | os.PathLike) -> AbelianPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return load_presentation_text(fh.read())


def resolve_group(name_or_path: str) -> AbelianPresentation:
    """A builtin name (z2, z3, z10, zxz2) or a presentation file path."""
    try:
        return builtin_presentation(name_or_path)
    except ValueError:
        if os.path.exists(name_or_path):
            return load_presentation(name_or_path)
        raise ValueError(f"{name_or_path!r} is neither a builtin group nor a readable file")
