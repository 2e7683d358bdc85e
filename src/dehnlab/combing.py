"""Geodesic combings of the Cayley graph: one chosen geodesic per vertex.

Open paths are closed up by returning to their start through the combing;
all mean values of open areas are relative to the chosen combing.
"""

from __future__ import annotations

from .presentation import AbelianPresentation, CanonicalForm
from .words import Word

COMBING_KINDS = ("staircase", "bfs-lex")


class GeodesicCombing:
    """Deterministic rule assigning a geodesic word T[v] to every vertex v."""

    kind: str

    def __init__(self, p: AbelianPresentation):
        self.p = p

    def comb_to(self, v: CanonicalForm) -> Word:
        """The geodesic word T[e, v]."""
        raise NotImplementedError


class StaircaseCombing(GeodesicCombing):
    """Axis staircase on Z^r: all +-a_1 steps first, then +-a_2, and so on."""

    kind = "staircase"

    def __init__(self, p: AbelianPresentation):
        if not p.is_standard_free:
            raise ValueError("staircase combing needs a standard free-abelian presentation")
        super().__init__(p)

    def comb_to(self, v: CanonicalForm) -> Word:
        codes: list[int] = []
        for i, x in enumerate(v.free_part, start=1):
            codes += [i if x > 0 else -i] * abs(x)
        return Word(tuple(codes))


class BfsLexCombing(GeodesicCombing):
    """The path to v in the presentation's BFS tree of the Cayley graph.

    The BFS takes its frontier in discovery order and the codes in
    generator_codes order (a1 < A1 < a2 < A2 ...), so by induction on the
    level each tree path is the lexicographically least geodesic word.
    """

    kind = "bfs-lex"

    def comb_to(self, v: CanonicalForm) -> Word:
        return Word(self.p._tree_codes(v))


def make_combing(p: AbelianPresentation, kind: str = "staircase") -> GeodesicCombing:
    if kind == "staircase":
        return StaircaseCombing(p)
    if kind == "bfs-lex":
        return BfsLexCombing(p)
    raise ValueError(f"unknown combing kind {kind!r}; expected one of {COMBING_KINDS}")


def comb_between(c: GeodesicCombing, u: CanonicalForm, v: CanonicalForm) -> Word:
    """The word of T[u, v] = u T[e, u^-1 v], read as a path based at u."""
    p = c.p
    return c.comb_to(p.compose(p.inverse_cf(u), v))


def close_path(c: GeodesicCombing, gamma: Word) -> Word:
    """Close an open path: gamma followed by the reversed combing word.

    Returns gamma * T[e, v]^-1, v the endpoint of gamma: a closed word. The
    combing word depends only on the displacement, so no base vertex is needed.
    """
    if gamma.lazy:
        raise ValueError("paths are non-lazy words")
    p = c.p
    displacement = p.canonical_of_word(gamma)
    tilde = c.comb_to(displacement)
    return gamma * tilde.inverse()
