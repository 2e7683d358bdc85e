"""Geodesic combings of the Cayley graph: one chosen geodesic per vertex.

Open paths are closed up by returning to their start through the combing;
all mean values of open areas are relative to the chosen combing.

Two kinds are named. "bfs-lex" is the path to v in the presentation's BFS
tree of the Cayley graph: the BFS takes its frontier in discovery order and
the codes in generator_codes order (a1 < A1 < a2 < A2 ...), so by induction
on the level each tree path is the lexicographically least geodesic word.
"staircase" takes all +-a_1 steps first, then +-a_2, and so on, and needs a
standard free-abelian presentation. There the Cayley graph is the Z^r
lattice, and the least geodesic to v is |v_i| letters a_i^sign(v_i) in
increasing generator order: the staircase word. So both kinds build that word
directly on Z^r, and the BFS tree serves bfs-lex only off it.
"""

from __future__ import annotations

from .presentation import AbelianPresentation, CanonicalForm
from .words import Word

COMBING_KINDS = ("staircase", "bfs-lex")


class GeodesicCombing:
    """Deterministic rule assigning a geodesic word T[v] to every vertex v."""

    def __init__(self, p: AbelianPresentation, kind: str):
        if kind not in COMBING_KINDS:
            raise ValueError(f"unknown combing kind {kind!r}; expected one of {COMBING_KINDS}")
        if kind == "staircase" and not p.is_standard_free:
            raise ValueError("staircase needs a standard free-abelian presentation; use bfs-lex")
        self.p = p
        self.kind = kind

    def comb_to(self, v: CanonicalForm) -> Word:
        """The geodesic word T[e, v]."""
        if not self.p.is_standard_free:
            return Word(self.p._tree_codes(v))
        codes: list[int] = []
        for i, x in enumerate(v.free_part, start=1):
            codes += [i if x > 0 else -i] * abs(x)
        return Word(tuple(codes))


def make_combing(p: AbelianPresentation, kind: str = "staircase") -> GeodesicCombing:
    return GeodesicCombing(p, kind)


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
