import random

import pytest

from dehnlab import (
    AbelianPresentation,
    CapExceededError,
    Word,
    abelianize,
    builtin_presentation,
    cyclic,
    format_vertex,
    free_abelian,
    load_presentation_text,
    resolve_group,
    smith_normal_form,
)

from conftest import W


def test_abelianize_examples():
    assert abelianize(W("a1 a1 A1 a1 a1 a1"), 1) == (4,)
    assert abelianize(W("a1 a2 A1 A2"), 2) == (0, 0)
    assert abelianize(W("a1 a1 A2"), 2) == (2, -1)


def test_snf_examples():
    assert smith_normal_form([[10]]).diagonal == (10,)
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal == (1, 1)
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)


def _det(m):
    import sympy

    return int(sympy.Matrix(m).det())


def test_snf_random_matrices_against_sympy():
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(2024)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(M)
        # transforms unimodular and U M V diagonal
        assert abs(_det(snf.U)) == 1
        assert abs(_det(snf.V)) == 1
        prod = sympy.Matrix(snf.U) * sympy.Matrix(M) * sympy.Matrix(snf.V)
        for i in range(rows):
            for j in range(cols):
                expected = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
                assert prod[i, j] == expected
        # divisibility chain
        diag = [d for d in snf.diagonal if d != 0]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        # invariant factors agree with sympy (nonzero part, up to sign)
        ours = sorted(d for d in snf.diagonal if d not in (0,))
        theirs = sorted(abs(x) for x in sympy_snf(sympy.Matrix(M)).diagonal() if x != 0)
        # sympy keeps 1s too; compare multisets of nontrivial factors
        assert [d for d in ours if d != 1] == [d for d in theirs if d != 1]


def test_canonical_forms():
    z10 = builtin_presentation("z10")
    g = z10.canonical_form((14,))
    assert g.torsion_part == (4,) and g.free_part == ()
    z2 = builtin_presentation("z2")
    assert z2.canonical_form((3, -2)).free_part == (3, -2)
    zx = builtin_presentation("zxz2")
    g = zx.canonical_form((5, 7))
    assert g.free_part == (5,) and g.torsion_part == (1,)


def test_format_vertex():
    z2 = builtin_presentation("z2")
    assert format_vertex(z2.canonical_form((3, -2))) == "(3,-2)"
    zx = builtin_presentation("zxz2")
    assert format_vertex(zx.canonical_form((5, 7))) == "(5;1)"
    z10 = builtin_presentation("z10")
    assert format_vertex(z10.canonical_form((14,))) == "(;4)"


def test_group_length_examples(z10, z5, z2):
    w = W("a1 a1 A1 a1 a1 a1")
    assert z10.group_length(z10.canonical_of_word(w), 6) == 4
    assert z5.group_length(z5.canonical_of_word(w), 6) == 1
    assert z2.group_length(z2.canonical_form((3, -2)), 10) == 5


def test_group_length_cap(zxz2):
    far = zxz2.canonical_form((50, 0))
    with pytest.raises(CapExceededError):
        zxz2.group_length(far, 3)


def test_length_table_stays_within_its_radius():
    p = builtin_presentation("zxz2")
    assert len(p.length_table(2)) == 8
    assert len(p.length_table(10)) == 40
    table = p.length_table(2)
    assert len(table) == 8 and max(table.values()) == 2


def test_is_identity(z2, z10):
    assert z2.is_identity(W("a1 a2 A1 A2"))
    assert z10.is_identity(Word((1,) * 10))
    assert not z2.is_identity(W("a1 a2"))


@pytest.mark.parametrize("name", ["z10", "zxz2"])
def test_length_hierarchy_random(name):
    from dehnlab import free_reduce, length_A

    p = builtin_presentation(name)
    rng = random.Random(99)
    codes = [c for i in range(1, p.r + 1) for c in (i, -i)]
    for _ in range(10_000):
        n = rng.randint(0, 12)
        w = Word(tuple(rng.choice(codes) for _ in range(n)))
        la = length_A(w)
        lf = length_A(free_reduce(w))
        v = abelianize(w, p.r)
        lzr = sum(abs(x) for x in v)
        lg = p.group_length(p.canonical_form(v), max(la, 1))
        assert la >= lf >= lzr >= lg


def test_group_length_is_a_norm(zxz2):
    rng = random.Random(7)
    p = zxz2
    for _ in range(300):
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        u = (rng.randint(-5, 5), rng.randint(-5, 5))
        gv, gu = p.canonical_form(v), p.canonical_form(u)
        cap = 40
        assert p.group_length(gv, cap) == p.group_length(p.inverse_cf(gv), cap)
        assert p.group_length(p.compose(gv, gu), cap) <= p.group_length(gv, cap) + p.group_length(gu, cap)


def test_canonical_respects_quotient(zxz2, z10):
    rng = random.Random(13)
    for p in (zxz2, z10):
        M = p.relation_matrix
        s = len(M[0])
        for _ in range(200):
            v = tuple(rng.randint(-20, 20) for _ in range(p.r))
            x = [rng.randint(-4, 4) for _ in range(s)]
            shifted = tuple(
                v[i] + sum(M[i][j] * x[j] for j in range(s)) for i in range(p.r)
            )
            assert p.canonical_form(v) == p.canonical_form(shifted)


def test_presentation_file_roundtrip(tmp_path):
    text = "generators 2\nrelator a2 a2\nrelator a1 a2 A1 A2\n"
    p = load_presentation_text(text)
    assert p.r == 2
    assert p.canonical_form((5, 7)).torsion_part == (1,)
    path = tmp_path / "group.txt"
    path.write_text(text)
    q = resolve_group(str(path))
    assert q.relation_matrix == p.relation_matrix
    with pytest.raises(ValueError):
        resolve_group("no_such_group")
    with pytest.raises(ValueError):
        load_presentation_text("relator a1\n")


def test_builtins():
    assert builtin_presentation("z2").is_standard_free
    assert builtin_presentation("z3").r == 3
    assert not builtin_presentation("z10").is_standard_free
    assert free_abelian(4).is_standard_free
    assert cyclic(5).torsion_moduli == (5,)
    with pytest.raises(ValueError):
        builtin_presentation("z4")


def test_is_standard_z2():
    assert builtin_presentation("z2").is_standard_z2
    rotations = [(1, 2, -1, -2), (2, -1, -2, 1), (-1, 2, 1, -2), (-2, -1, 2, 1)]
    assert AbelianPresentation(2, [Word(w) for w in rotations]).is_standard_z2
    for p in (
        builtin_presentation("z3"),
        builtin_presentation("zxz2"),
        AbelianPresentation(2, []),
        AbelianPresentation(2, [Word((1, 2, -1, -2) * 2)]),
        AbelianPresentation(2, [Word((1, 2, -1, -2)), Word((1, 1, -1, -1))]),
        AbelianPresentation(2, [Word((1, 2, 1, -2))]),
    ):
        assert not p.is_standard_z2, p


def test_relators_validated():
    with pytest.raises(ValueError):
        AbelianPresentation(1, [Word((1, 0), lazy=True)])
    with pytest.raises(ValueError):
        AbelianPresentation(1, [Word((2,))])  # index outside the alphabet
