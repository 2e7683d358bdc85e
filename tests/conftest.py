import pytest
from hypothesis import settings

from dehnlab import AbelianPresentation, Word, builtin_presentation, cyclic, make_combing
from dehnlab.presentation import commutator, load_presentation


def W(text: str) -> Word:
    """Shorthand for Word.from_tokens in tests."""
    return Word.from_tokens(text)


# Presentations whose Cayley graphs the walker and the BFS tree are checked
# on: free, torsion, finite, a relator that only abelianizes to 0, and an
# abelianized relator mixing two generators. Each call builds a fresh one.
WALK_PRESENTATIONS = {
    "z2": lambda: builtin_presentation("z2"),
    "z3": lambda: builtin_presentation("z3"),
    "zxz2": lambda: builtin_presentation("zxz2"),
    "z10": lambda: builtin_presentation("z10"),
    "z/3": lambda: cyclic(3),
    "[a1,a2]^2": lambda: AbelianPresentation(2, [Word((1, 2, -1, -2) * 2)]),
    "a1a1a2,[a1,a2]": lambda: AbelianPresentation(2, [Word((1, 1, 2)), commutator(1, 2)]),
}


@pytest.fixture(scope="session")
def z2():
    return builtin_presentation("z2")


@pytest.fixture(scope="session")
def z3():
    return builtin_presentation("z3")


@pytest.fixture(scope="session")
def z10():
    return builtin_presentation("z10")


@pytest.fixture(scope="session")
def zxz2():
    return builtin_presentation("zxz2")


# Z x Z_m presentations read from presentation files: the torsion on a2 with
# m = 3, and zxz2 with its generators swapped and the commutator reversed.
PRESENTATION_FILES = {
    "zxz3": "generators 2\nrelator a2 a2 a2\nrelator a1 a2 A1 A2\n",
    "z2xz": "generators 2\nrelator a1 a1\nrelator a2 a1 A2 A1\n",
}


def _presentation_file(tmp_path_factory, name):
    path = tmp_path_factory.mktemp("presentations") / f"{name}.txt"
    path.write_text(PRESENTATION_FILES[name])
    return load_presentation(path)


@pytest.fixture(scope="session")
def zxz3(tmp_path_factory):
    return _presentation_file(tmp_path_factory, "zxz3")


@pytest.fixture(scope="session")
def z2xz(tmp_path_factory):
    return _presentation_file(tmp_path_factory, "z2xz")


@pytest.fixture(scope="session")
def z5():
    return cyclic(5)


@pytest.fixture
def tiny_moduli(monkeypatch):
    """Cells below 2^14: every DP runs on moduli near 2^10 and reduces often.

    Every residue a DP hands to the CRT read-out must respect that limit too.
    Yields the number of moduli of each read-out.
    """
    from dehnlab import counting, dehnstats

    limit = 1 << 14
    crt = counting._crt
    seen = []

    def checked_crt(residues, moduli):
        assert residues.max(initial=0) < limit
        seen.append(len(moduli))
        return crt(residues, moduli)

    monkeypatch.setattr(counting, "_CELL_LIMIT", limit)
    monkeypatch.setattr(counting, "_crt", checked_crt)
    monkeypatch.setattr(dehnstats, "_crt", checked_crt)
    yield seen


@pytest.fixture(scope="session")
def st2(z2):
    return make_combing(z2, "staircase")


# One deterministic profile: derandomized examples, no example database and
# no per-example deadline, so tier-1 runs the same cases in the same time.
settings.register_profile(
    "dehnlab", derandomize=True, database=None, deadline=None, max_examples=30
)
settings.load_profile("dehnlab")
