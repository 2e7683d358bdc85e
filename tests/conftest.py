import pytest
from hypothesis import settings

from dehnlab import Word, builtin_presentation, cyclic, make_combing


def W(text: str) -> Word:
    """Shorthand for Word.from_tokens in tests."""
    return Word.from_tokens(text)


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


@pytest.fixture(scope="session")
def z5():
    return cyclic(5)


@pytest.fixture(scope="session")
def st2(z2):
    return make_combing(z2, "staircase")


# One deterministic profile: derandomized examples, no example database and
# no per-example deadline, so tier-1 runs the same cases in the same time.
settings.register_profile(
    "dehnlab", derandomize=True, database=None, deadline=None, max_examples=30
)
settings.load_profile("dehnlab")
