"""Exact linear solves over Q and Q(i), checked against the rank criterion."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cxpoisson import linalg
from cxpoisson.scalars import GaussScalar

SMALL = st.integers(-3, 3)
FIELDS = {
    "Q": (SMALL.map(Fraction), Fraction(0)),
    "Q(i)": (st.builds(GaussScalar.of, SMALL, SMALL), GaussScalar.of(0)),
}


@st.composite
def systems(draw, field):
    """(rows, rhs, ncols, zero); half the right-hand sides are M y, so the
    sample holds consistent systems as well as inconsistent ones."""
    entries, zero = FIELDS[field]
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        rhs = linalg.matvec(rows, [draw(entries) for _ in range(ncols)])
    else:
        rhs = [draw(entries) for _ in range(nrows)]
    return rows, rhs, ncols, zero


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(systems))
def test_solve_is_exact_and_none_iff_inconsistent(system):
    rows, rhs, ncols, zero = system
    x = linalg.solve(rows, rhs, ncols, zero)
    aug = [r + [b] for r, b in zip(rows, rhs)]
    assert (x is None) == (linalg.rank(aug) > linalg.rank(rows))
    if x is not None:
        assert len(x) == ncols and linalg.matvec(rows, x) == rhs
