"""Matrix.rref reduces raw field values; the old reduction on Scalars is the oracle.
Element.inverse solves L_x y = 1 on raw values; Matrix.solve on the Scalar
matrix L_x is its oracle."""

import itertools
import random
from unittest import mock

import pytest

from grasym import (
    Matrix,
    cyclic_group,
    group_algebra,
    make_field,
    quaternion_algebra,
    rationals,
    sweedler_algebra,
)
from grasym.errors import AmbientMismatch
from grasym.replicate import dim4_f2_corpus, random_small_algebra

from conftest import scalar_inverse

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def scalar_rref(mat):
    """The reduction on Scalar objects that Matrix.rref replaced: the oracle."""
    m = [list(row) for row in mat.entries]
    pivots = []
    r = 0
    for c in range(mat.cols):
        pivot_row = None
        for i in range(r, mat.rows):
            if not m[i][c].is_zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(mat.rows):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == mat.rows:
            break
    return Matrix(mat.field, m), r, tuple(pivots)


ORACLE_FIELDS = {"F2": make_field(2), "F7": make_field(7), "F4": make_field(2, [1, 1, 1]),
                 "F9": make_field(3, [1, 0, 1]), "Q": rationals()}
SHAPES = ("random", "tall", "wide", "zero", "rank-deficient", "one-row", "square")


@st.composite
def oracle_matrices(draw):
    field = ORACLE_FIELDS[draw(st.sampled_from(sorted(ORACLE_FIELDS)))]
    shape = draw(st.sampled_from(SHAPES))
    small = st.integers(1, 4)
    rows, cols = draw(small), draw(small)
    if shape == "tall":
        cols = draw(st.integers(1, 3))
        rows = cols + draw(small)
    elif shape == "wide":
        rows = draw(st.integers(1, 3))
        cols = rows + draw(small)
    elif shape == "one-row":
        rows = 1
    elif shape in ("square", "rank-deficient"):
        cols = rows = draw(st.integers(1, 5))
    # entries are zero half the time, so that pivots move and columns go missing
    if field.char == 0:
        entry = st.one_of(st.just(field.zero()), st.builds(
            lambda n, d: field.scalar(n) / field.scalar(d), st.integers(-6, 6), st.integers(1, 4)))
    else:
        entry = st.one_of(st.just(field.zero()), st.integers(1, field.size() - 1).map(field.element_at))

    def grid(r, c):
        return Matrix(field, [[draw(entry) for _ in range(c)] for _ in range(r)])

    if shape == "zero":
        return Matrix.zero(field, rows, cols), draw(st.lists(entry, min_size=rows, max_size=rows))
    if shape == "rank-deficient":
        k = draw(st.integers(0, rows - 1))
        mat = grid(rows, k) @ grid(k, cols) if k else Matrix.zero(field, rows, cols)
    else:
        mat = grid(rows, cols)
    # a right-hand side in the column space half the time, so both solve branches run
    if draw(st.booleans()):
        rhs = mat.mulvec(draw(st.lists(entry, min_size=cols, max_size=cols)))
    else:
        rhs = draw(st.lists(entry, min_size=rows, max_size=rows))
    return mat, list(rhs)


def _results(mat, rhs):
    """rref, kernel, solve and inverse of mat, with a singular inverse as None."""
    try:
        inverse = mat.inverse()
    except AmbientMismatch:
        inverse = None
    return mat.rref(), mat.kernel(), mat.solve(rhs), inverse


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(oracle_matrices())
def test_raw_elimination_matches_the_scalar_reduction(case):
    mat, rhs = case
    got = _results(mat, rhs)
    with mock.patch.object(Matrix, "rref", scalar_rref):
        want = _results(mat, rhs)
    assert got == want


# -- Element.inverse: one raw solve of L_x y = 1, against Matrix.solve -------------

def _inverse_corpus():
    """(algebra, elements) pairs: every element of each dim4_f2_corpus algebra
    and of group algebras over F_4 and F_9, sampled elements of random
    draws over F_3 and F_5, and small-coordinate elements of quaternion and
    Sweedler algebras over Q; each but the Q quaternions (-1, -1) has zero
    divisors."""
    out = [(a, list(a.field.vectors(a.dim))) for _, a in dim4_f2_corpus()]
    out += [(a, list(a.field.vectors(a.dim))) for a in (
        group_algebra(ORACLE_FIELDS["F4"], cyclic_group(3)),
        group_algebra(ORACLE_FIELDS["F9"], cyclic_group(2)))]
    for p in (3, 5):
        field, rng = make_field(p), random.Random(700 + p)
        for _ in range(8):
            a = random_small_algebra(field, rng)
            # each coordinate is zero half the time, so that zero divisors come up
            out.append((a, [[rng.randrange(p) if rng.random() < 0.5 else 0
                             for _ in range(a.dim)] for _ in range(40)]))
    q = rationals()
    small = [q.from_int(-1), q.zero(), q.one(), q.from_int(2) / q.from_int(3)]
    for a in (quaternion_algebra(q, -1, -1), quaternion_algebra(q, 1, -1), sweedler_algebra(q)):
        out.append((a, list(itertools.product(small, repeat=4))))
    return out


def test_raw_inverse_matches_the_scalar_solve():
    inverses = zero_divisors = 0
    for a, vectors in _inverse_corpus():
        for coords in vectors:
            x = a.element(coords)
            got = x.inverse()
            assert got == scalar_inverse(x), (a, x)
            if got is None:
                zero_divisors += 1
            else:
                inverses += 1
                assert x * got == a.one() == got * x
    assert inverses > 1000 and zero_divisors > 500
