"""linalg.packed_nonsingular against eliminate_raw, the elimination it stands in for."""

import random

import pytest

from grasym import make_field
from grasym.invariants import SCAN_BOUND
from grasym.linalg import eliminate_raw, lane_width, packed_nonsingular

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PRIMES = (2, 3, 7, 997)
SHAPES = ("random", "repeated-row", "zero-column", "dependent-last-column",
          "swap-every-column", "lanes-at-the-start-bound")


def pack(lanes, w):
    """Each row of lane values as one int, lane c at bits c*w."""
    return [sum(v << (c * w) for c, v in enumerate(row)) for row in lanes]


def oracle_nonsingular(lanes, p):
    """eliminate_raw's nonsingularity test on the residues of the lanes."""
    m = [[v % p for v in row] for row in lanes]
    return eliminate_raw(make_field(p).ops, m, len(m), stop_at_gap=True) is not None


def lift(residue, p, top, rng):
    """A lane value at most top with the given residue mod p."""
    return residue + p * rng.randrange((top - residue) // p + 1)


@st.composite
def lane_matrices(draw):
    """(lanes, p): a square matrix of lane values, each at most n (p - 1)^2,
    so the scan's start bound, with residues of the chosen shape."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 20))
    shape = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    top = n * (p - 1) ** 2
    if shape == "swap-every-column":
        # upper triangular rows U[1], .., U[n-1], U[0]: the pivot of every
        # column but the last is in the bottom row
        upper = [[0] * c + [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - c - 1)]
                 for c in range(n)]
        residues = upper[1:] + upper[:1]
    else:
        residues = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    if shape == "repeated-row" and n > 1:
        i, j = rng.sample(range(n), 2)
        residues[i] = list(residues[j])
    elif shape == "zero-column":
        c = rng.randrange(n)
        for row in residues:
            row[c] = 0
    elif shape == "dependent-last-column":
        coeffs = [rng.randrange(p) for _ in range(n - 1)]
        for row in residues:
            row[-1] = sum(a * v for a, v in zip(coeffs, row)) % p
    if shape == "lanes-at-the-start-bound":
        lanes = [[top - (top - v) % p for v in row] for row in residues]
    else:
        lanes = [[lift(v, p, top, rng) for v in row] for row in residues]
    return lanes, p


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(lane_matrices())
def test_packed_test_matches_eliminate_raw(case):
    lanes, p = case
    rows = pack(lanes, lane_width(len(lanes), p))
    before = list(rows)
    assert packed_nonsingular(rows, p, lane_width(len(lanes), p)) == oracle_nonsingular(lanes, p)
    assert rows == before


def _extreme_sizes():
    """For each prime, the largest N with p^N at most SCAN_BOUND."""
    out = []
    for p in (999983, 997, 3, 2):
        n = 1
        while p ** (n + 1) <= SCAN_BOUND:
            n += 1
        out.append((n, p))
    return out


def test_the_extreme_sizes_are_the_documented_ones():
    assert _extreme_sizes() == [(1, 999983), (2, 997), (12, 3), (19, 2)]
    assert [lane_width(n, p) for n, p in _extreme_sizes()] == [60, 41, 25, 24]


@pytest.mark.parametrize("n, p", _extreme_sizes())
def test_lane_growth_at_the_extreme_sizes(n, p):
    w = lane_width(n, p)
    # every entry p - 1, and every lane at the start bound n (p - 1)^2
    for value in (p - 1, n * (p - 1) ** 2):
        lanes = [[value] * n for _ in range(n)]
        assert packed_nonsingular(pack(lanes, w), p, w) == oracle_nonsingular(lanes, p)
    # random residues, mostly nonsingular, so that elimination runs through
    # every column, with lanes as large as the start bound allows
    rng = random.Random(p)
    top = n * (p - 1) ** 2
    for _ in range(20):
        lanes = [[top - rng.randrange(p) for _ in range(n)] for _ in range(n)]
        assert packed_nonsingular(pack(lanes, w), p, w) == oracle_nonsingular(lanes, p)
