"""random_graded_basis_change, on dense component blocks of packed ints,
builds the same algebra, byte for byte, and draws the same values, as the
two versions it replaced, kept here as its oracles: the Scalar version and
the sparse one on raw values."""

import random
import sys
from pathlib import Path

import pytest

from grasym.algebras import (
    GradedAlgebra,
    group_algebra,
    quaternion_algebra,
    sparse_combination,
    tensor_product,
    ungrade,
    validate_algebra,
)
from grasym.errors import InvalidTable, RationalsNotSupported
from grasym.fields import canonical_extension_field, make_field
from grasym.groups import cyclic_group
from grasym.linalg import Matrix, eliminate_raw
from grasym.replicate import dim4_f2_corpus, random_graded_basis_change
from grasym.specfile import algebra_hash

from test_specfile import all_constructor_outputs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def scalar_basis_change(a: GradedAlgebra, rng: random.Random) -> GradedAlgebra:
    """The Scalar implementation: the whole d x d inverse, and every product
    through GradedAlgebra.mul_coords."""
    if not a.field.is_finite:
        raise RationalsNotSupported("random basis changes draw from a finite field")
    q = a.field.size()
    blocks = {}
    for g in set(a.degree):
        idx = a.component_indices(g)
        n = len(idx)
        while True:
            rows = [[a.field.element_at(rng.randrange(q)) for _ in range(n)]
                    for _ in range(n)]
            m = Matrix(a.field, rows)
            if m.rank() == n:
                blocks[g] = (idx, m)
                break
    z = a.field.zero()
    basis_rows = []
    for i in range(a.dim):
        g = a.degree[i]
        idx, m = blocks[g]
        pos = idx.index(i)
        row = [z] * a.dim
        for col, j in enumerate(idx):
            row[j] = m.entries[pos][col]
        basis_rows.append(row)
    express = Matrix(a.field, basis_rows).inverse().transpose().mulvec
    sc = {}
    for i in range(a.dim):
        for j in range(a.dim):
            coords = express(a.mul_coords(basis_rows[i], basis_rows[j]))
            terms = tuple((k, c) for k, c in enumerate(coords) if not c.is_zero)
            if terms:
                sc[(i, j)] = terms
    unit = express(a.one().coords)
    return GradedAlgebra(a.field, a.group, a.degree, sc, unit)


def sparse_basis_change(a: GradedAlgebra, rng: random.Random) -> GradedAlgebra:
    """The sparse version on raw values: B and B^-1 as sparse rows, and every
    product b_i b_j as sums of sparse rows, each sum reduced as it goes.

    The new basis vector b_i is row i of the matrix B, and a vector v has
    the coordinates B^-T v on the new basis.  B is block-diagonal over the
    graded components, so B^-1 is too."""
    if not a.field.is_finite:
        raise RationalsNotSupported("random basis changes draw from a finite field")
    field, d = a.field, a.dim
    q, ops = field.size(), field.ops
    zero, one = ops.zero, ops.one
    change = [()] * d  # row i of B, as (index, raw value) pairs
    inverse = [()] * d  # row i of B^-1
    for g in set(a.degree):
        idx = a.component_indices(g)
        n = len(idx)
        while True:
            block = [ops.unwrap([field.element_at(rng.randrange(q)) for _ in range(n)])
                     for _ in range(n)]
            # [block | I] reduces to [I | block^-1] when block is invertible
            aug = [row + [one if c == r else zero for c in range(n)]
                   for r, row in enumerate(block)]
            if eliminate_raw(ops, aug, 2 * n)[:n] == list(range(n)):
                break
        for pos, i in enumerate(idx):
            change[i] = tuple((j, c) for j, c in zip(idx, block[pos]) if c != zero)
            inverse[i] = tuple((j, c) for j, c in zip(idx, aug[pos][n:]) if c != zero)
    cols = [[row[l] for row in a.table] for l in range(d)]

    def express(v: dict) -> dict:
        return sparse_combination(ops, v.items(), inverse)

    table = []
    for i in range(d):
        # b_i e_l for every l, then b_i b_j = sum_l B_jl b_i e_l
        right = [sparse_combination(ops, change[i], col).items() for col in cols]
        table.append([tuple(sorted(express(sparse_combination(ops, change[j], right)).items()))
                      for j in range(d)])
    unit = express({k: c for k, c in enumerate(a.unit) if c != zero})
    return GradedAlgebra._from_raw(field, a.group, a.degree, table,
                                   [unit.get(k, zero) for k in range(d)])


def _inputs():
    """(name, algebra, seeds).  The benchmark changes the basis of the
    questions marked basis_change, so those get ten seeds.  The others are
    one dense block each once their basis changes, which the Scalar version
    takes 0.05-0.3 s per seed to conjugate up to dim 20, 3.4 s at dim 36 and
    far longer at dim 64; they get two seeds, and dims 36 and 64 none (the
    sparse oracle checks those, BIG_INPUTS)."""
    seeds = range(10)
    out = [(f"constructor-{i}", a, seeds)
           for i, a in enumerate(all_constructor_outputs()) if a.field.is_finite]
    out += [(name, a, seeds) for name, a in dim4_f2_corpus()]
    for q in workloads.DECIDE + workloads.REFUTE:
        a = q.build()
        if a.field.is_finite and a.dim <= 25:
            out.append((q.name, a, seeds if q.basis_change else range(2)))
    return out


INPUTS = _inputs()


@pytest.mark.parametrize("name, a, seeds", INPUTS, ids=[name for name, _, _ in INPUTS])
def test_raw_basis_change_matches_the_scalar_oracle(name, a, seeds):
    for seed in seeds:
        fast = random_graded_basis_change(a, random.Random(seed))
        assert algebra_hash(fast) == algebra_hash(scalar_basis_change(a, random.Random(seed)))


def _big_inputs():
    """The finite benchmark inputs above dim 25, which only the sparse oracle
    is quick enough to check: F_3 and F_5 Sweedler (x) M_3 (dim 36) and F_3
    Sweedler^(x)3 (dim 64), one dense component each.  The sparse version
    takes about 0.3 s per seed at dim 36 and 2-3 s at dim 64."""
    out = []
    for q in workloads.DECIDE + workloads.REFUTE:
        a = q.build()
        if a.field.is_finite and a.dim > 25:
            out.append((q.name, a, range(2)))
    return out


BIG_INPUTS = _big_inputs()
SPARSE_INPUTS = INPUTS + BIG_INPUTS


@pytest.mark.parametrize("name, a, seeds", SPARSE_INPUTS,
                         ids=[name for name, _, _ in SPARSE_INPUTS])
def test_dense_basis_change_matches_the_sparse_oracle(name, a, seeds):
    for seed in seeds:
        fast, slow = random.Random(seed), random.Random(seed)
        assert algebra_hash(random_graded_basis_change(a, fast)) == \
            algebra_hash(sparse_basis_change(a, slow))
        assert fast.getstate() == slow.getstate()


def test_the_sparse_oracle_covers_dims_36_and_64():
    assert sorted(a.dim for _, a, _ in BIG_INPUTS) == [36, 36, 64]


def test_raw_basis_change_draws_what_the_oracle_draws():
    # the three consume the generator identically, so a stream shared by
    # several basis changes (random_small_algebra) stays in step
    questions = {q.name: q for q in workloads.DECIDE}
    for a in (all_constructor_outputs()[4],  # cyclic_algebra(3)
              questions["cyc3(x)F9-division"].build(),  # over F_9
              questions["F3[D4]-symmetric"].build()):  # every component of dim 1
        fast, slow, sparse = random.Random(5), random.Random(5), random.Random(5)
        random_graded_basis_change(a, fast)
        scalar_basis_change(a, slow)
        sparse_basis_change(a, sparse)
        assert fast.getstate() == slow.getstate() == sparse.getstate()


def _extension_inputs():
    """Algebras over F_9 and F_25 with structure constants outside F_p.  A
    constant of the benchmark's F_9 inputs lies in F_3, so there a product
    of four entries has degree at most 3(n - 1); here it reaches 4(n - 1)
    and fills all 4n - 3 lanes of an entry."""
    f9, f25 = canonical_extension_field(3, 2), canonical_extension_field(5, 2)
    q9 = quaternion_algebra(f9, f9.generator(), f9.generator() + f9.one())
    q25 = quaternion_algebra(f25, f25.generator(), f25.from_int(2) * f25.generator() + f25.one())
    return [("Q9-klein", q9), ("Q9-ungraded", ungrade(q9)), ("Q25-ungraded", ungrade(q25)),
            ("Q9(x)Q9-klein", tensor_product(q9, q9))]


EXTENSION_INPUTS = _extension_inputs()


@pytest.mark.parametrize("name, a", EXTENSION_INPUTS, ids=[name for name, _ in EXTENSION_INPUTS])
def test_constants_outside_the_prime_field_fill_every_lane(name, a):
    assert any(c[1] for row in a.table for cell in row for _, c in cell)
    for seed in range(3):
        fast, slow, sparse = random.Random(seed), random.Random(seed), random.Random(seed)
        assert algebra_hash(random_graded_basis_change(a, fast)) \
            == algebra_hash(scalar_basis_change(a, slow)) \
            == algebra_hash(sparse_basis_change(a, sparse))
        assert fast.getstate() == slow.getstate() == sparse.getstate()


def _truncated_polynomials_over_c3(field, square: int) -> GradedAlgebra:
    """k[x]/(x^2 - square) graded by C_3 with deg x = 1.  No basis vector has
    degree 2 = deg x^2, so the algebra is graded only when square is 0."""
    one = field.one()
    sc = {(0, 0): [(0, one)], (0, 1): [(1, one)], (1, 0): [(1, one)]}
    if square:
        sc[(1, 1)] = [(0, field.from_int(square))]
    return GradedAlgebra(field, cyclic_group(3), [0, 1], sc, [one, field.zero()])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_product_degree_with_no_basis_vector_keeps_its_bytes(p):
    a = _truncated_polynomials_over_c3(make_field(p), 0)
    assert validate_algebra(a).ok
    for seed in range(5):
        fast, slow, sparse = random.Random(seed), random.Random(seed), random.Random(seed)
        b = random_graded_basis_change(a, fast)
        assert b.table[1][1] == ()
        assert algebra_hash(b) == algebra_hash(scalar_basis_change(a, slow)) \
            == algebra_hash(sparse_basis_change(a, sparse))
        assert fast.getstate() == slow.getstate() == sparse.getstate()


def test_a_term_that_breaks_the_grading_is_refused():
    # a term c_ij^k with deg k != deg i deg j is never dropped from a block:
    # the basis change refuses it, whether or not some basis vector has
    # degree deg i deg j
    f3 = make_field(3)
    with pytest.raises(InvalidTable, match=r"^structure constant \(1,1,0\) breaks the grading$"):
        random_graded_basis_change(_truncated_polynomials_over_c3(f3, 1), random.Random(0))
    a = group_algebra(f3, cyclic_group(3))
    table = [list(row) for row in a.table]
    table[1][1] = ((0, 1),) + table[1][1]  # e_1 e_1 = e_2 + e_0
    stray = GradedAlgebra._from_raw(f3, a.group, a.degree, table, a.unit)
    with pytest.raises(InvalidTable, match=r"^structure constant \(1,1,0\) breaks the grading$"):
        random_graded_basis_change(stray, random.Random(0))
