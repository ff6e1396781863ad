"""Trace spaces, commutator spans and centralizers reduce sparse raw rows in one
pass (linalg.sparse_span, linalg.sparse_kernel); the reductions on Scalars
that they replaced are the oracles."""

import random

import pytest

from grasym import (
    Matrix,
    Subspace,
    canonical_extension_field,
    center,
    centralizer,
    cyclic_algebra,
    cyclic_group,
    dihedral_group,
    field_as_algebra,
    good_matrix_algebra,
    group_algebra,
    homogeneous_component,
    make_field,
    matrix_algebra,
    rationals,
    sweedler_algebra,
    tensor_product,
    trivial_extension,
    ungrade,
)
from grasym.groups import cyclic_product_group
from grasym.invariants import commutator_pairs, commutator_rows
from grasym.linalg import SparseEchelon, sparse_kernel, sparse_span
from grasym.replicate import random_graded_basis_change, random_small_algebra
from grasym.symmetry import MODES, graded_trace_space
from test_invariants import _commutator_oracle_corpus, scalar_commutator_span

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def two_step_trace_space(a, mode):
    """The trace space as it was decided before: the commutator span on
    Scalars over ordered pairs, stacked under the off-identity unit rows, and
    the kernel of that Matrix."""
    e = a.group.identity
    z, o = a.field.zero(), a.field.one()
    constraints = []
    if mode.startswith("graded-"):
        for i in range(a.dim):
            if a.degree[i] != e:
                row = [z] * a.dim
                row[i] = o
                constraints.append(row)
    if mode == "graded-symmetric":
        pairs = [(i, j) for i in range(a.dim) for j in range(a.dim)
                 if a.group.mul(a.degree[i], a.degree[j]) == e]
        constraints.extend(list(r) for r in scalar_commutator_span(a, pairs).basis)
    elif mode == "symmetric":
        pairs = [(i, j) for i in range(a.dim) for j in range(i + 1, a.dim)]
        constraints.extend(list(r) for r in scalar_commutator_span(a, pairs).basis)
    if not constraints:
        return Subspace.full(a.field, a.dim)
    return Matrix(a.field, constraints).kernel()


def matrix_centralizer(a, s):
    """The centralizer as it was computed before: constraint rows from
    mul_coords on Scalars, and the kernel of that Matrix."""
    rows = []
    for v in s.basis:
        columns = []
        for l in range(a.dim):
            e_l = [a.field.zero()] * a.dim
            e_l[l] = a.field.one()
            left = a.mul_coords(e_l, list(v))
            right = a.mul_coords(list(v), e_l)
            columns.append([x - y for x, y in zip(left, right)])
        for k in range(a.dim):
            rows.append([columns[l][k] for l in range(a.dim)])
    if not rows:
        return Subspace.full(a.field, a.dim)
    return Matrix(a.field, rows).kernel()


def _random_draws():
    rng = random.Random(16)
    for p in (2, 3, 5):
        for n in range(12):
            yield f"F{p}-random-{n}", random_small_algebra(make_field(p), rng)


def _benchmark_style_inputs():
    """Inputs of the kind the benchmark decides, each after a seeded basis
    change, so that every constraint row is dense and reductions cancel."""
    f2, f3, f5 = make_field(2), make_field(3), make_field(5)
    builds = [
        ("cyc3", lambda: cyclic_algebra(3)),
        ("cyc5", lambda: cyclic_algebra(5)),
        ("F3[D4]", lambda: group_algebra(f3, dihedral_group(4))),
        ("F2[C2^3]", lambda: group_algebra(f2, cyclic_product_group([2, 2, 2]))),
        ("M3(F2)", lambda: matrix_algebra(f2, 3)),
        ("M4(F3)-C2", lambda: good_matrix_algebra(4, [0, 0, 1, 1],
                                                  field_as_algebra(f3, f3, cyclic_group(2)))),
        ("TE(F2^3)", lambda: trivial_extension(field_as_algebra(
            canonical_extension_field(2, 3), f2))),
    ]
    for field in (f3, f5):
        sw = sweedler_algebra(field)
        builds += [
            (f"{field}-Sweedler", lambda sw=sw: sw),
            (f"{field}-Sweedler(x)Sweedler", lambda sw=sw: tensor_product(sw, sw)),
            (f"{field}-Sweedler(x)M2",
             lambda sw=sw, field=field: tensor_product(sw, matrix_algebra(field, 2))),
            (f"{field}-Sweedler(x)C3", lambda sw=sw, field=field: tensor_product(
                sw, ungrade(group_algebra(field, cyclic_group(3))))),
        ]
    for name, build in builds:
        yield f"{name}-basis-change", random_graded_basis_change(build(), random.Random(name))


def _dim_one_algebras():
    for field in (make_field(3), make_field(5), canonical_extension_field(2, 2), rationals()):
        yield f"{field}-dim-1", field_as_algebra(field, field)


def _trace_space_corpus():
    yield from _commutator_oracle_corpus()
    yield from _random_draws()
    yield from _benchmark_style_inputs()
    yield from _dim_one_algebras()


def test_trace_spaces_match_the_two_step_kernel():
    count = 0
    for name, a in _trace_space_corpus():
        for mode in MODES:
            assert graded_trace_space(a, mode) == two_step_trace_space(a, mode), (name, mode)
        count += 1
    assert count == 44 + 36 + 15 + 4


def test_dim_one_trace_spaces_are_everything():
    for name, a in _dim_one_algebras():
        for mode in MODES:
            assert graded_trace_space(a, mode) == Subspace.full(a.field, 1), (name, mode)


def test_centralizers_match_the_matrix_kernel():
    for name, a in _trace_space_corpus():
        if a.dim > 36:
            continue  # the oracle takes d^4 Scalar products for the center: 3 s at dim 64
        assert center(a) == matrix_centralizer(a, Subspace.full(a.field, a.dim)), name
        for g in sorted(set(a.degree)):
            s = homogeneous_component(a, g)
            assert centralizer(a, s) == matrix_centralizer(a, s), (name, g)
        assert centralizer(a, Subspace.zero(a.field, a.dim)) == Subspace.full(a.field, a.dim)


def test_unconstrained_trace_spaces_are_the_full_space_or_the_identity_component():
    # no commutator constrains these: the space is everything the mode allows
    f2 = make_field(2)
    commutative = group_algebra(f2, cyclic_product_group([2, 2, 2]))
    cyc3 = cyclic_algebra(3)
    cases = [(commutative, "symmetric"), (commutative, "graded-symmetric"),
             (cyc3, "frobenius"), (cyc3, "graded-frobenius")]
    for a, mode in cases:
        want = Subspace.full(a.field, a.dim) if mode in ("symmetric", "frobenius") \
            else homogeneous_component(a, a.group.identity)
        assert graded_trace_space(a, mode) == want, mode
        assert want == two_step_trace_space(a, mode)


def test_graded_commutators_come_from_the_pairs_i_below_j():
    for name, a in _commutator_oracle_corpus():
        want = [(i, j) for i in range(a.dim) for j in range(i + 1, a.dim)
                if a.group.mul(a.degree[i], a.degree[j]) == a.group.identity]
        assert list(commutator_pairs(a, graded=True)) == want, name


def test_commutator_rows_hold_no_zero_entry():
    for name, a in _trace_space_corpus():
        ops = a.field.ops
        for row in commutator_rows(a, commutator_pairs(a)):
            assert row and ops.zero not in row.values(), name


# -- the sparse reducer against eliminate_raw ----------------------------------------------

F3, F5, F4, Q = make_field(3), make_field(5), canonical_extension_field(2, 2), rationals()


def _sparse(ops, row):
    return {c: v for c, v in enumerate(row) if v != ops.zero}


def test_a_row_that_cancels_leaves_no_zero_entry():
    # the second row minus the first is e_2: columns 0 and 1 cancel, and a
    # zero left at column 0 would be picked as the pivot and inverted
    for field in (F3, F5, F4, Q):
        ops = field.ops
        c = field.from_int(2) if field.char != 2 else field.element_at(2)
        one, two = ops.one, c.val
        rows = [{0: one, 1: two}, {0: one, 1: two, 2: one}, {0: two, 1: ops.mul(two, two)}]
        echelon = SparseEchelon(ops, 3)
        assert [echelon.add(dict(r)) for r in rows] == [True, True, False]
        assert all(ops.zero not in row.values() for row in echelon.rows.values())
        assert echelon.rows == {0: {0: one, 1: two}, 2: {2: one}}
        want = Subspace.from_vectors(field, 3, [
            [field.one(), c, field.zero()], [field.zero()] * 2 + [field.one()]])
        assert sparse_span(ops, 3, [dict(r) for r in rows]) == want


def test_a_full_rank_kernel_is_empty_and_stops_reading():
    for field in (F3, Q):
        ops = field.ops

        def rows():
            yield {1: ops.one, 2: ops.one}
            yield {2: ops.one}
            raise AssertionError("read past full rank")

        assert sparse_kernel(ops, 3, rows(), dead=[0]) == Subspace.zero(field, 3)
        assert sparse_kernel(ops, 2, [], dead=[0, 1]) == Subspace.zero(field, 2)


@st.composite
def sparse_systems(draw):
    field = draw(st.sampled_from([F3, F5, F4, Q]))
    ops = field.ops
    ncols = draw(st.integers(1, 6))
    if field.char == 0:
        value = st.builds(lambda n, d: field.scalar(n) / field.scalar(d),
                          st.integers(-4, 4), st.integers(1, 3))
    else:
        value = st.integers(0, field.size() - 1).map(field.element_at)
    # zero half the time, so pivots move and columns go missing
    entry = st.one_of(st.just(field.zero()), value)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if rows and draw(st.booleans()):
            # a combination of earlier rows, which cancels to zero as it is reduced
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(value)
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append([draw(entry) for _ in range(ncols)])
    dead = sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)))
    return field, ops, ncols, rows, dead


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(sparse_systems())
def test_sparse_span_and_kernel_match_eliminate_raw(system):
    field, ops, ncols, rows, dead = system
    sparse = [_sparse(ops, ops.unwrap(r)) for r in rows]
    assert sparse_span(ops, ncols, [dict(r) for r in sparse]) == \
        Subspace.from_vectors(field, ncols, rows)
    units = []
    for c in dead:
        unit = [field.zero()] * ncols
        unit[c] = field.one()
        units.append(unit)
    constraints = units + rows
    want = Matrix(field, constraints).kernel() if constraints else Subspace.full(field, ncols)
    assert sparse_kernel(ops, ncols, sparse, dead) == want
