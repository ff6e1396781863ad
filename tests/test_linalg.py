import random

import pytest

from grasym import Matrix, Subspace
from grasym.errors import AmbientMismatch


def m(field, rows):
    return Matrix(field, [[field.scalar(x) for x in r] for r in rows])


def vec(field, xs):
    return [field.scalar(x) for x in xs]


def test_rref_identity(f2):
    mat = Matrix.identity(f2, 3)
    red, rank, _ = mat.rref()
    kernel = mat.kernel()
    assert rank == 3 and kernel.dim == 0


def test_rref_zero(q):
    mat = Matrix.zero(q, 2, 3)
    red, rank, _ = mat.rref()
    kernel = mat.kernel()
    assert rank == 0 and kernel.dim == 3


def test_rref_rank_one(f2):
    mat = m(f2, [[1, 1], [1, 1]])
    red, rank, _ = mat.rref()
    kernel = mat.kernel()
    assert rank == 1
    assert kernel.dim == 1
    assert kernel.basis[0] == tuple(vec(f2, [1, 1]))


def test_kernel_vectors_verified(f5):
    mat = m(f5, [[1, 2, 3], [4, 0, 1], [0, 3, 2]])
    _, rank, _ = mat.rref()
    kernel = mat.kernel()
    for row in kernel.basis:
        assert all(x.is_zero for x in mat.mulvec(list(row)))
    assert rank + kernel.dim == 3


def test_rref_idempotent(f3):
    mat = m(f3, [[1, 2, 0], [2, 1, 1]])
    red, _, _ = mat.rref()
    red2, _, _ = red.rref()
    assert red == red2


def test_solve(q):
    mat = m(q, [[1, 2], [3, 4]])
    sol = mat.solve(vec(q, [5, 6]))
    assert mat.mulvec(list(sol)) == tuple(vec(q, [5, 6]))
    singular = m(q, [[1, 1], [1, 1]])
    assert singular.solve(vec(q, [0, 1])) is None


def test_inverse(f5):
    mat = m(f5, [[1, 2], [3, 4]])
    assert mat @ mat.inverse() == Matrix.identity(f5, 2)


def test_subspace_contains(q):
    u = Subspace.from_vectors(q, 2, [vec(q, [1, 0])])
    assert u.contains_vector(vec(q, [1, 0]))
    assert not u.contains_vector(vec(q, [0, 1]))
    with pytest.raises(AmbientMismatch):
        u.contains_vector(vec(q, [1, 0, 0]))
    with pytest.raises(AmbientMismatch):
        u.contains_vector(vec(q, [1]))


def test_subspace_reduce_vector_rejects_wrong_length(q):
    assert Subspace.full(q, 2).reduce_vector(vec(q, [1, 5])) == tuple(vec(q, [1, 5]))
    # a longer vector is refused, not cut to the length of the basis rows
    with pytest.raises(AmbientMismatch, match="length"):
        Subspace.full(q, 2).reduce_vector(vec(q, [1, 0, 5]))
    with pytest.raises(AmbientMismatch, match="length"):
        Subspace.zero(q, 2).reduce_vector(vec(q, [0, 0, 0]))


def test_sum_idempotent(f3):
    u = Subspace.from_vectors(f3, 3, [vec(f3, [1, 2, 0]), vec(f3, [0, 1, 1])])
    assert u.sum(u) == u


def test_dimension_formula_seeded(f5):
    rng = random.Random(7)
    for _ in range(25):
        dim = 5
        u = Subspace.from_vectors(
            f5, dim, [[f5.element_at(rng.randrange(5)) for _ in range(dim)]
                      for _ in range(rng.randrange(1, 4))])
        w = Subspace.from_vectors(
            f5, dim, [[f5.element_at(rng.randrange(5)) for _ in range(dim)]
                      for _ in range(rng.randrange(1, 4))])
        both = _intersection(u, w)
        assert u.sum(w).dim + both.dim == u.dim + w.dim
        assert u.sum(w).contains(u) and u.sum(w).contains(w)
        assert u.contains(both) and w.contains(both)


def _intersection(u, w):
    """U and W meet in the vectors sum a_i u_i = sum b_j w_j, for (a, b) in
    the kernel of the matrix with columns u_i and -w_j."""
    columns = list(u.basis) + [[-x for x in v] for v in w.basis]
    pairs = Matrix(u.field, columns).transpose().kernel()
    spread = Matrix(u.field, u.basis).transpose()
    return Subspace.from_vectors(u.field, u.ambient_dim,
                                 [spread.mulvec(ab[:u.dim]) for ab in pairs.basis])


def quotient_basis(space, sub):
    """Vectors from space's basis completing sub's basis to a basis of space."""
    if not space.contains(sub):
        raise AmbientMismatch("quotient basis needs sub contained in space")
    chosen = []
    span = list(sub.basis)
    current = Subspace.from_vectors(space.field, space.ambient_dim, span)
    for row in space.basis:
        if not current.contains_vector(row):
            chosen.append(row)
            span.append(row)
            current = Subspace.from_vectors(space.field, space.ambient_dim, span)
    return chosen


def test_quotient_basis(q):
    w = Subspace.full(q, 3)
    u = Subspace.from_vectors(q, 3, [vec(q, [1, 0, 0])])
    extra = quotient_basis(w, u)
    assert len(extra) == 2
    assert Subspace.from_vectors(q, 3, list(u.basis) + extra) == w


def test_quotient_basis_requires_containment(q):
    u = Subspace.from_vectors(q, 2, [vec(q, [1, 0])])
    w = Subspace.from_vectors(q, 2, [vec(q, [0, 1])])
    with pytest.raises(AmbientMismatch):
        quotient_basis(u, w)


def test_ambient_mismatch(q, f2):
    u = Subspace.from_vectors(q, 2, [vec(q, [1, 0])])
    w = Subspace.from_vectors(q, 3, [vec(q, [1, 0, 0])])
    with pytest.raises(AmbientMismatch):
        u.sum(w)


def test_equality_is_representation_equality(f3):
    u = Subspace.from_vectors(f3, 2, [vec(f3, [1, 1]), vec(f3, [2, 2])])
    w = Subspace.from_vectors(f3, 2, [vec(f3, [2, 2])])
    assert u == w and u.dim == 1


def test_change_field_preserves_rref(f2):
    from grasym import extend_field
    u = Subspace.from_vectors(f2, 3, [vec(f2, [1, 0, 1]), vec(f2, [0, 1, 1])])
    big = extend_field(f2, 2)
    v = u.change_field(big)
    assert v.dim == u.dim and v.field == big
    red, rank, _ = Matrix(big, v.basis).rref()
    assert tuple(red.entries[:rank]) == v.basis
