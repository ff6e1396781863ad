import random

import pytest

from grasym import (
    GradedAlgebra,
    Subspace,
    center,
    centralizer,
    commutator_subspace,
    component_has_invertible,
    cyclic_algebra,
    cyclic_group,
    field_as_algebra,
    good_matrix_algebra,
    graded_commutator_space,
    group_algebra,
    homogeneous_component,
    is_graded_division,
    klein_group,
    make_field,
    matrix_algebra,
    quaternion_algebra,
    rationals,
    scalar_extension,
    support,
    sweedler_algebra,
    trivial_extension,
    trivial_group,
    ungrade,
)


def unit_vectors(field, dim, indices):
    rows = []
    for i in indices:
        row = [field.zero()] * dim
        row[i] = field.one()
        rows.append(row)
    return Subspace.from_vectors(field, dim, rows)


# -- centers and centralizers ---------------------------------------------------

def test_center_of_quaternions(q):
    h = quaternion_algebra(q, -1, -1)
    z = center(h)
    assert z.dim == 1 and z.contains_vector(list(h.unit))


def test_center_of_commutative_algebra(f3):
    a = group_algebra(f3, cyclic_group(2))
    assert center(a).dim == 2


def test_center_of_matrix_algebra(f5):
    m = matrix_algebra(f5, 2)
    z = center(m)
    assert z.dim == 1 and z.contains_vector(list(m.unit))


def test_centralizer_of_center_is_everything(q):
    h = quaternion_algebra(q, -1, -1)
    assert centralizer(h, center(h)).dim == h.dim


def test_centralizer_of_everything_is_center(q):
    h = quaternion_algebra(q, -1, -1)
    assert centralizer(h, Subspace.full(q, 4)) == center(h)


def test_centralizer_of_line(q):
    h = quaternion_algebra(q, -1, -1)
    s = unit_vectors(q, 4, [0, 1])
    assert centralizer(h, s) == s


def test_center_contained_in_every_centralizer(f3):
    a = cyclic_algebra(3)
    z = center(a)
    for g in range(3):
        s = homogeneous_component(a, g)
        assert centralizer(a, s).contains(z)


# -- commutator spaces --------------------------------------------------------------

def test_commutative_algebras_have_zero_commutators(f5):
    a = group_algebra(f5, klein_group())
    assert commutator_subspace(a).dim == 0
    assert graded_commutator_space(a).dim == 0


def test_quaternion_commutator_dimension(q):
    h = quaternion_algebra(q, -1, -1)
    assert commutator_subspace(h).dim == 3


def test_matrix_commutators_are_trace_zero(f5):
    m = matrix_algebra(f5, 2)
    c = commutator_subspace(m)
    assert c.dim == 3
    # trace-zero check: e11 - e22 is in, e11 is not
    assert c.contains_vector([f5.one(), f5.zero(), f5.zero(), f5.from_int(-1)])
    assert not c.contains_vector([f5.one(), f5.zero(), f5.zero(), f5.zero()])


def test_graded_commutator_space_of_quaternions_is_zero(q):
    h = quaternion_algebra(q, -1, -1)
    assert graded_commutator_space(h).dim == 0


@pytest.mark.parametrize("p", [2, 3])
def test_graded_commutator_space_of_cyclic_algebra(p):
    a = cyclic_algebra(p)
    c = graded_commutator_space(a)
    f = a.field
    assert c == unit_vectors(f, a.dim, range(p - 1))
    # containment in the identity component and the full commutator space
    e_comp = homogeneous_component(a, 0)
    assert e_comp.contains(c)
    assert commutator_subspace(a).contains(c)


# -- support ---------------------------------------------------------------------------

def test_support_of_group_algebra(f2):
    a = group_algebra(f2, klein_group())
    assert support(a) == (0, 1, 2, 3)


def test_support_of_ungraded(f2):
    a = ungrade(group_algebra(f2, klein_group()))
    assert support(a) == (0,)


def test_support_is_subgroup_for_division(f3):
    a = cyclic_algebra(3)
    s = support(a)
    assert a.group.subgroup_generated(s) == s


# -- invertibility -----------------------------------------------------------------------

def test_unit_is_invertible(q):
    h = quaternion_algebra(q, -1, -1)
    assert h.one().inverse() == h.one()


def test_nilpotent_is_not_invertible(q):
    s = sweedler_algebra(q)
    assert s.basis_element(2).inverse() is None


def test_quaternion_i_inverse(q):
    h = quaternion_algebra(q, -1, -1)
    assert h.basis_element(1).inverse() == -h.basis_element(1)


def test_component_has_invertible_group_algebra(f3):
    a = group_algebra(f3, cyclic_group(3))
    ok, witness, _ = component_has_invertible(a, 1)
    assert ok and witness == a.basis_element(1)


def test_component_has_invertible_antidiagonal(f2):
    c2 = cyclic_group(2)
    m = good_matrix_algebra(2, [0, 1], field_as_algebra(f2, f2, c2))
    ok, witness, _ = component_has_invertible(m, 1)
    assert ok
    assert witness.inverse() is not None
    assert witness.homogeneous_degree() == 1


def _graded_dual_numbers(field):
    # field[x]/(x^2) with x placed in the nontrivial degree of C_2
    return GradedAlgebra(field, cyclic_group(2), [0, 1],
                         {(0, 0): ((0, field.one()),), (0, 1): ((1, field.one()),),
                          (1, 0): ((1, field.one()),)},
                         [field.one(), field.zero()])


def test_component_of_nilpotents_has_no_invertible(f5):
    a = _graded_dual_numbers(f5)
    ok, witness, _ = component_has_invertible(a, 1)
    assert not ok and witness is None
    ok_e, _, _ = component_has_invertible(a, 0)
    assert ok_e


def test_division_refuted_by_nilpotent_component(f5):
    a = _graded_dual_numbers(f5)
    v = is_graded_division(a)
    assert v.status == "no"
    assert v.witness is not None
    assert v.witness.homogeneous_degree() == 1
    assert v.witness.inverse() is None


def test_identity_component_witness_lifted_into_the_algebra(f2):
    # the identity component of F_2[C_2] + its dual is span{e_0, f_0}, a proper
    # subalgebra; its zero divisor f_0 comes back in the coordinates of the whole
    t = trivial_extension(group_algebra(f2, cyclic_group(2)))
    v = is_graded_division(t)
    assert v.status == "no"
    assert v.certificate == {"identity_component": {"kind": "zero-divisor"}}
    assert [c.to_json() for c in v.witness.coords] == [0, 0, 1, 0]
    assert v.witness.owner is t and v.witness.inverse() is None


def _oracle_corpus():
    from grasym.errors import IncompatibleCocycleData
    from grasym.replicate import hunt_candidates, hunt_char2_params, random_graded_basis_change
    from grasym.specfile import algebra_from_dict

    cyc3_f9 = scalar_extension(cyclic_algebra(3), 2)
    yield cyclic_algebra(2)
    yield cyclic_algebra(3)
    yield cyc3_f9
    yield random_graded_basis_change(cyc3_f9, random.Random(7))
    yield quaternion_algebra(rationals(), -1, -1)
    yield group_algebra(make_field(5), cyclic_group(4))
    yield _graded_dual_numbers(make_field(5))
    for _, spec in hunt_candidates(hunt_char2_params()):
        try:
            yield algebra_from_dict(spec)
        except IncompatibleCocycleData:
            continue


def test_division_component_witnesses_match_the_pencil_search():
    # is_graded_division inverts one basis vector per component; the symbolic
    # determinant and point search of component_has_invertible is the oracle
    compared = 0
    for a in _oracle_corpus():
        v = is_graded_division(a)
        if v.is_yes:
            for g, coords in v.certificate["component_witnesses"].items():
                ok, witness, _ = component_has_invertible(a, g)
                assert ok and [c.to_json() for c in witness.coords] == coords
                compared += 1
        elif "component_without_invertible" in v.certificate:
            assert not component_has_invertible(a, v.certificate["component_without_invertible"])[0]
            compared += 1
    assert compared == 43


def test_dual_elements_not_invertible(f5):
    t = trivial_extension(group_algebra(f5, cyclic_group(3)))
    f_g2 = t.basis_element(5)
    assert f_g2.inverse() is None


# -- graded division recognition ----------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_cyclic_algebra_is_graded_division(p):
    a = cyclic_algebra(p)
    v = is_graded_division(a)
    assert v.is_yes
    assert v.certificate["identity_component"]["kind"] == "exhaustive"


def test_rational_quaternions_division_certificate(q):
    h = ungrade(quaternion_algebra(q, -1, -1))
    v = is_graded_division(h)
    assert v.is_yes
    assert v.certificate["identity_component"]["kind"] == "positive-definite-norm-form"


def test_rational_quaternions_klein_graded(q):
    h = quaternion_algebra(q, -1, -1)
    v = is_graded_division(h)
    assert v.is_yes


def test_indefinite_quaternions_unknown(q):
    h = ungrade(quaternion_algebra(q, 1, -1))
    v = is_graded_division(h)
    assert v.status == "unknown"


def test_finite_quaternions_not_division(f3):
    h = ungrade(quaternion_algebra(f3, -1, -1))
    v = is_graded_division(h)
    assert v.status == "no"
    w = v.witness
    assert w is not None and not w.is_zero
    assert w.homogeneous_degree() is not None
    assert w.inverse() is None


def test_matrix_algebra_not_graded_division(f2):
    c2 = cyclic_group(2)
    m = good_matrix_algebra(2, [0, 1], field_as_algebra(f2, f2, c2))
    v = is_graded_division(m)
    assert v.status == "no"
    assert v.witness is not None and v.witness.inverse() is None


def test_quadratic_field_division_by_min_poly(q):
    # Q[s]/(s^2 - 2): a field, certified by an irreducible minimal polynomial
    two = q.from_int(2)
    a = GradedAlgebra(q, trivial_group(), [0, 0],
                      {(0, 0): ((0, q.one()),), (0, 1): ((1, q.one()),),
                       (1, 0): ((1, q.one()),), (1, 1): ((0, two),)},
                      [q.one(), q.zero()])
    v = is_graded_division(a)
    assert v.is_yes
    assert v.certificate["identity_component"]["kind"] == "irreducible-minimal-polynomial"


def test_split_quadratic_not_division(q):
    # Q[s]/(s^2 - 1) = Q x Q: s - 1 is a zero divisor
    a = GradedAlgebra(q, trivial_group(), [0, 0],
                      {(0, 0): ((0, q.one()),), (0, 1): ((1, q.one()),),
                       (1, 0): ((1, q.one()),), (1, 1): ((0, q.one()),)},
                      [q.one(), q.zero()])
    v = is_graded_division(a)
    assert v.status == "no"
    assert v.witness is not None and v.witness.inverse() is None


def test_posterior_homogeneous_scan(f2):
    # for a Yes verdict over a small finite field, every nonzero homogeneous
    # element must actually be invertible
    a = cyclic_algebra(2)
    assert is_graded_division(a).is_yes
    f = a.field
    for g in range(2):
        idx = a.component_indices(g)
        for mask in range(1, 2 ** len(idx)):
            coords = [f.zero()] * a.dim
            for pos, i in enumerate(idx):
                if (mask >> pos) & 1:
                    coords[i] = f.one()
            el = a.element(coords)
            assert el.inverse() is not None


def test_commutator_dim_over_center_for_division_instances(q):
    # for certified division algebras, dim_l [D,D] = dim_l D - 1
    for b in (-1, -3):
        d = ungrade(quaternion_algebra(q, -1, b))
        assert is_graded_division(d).is_yes
        ell = center(d).dim
        assert commutator_subspace(d).dim // ell == d.dim // ell - 1


def test_center_of_direct_product_splits(q):
    from grasym import direct_product
    h = quaternion_algebra(q, -1, -1)
    s = sweedler_algebra(q)
    hu, su = ungrade(h), ungrade(s)
    p = direct_product(hu, su)
    zp = center(p)
    assert zp.dim == center(hu).dim + center(su).dim
    # block structure: each center basis vector stays inside its factor
    for row in zp.basis:
        left = any(not c.is_zero for c in row[:4])
        right = any(not c.is_zero for c in row[4:])
        assert not (left and right)


def test_centralizer_of_identity_component(f3):
    from grasym import subspace_algebra
    a = cyclic_algebra(3)
    r = centralizer(a, homogeneous_component(a, 0))
    # the coefficient field is maximal commutative here, so R = A_e
    assert r == homogeneous_component(a, 0)
    sub = subspace_algebra(a, r)
    assert support(sub) == (0,)


def test_antidiagonal_component_of_good_m2(f2):
    m = good_matrix_algebra(2, [0, 1], field_as_algebra(f2, f2, cyclic_group(2)))
    anti = homogeneous_component(m, 1)
    assert anti.dim == 2
    assert anti.contains_vector([f2.zero(), f2.one(), f2.zero(), f2.zero()])
    assert anti.contains_vector([f2.zero(), f2.zero(), f2.one(), f2.zero()])


def test_cubic_field_division_by_min_poly(q):
    # Q[s]/(s^3 - 2): field, certified by the degree-3 minimal polynomial
    two = q.from_int(2)
    a = GradedAlgebra(q, trivial_group(), [0, 0, 0],
                      {(0, 0): ((0, q.one()),), (0, 1): ((1, q.one()),),
                       (0, 2): ((2, q.one()),),
                       (1, 0): ((1, q.one()),), (2, 0): ((2, q.one()),),
                       (1, 1): ((2, q.one()),), (1, 2): ((0, two),),
                       (2, 1): ((0, two),), (2, 2): ((1, two),)},
                      [q.one(), q.zero(), q.zero()])
    from grasym import validate_algebra
    assert validate_algebra(a).ok
    v = is_graded_division(a)
    assert v.is_yes
    assert v.certificate["identity_component"]["kind"] == "irreducible-minimal-polynomial"


def test_split_cubic_not_division(q):
    # Q x Q[s]/(s^2 - 2): commutative dim 3 with zero divisors
    from grasym import direct_product, field_as_algebra, validate_algebra
    two = q.from_int(2)
    quad = GradedAlgebra(q, trivial_group(), [0, 0],
                         {(0, 0): ((0, q.one()),), (0, 1): ((1, q.one()),),
                          (1, 0): ((1, q.one()),), (1, 1): ((0, two),)},
                         [q.one(), q.zero()])
    a = direct_product(field_as_algebra(q, q), quad)
    assert validate_algebra(a).ok
    v = is_graded_division(a)
    assert v.status == "no"
    assert v.witness is not None and v.witness.inverse() is None
