import hashlib
import itertools
import random

import pytest

from grasym import (
    GradedAlgebra,
    Subspace,
    canonical_extension_field,
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

from conftest import scalar_table


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
    assert z.dim == 1 and z.contains_vector(h.one().coords)


def test_center_of_commutative_algebra(f3):
    a = group_algebra(f3, cyclic_group(2))
    assert center(a).dim == 2


def test_center_of_matrix_algebra(f5):
    m = matrix_algebra(f5, 2)
    z = center(m)
    assert z.dim == 1 and z.contains_vector(m.one().coords)


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


def scalar_commutator_span(a, pairs):
    """The commutator span on Scalars that _commutator_span replaced: the oracle."""
    sc = scalar_table(a)
    vectors = []
    for i, j in pairs:
        terms = dict(sc.get((i, j), ()))
        for k, c in sc.get((j, i), ()):
            terms[k] = terms.get(k, a.field.zero()) - c
        row = [a.field.zero()] * a.dim
        for k, c in terms.items():
            row[k] = c
        vectors.append(row)
    return Subspace.from_vectors(a.field, a.dim, vectors)


def _commutator_oracle_corpus():
    from grasym import direct_product, matrix_algebra, subspace_algebra, tensor_product
    from grasym.replicate import dim4_f2_corpus, random_graded_basis_change

    yield from dim4_f2_corpus()
    # the Sweedler inputs whose Gram determinants vanish identically
    for field in (make_field(3), make_field(5), rationals()):
        sw = sweedler_algebra(field)
        yield f"{field}-Sweedler", sw
        yield f"{field}-Sweedler(x)Sweedler", tensor_product(sw, sw)
        yield f"{field}-Sweedler(x)M2", tensor_product(sw, matrix_algebra(field, 2))
        yield f"{field}-Sweedler(x)M3", tensor_product(sw, matrix_algebra(field, 3))
        yield f"{field}-Sweedler(x)C3", tensor_product(sw, ungrade(group_algebra(field, cyclic_group(3))))
        te = trivial_extension(sw)
        yield f"{field}-Z(TE(Sweedler))", subspace_algebra(te, center(te))
        yield f"{field}-Sweedler+H", direct_product(ungrade(sw), ungrade(
            quaternion_algebra(field, -1, -1)))
    f3 = make_field(3)
    sw3 = sweedler_algebra(f3)
    yield "F3-Sweedler^3", tensor_product(sw3, tensor_product(sw3, sw3))
    # over extension fields, where a raw value is a coefficient tuple
    cyc3_f9 = scalar_extension(cyclic_algebra(3), 2)
    yield "cyc3(x)F9", cyc3_f9
    yield "cyc3(x)F9-basis-change", random_graded_basis_change(cyc3_f9, random.Random(3))


def test_commutator_spans_match_the_scalar_span():
    from grasym.invariants import _commutator_span
    count = 0
    for name, a in _commutator_oracle_corpus():
        all_pairs = [(i, j) for i in range(a.dim) for j in range(i + 1, a.dim)]
        assert commutator_subspace(a) == scalar_commutator_span(a, all_pairs), name
        graded = [(i, j) for i in range(a.dim) for j in range(a.dim)
                  if a.group.mul(a.degree[i], a.degree[j]) == a.group.identity]
        assert graded_commutator_space(a) == scalar_commutator_span(a, graded), name
        assert _commutator_span(a, []) == Subspace.zero(a.field, a.dim)
        count += 1
    assert count == 20 + 3 * 7 + 3


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


def test_component_without_a_base_field_point_is_a_bug(monkeypatch, f2):
    # by descent a nonzero unit determinant has a point over the base field,
    # so a search that reports none must stop, not answer "no unit"
    from grasym import invariants
    from grasym.multipoly import PointResult
    monkeypatch.setattr(invariants, "nonvanishing_point",
                        lambda det, field: PointResult("no_point_over_field"))
    with pytest.raises(AssertionError, match="descent"):
        component_has_invertible(group_algebra(f2, cyclic_group(2)), 1)


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
    from grasym.algebras import frobenius_crossed_product
    from grasym.replicate import hunt_candidates, hunt_char2_params, random_graded_basis_change

    cyc3_f9 = scalar_extension(cyclic_algebra(3), 2)
    yield cyclic_algebra(2)
    yield cyclic_algebra(3)
    yield cyc3_f9
    yield random_graded_basis_change(cyc3_f9, random.Random(7))
    yield quaternion_algebra(rationals(), -1, -1)
    yield group_algebra(make_field(5), cyclic_group(4))
    yield _graded_dual_numbers(make_field(5))
    for _, args in hunt_candidates(hunt_char2_params()):
        try:
            yield frobenius_crossed_product(*args)
        except IncompatibleCocycleData:
            continue


def test_identity_component_is_the_subspace_algebra_of_the_component():
    # subspace_algebra on the unit rows of A_e is the oracle of the restriction by index
    from grasym import subspace_algebra
    from grasym.invariants import _identity_component_algebra
    restricted = 0
    for name, a in itertools.chain(_scan_oracle_corpus(), _large_q_scan_corpus()):
        e_alg = _identity_component_algebra(a)
        if e_alg is a:
            continue
        want = subspace_algebra(a, homogeneous_component(a, a.group.identity))
        assert e_alg == want, name
        restricted += 1
    assert restricted == 49


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


def scalar_scan_division(e_alg):
    """The scan that _scan_division replaced, one Element.inverse per element: the oracle."""
    count = 0
    for coords in itertools.islice(e_alg.field.vectors(e_alg.dim), 1, None):
        el = e_alg.element(coords)
        count += 1
        if el.inverse() is None:
            return False, el, count
    return True, None, count


def raw_line_scan(e_alg):
    """The line scan on raw F_q values that _scan_division replaced: the oracle.

    It walks the same line representatives in the same order, with L_x kept
    as rows of raw values, updated by sub_scaled and tested by eliminate_raw.
    """
    from grasym.linalg import eliminate_raw

    field, n = e_alg.field, e_alg.dim
    ops = field.ops
    q = field.size()
    values = [field.element_at(k) for k in range(q)]
    basis = [[ops.unwrap(row) for row in e_alg.left_mult_matrix(e_alg.basis_element(i)).entries]
             for i in range(n)]
    # sub_scaled subtracts c * row, so a digit stepping to d adds values[d] - values[d - 1]
    steps = ops.unwrap([values[d - 1] - values[d] for d in range(q)])
    for j in range(n):
        lx = basis[j]
        digits = [0] * j
        while True:
            if eliminate_raw(ops, list(lx), n, stop_at_gap=True) is None:
                coords = (tuple(values[d] for d in digits) + (field.one(),)
                          + (field.zero(),) * (n - j - 1))
                index = q ** j + sum(d * q ** i for i, d in enumerate(digits))
                return False, e_alg.element(coords), index
            for i in range(j):
                d = digits[i] = (digits[i] + 1) % q
                lx = [ops.sub_scaled(row, steps[d], e_row) for row, e_row in zip(lx, basis[i])]
                if d:
                    break
            else:
                break
    return True, None, q ** n - 1


def _te_field(p, n):
    return trivial_extension(field_as_algebra(canonical_extension_field(p, n), make_field(p)))


def _scan_oracle_corpus():
    from grasym.errors import IncompatibleCocycleData
    from grasym.algebras import frobenius_crossed_product
    from grasym.replicate import (HuntParams, dim4_f2_corpus, hunt_candidates,
                                  hunt_char2_params, random_graded_basis_change)

    for name, a in dim4_f2_corpus():
        yield name, a
    for params in (hunt_char2_params(), HuntParams(3, (1, 3), (("cyclic", 3),))):
        for index, args in hunt_candidates(params):
            try:
                yield f"hunt-{params.characteristic}-{index}", frobenius_crossed_product(*args)
            except IncompatibleCocycleData:
                continue
    yield "cyc3(x)F9", scalar_extension(cyclic_algebra(3), 2)
    yield "TE(F2^4)", _te_field(2, 4)
    yield "TE(F3^3)", _te_field(3, 3)
    yield "cyc3-basis-change", random_graded_basis_change(cyclic_algebra(3), random.Random(7))
    yield "TE(F2^3)-basis-change", random_graded_basis_change(_te_field(2, 3), random.Random(11))


def test_division_scan_matches_the_element_inverse_scan():
    from grasym.invariants import _identity_component_algebra, _scan_division
    verdicts = {True: 0, False: 0}
    for name, a in _scan_oracle_corpus():
        e_alg = _identity_component_algebra(a)
        ok, witness, count = _scan_division(e_alg)
        want_ok, want_witness, want_count = scalar_scan_division(e_alg)
        assert (ok, count) == (want_ok, want_count), name
        assert witness == want_witness, name
        assert (ok, witness, count) == raw_line_scan(e_alg), name
        verdicts[ok] += 1
    # 20 corpus algebras, 13 + 4 accepted hunt candidates and 5 more inputs
    assert verdicts == {True: 29, False: 13}


def _large_q_scan_corpus():
    """Inputs mostly over F_3, F_4, F_5, F_7 and F_9, where a line F_q^* x has
    q - 1 >= 2 members, so the line scan skips elements."""
    from grasym.replicate import random_graded_basis_change, random_small_algebra

    f4 = canonical_extension_field(2, 2)
    fixed = [
        ("F5^3", field_as_algebra(canonical_extension_field(5, 3), make_field(5))),
        ("F7^3", field_as_algebra(canonical_extension_field(7, 3), make_field(7))),
        ("TE(F5^2)", _te_field(5, 2)),
        ("TE(F7^2)", _te_field(7, 2)),
        ("F8(x)F4", scalar_extension(field_as_algebra(canonical_extension_field(2, 3), make_field(2)), 2)),
        ("F4(x)F4", scalar_extension(field_as_algebra(f4, make_field(2)), 2)),
        ("F4[C3]", ungrade(group_algebra(f4, cyclic_group(3)))),
        ("cyc3(x)F9", scalar_extension(cyclic_algebra(3), 2)),
        ("F9(x)F9", scalar_extension(field_as_algebra(canonical_extension_field(3, 2), make_field(3)), 2)),
    ]
    for seed, (name, a) in enumerate(fixed):
        yield name, a
        yield f"{name}-basis-change", random_graded_basis_change(a, random.Random(seed))
    for field in (make_field(3), make_field(5)):
        for seed in range(6):
            yield f"random-{field}-{seed}", random_small_algebra(field, random.Random(seed))
    # random_small_algebra takes prime fields only; these are over F_4 itself
    for seed in range(6):
        yield f"random-F2-{seed}(x)F4", scalar_extension(
            random_small_algebra(make_field(2), random.Random(seed)), 2)


def test_line_scan_matches_the_element_inverse_scan_for_q_at_least_3():
    from grasym.invariants import _identity_component_algebra, _scan_division
    verdicts = {True: 0, False: 0}
    for name, a in _large_q_scan_corpus():
        e_alg = _identity_component_algebra(a)
        result = _scan_division(e_alg)
        assert result == scalar_scan_division(e_alg), name
        assert result == raw_line_scan(e_alg), name
        verdicts[result[0]] += 1
    # 9 inputs, each also after a basis change, 12 random small algebras over
    # F_3 and F_5, and 6 over F_2 extended to F_4
    assert verdicts == {True: 15, False: 21}


def test_line_scan_eliminates_one_matrix_per_line(monkeypatch):
    from grasym import invariants
    from grasym.invariants import _identity_component_algebra

    calls = []
    nonsingular = invariants.packed_nonsingular

    def counting(*args, **kwargs):
        calls.append(1)
        return nonsingular(*args, **kwargs)

    monkeypatch.setattr(invariants, "packed_nonsingular", counting)
    v = is_graded_division(field_as_algebra(canonical_extension_field(5, 3), make_field(5)))
    assert v.certificate["identity_component"] == {"kind": "exhaustive", "scan_size": 124}
    assert len(calls) == (5 ** 3 - 1) // 4 == 31
    monkeypatch.undo()
    # the line scan tests only vectors whose last nonzero coordinate is 1, so
    # the first zero divisor of the full scan must always be one of them
    seen = 0
    for name, a in itertools.chain(_scan_oracle_corpus(), _large_q_scan_corpus()):
        e_alg = _identity_component_algebra(a)
        ok, witness, _ = scalar_scan_division(e_alg)
        if not ok:
            last = [c for c in witness.coords if not c.is_zero][-1]
            assert last == e_alg.field.one(), name
            seen += 1
    assert seen == 13 + 21


# sha256 of the canonical division verdict (status, certificate, witness
# coordinates), taken when every nonzero element of A_e was eliminated
@pytest.mark.parametrize("build, digest", [
    (lambda: cyclic_algebra(5),
     "3eff0de7a7cc3bbbde370033ed48c7a03eb70b5d0f691c1272c501652283a575"),
    (lambda: scalar_extension(cyclic_algebra(3), 2),
     "6435e71a951cff23f30a5b8e26fa1d2830b18882a4f6c093147d1d2476f21a06"),
    (lambda: _te_field(5, 2),
     "f7397223e75a928dbafe745a9488ad842f71340f67bc2d372571c0ffe7f618b1"),
    (lambda: _te_field(3, 3),
     "9b9d47d1fd7fe96cd075699d7b99c483a830cd66768b0a167e20b745e7ad4e1f"),
], ids=["cyc5", "cyc3(x)F9", "TE(F5^2)", "TE(F3^3)"])
def test_division_verdict_bytes_are_pinned(build, digest):
    from grasym.specfile import canonical_json

    v = is_graded_division(build())
    witness = None if v.witness is None else [c.to_json() for c in v.witness.coords]
    text = canonical_json({"status": v.status, "certificate": v.certificate, "witness": witness})
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def _rational_roots_by_divisors(coeffs):
    """The rational roots as they were found before: every p/q and -p/q with
    p dividing the constant term and q the leading coefficient, by trial
    division, in that order and with repeats; [0] when the constant is 0.
    The oracle of invariants._rational_roots."""
    from fractions import Fraction
    from math import gcd, isqrt

    fractions = [c.val for c in coeffs]
    denom = 1
    for f in fractions:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fractions]
    if ints[0] == 0:
        return [Fraction(0)]

    def divisors(n):
        n = abs(n)
        return sorted({d for f in range(1, isqrt(n) + 1) if n % f == 0 for d in (f, n // f)})

    n = len(ints) - 1
    roots = []
    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for sign in (1, -1):
                # q^n f(sign p / q), in integers
                if sum(c * (sign * p) ** i * q ** (n - i) for i, c in enumerate(ints)) == 0:
                    roots.append(Fraction(sign * p, q))
    return roots


def test_rational_roots_match_the_divisor_search(q):
    # the same roots in the same order of first appearance, so the same
    # first root and the same zero-divisor witness
    from fractions import Fraction

    from grasym.invariants import _rational_roots

    rng = random.Random(1504)
    with_roots = 0
    for _ in range(2000):
        degree = rng.choice([2, 3])
        if rng.random() < 0.5:  # a product of linear factors, so roots exist
            poly = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 4))]
            for _ in range(degree):
                r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                poly = [a - r * b for a, b in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
        else:
            poly = [Fraction(rng.randint(-40, 40), rng.randint(1, 3)) for _ in range(degree)]
            poly.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 6)))
        coeffs = [q.scalar(c) for c in poly]
        want = list(dict.fromkeys(_rational_roots_by_divisors(coeffs)))
        got = _rational_roots(coeffs)
        assert [r.val for r in got] == want, poly
        with_roots += bool(want)
    assert with_roots > 1000


def test_rational_roots_of_a_huge_constant_need_no_factoring(q):
    from grasym.invariants import _rational_roots

    big = 10 ** 30
    assert _rational_roots([q.from_int(-(big + 1)), q.zero(), q.one()]) == []
    # (x - 10^15)(x + 10^15/7) = x^2 - (6/7) 10^15 x - 10^30/7
    roots = _rational_roots([q.scalar(f"-{big}/7"), q.scalar(f"-{6 * 10 ** 15}/7"), q.one()])
    assert [r.to_json() for r in roots] == [f"{10 ** 15}", f"-{10 ** 15}/7"]
