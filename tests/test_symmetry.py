import random

import pytest

from grasym import (
    CrossedProductSpec,
    LinearFunctional,
    Matrix,
    Subspace,
    average_functional,
    center,
    crossed_product,
    cyclic_algebra,
    cyclic_group,
    decide_by_enumeration,
    decide_form_existence,
    field_as_algebra,
    frobenius_matrix,
    good_matrix_algebra,
    graded_division_criterion,
    graded_trace_space,
    gram_matrix,
    gram_pencil,
    group_algebra,
    is_graded_division,
    lift_functional,
    make_field,
    matrix_algebra,
    matrix_trace_functional,
    normalize_section,
    quaternion_algebra,
    subspace_algebra,
    sweedler_algebra,
    trivial_extension,
    ungrade,
    verify_certificate,
)
from grasym.algebras import constant_alpha, trivial_sigma
from grasym.errors import (
    AsymmetricMu,
    CharacteristicDividesGroupOrder,
    EmptyTraceSpace,
    InvalidCertificate,
    NotAGoodMatrixAlgebra,
    NotInvariant,
    NotNormalized,
)
from grasym.replicate import dim4_f2_corpus, random_graded_basis_change


# -- trace spaces -------------------------------------------------------------------

def test_trace_space_of_group_algebra(f2):
    a = group_algebra(f2, cyclic_group(2))
    s = graded_trace_space(a, "graded-symmetric")
    assert s.dim == 1
    assert s.basis[0] == (f2.one(), f2.zero())  # the coefficient-of-e functional


def test_trace_space_of_cyclic_algebra():
    a = cyclic_algebra(3)
    s = graded_trace_space(a, "graded-symmetric")
    assert s.dim == 1  # dim A_e - dim of the graded commutator span = 3 - 2


def test_trace_space_of_ungraded_matrix_algebra(f5):
    m = ungrade(matrix_algebra(f5, 2))
    s = graded_trace_space(m, "symmetric")
    assert s.dim == 1
    # spanned by the trace functional
    lam = LinearFunctional(m, list(s.basis[0]))
    assert lam(m.one()) == f5.from_int(2)


def test_frobenius_mode_trace_space_is_bigger(f3):
    a = group_algebra(f3, cyclic_group(3))
    assert graded_trace_space(a, "graded-frobenius").dim == 1
    assert graded_trace_space(a, "frobenius").dim == 3


# -- gram pencils --------------------------------------------------------------------

def test_gram_pencil_one_dimensional(q):
    a = field_as_algebra(q, q)
    p = gram_pencil(a, [LinearFunctional(a, [q.one()])])
    assert p.dim == 1 and p.num_vars == 1
    assert not p.entries[0][0].is_zero


def test_gram_pencil_group_algebra(f3):
    a = group_algebra(f3, cyclic_group(2))
    s = graded_trace_space(a, "graded-symmetric")
    p = gram_pencil(a, [LinearFunctional(a, row) for row in s.basis])
    # products g.g = e give the diagonal [t1, 0; 0, t1]
    assert not p.entries[0][0].is_zero
    assert p.entries[0][1].is_zero
    assert p.entries[1][0].is_zero
    assert not p.entries[1][1].is_zero


def test_gram_pencil_rejects_empty(f3):
    a = group_algebra(f3, cyclic_group(2))
    with pytest.raises(EmptyTraceSpace):
        gram_pencil(a, [])


# -- the decision procedure -----------------------------------------------------------

def test_quaternions_graded_symmetric(q):
    h = quaternion_algebra(q, -1, -1)
    v = decide_form_existence(h, "graded-symmetric", division=is_graded_division(h))
    assert v.is_yes and v.gram_rank == 4
    assert verify_certificate(h, v.witness, "graded-symmetric").ok


@pytest.mark.parametrize("p", [2, 3, 5])
def test_modular_group_algebras(p):
    a = group_algebra(make_field(p), cyclic_group(p))
    v = decide_form_existence(a, "graded-symmetric")
    assert v.is_yes
    assert verify_certificate(a, v.witness, "graded-symmetric").ok


@pytest.mark.parametrize("p", [2, 3])
def test_cyclic_algebras_graded_symmetric(p):
    a = cyclic_algebra(p)
    v = decide_form_existence(a, "graded-symmetric", division=is_graded_division(a))
    assert v.is_yes
    assert verify_certificate(a, v.witness, "graded-symmetric").ok


def test_sweedler_center_refuted(f3):
    t = trivial_extension(sweedler_algebra(f3))
    e = subspace_algebra(t, center(t))
    v = decide_form_existence(e, "frobenius")
    assert v.status == "no" and v.refutation == "gram-det-identically-zero"
    # brute-force confirmation: every functional has singular Gram matrix
    status, _ = decide_by_enumeration(e, "frobenius")
    assert status == "no"


def test_non_division_graded_frobenius_refuted(f2):
    # upper triangular matrices in the good grading: e12 has no partner of
    # inverse degree, so every Gram matrix is singular
    from grasym import subspace_algebra as sub
    c2 = cyclic_group(2)
    m = good_matrix_algebra(2, [0, 1], field_as_algebra(f2, f2, c2))
    rows = []
    for i in (0, 1, 3):
        row = [f2.zero()] * 4
        row[i] = f2.one()
        rows.append(row)
    a = sub(m, Subspace.from_vectors(f2, 4, rows))
    v = decide_form_existence(a, "graded-frobenius")
    assert v.status == "no" and v.refutation == "gram-det-identically-zero"
    status, _ = decide_by_enumeration(a, "graded-frobenius")
    assert status == "no"


# (corpus algebra, mode, seed of the basis change) -> the first witness in the
# F_q^n order of the trace space, taken before the oracle used Field.vectors
ENUMERATION_WITNESSES = {
    ("matrix-2-trivial", "graded-symmetric", 2): [1, 0, 1, 1],
    ("matrix-2-good", "frobenius", 0): [0, 1, 1, 0],
    ("crossed-F4-frob", "symmetric", 1): [1, 1, 0, 0],
}


def test_enumeration_witnesses_after_basis_change_pinned():
    corpus = dict(dim4_f2_corpus())
    for (name, mode, seed), want in ENUMERATION_WITNESSES.items():
        b = random_graded_basis_change(corpus[name], random.Random(seed))
        status, witness = decide_by_enumeration(b, mode)
        assert status == "yes" and [c.to_json() for c in witness.coords] == want, name
        assert verify_certificate(b, witness, mode).ok


def test_verdict_monotonicity(q, f3):
    for a in (quaternion_algebra(q, -1, -1),
              group_algebra(f3, cyclic_group(3)),
              cyclic_algebra(2)):
        if decide_form_existence(a, "graded-symmetric").is_yes:
            assert decide_form_existence(a, "graded-frobenius").is_yes
        if decide_form_existence(a, "symmetric").is_yes:
            assert decide_form_existence(a, "frobenius").is_yes


def test_division_criterion_matches_decision():
    for a in (cyclic_algebra(2), cyclic_algebra(3)):
        verdict = is_graded_division(a)
        assert verdict.is_yes
        criterion = graded_division_criterion(a)
        decision = decide_form_existence(a, "graded-symmetric", division=verdict)
        assert criterion == (decision.status in ("yes", "no-over-base-field"))


def test_witness_selection_deterministic(f3):
    a = group_algebra(f3, cyclic_group(3))
    v1 = decide_form_existence(a, "graded-symmetric")
    v2 = decide_form_existence(a, "graded-symmetric")
    assert v1.witness == v2.witness


def test_kernel_radical_is_graded_left_ideal(f3):
    """For a degenerate functional, the Gram kernel is a graded left ideal
    inside Ker lam: the machine check of the decision reduction."""
    t = trivial_extension(sweedler_algebra(f3))
    e = subspace_algebra(t, center(t))
    # any functional here is degenerate; take the dual of the unit
    lam = LinearFunctional(e, [f3.one(), f3.zero(), f3.zero()])
    gm = gram_matrix(e, lam)
    radical = gm.kernel()
    assert radical.dim > 0
    for row in radical.basis:
        x = e.element(list(row))
        assert lam(x).is_zero
        for g in set(e.degree):
            comp = x.component(g)
            # the component generates a left ideal contained in Ker lam
            for i in range(e.dim):
                y = e.basis_element(i) * comp
                assert lam(y).is_zero


# -- certificates ------------------------------------------------------------------------

def test_certificate_pass(f3):
    a = group_algebra(f3, cyclic_group(2))
    lam = LinearFunctional(a, [f3.one(), f3.zero()])
    assert verify_certificate(a, lam, "graded-symmetric").ok


def test_certificate_zero_functional_fails(f3):
    a = group_algebra(f3, cyclic_group(2))
    lam = LinearFunctional(a, [f3.zero(), f3.zero()])
    rep = verify_certificate(a, lam, "graded-symmetric")
    assert not rep.ok and rep.gram_rank == 0


def test_certificate_matrix_trace(f5):
    m = ungrade(matrix_algebra(f5, 2))
    trace = LinearFunctional(m, [f5.one(), f5.zero(), f5.zero(), f5.one()])
    rep = verify_certificate(m, trace, "symmetric")
    assert rep.ok and rep.gram_rank == 4


def test_certificate_detects_vanishing_violation(f3):
    a = group_algebra(f3, cyclic_group(2))
    lam = LinearFunctional(a, [f3.one(), f3.one()])
    rep = verify_certificate(a, lam, "graded-symmetric")
    assert not rep.ok
    names = {name for name, ok, _ in rep.checks if not ok}
    assert "vanishing-off-identity-component" in names


def test_certificate_detects_asymmetry(f5):
    m = ungrade(matrix_algebra(f5, 2))
    lam = LinearFunctional(m, [f5.one(), f5.one(), f5.zero(), f5.zero()])
    rep = verify_certificate(m, lam, "symmetric")
    assert not rep.ok
    names = {name for name, ok, _ in rep.checks if not ok}
    assert "symmetry-on-all-pairs" in names


# -- the three explicit constructions ----------------------------------------------------------

def _f9_spec(f3, f9):
    d = field_as_algebra(f9, f3)
    c2 = cyclic_group(2)
    return CrossedProductSpec(d, c2,
                              {0: Matrix.identity(f3, 2), 1: frobenius_matrix(f9, 1)},
                              constant_alpha(d, c2))


def test_average_trivial_sigma_scales(f5):
    d = field_as_algebra(f5, f5)
    c3 = cyclic_group(3)
    spec = CrossedProductSpec(d, c3, trivial_sigma(d, c3), constant_alpha(d, c3))
    mu = LinearFunctional(d, [f5.one()])
    lam = average_functional(spec, mu)
    assert lam.coords == (f5.from_int(3),)


def test_average_frobenius_f9(f3, f9):
    spec = _f9_spec(f3, f9)
    mu = LinearFunctional(spec.coeff, [f3.one(), f3.zero()])
    lam = average_functional(spec, mu)
    assert lam.coords == (f3.from_int(2), f3.zero())


def test_average_rejects_bad_characteristic(f3, f9):
    d = field_as_algebra(f9, f3)
    c3 = cyclic_group(3)
    spec = CrossedProductSpec(d, c3, trivial_sigma(d, c3), constant_alpha(d, c3))
    with pytest.raises(CharacteristicDividesGroupOrder):
        average_functional(spec, LinearFunctional(d, [f3.one(), f3.zero()]))


def test_average_rejects_asymmetric_mu(q):
    d = ungrade(matrix_algebra(q, 2))
    d = field_as_algebra(q, q)
    c2 = cyclic_group(2)
    spec = CrossedProductSpec(d, c2, trivial_sigma(d, c2), constant_alpha(d, c2))
    with pytest.raises(AsymmetricMu):
        average_functional(spec, LinearFunctional(d, [q.zero()]))


def test_average_rejects_noncentral_asymmetric(q):
    # mu not vanishing on commutators of M_2 is rejected
    dm = matrix_algebra(q, 2)
    c2 = cyclic_group(2)
    spec = CrossedProductSpec(dm, c2, trivial_sigma(dm, c2), constant_alpha(dm, c2))
    mu = LinearFunctional(dm, [q.one(), q.one(), q.zero(), q.zero()])
    with pytest.raises(AsymmetricMu):
        average_functional(spec, mu)


def test_lift_group_algebra_case(f5):
    d = field_as_algebra(f5, f5)
    c3 = cyclic_group(3)
    spec = CrossedProductSpec(d, c3, trivial_sigma(d, c3), constant_alpha(d, c3))
    lam = LinearFunctional(d, [f5.one()])
    lifted = lift_functional(spec, lam)
    # the coefficient-of-identity functional on the group algebra
    assert lifted.coords == (f5.one(), f5.zero(), f5.zero())
    assert verify_certificate(lifted.owner, lifted, "graded-symmetric").ok


def test_lift_f9_certificate(f3, f9):
    spec = _f9_spec(f3, f9)
    mu = LinearFunctional(spec.coeff, [f3.one(), f3.zero()])
    lam = average_functional(spec, mu)
    lifted = lift_functional(spec, lam)
    assert verify_certificate(lifted.owner, lifted, "graded-symmetric").ok


def test_lift_rejects_unnormalized():
    f7 = make_field(7)
    d = field_as_algebra(f7, f7)
    c3 = cyclic_group(3)
    spec = CrossedProductSpec(d, c3, trivial_sigma(d, c3),
                              constant_alpha(d, c3, [3]))
    lam = LinearFunctional(d, [f7.one()])
    with pytest.raises(NotNormalized):
        lift_functional(spec, lam)
    fixed = normalize_section(spec)
    lifted = lift_functional(fixed, lam)
    assert verify_certificate(lifted.owner, lifted, "graded-symmetric").ok


def test_lift_rejects_noninvariant(f3, f9):
    spec = _f9_spec(f3, f9)
    # dual of the generator is not Frobenius-invariant
    lam = LinearFunctional(spec.coeff, [f3.zero(), f3.one()])
    with pytest.raises(NotInvariant):
        lift_functional(spec, lam)


def test_matrix_trace_functional(f2):
    c2 = cyclic_group(2)
    delta = field_as_algebra(f2, f2, c2)
    m = good_matrix_algebra(2, [0, 1], delta)
    lam = LinearFunctional(delta, [f2.one()])
    big = matrix_trace_functional(m, lam)
    assert verify_certificate(m, big, "graded-symmetric").ok


def test_matrix_trace_composite(f3, f9):
    # Delta itself a crossed product: M_2 over F_9^Frob[C_2]
    spec = _f9_spec(f3, f9)
    delta = crossed_product(spec)
    m = good_matrix_algebra(2, [0, 1], delta)
    mu = LinearFunctional(spec.coeff, [f3.one(), f3.zero()])
    lam = lift_functional(spec, average_functional(spec, mu))
    big = matrix_trace_functional(m, lam)
    assert verify_certificate(m, big, "graded-symmetric").ok
    v = decide_form_existence(m, "graded-symmetric")
    assert v.is_yes


def test_matrix_trace_rejects_other_algebras(q):
    h = quaternion_algebra(q, -1, -1)
    lam = LinearFunctional(h, [q.one(), q.zero(), q.zero(), q.zero()])
    with pytest.raises(NotAGoodMatrixAlgebra):
        matrix_trace_functional(h, lam)


def test_matrix_trace_rejects_bad_certificate(f2):
    c2 = cyclic_group(2)
    delta = field_as_algebra(f2, f2, c2)
    m = good_matrix_algebra(2, [0, 1], delta)
    with pytest.raises(InvalidCertificate):
        matrix_trace_functional(m, LinearFunctional(delta, [f2.zero()]))


# -- tensor and product closure ---------------------------------------------------------------

def test_tensor_closure_quaternions_matrix(q):
    from grasym import klein_group, tensor_product
    h = quaternion_algebra(q, -1, -1)
    delta = field_as_algebra(q, q, klein_group())
    m = good_matrix_algebra(2, [0, 1], delta)  # Klein-graded good M_2
    t = tensor_product(h, m)
    assert t.dim == 16
    assert decide_form_existence(h, "graded-symmetric").is_yes
    assert decide_form_existence(m, "graded-symmetric").is_yes
    assert decide_form_existence(t, "graded-symmetric").is_yes


def test_product_closure_with_refuted_factor(f3):
    from grasym import direct_product
    t = trivial_extension(sweedler_algebra(f3))
    e = subspace_algebra(t, center(t))
    line = field_as_algebra(f3, f3)
    p = direct_product(e, line)
    assert decide_form_existence(p, "frobenius").status == "no"
    assert decide_form_existence(line, "frobenius").is_yes


def test_symmetric_mode_ignores_grading(f3):
    a = group_algebra(f3, cyclic_group(3))
    graded = decide_form_existence(a, "symmetric")
    forgotten = decide_form_existence(ungrade(a), "symmetric")
    assert graded.status == forgotten.status == "yes"
    assert graded.witness.coords == forgotten.witness.coords


def test_trivial_extension_is_symmetric(f3, q):
    for f in (f3, q):
        t = trivial_extension(sweedler_algebra(f))
        v = decide_form_existence(t, "symmetric")
        assert v.is_yes
        assert verify_certificate(t, v.witness, "symmetric").ok


def test_gram_pencil_of_sweedler_center(f3):
    # the center of the Sweedler trivial extension produces the pencil
    # [[t1,t2,t3],[t2,0,0],[t3,0,0]] in its RREF basis
    t = trivial_extension(sweedler_algebra(f3))
    e = subspace_algebra(t, center(t))
    space = graded_trace_space(e, "frobenius")
    assert space.dim == 3
    p = gram_pencil(e, [LinearFunctional(e, row) for row in space.basis])
    z = [[p.entries[i][j].is_zero for j in range(3)] for i in range(3)]
    assert z == [[False, False, False],
                 [False, True, True],
                 [False, True, True]]
    from grasym import structured_det
    assert structured_det(p).is_zero


def test_functional_rejects_foreign_element(f3, q):
    a = group_algebra(f3, cyclic_group(2))
    lam = LinearFunctional(a, [f3.one(), f3.zero()])
    h = quaternion_algebra(q, -1, -1)
    from grasym.errors import OwnerMismatch
    with pytest.raises(OwnerMismatch):
        lam(h.one())


def test_lift_beyond_characteristic_hypothesis(f3):
    # char 3 divides dim 9, so averaging is unavailable, but the invariant
    # functional dual to x^2 still lifts to a passing certificate
    from grasym import cyclic_algebra_spec
    spec = cyclic_algebra_spec(3)
    d = spec.coeff
    lam = LinearFunctional(d, [f3.zero(), f3.zero(), f3.one()])
    lifted = lift_functional(spec, lam)
    assert verify_certificate(lifted.owner, lifted, "graded-symmetric").ok
