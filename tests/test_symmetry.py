import hashlib
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
    cyclic_algebra_spec,
    cyclic_group,
    decide_by_enumeration,
    decide_form_existence,
    field_as_algebra,
    frobenius_matrix,
    good_matrix_algebra,
    graded_division_criterion,
    graded_trace_space,
    graded_trace_witness,
    gram_matrix,
    gram_pencil,
    group_algebra,
    homogeneous_component,
    is_graded_division,
    klein_group,
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
from grasym.algebras import GradedAlgebra, frobenius_crossed_product
from grasym.errors import (
    AsymmetricMu,
    CharacteristicDividesGroupOrder,
    EmptyTraceSpace,
    InvalidCertificate,
    NotAGoodMatrixAlgebra,
    NotInvariant,
    NotNormalized,
    OwnerMismatch,
)
from grasym.groups import dihedral_group
from grasym.replicate import dim4_f2_corpus, random_graded_basis_change
from grasym.symmetry import check_division_criterion
from grasym.specfile import canonical_json, certificate_to_dict
from conftest import constant_alpha, scalar_table, trivial_sigma


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

def _zero(entry):
    """Whether a pencil entry, a linear form, is zero."""
    return all(c.is_zero for c in entry)


def test_gram_pencil_one_dimensional(q):
    a = field_as_algebra(q, q)
    p = gram_pencil(a, [LinearFunctional(a, [q.one()])])
    assert p.dim == 1 and p.num_vars == 1
    assert not _zero(p.entries[0][0])


def test_gram_pencil_group_algebra(f3):
    a = group_algebra(f3, cyclic_group(2))
    s = graded_trace_space(a, "graded-symmetric")
    p = gram_pencil(a, [LinearFunctional(a, row) for row in s.basis])
    # products g.g = e give the diagonal [t1, 0; 0, t1]
    assert not _zero(p.entries[0][0])
    assert _zero(p.entries[0][1])
    assert _zero(p.entries[1][0])
    assert not _zero(p.entries[1][1])


def test_gram_pencil_rejects_empty(f3):
    a = group_algebra(f3, cyclic_group(2))
    with pytest.raises(EmptyTraceSpace):
        gram_pencil(a, [])


# -- the decision procedure -----------------------------------------------------------

def test_quaternions_graded_symmetric(q):
    h = quaternion_algebra(q, -1, -1)
    assert is_graded_division(h).is_yes
    v = decide_form_existence(h, "graded-symmetric")
    check_division_criterion(h, v.status)
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
    assert is_graded_division(a).is_yes
    v = decide_form_existence(a, "graded-symmetric")
    check_division_criterion(a, v.status)
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
        assert criterion == decide_form_existence(a, "graded-symmetric").is_yes


def test_division_criterion_refuses_a_commutator_off_the_identity_component(monkeypatch):
    from grasym import symmetry
    a = cyclic_algebra(2)
    off = a.basis_element(a.component_indices(1)[0]).coords
    monkeypatch.setattr(symmetry, "graded_commutator_space",
                        lambda b: Subspace.from_vectors(b.field, b.dim, [off]))
    with pytest.raises(AssertionError, match="identity component"):
        graded_division_criterion(a)


def _criterion_corpus() -> list:
    """The decision corpus, hunt candidates of two cells included, and the
    accepted candidates of the F_16 and F_49 over C_2 hunt cells."""
    from grasym.replicate import HuntParams

    from test_decision_oracle import CORPUS
    from test_replicate import _accepted

    out = [a for _, a in CORPUS]
    for params in (HuntParams(2, (4,), (("cyclic", 2),)), HuntParams(7, (2,), (("cyclic", 2),))):
        out += [a for a, _ in _accepted(params)]
    return out


def test_division_criterion_reads_containment_off_the_degrees(monkeypatch):
    # A_e is the coordinate subspace on the indices of degree e, so the
    # criterion checks containment there by degrees; the Subspace test of
    # homogeneous_component stays its oracle, on each commutator span and on
    # that span with a basis vector of each degree added
    from grasym import symmetry
    from grasym.invariants import graded_commutator_space

    for a in _criterion_corpus():
        ae = homogeneous_component(a, a.group.identity)
        c = graded_commutator_space(a)
        spans = [c] + [Subspace.from_vectors(a.field, a.dim, [*c.basis, a.basis_element(i).coords])
                       for i in sorted({a.degree.index(g) for g in a.degree})]
        for span in spans:
            monkeypatch.setattr(symmetry, "graded_commutator_space", lambda b, span=span: span)
            if ae.contains(span):
                assert graded_division_criterion(a) == (span.dim < ae.dim), a
            else:
                with pytest.raises(AssertionError, match="identity component"):
                    graded_division_criterion(a)


@pytest.mark.parametrize("mode", ["graded-symmetric", "frobenius"])
def test_a_nonzero_det_without_a_base_field_point_is_a_bug(monkeypatch, mode, f2):
    # by descent a nonzero Gram determinant has a point over the base field,
    # so a search that reports none must stop, not become a verdict
    from grasym import symmetry
    from grasym.multipoly import PointResult
    monkeypatch.setattr(symmetry, "nonvanishing_point",
                        lambda det, field: PointResult("no_point_over_field"))
    with pytest.raises(AssertionError, match="descent"):
        decide_form_existence(group_algebra(f2, cyclic_group(2)), mode)


def test_witness_selection_deterministic(f3):
    a = group_algebra(f3, cyclic_group(3))
    v1 = decide_form_existence(a, "graded-symmetric")
    v2 = decide_form_existence(a, "graded-symmetric")
    assert v1.witness == v2.witness


# sha256 of the canonical certificate bytes, taken when the block determinants
# were still multiplied into one polynomial: keeping them factored must find
# the same first grid point
FACTORED_DET_CERTIFICATES = {
    "cyc5": "2075a1e94b982a29c8f8628bd5094b107450b42e34b98903dfc58e0630107a8c",
    "M4(F3)-C2": "1284705d9a133bd156e1d70bd8db26970677be00897de145105d378ae614bd4b",
}


def test_block_factored_decisions_keep_their_certificates(f3):
    algebras = {
        "cyc5": cyclic_algebra(5),
        "M4(F3)-C2": good_matrix_algebra(
            4, (0, 0, 1, 1), field_as_algebra(f3, f3, cyclic_group(2))),
    }
    for name, a in algebras.items():
        verdict = decide_form_existence(a, "graded-frobenius")
        assert verdict.is_yes, name
        assert verify_certificate(a, verdict.witness, "graded-frobenius").ok, name
        digest = hashlib.sha256(
            canonical_json(certificate_to_dict(a, verdict)).encode()).hexdigest()
        assert digest == FACTORED_DET_CERTIFICATES[name], name


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


def _regular_trace(a):
    """lam(e_k) = tr(L_{e_k} on A_e) by Element products, 0 off A_e."""
    f = a.field
    idx = a.component_indices(a.group.identity)
    coords = [f.zero()] * a.dim
    for k in idx:
        for j in idx:
            coords[k] = coords[k] + (a.basis_element(k) * a.basis_element(j)).coords[j]
    return coords


@pytest.mark.parametrize("build, lam_of_one", [
    # char 3 and 5 divide dim A_e = 3 and 5: lam(1) = 0, yet lam is the
    # nonzero trace form of F_27 and F_3125, so it still certifies
    (lambda: cyclic_algebra(3), 0),
    (lambda: cyclic_algebra(5), 0),
    # A_e = Q, so lam(1) = dim A_e = 1
    (lambda: quaternion_algebra(make_field(0), -1, -1), 1),
])
def test_graded_trace_witness_certifies_division_algebras(build, lam_of_one):
    a = build()
    lam = graded_trace_witness(a)
    assert list(lam.coords) == _regular_trace(a)
    assert lam(a.one()) == a.field.from_int(lam_of_one)
    assert not lam.is_zero
    rep = verify_certificate(a, lam, "graded-symmetric")
    assert rep.ok and rep.gram_rank == a.dim


def test_graded_trace_witness_is_zero_on_the_modular_group_algebra(f2):
    # A = A_e = F_2[C_2]: tr(L_1) = 2 = 0 and L_g swaps the basis, so lam = 0
    a = ungrade(group_algebra(f2, cyclic_group(2)))
    lam = graded_trace_witness(a)
    assert lam.is_zero and list(lam.coords) == _regular_trace(a)
    rep = verify_certificate(a, lam, "graded-symmetric")
    assert not rep.ok and rep.gram_rank == 0


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


def test_matrix_trace_rejects_other_algebras(q, f2):
    # the structure constants decide: H and F_2[V_4] have dimension 2^2 * 1
    # but neither is M_2 of its field, and F_2[C_3] has no square dimension
    for m in (quaternion_algebra(q, -1, -1), group_algebra(f2, klein_group()),
              group_algebra(f2, cyclic_group(3))):
        f = m.field
        lam = LinearFunctional(field_as_algebra(f, f, m.group), [f.one()])
        with pytest.raises(NotAGoodMatrixAlgebra):
            matrix_trace_functional(m, lam)


def test_matrix_trace_rejects_a_grading_that_is_not_good(f2):
    # Delta is F_2[C_2] with both basis vectors in degree e, where lam = (0, 1)
    # is a graded-symmetric certificate; m has the table of M_2(Delta) but the
    # group grading of F_2[C_2] on each entry, so the trace of lam is off e
    f2c2 = group_algebra(f2, cyclic_group(2))
    delta = GradedAlgebra(f2, f2c2.group, [0, 0], scalar_table(f2c2), f2c2.one().coords)
    lam = LinearFunctional(delta, [f2.zero(), f2.one()])
    assert verify_certificate(delta, lam, "graded-symmetric").ok
    m = good_matrix_algebra(2, (0, 0), f2c2)
    with pytest.raises(NotAGoodMatrixAlgebra, match="degree 1"):
        matrix_trace_functional(m, lam)


def test_matrix_trace_of_one_by_one_matrices(q):
    # M_1(H) = H is a good matrix algebra, whose trace is the functional itself
    h = quaternion_algebra(q, -1, -1)
    lam = LinearFunctional(h, [q.one(), q.zero(), q.zero(), q.zero()])
    assert matrix_trace_functional(h, lam) == lam


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
    z = [[_zero(p.entries[i][j]) for j in range(3)] for i in range(3)]
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


def _foreign_functional(f3):
    a = group_algebra(f3, cyclic_group(2))
    return a, LinearFunctional(group_algebra(f3, cyclic_group(3)), [1, 0, 0])


def test_certificate_check_rejects_a_foreign_functional(f3):
    a, lam = _foreign_functional(f3)
    with pytest.raises(OwnerMismatch):
        verify_certificate(a, lam, "symmetric")


def test_gram_matrix_rejects_a_foreign_functional(f3):
    a, lam = _foreign_functional(f3)
    with pytest.raises(OwnerMismatch):
        gram_matrix(a, lam)


def test_gram_pencil_rejects_a_foreign_functional(f3):
    a, lam = _foreign_functional(f3)
    with pytest.raises(OwnerMismatch):
        gram_pencil(a, [LinearFunctional(a, [1, 0]), lam])


def test_lift_beyond_characteristic_hypothesis(f3):
    # char 3 divides dim 9, so averaging is unavailable, but the invariant
    # functional dual to x^2 still lifts to a passing certificate
    from grasym import cyclic_algebra_spec
    spec = cyclic_algebra_spec(3)
    d = spec.coeff
    lam = LinearFunctional(d, [f3.zero(), f3.zero(), f3.one()])
    lifted = lift_functional(spec, lam)
    assert verify_certificate(lifted.owner, lifted, "graded-symmetric").ok


# -- decisions whose blocks exceed the cofactor cap ----------------------------------

def _verified_yes(a, mode):
    v = decide_form_existence(a, mode)
    assert v.is_yes and verify_certificate(a, v.witness, mode).ok
    return v


@pytest.mark.parametrize("build", [
    # dense 14x14 and 16x16 Gram blocks, beyond PENCIL_DET_MAX_DIM: the
    # witness comes from the walk, which expands no block
    lambda: ungrade(group_algebra(make_field(5), dihedral_group(7))),
    lambda: matrix_algebra(make_field(3), 4),
])
def test_symmetric_yes_with_a_block_beyond_the_cofactor_cap(build):
    a = random_graded_basis_change(build(), random.Random(1))
    _verified_yes(a, "symmetric")


def test_cyclic_algebra_7_is_graded_frobenius():
    _verified_yes(cyclic_algebra(7), "graded-frobenius")


def test_a_yes_within_the_walk_never_expands_a_block(monkeypatch):
    from grasym import multipoly

    def refuse(pencil):
        raise AssertionError("pencil_det ran on the way to a Yes")

    monkeypatch.setattr(multipoly, "pencil_det", refuse)
    _verified_yes(cyclic_algebra(5), "graded-frobenius")


def test_decisions_and_normalization_run_no_scalar_elimination(monkeypatch):
    # inverses, Gram symmetry and Gram ranks reduce raw rows: no Matrix.rref
    # or Matrix.solve runs on the way to a verdict or a normalized section
    from grasym.errors import IncompatibleCocycleData
    from grasym.replicate import hunt_candidates, hunt_char2_params

    accepted = []
    for _, args in hunt_candidates(hunt_char2_params()):
        try:
            accepted.append(frobenius_crossed_product(*args))
        except IncompatibleCocycleData:
            continue
    assert len(accepted) == 13
    calls = []
    for name in ("rref", "solve"):
        def counted(self, *args, _name=name, _fn=getattr(Matrix, name)):
            calls.append(_name)
            return _fn(self, *args)
        monkeypatch.setattr(Matrix, name, counted)
    runs = [(a, mode) for a in accepted for mode in ("graded-symmetric", "graded-frobenius")]
    runs.append((cyclic_algebra(5), "graded-frobenius"))
    yes = 0
    for a, mode in runs:
        verdict = decide_form_existence(a, mode)
        if mode == "graded-symmetric" and is_graded_division(a).is_yes:
            check_division_criterion(a, verdict.status)
        if verdict.is_yes:
            assert verify_certificate(a, verdict.witness, mode).ok
            yes += 1
    normalize_section(cyclic_algebra_spec(5))
    assert yes > 0 and calls == []
