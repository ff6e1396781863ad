"""validate_algebra decides associativity by Light's test on a generating set;
the full dim^3 scan _scan_algebra is its oracle, report for report."""

import random

import pytest

from grasym import (
    cyclic_algebra,
    cyclic_group,
    group_algebra,
    make_field,
    quaternion_algebra,
    rationals,
    trivial_group,
    validate_algebra,
)
from grasym.algebras import (
    GradedAlgebra,
    ValidationReport,
    _left_word_generators,
    _scan_algebra,
    raw_structure,
)
from grasym.linalg import Subspace
from grasym.replicate import (
    dim4_f2_corpus,
    random_graded_basis_change,
    random_small_algebra,
)

from test_specfile import all_constructor_outputs


def _corpus():
    return all_constructor_outputs() + [a for _, a in dim4_f2_corpus()]


def _generators(a):
    ops = a.field.ops
    return _left_word_generators(ops, raw_structure(a), ops.unwrap(a.unit))


def _generators_on_scalars(a):
    """The greedy choice of _left_word_generators on Subspaces of Scalars: e_b
    joins S when it lies outside the span of 1, which is then closed under
    left multiplication by S."""
    span = Subspace.from_vectors(a.field, a.dim, [a.unit])
    gens = []
    for b in range(a.dim):
        if span.contains_vector(a.basis_element(b).coords):
            continue
        gens.append(b)
        while True:
            words = [a.mul_coords(a.basis_element(s).coords, v) for s in gens for v in span.basis]
            closed = Subspace.from_vectors(a.field, a.dim, list(span.basis) + words)
            if closed == span:
                break
            span = closed
    return gens


def test_the_generators_agree_with_the_scalar_oracle():
    corpus = _corpus()
    corpus += [random_graded_basis_change(a, random.Random(7)) for a in corpus
               if a.field.is_finite]
    corpus += [random_small_algebra(make_field(p), random.Random(s))
               for p in (2, 3, 5) for s in range(40)]
    for a in corpus:
        assert _generators(a) == _generators_on_scalars(a), a


def _agree(a) -> ValidationReport:
    report = validate_algebra(a)
    assert report == _scan_algebra(a)
    return report


def test_the_validator_agrees_with_the_scan_on_the_corpus():
    for a in _corpus():
        assert _agree(a).ok, a


def test_the_validator_agrees_with_the_scan_after_basis_changes():
    for a in _corpus():
        if a.field.is_finite:
            for seed in range(3):
                assert _agree(random_graded_basis_change(a, random.Random(seed))).ok, a


def _mutated(a, rng):
    """a with one structure constant c_ij^k replaced by another value, which
    may be 0; k has the degree the grading law asks for four times in five."""
    field, d = a.field, a.dim
    i, j = rng.randrange(d), rng.randrange(d)
    graded = a.component_indices(a.group.mul(a.degree[i], a.degree[j]))
    k = rng.choice(graded) if rng.random() < 0.8 else rng.randrange(d)
    old = dict(a.sc.get((i, j), ())).get(k, field.zero())
    while True:
        if field.is_finite:
            new = field.element_at(rng.randrange(field.size()))
        else:
            new = field.from_int(rng.randint(-3, 3))
        if new != old:
            break
    sc = dict(a.sc)
    sc[(i, j)] = {**dict(a.sc.get((i, j), ())), k: new}
    return GradedAlgebra(field, a.group, a.degree, sc, a.unit)


def test_the_validator_agrees_with_the_scan_on_mutated_tables():
    corpus = _corpus()
    invalid = nucleus_only = 0
    for seed in range(240):
        rng = random.Random(seed)
        a = rng.choice(corpus)
        if a.field.is_finite and rng.random() < 0.3:
            a = random_graded_basis_change(a, rng)
        report = _agree(_mutated(a, rng))
        invalid += not report.ok
        nucleus_only += not (report.ok or report.unit_errors or report.grading_errors)
    # the 87 tables that keep the unit and grading laws reach the nucleus check
    assert (invalid, nucleus_only) == (235, 87)


def _radical_square_zero(field, n):
    """F + x_1 F + .. + x_n F with x_i x_j = 0: commutative, and no proper
    subset of the x_i generates it."""
    one = field.one()
    sc = {(0, 0): {0: one}}
    for i in range(1, n + 1):
        sc[(0, i)] = {i: one}
        sc[(i, 0)] = {i: one}
    unit = [one] + [field.zero()] * n
    return GradedAlgebra(field, trivial_group(), [0] * (n + 1), sc, unit)


@pytest.mark.parametrize("field", [make_field(3), rationals()], ids=repr)
def test_a_radical_square_zero_algebra_needs_all_but_one_basis_vector(field):
    a = _radical_square_zero(field, 4)
    assert _generators(a) == [1, 2, 3, 4]
    assert _agree(a).ok


@pytest.mark.parametrize("s", [1, 4])
def test_only_one_generator_can_see_the_failure(s):
    # with x_s x_s = 1, (x_s x_s) x_t = x_t but x_s (x_s x_t) = 0 for the
    # other x_t, and every other basis vector stays in the middle nucleus, so
    # only the generator x_s fails the check, the first one or the last one
    f3 = make_field(3)
    a = _radical_square_zero(f3, 4)
    sc = dict(a.sc)
    sc[(s, s)] = {0: f3.one()}
    b = GradedAlgebra(f3, a.group, a.degree, sc, a.unit)
    assert _generators(b) == [1, 2, 3, 4]
    report = _agree(b)
    assert not report.ok
    assert {j for _, j, _ in report.associativity_errors} == {s}


def test_cyclic_algebras_are_generated_by_x_and_the_group_symbol():
    # x generates the coefficient field F_{p^p} (the block of degree e, basis
    # 1, x, .., x^(p-1)) and u_1 generates C_p; the left words reach x^(p-1)
    # only after p - 1 rounds of closure
    for p in (2, 3, 5):
        assert _generators(cyclic_algebra(p)) == [1, p]


def test_reports_of_invalid_tables_are_pinned():
    f3, q = make_field(3), rationals()
    a = group_algebra(f3, cyclic_group(2))
    bad_unit = GradedAlgebra(f3, a.group, a.degree, a.sc, [f3.zero(), f3.one()])
    assert str(_agree(bad_unit)) == "unit law fails at basis indices [1, 0, 1]"
    sc = dict(a.sc)
    sc[(1, 1)] = ((1, f3.one()),)  # g g = g breaks the grading only
    bad_grading = GradedAlgebra(f3, a.group, a.degree, sc, a.unit)
    assert str(_agree(bad_grading)) == "grading law fails at (i,j,k) [(1, 1, 1)]"
    h = quaternion_algebra(q, -1, -1)
    sc = dict(h.sc)
    sc[(1, 2)] = ((3, q.from_int(2)),)  # i j = 2k
    report = _agree(GradedAlgebra(q, h.group, h.degree, sc, h.unit))
    assert str(report) == (
        "associativity fails at (i,j,l) [(1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), "
        "(1, 2, 3), (1, 3, 1), (2, 1, 2), (2, 3, 2), (3, 1, 2), (3, 2, 2)]")
    assert len(report.associativity_errors) == 10
