"""validate_algebra decides associativity by Light's test on a generating set;
the full dim^3 scan _scan_algebra is its oracle, report for report, and the
per-triple form of Light's test is the oracle of its batched form."""

import random
from fractions import Fraction

import pytest

from grasym import (
    canonical_extension_field,
    cyclic_algebra,
    cyclic_group,
    group_algebra,
    klein_group,
    make_field,
    matrix_algebra,
    quaternion_algebra,
    rationals,
    sweedler_algebra,
    tensor_product,
    trivial_extension,
    trivial_group,
    ungrade,
    validate_algebra,
)
from grasym.algebras import (
    GradedAlgebra,
    ValidationReport,
    _left_word_generators,
    _passes_light_test,
    _scan_algebra,
    sparse_combination,
)
from grasym.linalg import Subspace
from grasym.replicate import (
    dim4_f2_corpus,
    random_graded_basis_change,
    random_small_algebra,
)

from conftest import scalar_table
from test_specfile import all_constructor_outputs


def _corpus():
    return all_constructor_outputs() + [a for _, a in dim4_f2_corpus()]


def _generators(a):
    return _left_word_generators(a.field.ops, a.table, a.unit)


def _generators_on_scalars(a):
    """The greedy choice of _left_word_generators on Subspaces of Scalars: e_b
    joins S when it lies outside the span of 1, which is then closed under
    left multiplication by S."""
    span = Subspace.from_vectors(a.field, a.dim, [a.one().coords])
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


def _light_test_per_triple(a) -> bool:
    """Light's test one basis triple at a time, on raw values: 2d calls of
    sparse_combination for the unit laws, and 2d more for each generator s
    and basis index i, comparing (e_i s) e_l with e_i (s e_l) for one l at a
    time."""
    ops = a.field.ops
    d, zero, e, unit, rows = a.dim, ops.zero, a.group.identity, a.unit, a.table
    unit_terms = [(k, c) for k, c in enumerate(unit) if c != zero]
    if any(a.degree[k] != e for k, _ in unit_terms):
        return False
    cols = [[rows[k][l] for k in range(d)] for l in range(d)]
    for i in range(d):
        basis_vector = {i: ops.one}
        if (sparse_combination(ops, unit_terms, cols[i]) != basis_vector
                or sparse_combination(ops, unit_terms, rows[i]) != basis_vector):
            return False
    for i, row in enumerate(rows):
        for j, terms in enumerate(row):
            want = a.group.mul(a.degree[i], a.degree[j])
            if any(a.degree[k] != want for k, _ in terms):
                return False
    for s in _left_word_generators(ops, rows, unit):
        for i in range(d):
            for l in range(d):
                if (sparse_combination(ops, rows[i][s], cols[l])
                        != sparse_combination(ops, rows[s][l], rows[i])):
                    return False
    return True


def _agree(a) -> ValidationReport:
    report = validate_algebra(a)
    assert report == _scan_algebra(a)
    assert _passes_light_test(a) == _light_test_per_triple(a) == report.ok
    return report


def test_the_validator_agrees_with_the_scan_on_the_corpus():
    for a in _corpus():
        assert _agree(a).ok, a


def test_the_validator_agrees_with_the_scan_after_basis_changes():
    for a in _corpus():
        if a.field.is_finite:
            for seed in range(3):
                assert _agree(random_graded_basis_change(a, random.Random(seed))).ok, a


def _mutated(a, rng, values=None):
    """a with one structure constant c_ij^k replaced by another value, which
    may be 0; k has the degree the grading law asks for four times in five.
    The new value is drawn from values when they are given."""
    field, d = a.field, a.dim
    i, j = rng.randrange(d), rng.randrange(d)
    graded = a.component_indices(a.group.mul(a.degree[i], a.degree[j]))
    k = rng.choice(graded) if rng.random() < 0.8 else rng.randrange(d)
    sc = scalar_table(a)
    old = dict(sc.get((i, j), ())).get(k, field.zero())
    if values is not None:
        new = rng.choice([v for v in values if v != old])
    else:
        while True:
            if field.is_finite:
                new = field.element_at(rng.randrange(field.size()))
            else:
                new = field.from_int(rng.randint(-3, 3))
            if new != old:
                break
    sc[(i, j)] = {**dict(sc.get((i, j), ())), k: new}
    return GradedAlgebra(field, a.group, a.degree, sc, a.one().coords)


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
    sc = scalar_table(a)
    sc[(s, s)] = {0: f3.one()}
    b = GradedAlgebra(f3, a.group, a.degree, sc, a.one().coords)
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
    bad_unit = GradedAlgebra(f3, a.group, a.degree, scalar_table(a), [f3.zero(), f3.one()])
    assert str(_agree(bad_unit)) == "unit law fails at basis indices [1, 0, 1]"
    sc = scalar_table(a)
    sc[(1, 1)] = ((1, f3.one()),)  # g g = g breaks the grading only
    bad_grading = GradedAlgebra(f3, a.group, a.degree, sc, a.one().coords)
    assert str(_agree(bad_grading)) == "grading law fails at (i,j,k) [(1, 1, 1)]"
    h = quaternion_algebra(q, -1, -1)
    sc = scalar_table(h)
    sc[(1, 2)] = ((3, q.from_int(2)),)  # i j = 2k
    report = _agree(GradedAlgebra(q, h.group, h.degree, sc, h.one().coords))
    assert str(report) == (
        "associativity fails at (i,j,l) [(1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), "
        "(1, 2, 3), (1, 3, 1), (2, 1, 2), (2, 3, 2), (3, 1, 2), (3, 2, 2)]")
    assert len(report.associativity_errors) == 10


def _mutation_counts(tables) -> tuple:
    """(invalid, reaching the nucleus check) over the tables, each of which
    must get the same answer from the batched test, the per-triple test and
    the scan."""
    invalid = nucleus_only = 0
    for a in tables:
        report = _agree(a)
        invalid += not report.ok
        nucleus_only += not (report.ok or report.unit_errors or report.grading_errors)
    return invalid, nucleus_only


def _q_corpus():
    q = rationals()
    h = quaternion_algebra(q, Fraction(1, 2), Fraction(-3, 5))
    return [h, tensor_product(h, group_algebra(q, klein_group())),
            trivial_extension(h), matrix_algebra(q, 2),
            tensor_product(ungrade(quaternion_algebra(q, Fraction(-2, 7), 3)),
                           sweedler_algebra(q))]


def test_q_tables_with_fractional_constants():
    # the rationals are compared on ints after scaling by a common denominator
    q = rationals()
    assert scalar_table(_q_corpus()[0])[(1, 1)] == ((0, q.scalar("1/2")),)  # i^2 = 1/2
    for a in _q_corpus():
        assert _agree(a).ok, a
    values = [q.scalar(v) for v in ("2/3", "-5/7", "1/2", "-3/5", "3", "0", "-1")]
    rng = random.Random(19)
    tables = [_mutated(rng.choice(_q_corpus()), rng, values) for _ in range(60)]
    assert _mutation_counts(tables) == (60, 44)


def _basis_changed(corpus, seeds):
    return [random_graded_basis_change(a, random.Random(seed)) for a in corpus for seed in seeds]


def test_a_large_prime_after_basis_changes(monkeypatch):
    # over F_999983 the unreduced sums of products run far past p; they are
    # reduced only when an entry is tested
    from grasym import algebras

    f = make_field(999983)
    corpus = _basis_changed([group_algebra(f, cyclic_group(3)), sweedler_algebra(f),
                             matrix_algebra(f, 2), quaternion_algebra(f, 2, 3),
                             trivial_extension(group_algebra(f, cyclic_group(2)))],
                            range(2))
    largest = []
    accumulate = algebras._accumulate

    def recording(acc, coeffs, vectors):
        accumulate(acc, coeffs, vectors)
        largest.append(max(map(abs, acc.values()), default=0))

    monkeypatch.setattr(algebras, "_accumulate", recording)
    for a in corpus:
        assert _agree(a).ok, a
    assert max(largest) > f.char ** 2
    monkeypatch.undo()
    rng = random.Random(23)
    tables = [_mutated(rng.choice(corpus), rng) for _ in range(40)]
    assert _mutation_counts(tables) == (40, 9)


def _extension_corpus():
    f4, f8 = canonical_extension_field(2, 2), canonical_extension_field(2, 3)
    f9, f27 = canonical_extension_field(3, 2), canonical_extension_field(3, 3)
    return [group_algebra(f4, cyclic_group(3)), matrix_algebra(f4, 2),
            group_algebra(f8, cyclic_group(2)), matrix_algebra(f8, 2),
            sweedler_algebra(f9), quaternion_algebra(f9, 1, f9.generator()),
            group_algebra(f27, cyclic_group(2)), sweedler_algebra(f27),
            trivial_extension(group_algebra(f9, cyclic_group(2))),
            quaternion_algebra(f27, 1, f27.generator())]


def test_valid_extension_field_tables_after_basis_changes():
    # sums over F_{p^n} are Kronecker-packed into lanes of integers
    for a in _basis_changed(_extension_corpus(), range(3)):
        assert _agree(a).ok, a
    rng = random.Random(29)
    corpus = _basis_changed(_extension_corpus(), range(2))
    tables = [_mutated(rng.choice(corpus), rng) for _ in range(40)]
    assert _mutation_counts(tables) == (39, 11)


def test_the_lane_width_boundary():
    # over F_8 a product's lanes reach n (p - 1)^2 = 3, so at dim 5 a sum of d
    # products reaches 15 = 2^4 - 1, the most a lane of the width may hold
    f8 = canonical_extension_field(2, 3)
    corpus = _basis_changed([group_algebra(f8, cyclic_group(5))], range(4))
    for a in corpus:
        assert a.dim * 3 == 2 ** 4 - 1
        assert _agree(a).ok
    rng = random.Random(31)
    tables = [_mutated(rng.choice(corpus), rng) for _ in range(20)]
    assert _mutation_counts(tables) == (20, 8)


def test_the_nucleus_test_builds_two_maps_per_generator_and_basis_vector(monkeypatch):
    # the batched shape: one map per side for each (generator, basis index),
    # never a sparse_combination per basis triple
    from grasym import algebras

    f3 = make_field(3)
    s = sweedler_algebra(f3)
    a = tensor_product(tensor_product(s, s), s)
    d, gens = a.dim, _generators(a)
    assert (d, len(gens)) == (64, 6)
    maps, combinations = [], []
    accumulate, combination = algebras._accumulate, algebras.sparse_combination

    def counting_maps(*args):
        maps.append(1)
        return accumulate(*args)

    def counting_combinations(*args):
        combinations.append(1)
        return combination(*args)

    monkeypatch.setattr(algebras, "_accumulate", counting_maps)
    monkeypatch.setattr(algebras, "sparse_combination", counting_combinations)
    assert validate_algebra(a).ok
    # two more maps for the two unit laws
    assert len(maps) == 2 * d * len(gens) + 2
    # the only sparse_combination calls left close the span of the left words
    assert len(combinations) < 2 * d * len(gens)


def _rebuilt(a):
    """a through the public constructor, from its table and unit wrapped
    into Scalars."""
    return GradedAlgebra(a.field, a.group, a.degree, scalar_table(a), a.one().coords,
                         labels=a.labels)


def test_the_public_constructor_is_the_oracle_of_the_raw_tables():
    # every builder hands its raw table to GradedAlgebra._from_raw; the
    # Scalar constructor, fed the same table wrapped, must give the same
    # algebra and the same spec bytes
    from grasym import crossed_product
    from grasym.algebras import frobenius_crossed_product
    from grasym.errors import IncompatibleCocycleData, NonInvertibleAlpha
    from grasym.replicate import HuntParams, hunt_candidates, hunt_char2_params
    from grasym.specfile import algebra_to_dict, canonical_json

    from test_algebras import _crossed_law_corpus

    corpus = _corpus()
    corpus += [random_graded_basis_change(a, random.Random(seed))
               for a in corpus if a.field.is_finite for seed in range(3)]
    crossed, frobenius = [], []
    for spec in _crossed_law_corpus():
        try:
            crossed.append(crossed_product(spec))
        except (IncompatibleCocycleData, NonInvertibleAlpha):
            pass
    for params in (hunt_char2_params(), HuntParams(3, (1, 3), (("cyclic", 3),))):
        for _, args in hunt_candidates(params):
            try:
                frobenius.append(frobenius_crossed_product(*args))
            except IncompatibleCocycleData:
                pass
    assert (len(crossed), len(frobenius)) == (21, 13 + 4)
    for a in corpus + crossed + frobenius:
        b = _rebuilt(a)
        assert b == a, a
        assert canonical_json(algebra_to_dict(b)) == canonical_json(algebra_to_dict(a))
