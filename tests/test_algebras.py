import hashlib
from fractions import Fraction
from functools import lru_cache

import pytest

from grasym import (
    CrossedProductSpec,
    GradedAlgebra,
    Matrix,
    Subspace,
    crossed_product,
    cyclic_algebra,
    cyclic_algebra_spec,
    cyclic_group,
    direct_product,
    extend_field,
    field_as_algebra,
    frobenius_matrix,
    good_matrix_algebra,
    group_algebra,
    homogeneous_component,
    klein_group,
    make_field,
    matrix_algebra,
    normalize_section,
    quaternion_algebra,
    rationals,
    scalar_extension,
    subspace_algebra,
    sweedler_algebra,
    symmetric_group_3,
    tensor_product,
    trivial_extension,
    trivial_group,
    ungrade,
    validate_algebra,
)
from grasym.algebras import frobenius_crossed_product, frobenius_crossed_spec
from grasym.fields import canonical_extension_field
from grasym.replicate import (
    HuntParams,
    dim4_f2_corpus,
    hunt_candidates,
    hunt_char2_params,
    hunt_counterexample,
)
from grasym.specfile import algebra_hash
from grasym.errors import (
    CharacteristicTwo,
    DimensionTooLarge,
    FieldMismatch,
    GroupMismatch,
    IncompatibleCocycleData,
    IndexOutOfRange,
    NonAbelianGroup,
    NonInvertibleAlpha,
    NotClosed,
    OwnerMismatch,
    RationalsNotSupported,
    UnitMissing,
    UnsupportedPrime,
    ZeroParameter,
)

from conftest import constant_alpha, scalar_table, trivial_sigma
from test_crossed_oracle import (
    _check_crossed_laws,
    _crossed_product_table,
    _normalized_alpha,
    builder_agrees,
)


# -- validation ----------------------------------------------------------------

def test_group_algebra_valid(f3):
    a = group_algebra(f3, cyclic_group(2))
    assert validate_algebra(a).ok


def test_corrupted_constant_names_triple(f3):
    a = group_algebra(f3, cyclic_group(2))
    sc = scalar_table(a)
    sc[(1, 1)] = ((1, f3.one()),)  # g*g should be e; degree law now breaks
    broken = GradedAlgebra(f3, a.group, a.degree, sc, a.one().coords)
    report = validate_algebra(broken)
    assert not report.ok
    assert (1, 1, 1) in report.grading_errors


def test_corrupted_associativity_detected(q):
    h = quaternion_algebra(q, -1, -1)
    sc = scalar_table(h)
    sc[(1, 2)] = ((3, q.from_int(2)),)  # i*j = 2k breaks associativity
    broken = GradedAlgebra(q, h.group, h.degree, sc, h.one().coords)
    report = validate_algebra(broken)
    assert not report.ok and report.associativity_errors


def test_cyclic_algebra_validates():
    assert validate_algebra(cyclic_algebra(5)).ok


def test_zero_dimensional_rejected(f2):
    with pytest.raises(ValueError):
        GradedAlgebra(f2, trivial_group(), [], {}, [])


def test_out_of_range_indices_rejected(f2):
    one = f2.one()
    with pytest.raises(IndexOutOfRange):
        GradedAlgebra(f2, cyclic_group(2), [0, 2], {(0, 0): {0: one}}, [one, f2.zero()])
    for key, k in (((-1, 0), 0), ((0, 2), 0), ((0, 0), 2)):
        with pytest.raises(IndexOutOfRange):
            GradedAlgebra(f2, cyclic_group(2), [0, 1], {key: {k: one}}, [one, f2.zero()])


def test_dimension_is_refused_before_any_structure_constant(f2):
    one, zero = f2.one(), f2.zero()
    with pytest.raises(DimensionTooLarge):
        GradedAlgebra(f2, trivial_group(), [0] * 65, {(70, 0): {0: one}}, [one] + [zero] * 64)


def test_degrees_are_checked_before_any_structure_constant(f2):
    one = f2.one()
    with pytest.raises(IndexOutOfRange, match="element index 2"):
        GradedAlgebra(f2, cyclic_group(2), [0, 2], {(0, 5): {0: one}}, [one, f2.zero()])


def test_degrees_are_checked_before_any_constant_is_unwrapped(f2, q):
    # a constant and a unit entry over Q would raise FieldMismatch once unwrapped
    one, zero = f2.one(), f2.zero()
    with pytest.raises(DimensionTooLarge):
        GradedAlgebra(f2, trivial_group(), [0] * 65, {(0, 0): {0: q.one()}},
                      [q.one()] + [zero] * 64)
    with pytest.raises(IndexOutOfRange, match="element index 2"):
        GradedAlgebra(f2, cyclic_group(2), [0, 2], {(0, 0): {0: q.one()}}, [one, zero])


@pytest.mark.parametrize("unit", [lambda f3, f5: [f5.one(), f5.zero()],
                                  lambda f3, f5: [1, 0],
                                  lambda f3, f5: [f3.one(), 0]],
                         ids=["foreign-field", "ints", "one-int"])
def test_unit_vector_entries_must_be_scalars_of_the_field(f3, f5, unit):
    # checked like the structure constants; these used to be accepted, and
    # validate_algebra then died with a bare FieldMismatch or AttributeError
    a = group_algebra(f3, cyclic_group(2))
    with pytest.raises(FieldMismatch, match="unit vector"):
        GradedAlgebra(f3, a.group, a.degree, scalar_table(a), unit(f3, f5))


@pytest.mark.parametrize("field, raw", [
    (make_field(3), 1),
    (rationals(), Fraction(1, 2)),
    (make_field(3, [1, 0, 1]), (1, 0)),
], ids=["int-over-F3", "fraction-over-Q", "coefficient-tuple-over-F9"])
def test_raw_values_are_refused_by_the_public_constructor(field, raw):
    # the algebra stores raw values, but the public constructor takes Scalars
    # only; a raw value must not slip in, nor die with an AttributeError
    a = group_algebra(field, cyclic_group(2))
    sc = scalar_table(a)
    sc[(1, 1)] = ((0, raw),)
    with pytest.raises(FieldMismatch, match="structure constant"):
        GradedAlgebra(field, a.group, a.degree, sc, a.one().coords)
    unit = list(a.one().coords)
    unit[1] = raw
    with pytest.raises(FieldMismatch, match="unit vector entry"):
        GradedAlgebra(field, a.group, a.degree, scalar_table(a), unit)


def test_tables_are_built_checked_and_compared_without_scalars(monkeypatch):
    # the raw table is the only storage: building the pinned char-2 hunt's
    # candidates, with the twist as the hunt's ints or as Scalars, Light's
    # test on F_3 Sweedler^3 and its commutators make no Scalar once the
    # inputs exist
    from grasym import fields
    from grasym.algebras import _frobenius_coefficients, _passes_light_test
    from grasym.invariants import commutator_pairs, commutator_rows

    candidates = []
    for _, (ext, group, sigma_powers, unit) in hunt_candidates(hunt_char2_params()):
        _frobenius_coefficients(ext)  # D and its Frobenius matrices, once per field
        base = ext.prime_subfield()
        candidates.append((ext, group, sigma_powers, unit))
        candidates.append((ext, group, sigma_powers, [base.scalar(c) for c in unit]))
    s = sweedler_algebra(make_field(3))
    a = tensor_product(tensor_product(s, s), s)
    made = []
    init = fields.Scalar.__init__

    def counting(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(fields.Scalar, "__init__", counting)
    built = 0
    for args in candidates:
        try:
            frobenius_crossed_product(*args)
            built += 1
        except (IncompatibleCocycleData, NonInvertibleAlpha):
            pass
    assert (len(candidates), built, len(made)) == (2 * 57, 2 * 13, 0)
    assert _passes_light_test(a) and not made
    assert len(list(commutator_rows(a, commutator_pairs(a)))) > 0 and not made


@pytest.mark.parametrize("twist", [[True, 1], [0, 1.0], [0, "1"]])
def test_frobenius_twist_takes_no_bool_float_or_string(f4, twist):
    with pytest.raises(TypeError):
        frobenius_crossed_product(f4, cyclic_group(2), [0], twist)


def test_frobenius_twist_of_ints_is_reduced_mod_p(f4):
    c2 = cyclic_group(2)
    assert frobenius_crossed_product(f4, c2, [0], [2, -1]) == \
        frobenius_crossed_product(f4, c2, [0], [make_field(2).zero(), make_field(2).one()])


def test_repeated_structure_constants_rejected(f3):
    one = f3.one()
    with pytest.raises(ValueError, match="twice"):
        GradedAlgebra(f3, cyclic_group(2), [0, 1],
                      {(0, 0): [(0, one)], (1, 1): [(0, one), (0, one)]},
                      [one, f3.zero()])
    with pytest.raises(ValueError, match="twice"):
        GradedAlgebra(f3, cyclic_group(2), [0, 1],
                      [((0, 0), [(0, one)]), ((0, 0), [(0, one)])], [one, f3.zero()])


def test_frobenius_power_taken_mod_degree(f4):
    assert frobenius_matrix(f4, 5) == frobenius_matrix(f4, 1)
    assert frobenius_matrix(f4, 10 ** 18) == frobenius_matrix(f4, 0)


def test_dimension_cap(f2):
    a = group_algebra(f2, cyclic_group(33))
    with pytest.raises(DimensionTooLarge):
        trivial_extension(a)


# -- multiplication -----------------------------------------------------------------

def test_unit_law(q):
    h = quaternion_algebra(q, -1, -1)
    x = h.element([1, 2, 3, 4])
    assert h.one() * x == x and x * h.one() == x


def test_quaternion_relations(q):
    h = quaternion_algebra(q, -1, -1)
    one, i, j, k = (h.basis_element(t) for t in range(4))
    assert i * j == k and j * i == -k
    assert i * i == -one and j * j == -one and k * k == -one


def test_quaternion_k_squared_is_minus_ab(q):
    h = quaternion_algebra(q, -1, -3)
    k = h.basis_element(3)
    assert k * k == h.element([-3, 0, 0, 0])


def test_quaternion_rejects_bad_parameters(q, f2):
    with pytest.raises(CharacteristicTwo):
        quaternion_algebra(f2, 1, 1)
    with pytest.raises(ZeroParameter):
        quaternion_algebra(q, 0, -1)


def test_sweedler_relations(q):
    s = sweedler_algebra(q)
    one, c, x, cx = (s.basis_element(t) for t in range(4))
    assert c * c == one
    assert x * x == s.zero()
    assert x * c == -(c * x)
    assert (c * x) * (c * x) == s.zero()


def test_sweedler_rejects_characteristic_two(f2):
    with pytest.raises(CharacteristicTwo):
        sweedler_algebra(f2)


def test_cyclic_algebra_relations():
    a = cyclic_algebra(3)
    f = a.field
    # basis layout: index g*3 + i is x^i y^g
    x = a.basis_element(1)
    y = a.basis_element(3)
    assert y * x == a.basis_element(3) + a.basis_element(4)  # (x+1) y
    assert y ** 3 == a.one()


def test_cyclic_algebra_unsupported_prime():
    with pytest.raises(UnsupportedPrime):
        cyclic_algebra(11)


def test_owner_mismatch(q, f3):
    h = quaternion_algebra(q, -1, -1)
    s = sweedler_algebra(f3)
    with pytest.raises(OwnerMismatch):
        h.one() * s.one()


# -- crossed products ----------------------------------------------------------------

def test_degenerate_crossed_product_is_group_algebra(f2):
    d = field_as_algebra(f2, f2)
    c2 = cyclic_group(2)
    spec = CrossedProductSpec(d, c2, trivial_sigma(d, c2), constant_alpha(d, c2))
    a = crossed_product(spec)
    b = group_algebra(f2, c2)
    assert a.degree == b.degree and a.table == b.table and a.unit == b.unit


def test_quaternions_as_crossed_product(q):
    # D = Q, G = Klein, trivial sigma, alpha from the quaternion signs
    d = field_as_algebra(q, q)
    g = klein_group()
    one, minus = (q.one(),), (q.from_int(-1),)
    signs = {
        (0, 0): one, (0, 1): one, (0, 2): one, (0, 3): one,
        (1, 0): one, (1, 1): minus, (1, 2): one, (1, 3): minus,
        (2, 0): one, (2, 1): minus, (2, 2): minus, (2, 3): one,
        (3, 0): one, (3, 1): one, (3, 2): minus, (3, 3): minus,
    }
    spec = CrossedProductSpec(d, g, trivial_sigma(d, g), signs)
    a = crossed_product(spec)
    i, j, k = a.basis_element(1), a.basis_element(2), a.basis_element(3)
    assert i * i == -a.one() and j * j == -a.one()
    assert i * j == k and j * i == -k


def test_crossed_product_frobenius_f9(f3, f9):
    from grasym import is_graded_division
    d = field_as_algebra(f9, f3)
    c2 = cyclic_group(2)
    spec = CrossedProductSpec(d, c2,
                              {0: Matrix.identity(f3, 2), 1: frobenius_matrix(f9, 1)},
                              constant_alpha(d, c2))
    a = crossed_product(spec)
    assert a.dim == 4 and validate_algebra(a).ok
    t = a.basis_element(1)
    u = a.basis_element(2)
    # u t = sigma(t) u = -t u
    assert u * t == -(t * u)
    assert is_graded_division(a).is_yes


def test_crossed_product_rejects_incompatible_data(f3, f9):
    d = field_as_algebra(f9, f3)
    c2 = cyclic_group(2)
    # Frobenius action but alpha(g,g) = generator: sigma(g)(alpha) != alpha
    alpha = constant_alpha(d, c2)
    alpha[(1, 1)] = (f3.zero(), f3.one())
    spec = CrossedProductSpec(d, c2,
                              {0: Matrix.identity(f3, 2), 1: frobenius_matrix(f9, 1)},
                              alpha)
    with pytest.raises(IncompatibleCocycleData) as exc:
        crossed_product(spec)
    # sigma(g)(t) = t^3 = -t, so alpha(g,g) alpha(e,g) = t but
    # sigma(g)(alpha(g,g)) alpha(g,e) = -t
    assert str(exc.value) == (
        "the twisted 2-cocycle law (alpha(g,h) alpha(gh,k) = sigma(g)(alpha(h,k)) "
        "alpha(g,hk)) fails at g=1, h=1, k=1")


def _bad_sigma_spec(field_kind, flaw):
    """A C_2 crossed-product spec whose sigma breaks one automorphism law."""
    if field_kind == "F9/F3":
        base = make_field(3)
        d = field_as_algebra(make_field(3, [1, 0, 1]), base)  # basis 1, t; t^2 = -1
        automorphism = [[1, 0], [0, -1]]  # Frobenius, t -> -t
        non_multiplicative = [[1, 1], [0, 1]]  # t -> 1 + t, but (1 + t)^2 != -1
    else:
        base = make_field(0)
        d = ungrade(quaternion_algebra(base, -1, -1))  # basis 1, i, j, k
        automorphism = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        non_multiplicative = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    ident = [[int(i == j) for j in range(d.dim)] for i in range(d.dim)]
    sigma = {
        "identity-moved": [automorphism, ident],
        "unit-moved": [ident, [[2 * x for x in row] for row in ident]],
        "singular": [ident, ident[:-1] + [[0] * d.dim]],
        "non-multiplicative": [ident, non_multiplicative],  # for H: k -> -k
    }[flaw]
    c2 = cyclic_group(2)
    return CrossedProductSpec(
        d, c2, {g: Matrix(base, [[base.scalar(x) for x in row] for row in rows])
                for g, rows in enumerate(sigma)},
        constant_alpha(d, c2))


UNIT_LAW_SIGMA_E = "the unit law (sigma(e) = id) fails at D-basis vector "
UNIT_LAW_SIGMA_ONE = "the unit law (sigma(g)(1) = 1) fails at g=1"
MULTIPLICATIVITY = ("multiplicativity of sigma (sigma(g)(e_i e_j) = sigma(g)(e_i) "
                    "sigma(g)(e_j)) fails at g=1, ")

BAD_SIGMA_MESSAGES = {
    ("F9/F3", "identity-moved"): UNIT_LAW_SIGMA_E + "1",
    ("F9/F3", "unit-moved"): UNIT_LAW_SIGMA_ONE,
    ("F9/F3", "singular"): MULTIPLICATIVITY + "i=1, j=1",  # t^2 = -1, but sigma(t) = 0
    ("F9/F3", "non-multiplicative"): MULTIPLICATIVITY + "i=1, j=1",
    ("H_Q", "identity-moved"): UNIT_LAW_SIGMA_E + "2",
    ("H_Q", "unit-moved"): UNIT_LAW_SIGMA_ONE,
    ("H_Q", "singular"): MULTIPLICATIVITY + "i=1, j=2",  # ij = k, but sigma(k) = 0
    ("H_Q", "non-multiplicative"): MULTIPLICATIVITY + "i=1, j=2",
}


@pytest.mark.parametrize("flaw", ["identity-moved", "unit-moved", "singular",
                                  "non-multiplicative"])
@pytest.mark.parametrize("field_kind", ["F9/F3", "H_Q"])
def test_crossed_product_scan_rejects_bad_sigma(field_kind, flaw):
    # crossed_product checks that sigma is present, then decides its laws in D:
    # the unit law rejects a moved identity or unit, multiplicativity the rest
    with pytest.raises(IncompatibleCocycleData) as exc:
        crossed_product(_bad_sigma_spec(field_kind, flaw))
    assert str(exc.value) == BAD_SIGMA_MESSAGES[(field_kind, flaw)]


def _f4_over_c2_twisted_by(f2, value):
    """F_4 over C_2 with the trivial action and alpha(1,1) = value."""
    d = field_as_algebra(make_field(2, [1, 1, 1]), f2)
    c2 = cyclic_group(2)
    alpha = constant_alpha(d, c2)
    alpha[(1, 1)] = value
    return CrossedProductSpec(d, c2, trivial_sigma(d, c2), alpha)


def test_crossed_product_rejects_noninvertible_alpha(f2):
    with pytest.raises(NonInvertibleAlpha):
        crossed_product(_f4_over_c2_twisted_by(f2, (f2.zero(), f2.zero())))


@pytest.mark.parametrize("value, error, message", [
    (lambda f2, f3: (f2.one(),), IncompatibleCocycleData, "alpha(1,1) has length 1 (need 2)"),
    (lambda f2, f3: (f2.one(), f2.zero(), f2.one()), IncompatibleCocycleData,
     "alpha(1,1) has length 3 (need 2)"),
    (lambda f2, f3: (1, 0), FieldMismatch,
     "alpha(1,1) has an entry that is not a scalar of F_2"),
    (lambda f2, f3: (f3.one(), f3.zero()), FieldMismatch,
     "alpha(1,1) has an entry that is not a scalar of F_2"),
], ids=["short", "long", "ints", "foreign-field"])
def test_crossed_product_refuses_a_malformed_alpha_value(f2, f3, value, error, message):
    # the lengths used to give a valid-looking algebra from truncated data,
    # and the ints a bare AttributeError
    with pytest.raises(error) as exc:
        crossed_product(_f4_over_c2_twisted_by(f2, value(f2, f3)))
    assert str(exc.value) == message


def test_a_hunt_builds_each_coefficient_field_once(monkeypatch):
    from grasym import algebras

    monkeypatch.setattr(algebras, "_frobenius_coefficients", lru_cache(maxsize=None)(
        algebras._frobenius_coefficients.__wrapped__))
    built = []
    field_algebra, frobenius = algebras.field_as_algebra, algebras.frobenius_matrix

    def counting_field_algebra(ext, base, group=None):
        built.append(("D", ext))
        return field_algebra(ext, base, group)

    def counting_frobenius(ext, power):
        built.append(("frobenius", ext, power))
        return frobenius(ext, power)

    monkeypatch.setattr(algebras, "field_as_algebra", counting_field_algebra)
    monkeypatch.setattr(algebras, "frobenius_matrix", counting_frobenius)
    report = hunt_counterexample(HuntParams(2, (2, 4), (("cyclic", 2), ("cyclic", 4))))
    assert (report.candidates_enumerated, report.instances_tested) == (1050, 28)
    f4, f16 = canonical_extension_field(2, 2), canonical_extension_field(2, 4)
    assert built == ([("D", f4), ("frobenius", f4, 0), ("frobenius", f4, 1), ("D", f16)]
                     + [("frobenius", f16, k) for k in range(4)])


# -- frobenius_crossed_product edge cases (tests/test_crossed_oracle.py has the
# corpora); each agrees with crossed_product(frobenius_crossed_spec(...))

def test_frobenius_builder_over_the_trivial_group(f2, f4):
    one = trivial_group()
    assert builder_agrees(f4, one, [])
    assert frobenius_crossed_product(f4, one, []) == field_as_algebra(f4, f2)
    # alpha has no pair of non-identity elements, so a zero twist is never used
    assert builder_agrees(f4, one, [], [0, 0])


def test_frobenius_builder_ignores_sigma_powers_over_a_prime_field(f2, f3):
    assert builder_agrees(f2, cyclic_group(2), [1])
    assert frobenius_crossed_product(f2, cyclic_group(2), [1]) == \
        frobenius_crossed_product(f2, cyclic_group(2), [0])
    c3 = cyclic_group(3)
    assert builder_agrees(f3, c3, [1, 2])
    assert frobenius_crossed_product(f3, c3, [1, 2]) == frobenius_crossed_product(f3, c3, [5, 0])


def test_frobenius_builder_refuses_a_zero_twist(f4):
    with pytest.raises(NonInvertibleAlpha) as exc:
        frobenius_crossed_product(f4, cyclic_group(2), [1], [0, 0])
    assert str(exc.value) == "alpha(1,1) is not invertible in D"
    assert not builder_agrees(f4, cyclic_group(2), [1], [0, 0])


def test_frobenius_builder_checks_the_dimension_before_any_law():
    # F_8 over C_22 is 66-dimensional; its data also fails (C) and has u = 0
    f8 = canonical_extension_field(2, 3)
    with pytest.raises(DimensionTooLarge) as exc:
        frobenius_crossed_product(f8, cyclic_group(22), [1] * 21, [0, 0, 0])
    assert str(exc.value) == "crossed product dimension 66 exceeds 64"


def test_frobenius_builder_takes_the_identity_exponent_as_zero():
    # over F_8, g^2 = e in C_2 needs 2 k_g = k_e = 0 (mod 3): k_g = 1 fails (C)
    # at (g, g), where gh = e, and k_g = 0 passes
    f8 = canonical_extension_field(2, 3)
    c2 = cyclic_group(2)
    with pytest.raises(IncompatibleCocycleData) as exc:
        frobenius_crossed_product(f8, c2, [1])
    assert str(exc.value) == ("sigma(g) sigma(h) = Inn(alpha(g,h)) sigma(gh) fails at "
                              "g=1, h=1, D-basis vector 1")
    assert not builder_agrees(f8, c2, [1])
    assert builder_agrees(f8, c2, [0])
    assert builder_agrees(f8, c2, [3])


def test_field_as_algebra_builds_a_fresh_algebra_per_call(f2, f4):
    a, b = field_as_algebra(f4, f2), field_as_algebra(f4, f2)
    assert a is not b and a == b
    c2 = cyclic_group(2)
    assert frobenius_crossed_spec(f4, c2, [0]).coeff is frobenius_crossed_spec(f4, c2, [1]).coeff


def test_normalize_section_exponent_two_unchanged(f2):
    f4 = make_field(2, [1, 1, 1])
    d = field_as_algebra(f4, f2)
    c2 = cyclic_group(2)
    spec = CrossedProductSpec(d, c2, trivial_sigma(d, c2), constant_alpha(d, c2))
    assert normalize_section(spec) is spec


def test_normalize_section_constant_alpha():
    f7 = make_field(7)
    d = field_as_algebra(f7, f7)
    c3 = cyclic_group(3)
    spec = CrossedProductSpec(d, c3, trivial_sigma(d, c3),
                              constant_alpha(d, c3, [3]))
    out = normalize_section(spec)
    one = (f7.one(),)
    assert out.alpha[(1, 2)] == one and out.alpha[(2, 1)] == one
    # recompute u_g u_{g^-1} inside the normalized product: must be the unit
    a = crossed_product(out)
    u = a.basis_element(1)
    u_inv = u.inverse()
    assert u_inv is not None
    assert u * u_inv == a.one()
    assert u_inv.homogeneous_degree() == 2
    assert validate_algebra(a).ok


def test_normalize_section_group_algebra_unchanged_in_value():
    f5 = make_field(5)
    d = field_as_algebra(f5, f5)
    c3 = cyclic_group(3)
    spec = CrossedProductSpec(d, c3, trivial_sigma(d, c3), constant_alpha(d, c3))
    out = normalize_section(spec)
    assert out == spec


def test_normalized_cyclic_spec_lifts(f3):
    spec = normalize_section(cyclic_algebra_spec(3))
    # alpha was already trivial, so normalization must keep it trivial
    d = spec.coeff
    assert all(spec.alpha[(g, h)] == d.one().coords
               for g in range(3) for h in range(3))


def _coboundary_twisted_quaternions():
    """H_Q over C_3 with trivial data twisted by the section c_1 = 1 + i,
    c_2 = 1 + j: sigma(g) = conjugation by c_g, alpha(g,h) = c_g c_h c_gh^-1."""
    q = rationals()
    d = ungrade(quaternion_algebra(q, -1, -1))
    c3 = cyclic_group(3)
    c = {0: d.one(), 1: d.element([1, 1, 0, 0]), 2: d.element([1, 0, 1, 0])}
    c_inv = {g: x.inverse() for g, x in c.items()}
    sigma = {g: Matrix(q, [(c[g] * d.basis_element(j) * c_inv[g]).coords
                           for j in range(4)]).transpose() for g in range(3)}
    alpha = {(g, h): (c[g] * c[h] * c_inv[c3.mul(g, h)]).coords
             for g in range(3) for h in range(3)}
    return CrossedProductSpec(d, c3, sigma, alpha)


def test_normalize_section_coboundary_twisted_quaternions_pinned():
    spec = _coboundary_twisted_quaternions()
    assert [c.to_json() for c in spec.alpha[(1, 2)]] == ["1", "1", "1", "1"]
    out = normalize_section(spec)
    # values taken when the section was still rescaled inside the crossed product
    sigma = {g: [[x.to_json() for x in row] for row in out.sigma[g].entries]
             for g in range(3)}
    assert sigma == {
        0: [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
            ["0", "0", "0", "1"]],
        1: [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "-1"],
            ["0", "0", "1", "0"]],
        2: [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "1"],
            ["0", "0", "-1", "0"]],
    }
    alpha = {gh: [x.to_json() for x in v] for gh, v in out.alpha.items()}
    one = ["1", "0", "0", "0"]
    assert alpha == {(g, h): one for g in range(3) for h in range(3)} | {
        (1, 1): ["-2", "2", "0", "0"], (2, 2): ["-1/4", "-1/4", "0", "0"]}


def _crossed_law_corpus():
    """Every candidate of the pinned char-2 hunt (57), the pinned char-3 C3
    hunt (236) and F_8 over C3 (63), the eight bad-sigma specs and the
    coboundary-twisted quaternions, in that order."""
    specs = []
    for params in (hunt_char2_params(), HuntParams(3, (1, 3), (("cyclic", 3),)),
                   HuntParams(2, (3,), (("cyclic", 3),))):
        specs += [frobenius_crossed_spec(*args) for _, args in hunt_candidates(params)]
    specs += [_bad_sigma_spec(k, f) for k in ("F9/F3", "H_Q")
              for f in ("identity-moved", "unit-moved", "singular", "non-multiplicative")]
    specs.append(_coboundary_twisted_quaternions())
    return specs


# sha256 of the newline-joined algebra hashes of the specs of
# _crossed_law_corpus that crossed_product accepted, taken while it still
# validated every product with the full unit-law and associativity scan.
CROSSED_LAW_CORPUS_ACCEPTED = (
    21, "f8ac78bc5a7e465e014ac14a3432756ff64331a3a44d4f970edfe0619de3bc3e")


def test_crossed_laws_agree_with_the_scan():
    # the scan stays the oracle: the laws hold exactly when alpha comes out
    # normalized at the identity and the table passes validate_algebra
    corpus = _crossed_law_corpus()
    assert len(corpus) == 365
    accepted = []
    for spec in corpus:
        alpha = _normalized_alpha(spec)
        table = _crossed_product_table(spec, alpha)
        e, one = spec.group.identity, spec.coeff.one().coords
        normalized = all(alpha[(g, e)].coords == one == alpha[(e, g)].coords
                         for g in range(spec.group.order))
        try:
            _check_crossed_laws(spec, alpha)
        except IncompatibleCocycleData:
            passed = False
        else:
            passed = True
            accepted.append(algebra_hash(table))
        assert passed == (normalized and validate_algebra(table).ok)
    digest = hashlib.sha256("\n".join(accepted).encode()).hexdigest()
    assert (len(accepted), digest) == CROSSED_LAW_CORPUS_ACCEPTED


# -- good gradings -----------------------------------------------------------------------

def test_good_matrix_degrees(f2):
    c2 = cyclic_group(2)
    delta = field_as_algebra(f2, f2, c2)
    m = good_matrix_algebra(2, [0, 1], delta)
    assert m.degree == (0, 1, 1, 0)
    e = homogeneous_component(m, 0)
    g = homogeneous_component(m, 1)
    assert e.dim == 2 and g.dim == 2


def test_good_matrix_n1_is_delta(f3):
    c2 = cyclic_group(2)
    delta = field_as_algebra(f3, f3, c2)
    m = good_matrix_algebra(1, [0], delta)
    assert m.dim == delta.dim and m.degree == delta.degree


def test_good_matrix_equal_sigmas_conjugate_grading(f2):
    c2 = cyclic_group(2)
    delta = field_as_algebra(f2, f2, c2)
    m = good_matrix_algebra(2, [1, 1], delta)
    # sigma_i^-1 * e * sigma_j = e for all blocks: trivial grading
    assert all(d == 0 for d in m.degree)


def test_matrix_units_compose(f5):
    m = matrix_algebra(f5, 2)
    e11, e12, e21, e22 = (m.basis_element(t) for t in range(4))
    assert e12 * e21 == e11
    assert e21 * e12 == e22
    assert (e12 * e12).is_zero
    assert e11 + e22 == m.one()


# -- trivial extension ----------------------------------------------------------------------

def test_trivial_extension_dim_doubles(q):
    s = sweedler_algebra(q)
    t = trivial_extension(s)
    assert t.dim == 8 and validate_algebra(t).ok


def test_trivial_extension_dual_squares_to_zero(f3):
    a = group_algebra(f3, cyclic_group(2))
    t = trivial_extension(a)
    f1, f2_ = t.basis_element(2), t.basis_element(3)
    assert (f1 * f1).is_zero and (f1 * f2_).is_zero and (f2_ * f1).is_zero


def test_trivial_extension_dual_degrees(q):
    h = quaternion_algebra(q, -1, -1)
    t = trivial_extension(h)
    # Klein group elements are involutions, so dual degrees repeat the originals
    assert t.degree == h.degree + h.degree


def test_trivial_extension_dual_degrees_inverted(f5):
    a = group_algebra(f5, cyclic_group(3))
    t = trivial_extension(a)
    assert t.degree == (0, 1, 2, 0, 2, 1)


def test_trivial_extension_bimodule_action(q):
    # e_i (0, f_j) = (0, e_i . f_j) with (a f)(m) = f(m a)
    s = sweedler_algebra(q)
    t = trivial_extension(s)
    c = t.basis_element(1)
    f_x = t.basis_element(6)  # dual of x
    prod = c * f_x
    # (c . f_x)(m) = f_x(m c): m c has an x-coefficient only for m = cx... and
    # cx * c = -x, so (c . f_x)(cx) = -1 and the product is -f_cx
    assert prod == -t.basis_element(7)


# sha256 of algebra_hash(trivial_extension(a)) and of the extension taken twice,
# taken before trivial_extension was rewritten as a single pass.
TRIVIAL_EXTENSION_HASHES = {
    "unit-field": ("a97552d91b55a4e0f74d0c9d527d800244bf1553b2f46a7c580d9b72c84e14d6",
                  "d81724feb792bd5236a3d1b4c670ccb028ce6451c31f50bebef2aa6575018bbf"),
    "group-C2": ("aa9ca80e696637c321ba9f741dbd6f72703098da26f83c60f00b3119eb0575b6",
                "446b24c40f4a43a1db1c199456b6b306f971fe81f3e5483eb00e62a3f8608a8e"),
    "group-C3": ("c1ee172a18974cb2632fac058205d1d787a104ad121b2e1c5ce0a64c62d07c1a",
                "7002aafb94062a836cc6061f824c53fb5938215ee09a628c8c279ca8c77e68a6"),
    "group-C4": ("0577569e105c92edbf9e9e5e959bbff10710f1b1de50ba203f345a19a1203c89",
                "ec21a2049ea880895983b35c41574a1d3258fa7e27fc836ffd18963039219fde"),
    "group-klein": ("ad904ccb6c9b47a2979370c79bc56caac1aea8e9692dc4f50e434d025bcdc15b",
                   "a9f1ca0b8d53bc4fd93ddf21ea47ae8d68c2c71741010dd22294524ac6bb210d"),
    "cyclic-skew-2": ("5da19af5a74d4e9f1383f2b498328021bed2d381439922fe0c98dd4439fb6084",
                     "e88cb370171f11551c5bf046c4ba5f6a51905c5df6b8108d3fba5a014c0a2247"),
    "matrix-2-trivial": ("48449c23c8118cc17a9ea5c33757d106443a6cb204f9390fe65655f0ce6a59e7",
                        "46652008a390e802efa15f6b21bbae33276f43701a1ccb0bc14bc4bebb61b04e"),
    "matrix-2-good": ("ea7e12f467f9d2b8165970e43b6cee85a436081aca3a6546073a2af4ecb65e8b",
                     "bd0b33e7084ea031bd35e025b50d9c99d54f093152205c0250c3d2e7596b9466"),
    "te-field": ("d81724feb792bd5236a3d1b4c670ccb028ce6451c31f50bebef2aa6575018bbf",
                "e2e2972f46993d39da8903f5adad36bd3db75b3ddc74c561515eb1341c01fe7b"),
    "te-group-C2": ("446b24c40f4a43a1db1c199456b6b306f971fe81f3e5483eb00e62a3f8608a8e",
                   "1548fa43d5017ed6858027a48e67e11941ca41a6849daf4ed08fa1f233a23a36"),
    "tensor-C2-C2": ("ed46b2a2d0a597a82ea42cba81edb8ff96bf6253e02e701d44a433b8cf67ccec",
                    "5ae1f3210ff6c4b6c22bbd4c39399dee96e187f5e83de77be80cd3a11532652c"),
    "product-C2-C2": ("462b053087f15fc7a6dc3872383403b7c6295d654f500555d4aeebdb0ed7b25d",
                     "923e1c3d77c12800aef439d43ef07ccd3aafbb1888c30b9c6a050c426b0a6a8a"),
    "ext-field-F4": ("07c8e02fc469a3eaf36b6946d1ab2e73a5a8eac97a4b2062fca553711e6b1d7a",
                    "fcf5677df6c1e5b228ebdaab3fddd7668389b82f8b48f386e7f3afd9208de23b"),
    "crossed-F4-frob": ("5da19af5a74d4e9f1383f2b498328021bed2d381439922fe0c98dd4439fb6084",
                       "e88cb370171f11551c5bf046c4ba5f6a51905c5df6b8108d3fba5a014c0a2247"),
    "crossed-F4-trivial": ("b78e5f69a7135d96e702bb094c3a7e0239139112dda321088f8c19d0b4234628",
                          "cb4c618922db619b99e2d1bf3f0795d897643c4b1519444f3d826cf5b1da028d"),
    "crossed-F4-twisted": ("9cf9fa063afcb872da03331a28cea4099ce0845b4f34838aca96de6aa2fc068e",
                          "a5b151572ace87d724db6a9c8756a0db6fa13124c6820a3ad4938d716000602d"),
    "ungraded-cyclic-2": ("8b111fa75728ea1a06e7cf2c074f2bb8c2758955f988ab02e1aa89f9b9141631",
                         "fe4e66ac9e7b182fb0fb2a7aa891ca22b3cb030f5a7b1c33b35210541aa5179c"),
    "te-ungraded-C2": ("fa1bba13945797706da6f979074e4374a25177ef3175a7d90dc436ec5caf19ef",
                      "a4dfb8f40416ee7ad8e6bd252062317f8b86eafac4ffe15d5fbe0cb6a9555e22"),
    "matrix-2-klein": ("96aa969ef2b8048238d308268a77617ddad5bd260b8cab386bc663b97c7c3223",
                      "cf769cc029456eb45e8abf5cd71bea29039dd288347e620833a33aadbb4d3ff3"),
    "te-ext-field": ("fcf5677df6c1e5b228ebdaab3fddd7668389b82f8b48f386e7f3afd9208de23b",
                    "c103601c4c0b036f0dda709dabb6b9be6079aa21c05dc433b6d8c83dc13cdafd"),
    "sweedler-F3": ("1b0cadcfb967dad715890b2b0cc7f4cf04568f0c9c0ff358e4a8dec5df3b28d4",
                   "55e15f926aafe2fbd699b4b88a5f55ca9ca6d8285cd39ba3afb80baeab24f50a"),
    "sweedler-Q": ("1bf469d32fbc15b6627414df81b93c4f4febabde9d686959969283ab893ed95b",
                  "3582c8e7d367c1d6c1dce65a7515ee225f13e60816d4cce2746e614b616237d0"),
}


def _trivial_extension_inputs():
    return dim4_f2_corpus() + [("sweedler-F3", sweedler_algebra(make_field(3))),
                               ("sweedler-Q", sweedler_algebra(rationals()))]


def test_trivial_extension_hashes_pinned():
    inputs = _trivial_extension_inputs()
    assert [name for name, _ in inputs] == list(TRIVIAL_EXTENSION_HASHES)
    for name, a in inputs:
        once = trivial_extension(a)
        got = (algebra_hash(once), algebra_hash(trivial_extension(once)))
        assert got == TRIVIAL_EXTENSION_HASHES[name], name


# -- products and extensions -----------------------------------------------------------------

def test_direct_product_dims_add(f3):
    a = group_algebra(f3, cyclic_group(2))
    p = direct_product(a, a)
    assert p.dim == 4 and validate_algebra(p).ok
    assert p.one() == p.element([1, 0, 1, 0])


def test_direct_product_mismatches(f3, f5):
    a = group_algebra(f3, cyclic_group(2))
    b = group_algebra(f5, cyclic_group(2))
    with pytest.raises(FieldMismatch):
        direct_product(a, b)
    c = group_algebra(f3, cyclic_group(3))
    with pytest.raises(GroupMismatch):
        direct_product(a, c)


def test_tensor_product_dims_multiply(f3):
    a = group_algebra(f3, cyclic_group(2))
    t = tensor_product(a, a)
    assert t.dim == 4
    # degrees multiply in the Klein pattern collapsed to C_2: (0,1,1,0)
    assert t.degree == (0, 1, 1, 0)


def test_tensor_with_unit_line(f3):
    a = group_algebra(f3, cyclic_group(2))
    one_line = field_as_algebra(f3, f3, cyclic_group(2))
    t = tensor_product(a, one_line)
    assert t.degree == a.degree and t.table == a.table


def test_tensor_rejects_nonabelian(f5):
    s3 = symmetric_group_3()
    a = group_algebra(f5, s3)
    with pytest.raises(NonAbelianGroup):
        tensor_product(a, a)


def test_scalar_extension(f3):
    a = group_algebra(f3, cyclic_group(2))
    assert scalar_extension(a, 1) is a
    b = scalar_extension(a, 2)
    assert b.dim == a.dim and b.field.degree == 2
    assert validate_algebra(b).ok


@pytest.mark.parametrize("m", [0, -1])
def test_scalar_extension_refuses_a_degree_below_one(m, f3):
    # m = 0 used to report "no irreducible polynomial of degree 0", and
    # m = -1 raised a bare TypeError
    with pytest.raises(ValueError, match="at least 1"):
        scalar_extension(group_algebra(f3, cyclic_group(2)), m)
    with pytest.raises(ValueError, match="at least 1"):
        extend_field(f3, m)


def test_scalar_extension_rejects_rationals(q):
    with pytest.raises(RationalsNotSupported):
        scalar_extension(quaternion_algebra(q, -1, -1), 2)


def test_ungrade(f3):
    a = group_algebra(f3, cyclic_group(2))
    u = ungrade(a)
    assert u.group.order == 1 and all(d == 0 for d in u.degree)
    assert ungrade(u) is u
    assert homogeneous_component(u, 0).dim == 2


# -- subalgebras and components ------------------------------------------------------------------

def test_subspace_algebra_full_space(q):
    h = quaternion_algebra(q, -1, -1)
    e = subspace_algebra(h, Subspace.full(q, 4))
    assert e.dim == 4 and e.table == h.table


def test_subspace_algebra_quaternion_center(q):
    from grasym import center
    h = quaternion_algebra(q, -1, -1)
    z = subspace_algebra(h, center(h))
    assert z.dim == 1
    assert z.one() * z.one() == z.one()


def test_subspace_algebra_sweedler_center(f5):
    from grasym import center
    t = trivial_extension(sweedler_algebra(f5))
    z = subspace_algebra(t, center(t))
    assert z.dim == 3
    u, v = z.basis_element(1), z.basis_element(2)
    assert (u * u).is_zero and (u * v).is_zero and (v * v).is_zero


def test_subspace_algebra_not_closed(q):
    h = quaternion_algebra(q, -1, -1)
    s = Subspace.from_vectors(q, 4, [[q.one(), q.zero(), q.zero(), q.zero()],
                                     [q.zero(), q.one(), q.zero(), q.zero()],
                                     [q.zero(), q.zero(), q.one(), q.zero()]])
    with pytest.raises(NotClosed):
        subspace_algebra(h, s)  # i*j = k escapes span{1,i,j}


def test_subspace_algebra_unit_missing(q):
    h = quaternion_algebra(q, -1, -1)
    s = Subspace.from_vectors(q, 4, [[q.zero(), q.one(), q.zero(), q.zero()]])
    with pytest.raises(UnitMissing):
        subspace_algebra(h, s)


def test_homogeneous_components_partition(q):
    h = quaternion_algebra(q, -1, -1)
    total = sum(homogeneous_component(h, g).dim for g in range(4))
    assert total == h.dim
    assert homogeneous_component(h, 0).basis[0][0] == q.one()


def test_component_of_group_algebra(f2):
    a = group_algebra(f2, cyclic_group(2))
    e = homogeneous_component(a, 0)
    assert e.dim == 1 and e.contains_vector(a.one().coords)


def test_subspace_algebra_non_homogeneous_falls_back_to_trivial_grading(q):
    h = quaternion_algebra(q, -1, -1)
    # span{1, i+j} is closed ((i+j)^2 = -2) but i+j is not homogeneous
    s = Subspace.from_vectors(q, 4, [[q.one(), q.zero(), q.zero(), q.zero()],
                                     [q.zero(), q.one(), q.one(), q.zero()]])
    a = subspace_algebra(h, s)
    assert a.dim == 2
    assert a.group.order == 1
    x = a.basis_element(1)
    assert x * x == a.element([-2, 0])


def test_tensor_of_coefficients_matches_good_grading_components(f3, f9):
    # extensional comparison: Delta (x) M_2(k)(e,g) and M_2(Delta)(e,g) have
    # homogeneous components of equal dimension in every degree, and both are
    # graded symmetric
    from grasym import decide_form_existence
    c2 = cyclic_group(2)
    d = field_as_algebra(f9, f3)
    delta = crossed_product(CrossedProductSpec(
        d, c2, {0: Matrix.identity(f3, 2), 1: frobenius_matrix(f9, 1)},
        constant_alpha(d, c2)))
    m2_small = good_matrix_algebra(2, [0, 1], field_as_algebra(f3, f3, c2))
    left = tensor_product(delta, m2_small)
    right = good_matrix_algebra(2, [0, 1], delta)
    assert left.dim == right.dim == 16
    for g in range(2):
        assert homogeneous_component(left, g).dim == homogeneous_component(right, g).dim
    assert decide_form_existence(left, "graded-symmetric").is_yes
    assert decide_form_existence(right, "graded-symmetric").is_yes
