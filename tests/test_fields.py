import itertools
import time
from fractions import Fraction

import pytest

from grasym import canonical_extension_field, embed_scalar, extend_field, frobenius, make_field
from grasym.errors import (
    CharacteristicZero,
    DivisionByZero,
    FieldMismatch,
    NonPrimeCharacteristic,
    ParseError,
    RationalsNotSupported,
    ReducibleModulus,
)
from grasym.fields import (
    RawOps,
    _is_prime,
    _padd,
    _pinvmod,
    _pmod,
    _pmul,
    _psub,
    _ptrim,
    scalar_from_json,
)

from conftest import is_canonical_rational


def test_prime_field_construction(f2):
    assert f2.char == 2 and f2.degree == 1 and f2.size() == 2


def test_extension_field_f9(f9):
    assert f9.size() == 9
    t = f9.generator()
    assert t * t == f9.from_int(-1)


def test_artin_schreier_f27(f27):
    assert f27.size() == 27


def test_non_prime_characteristic_rejected():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4)
    with pytest.raises(NonPrimeCharacteristic):
        make_field(1)


def test_reducible_modulus_names_root():
    # t^2 - 1 = (t-1)(t+1) over F_3
    with pytest.raises(ReducibleModulus, match="root"):
        make_field(3, [-1, 0, 1])


def test_reducible_modulus_names_factor():
    # t^4 + t^2 + 1 = (t^2 + t + 1)^2 over F_2: no roots, but a quadratic factor
    with pytest.raises(ReducibleModulus, match="factor"):
        make_field(2, [1, 0, 1, 0, 1])


def test_cached_field_is_not_retested(monkeypatch, f3, f9):
    import grasym.fields

    def fail(*args):
        raise AssertionError("a cached field was tested again")

    monkeypatch.setattr(grasym.fields, "_is_prime", fail)
    monkeypatch.setattr(grasym.fields, "_check_irreducible", fail)
    assert make_field(3) is f3 and make_field(3, [1, 0, 1]) is f9


def test_each_field_is_one_shared_instance():
    # equality is identity, so equal moduli must give the same object
    assert make_field(3, [4, 0, 1]) is make_field(3, (1, 0, 1)) is canonical_extension_field(3, 2)
    assert extend_field(make_field(2), 2) is make_field(2, [1, 1, 1])
    assert make_field(3) != make_field(3, [1, 0, 1])


def _has_root(modulus, p):
    return any(sum(c * r ** i for i, c in enumerate(modulus)) % p == 0 for r in range(p))


def test_irreducibility_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for p, degrees in ((2, range(2, 9)), (3, range(2, 6)), (5, range(2, 4)), (7, range(2, 4))):
        for n in degrees:
            for tail in itertools.product(range(p), repeat=n):
                modulus = list(tail) + [1]
                irreducible = sympy.Poly(modulus[::-1], x, modulus=p).is_irreducible
                try:
                    make_field(p, modulus)
                except ReducibleModulus as exc:
                    assert not irreducible, (p, modulus)
                    assert ("root" in str(exc)) == _has_root(modulus, p), (p, modulus)
                else:
                    assert irreducible, (p, modulus)


def test_primality_agrees_with_trial_division():
    primes = []  # trial division by the primes found so far
    for n in range(2, 10 ** 5):
        for f in primes:
            if f * f > n:
                primes.append(n)
                break
            if n % f == 0:
                break
        else:
            primes.append(n)
        assert _is_prime(n) == (primes[-1] == n), n
    assert not _is_prime(0) and not _is_prime(1)


@pytest.mark.parametrize("p", [2 ** 61 - 1, 2 ** 64 - 59])
def test_large_prime_characteristic_is_fast(p):
    start = time.perf_counter()
    assert make_field(p).char == p
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("n", [561, 3215031751, 2 ** 61 + 1])
def test_pseudoprimes_rejected(n):
    # a Carmichael number, the least strong pseudoprime to bases 2, 3, 5, 7,
    # and 3 * 768614336404564651
    with pytest.raises(NonPrimeCharacteristic):
        make_field(n)


def test_characteristic_beyond_the_primality_bound_refused():
    with pytest.raises(NonPrimeCharacteristic, match="3317044064679887385961981"):
        make_field(2 ** 89 - 1)


def test_scalar_arithmetic_f4(f4):
    t = f4.generator()
    assert t * t == f4.scalar([1, 1])
    assert t.inverse() == f4.scalar([1, 1])
    assert t * t.inverse() == f4.one()


def test_rational_arithmetic(q):
    a = q.scalar(Fraction(2, 3)) + q.scalar(Fraction(1, 6))
    assert a.val == Fraction(5, 6)
    assert (q.from_int(2) / q.from_int(3)).val == Fraction(2, 3)


def test_division_by_zero(f5, q):
    with pytest.raises(DivisionByZero):
        f5.zero().inverse()
    with pytest.raises(DivisionByZero):
        q.one() / q.zero()


def test_field_mismatch(f2, f3):
    with pytest.raises(FieldMismatch):
        f2.one() + f3.one()


def test_frobenius_on_f27(f27):
    x = f27.generator()
    assert frobenius(x) == x + f27.one()
    assert frobenius(frobenius(x)) == x + f27.from_int(2)


def test_frobenius_fixes_prime_field(f9):
    assert frobenius(f9.one()) == f9.one()
    assert frobenius(f9.from_int(2)) == f9.from_int(2)


def test_frobenius_on_f9(f9):
    t = f9.generator()
    assert frobenius(t) == f9.from_int(2) * t


def test_frobenius_rejects_characteristic_zero(q):
    with pytest.raises(CharacteristicZero):
        frobenius(q.one())


@pytest.mark.parametrize("field_args", [(2, None), (3, None), (5, None),
                                        (2, [1, 1, 1]), (3, [1, 0, 1])])
def test_inverse_law_exhaustive(field_args):
    field = make_field(*field_args)
    for x in field.elements():
        if x.is_zero:
            continue
        assert x * x.inverse() == field.one()


@pytest.mark.parametrize("field_args", [(2, [1, 1, 1]), (3, [1, 0, 1]),
                                        (3, [-1, -1, 0, 1])])
def test_frobenius_is_automorphism(field_args):
    field = make_field(*field_args)
    elems = list(field.elements())
    for x in elems[:9]:
        for y in elems[:9]:
            assert frobenius(x + y) == frobenius(x) + frobenius(y)
            assert frobenius(x * y) == frobenius(x) * frobenius(y)
    for x in elems:
        z = x
        for _ in range(field.degree):
            z = frobenius(z)
        assert z == x


def test_canonical_representation_equality(f9):
    a = f9.scalar([2, 1])
    b = f9.scalar([5, -2])  # reduces to (2, 1)
    assert a == b and hash(a) == hash(b)


def test_canonical_extension_is_deterministic():
    assert canonical_extension_field(2, 2).modulus == (1, 1, 1)
    assert canonical_extension_field(2, 2) is canonical_extension_field(2, 2)


def test_extend_field_and_embedding(f3, f9):
    big = extend_field(f9, 2)
    assert big.degree == 4
    t = f9.generator()
    img = embed_scalar(t, big)
    assert img * img == big.from_int(-1)
    # prime subfield embeds as constants
    assert embed_scalar(f3.from_int(2), big) == big.from_int(2)


def test_embedding_is_multiplicative(f4):
    big = extend_field(f4, 3)
    for x in f4.elements():
        for y in f4.elements():
            assert embed_scalar(x * y, big) == embed_scalar(x, big) * embed_scalar(y, big)
            assert embed_scalar(x + y, big) == embed_scalar(x, big) + embed_scalar(y, big)


def test_serialization_form(q, f2, f9):
    assert q.scalar(Fraction(-5, 6)).to_json() == "-5/6"
    assert f2.one().to_json() == 1
    assert f9.scalar([2, 1]).to_json() == [2, 1]
    assert q.to_dict() == {"char": 0}
    assert f9.to_dict() == {"char": 3, "degree": 2, "modulus": [1, 0, 1]}


@pytest.mark.parametrize("n", [0, 1, 3])
def test_vectors_vary_coordinate_zero_fastest(f3, f4, n):
    for field in (f3, f4):
        q = field.size()
        got = list(field.vectors(n))
        assert len(got) == q ** n
        for k, v in enumerate(got):
            assert v == tuple(field.element_at(k // q ** i % q) for i in range(n))


def test_coefficients(f5, f9, f27, q):
    assert f5.from_int(3).coefficients() == (3,)
    assert f5.zero().coefficients() == (0,)
    assert f9.generator().coefficients() == (0, 1)
    assert f9.scalar([2, 1]).coefficients() == (2, 1)
    assert (f27.generator() ** 2).coefficients() == (0, 0, 1)
    assert (f27.generator() ** 3).coefficients() == (1, 1, 0)  # x^3 = x + 1
    with pytest.raises(RationalsNotSupported):
        q.one().coefficients()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_extension_of_the_rationals_is_refused(n):
    with pytest.raises(RationalsNotSupported):
        canonical_extension_field(0, n)


@pytest.mark.parametrize("value", [True, False, 1.0, [1, True], [2.5], "1"])
def test_finite_field_scalar_must_be_json_integers(value, f5, f9):
    for field in (f5, f9):
        with pytest.raises(ParseError):
            scalar_from_json(field, value)
    assert scalar_from_json(f5, 7) == f5.from_int(2)
    assert scalar_from_json(f9, [1, 2]) == f9.scalar([1, 2])


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_extension_product_matches_polynomial_division(p, n):
    # the top-down reduction of an F_{p^n} product against the remainder of
    # the polynomial product by the modulus, on every pair of elements
    f = canonical_extension_field(p, n)
    elements = list(f.elements())
    for x in elements:
        for y in elements:
            rem = _pmod(_pmul(x.coefficients(), y.coefficients(), p), f.modulus, p)
            assert (x * y).coefficients() == rem + (0,) * (n - len(rem))


@pytest.mark.parametrize("build", [
    lambda: make_field(3, [1, 0.5, 1]),
    lambda: make_field(5.0),
    lambda: make_field(True),
    lambda: make_field(3, [True, 0, 1]),
], ids=["float-modulus", "float-characteristic", "bool-characteristic", "bool-modulus"])
def test_make_field_refuses_bools_and_floats(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("char, modulus, value", [
    (3, [1, 0, 1], [1.5, 2]),
    (3, [1, 0, 1], [True, 2]),
    (5, None, True),
    (5, None, 2.0),
    (0, None, 0.1),
    (0, None, False),
], ids=["float-coefficient", "bool-coefficient", "bool-over-F5", "float-over-F5",
        "float-over-Q", "bool-over-Q"])
def test_field_scalar_refuses_bools_and_floats(char, modulus, value):
    with pytest.raises(TypeError):
        make_field(char, modulus).scalar(value)


def test_field_scalar_still_takes_ints_fractions_strings_and_scalars(q, f5, f9):
    assert q.scalar("3/4") == q.scalar(Fraction(3, 4)) == q.from_int(3) / q.from_int(4)
    assert f5.scalar(7) == f5.scalar([2]) == f5.from_int(2)
    assert f9.scalar([1, 2]) == f9.scalar((1, 2)) == f9.from_int(1) + f9.from_int(2) * f9.generator()
    assert f9.scalar(f9.one()) == f9.one()
    assert make_field(3, (1, 0, 1)) is make_field(3, [1, 0, 1])


# -- Scalar arithmetic against arithmetic that does not go through field.ops ------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_arithmetic_is_int_arithmetic_mod_p(p):
    f = make_field(p)
    for x, y in itertools.product(range(p), repeat=2):
        a, b = f.element_at(x), f.element_at(y)
        assert (a + b).coefficients() == ((x + y) % p,)
        assert (a - b).coefficients() == ((x - y) % p,)
        assert (a * b).coefficients() == (x * y % p,)
    for x in range(p):
        assert (-f.element_at(x)).coefficients() == (-x % p,)
        assert f.from_int(x - 2 * p) == f.element_at(x)
    for x in range(1, p):
        assert f.element_at(x).inverse().coefficients() == (pow(x, -1, p),)
    with pytest.raises(DivisionByZero, match=f"^cannot invert zero in F_{p}$"):
        f.element_at(0).inverse()


def test_rational_arithmetic_is_fraction_arithmetic(q):
    sample = [Fraction(n, d) for n in (-5, -2, 0, 1, 3, 7) for d in (1, 2, 9)]
    for x, y in itertools.product(sample, repeat=2):
        a, b = q.scalar(x), q.scalar(y)
        assert (a + b).to_json() == str(x + y)
        assert (a - b).to_json() == str(x - y)
        assert (a * b).to_json() == str(x * y)
    for x in sample:
        assert (-q.scalar(x)).to_json() == str(-x)
        assert q.from_int(x.numerator).to_json() == str(x.numerator)
        if x:
            assert q.scalar(x).inverse().to_json() == str(1 / x)
    with pytest.raises(DivisionByZero, match="^cannot invert zero in Q$"):
        q.zero().inverse()


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3)],
                         ids=["F4", "F8", "F9", "F27"])
def test_extension_arithmetic_is_polynomial_arithmetic(p, n):
    f = canonical_extension_field(p, n)

    def coeffs(poly):  # a trimmed F_p polynomial as padded coefficients
        return poly + (0,) * (n - len(poly))

    elements = [(x, _ptrim(x.coefficients())) for x in f.elements()]
    for (a, u), (b, v) in itertools.product(elements, repeat=2):
        assert (a + b).coefficients() == coeffs(_padd(u, v, p))
        assert (a - b).coefficients() == coeffs(_psub(u, v, p))
        assert (a * b).coefficients() == coeffs(_pmod(_pmul(u, v, p), f.modulus, p))
    for a, u in elements:
        assert (-a).coefficients() == coeffs(_psub((), u, p))
    for k in range(-2 * p, 2 * p):
        assert f.from_int(k).coefficients() == coeffs((k % p,) if k % p else ())
        if u:
            assert a.inverse().coefficients() == coeffs(_pinvmod(u, f.modulus, p))
    with pytest.raises(DivisionByZero, match=f"^cannot invert zero in F_{p}\\^{n}$"):
        f.zero().inverse()


@pytest.mark.parametrize("char, modulus", [(0, None), (7, None), (3, [1, 0, 1])],
                         ids=["Q", "F7", "F9"])
def test_each_field_holds_one_kernel(char, modulus):
    f = make_field(char, modulus)
    assert isinstance(f.ops, RawOps) and f.ops.field is f
    assert make_field(char, modulus).ops is f.ops
    assert f.zero().val == f.ops.zero and f.one().val == f.ops.one


def test_no_kernel_is_built_once_the_fields_exist(monkeypatch):
    from grasym import (
        HuntParams,
        cyclic_algebra,
        decide_form_existence,
        hunt_counterexample,
        is_graded_division,
        quaternion_algebra,
        rationals,
        scalar_extension,
        sweedler_algebra,
        validate_algebra,
    )
    from grasym.specfile import certificate_to_dict

    algebras = [cyclic_algebra(3), scalar_extension(cyclic_algebra(2), 2),
                sweedler_algebra(make_field(5)), quaternion_algebra(rationals(), -1, -1)]

    def run_pass():
        hunt_counterexample(HuntParams(2, (1, 2), (("cyclic", 2), ("cyclic", 3))))
        for a in algebras:
            validate_algebra(a)
            is_graded_division(a)
            for mode in ("symmetric", "graded-symmetric"):
                verdict = decide_form_existence(a, mode)
                certificate_to_dict(a, verdict)

    run_pass()
    built = []
    init = RawOps.__init__

    def counted(self, field):
        built.append(field)
        init(self, field)

    monkeypatch.setattr(RawOps, "__init__", counted)
    run_pass()
    assert built == []
    new = make_field(99991)  # a new field builds its kernel through the patched init
    assert built == [new]


FIELD_KINDS = [(0, 1), (2, 1), (7, 1), (999983, 1), (2, 2), (2, 3), (3, 2), (3, 3)]


def _kind_field(char, degree):
    return make_field(0) if char == 0 else canonical_extension_field(char, degree)


def _kind_id(kind):
    return repr(_kind_field(*kind))


def _raw_sample(f, rng, count=40) -> list:
    """Raw values of f: zero, one, -1 and random ones, and every element of a
    small finite field."""
    if f.char == 0:
        values = [f.ops.canonical(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                  for _ in range(count)]
    elif f.size() <= 27:
        values = [x.val for x in f.elements()]
    else:
        values = [rng.randrange(f.size()) for _ in range(count)]
    return values + [f.ops.zero, f.ops.one, f.from_int(-1).val]


@pytest.mark.parametrize("kind", FIELD_KINDS, ids=_kind_id)
def test_each_kind_tests_zero_on_its_raw_values(kind):
    import random

    f = _kind_field(*kind)
    ops = f.ops
    for v in _raw_sample(f, random.Random(3)):
        assert ops.is_zero(v) == (v == ops.zero)
        assert f.scalar(v if f.degree == 1 else list(v)).is_zero == (v == ops.zero)
    # the fast zero test keeps every raw value's type
    assert type(ops.zero) is type(ops.one) is type(f.from_int(5).val)
    if f.char == 0:
        # an integral rational is an int, any other a Fraction
        assert type(ops.zero) is int
        for v in _raw_sample(f, random.Random(3)):
            assert is_canonical_rational(v), repr(v)


def _field_sum(ops, plus, minus):
    total = ops.zero
    for u, v in plus:
        total = ops.add(total, ops.mul(u, v))
    for u, v in minus:
        total = ops.sub(total, ops.mul(u, v))
    return total


@pytest.mark.parametrize("kind", FIELD_KINDS, ids=_kind_id)
def test_the_integer_image_decides_signed_sums_of_products(kind):
    # vanishes(plus - minus) must be the field's answer, for sums that cancel
    # as integers, sums that cancel only in the field, and sums that do not
    import random

    f = _kind_field(*kind)
    ops, rng, terms = f.ops, random.Random(11), 6
    values = _raw_sample(f, rng)
    cases = []
    for trial in range(300):
        plus = [(rng.choice(values), rng.choice(values)) for _ in range(rng.randint(0, terms))]
        if trial % 3 == 0:
            minus = [(v, u) for u, v in reversed(plus)]
        elif trial % 3 == 1:
            # one product that the field sum equals
            minus = [(ops.one, _field_sum(ops, plus, []))]
        else:
            minus = [(rng.choice(values), rng.choice(values))
                     for _ in range(rng.randint(0, terms))]
        cases.append((plus, minus))
    image, vanishes = ops.integer_image(
        [x for plus, minus in cases for pair in plus + minus for x in pair], terms)
    expected = [ops.is_zero(_field_sum(ops, plus, minus)) for plus, minus in cases]
    assert 50 < sum(expected) < 300
    for (plus, minus), want in zip(cases, expected):
        x = (sum(image[u] * image[v] for u, v in plus)
             - sum(image[u] * image[v] for u, v in minus))
        assert vanishes([x]) == want, (plus, minus)


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_the_integer_image_holds_full_lanes_at_the_width_boundary(p, n):
    # top = (p - 1, .., p - 1) squares to the largest lane a product holds,
    # n (p - 1)^2, so terms copies of it fill the middle lane to the bound
    # the lane width is cut for; terms runs over the largest and smallest
    # multiples of that bound around each power of two, where the width
    # changes, with both signs
    f = canonical_extension_field(p, n)
    ops = f.ops
    top, bound = (p - 1,) * n, n * (p - 1) ** 2
    assert f.scalar(list(top)) ** 2 != f.zero()
    sizes = set()
    for k in range(1, 12):
        sizes.add(max(1, (2 ** k - 1) // bound))
        sizes.add(-(-2 ** k // bound))
    for terms in sorted(sizes):
        image, vanishes = ops.integer_image([top, ops.one], terms)
        full = terms * image[top] ** 2
        want = terms % p == 0
        assert vanishes([full]) == vanishes([-full]) == want, terms
        one = image[ops.one] ** 2
        mixed = _field_sum(ops, [(top, top)] * terms, [(ops.one, ops.one)] * terms)
        assert vanishes([full - terms * one]) == ops.is_zero(mixed), terms
