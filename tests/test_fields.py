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
    RationalsNotSupported,
    ReducibleModulus,
)
from grasym.fields import _is_prime


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
