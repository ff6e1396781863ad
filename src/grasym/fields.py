"""Exact fields: the rationals, prime fields F_p, and extensions F_{p^n}.

A Field is one of three kinds, told apart by (characteristic, degree): the
rationals (characteristic 0), a prime field (prime characteristic, degree 1),
or an extension field cut out by a monic irreducible modulus polynomial over
the prime field.  Scalar representations are canonical: `fractions.Fraction`
for the rationals, a single int in [0, p) for prime fields, and a coefficient
tuple of length `degree` (constant coefficient first) for extensions.  Scalar
equality is representation equality, so scalars key dicts and sets directly.

Polynomials over F_p appear internally as trimmed int tuples, constant
coefficient first, with () for zero.  No floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache

from .errors import (
    CharacteristicZero,
    DivisionByZero,
    FieldMismatch,
    NonPrimeCharacteristic,
    ParseError,
    RationalsNotSupported,
    ReducibleModulus,
)


# Miller-Rabin with the prime bases 2..41 is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < _MILLER_RABIN_BOUND."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- polynomial arithmetic over F_p (tuples, constant first, trimmed) ----------

def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _ptrim(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n))


def _psub(a, b, p):
    return _padd(a, tuple((-c) % p for c in b), p)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    """Quotient and remainder of a by b over F_p; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and _ptrim(a):
        a = list(_ptrim(a))
        if len(a) < len(b):
            break
        coef = (a[-1] * inv_lead) % p
        deg = len(a) - len(b)
        q[deg] = coef
        for i, bi in enumerate(b):
            a[deg + i] = (a[deg + i] - coef * bi) % p
    return _ptrim(q), _ptrim(a)


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _ppowmod(a, e: int, mod, p):
    result = (1,)
    base = _pmod(a, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _pinvmod(a, mod, p):
    """Inverse of a modulo mod over F_p, or None if gcd(a, mod) != 1."""
    r0, r1 = mod, _pmod(a, mod, p)
    s0, s1 = (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
    if len(r0) != 1:
        return None
    inv_lead = pow(r0[0], p - 2, p)
    return _pmod(tuple((c * inv_lead) % p for c in s0), mod, p)


def _check_irreducible(mod, p):
    """Raise ReducibleModulus if mod (monic, degree n >= 2) factors over F_p.

    A reducible mod has an irreducible factor of degree d <= n/2, and that
    factor divides x^(p^d) - x, whose irreducible factors are exactly those of
    degree dividing d; so gcd(x^(p^i) - x, mod) != 1 for some i <= n/2 iff mod
    is reducible (Ben-Or's form of Rabin's 1980 test).  At i = 1 the gcd is
    the product of the linear factors, so the message then names a root.
    """
    x = (0, 1)
    frob = x
    for i in range(1, (len(mod) - 1) // 2 + 1):
        frob = _ppowmod(frob, p, mod, p)
        g = _pgcd(_psub(frob, x, p), mod, p)
        if len(g) > 1:
            if i == 1:
                raise ReducibleModulus(
                    f"modulus has a root over F_{p}: it shares {list(g)} with x^{p} - x")
            raise ReducibleModulus(
                f"modulus shares factor {list(g)} with x^(p^{i}) - x over F_{p}")


# -- Field ----------------------------------------------------------------------

_FIELD_CACHE: dict = {}


class Field:
    """An exact field; construct through make_field so instances are shared."""

    __slots__ = ("char", "degree", "modulus")

    def __init__(self, char: int, degree: int, modulus):
        self.char = char
        self.degree = degree
        self.modulus = modulus  # int tuple of length degree+1, monic; None otherwise

    # construction of scalars

    def zero(self) -> "Scalar":
        return self.from_int(0)

    def one(self) -> "Scalar":
        return self.from_int(1)

    def from_int(self, n: int) -> "Scalar":
        if self.char == 0:
            return Scalar(self, Fraction(n))
        if self.degree == 1:
            return Scalar(self, n % self.char)
        return Scalar(self, (n % self.char,) + (0,) * (self.degree - 1))

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, coefficient sequence, or Scalar."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"scalar from {value.field} used in {self}")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if self.char == 0:
            return Scalar(self, Fraction(value))
        if isinstance(value, (list, tuple)):
            if len(value) > self.degree:
                raise ValueError(f"coefficient list longer than degree {self.degree}")
            coeffs = tuple(int(c) % self.char for c in value)
            coeffs = coeffs + (0,) * (self.degree - len(coeffs))
            if self.degree == 1:
                return Scalar(self, coeffs[0])
            return Scalar(self, coeffs)
        raise TypeError(f"cannot make a {self} scalar from {value!r}")

    # properties

    @property
    def is_finite(self) -> bool:
        return self.char != 0

    def size(self):
        return None if self.char == 0 else self.char ** self.degree

    def prime_subfield(self) -> "Field":
        if self.char == 0:
            return self
        return make_field(self.char)

    def elements(self):
        """All elements, in the canonical order used by deterministic searches."""
        if self.char == 0:
            raise RationalsNotSupported("the rationals cannot be enumerated")
        for k in range(self.size()):
            yield self.element_at(k)

    def vectors(self, n: int):
        """Every length-n vector over a finite field, coordinate 0 varying fastest.

        Vector k has coordinate i equal to element_at(k // q**i % q), so the
        zero vector comes first; searches that walk F_q^n use this one order.
        """
        for v in itertools.product(list(self.elements()), repeat=n):
            yield v[::-1]

    def element_at(self, k: int) -> "Scalar":
        if self.char == 0:
            raise RationalsNotSupported("the rationals cannot be enumerated")
        if self.degree == 1:
            return Scalar(self, k % self.char)
        digits = []
        for _ in range(self.degree):
            digits.append(k % self.char)
            k //= self.char
        return Scalar(self, tuple(digits))

    def generator(self) -> "Scalar":
        """The residue of x in F_p[x]/(modulus); only for extension fields."""
        if self.degree == 1:
            raise ValueError("prime fields and Q have no distinguished generator")
        return Scalar(self, (0, 1) + (0,) * (self.degree - 2))

    def __eq__(self, other):
        return (isinstance(other, Field)
                and self.char == other.char
                and self.degree == other.degree
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.char, self.degree, self.modulus))

    def __repr__(self):
        if self.char == 0:
            return "Q"
        if self.degree == 1:
            return f"F_{self.char}"
        return f"F_{self.char}^{self.degree}"

    def to_dict(self) -> dict:
        if self.char == 0:
            return {"char": 0}
        d = {"char": self.char, "degree": self.degree}
        if self.modulus is not None:
            d["modulus"] = list(self.modulus)
        return d


def make_field(characteristic: int, modulus=None) -> Field:
    """Build and validate a field descriptor.

    characteristic 0 gives the rationals (modulus must be absent); a prime p
    with no modulus gives F_p; a prime with a monic modulus of degree n >= 2
    gives F_{p^n} after an irreducibility check.  A field built before is
    returned from the cache without being checked again.
    """
    p = characteristic
    if p == 0 and modulus is not None:
        raise NonPrimeCharacteristic("the rationals take no modulus")
    coeffs = None if modulus is None else tuple(int(c) % p for c in modulus)
    key = (p, 1 if coeffs is None else len(coeffs) - 1, coeffs)
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    if p >= _MILLER_RABIN_BOUND:
        raise NonPrimeCharacteristic(
            f"characteristic {p} is beyond the primality bound {_MILLER_RABIN_BOUND}")
    if p != 0 and not _is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not 0 or prime")
    if coeffs is not None:
        if len(coeffs) < 3:
            raise ReducibleModulus(
                "modulus must have degree >= 2; use a plain prime field instead")
        if coeffs[-1] != 1:
            raise ReducibleModulus("modulus must be monic")
        _check_irreducible(coeffs, p)
    _FIELD_CACHE[key] = Field(*key)
    return _FIELD_CACHE[key]


def rationals() -> Field:
    return make_field(0)


# -- Scalar ----------------------------------------------------------------------

class Scalar:
    """A field element in canonical form; immutable and hashable."""

    __slots__ = ("field", "val")

    def __init__(self, field: Field, val):
        self.field = field
        self.val = val

    def _coerce(self, other):
        if isinstance(other, Scalar):
            f = self.field
            if other.field is f or other.field == f:
                return other
            raise FieldMismatch(f"mixing scalars of {self.field} and {other.field}")
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    @property
    def is_zero(self) -> bool:
        if self.field.degree == 1:
            return self.val == 0
        return not any(self.val)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        if f.char == 0:
            return Scalar(f, self.val + o.val)
        if f.degree == 1:
            return Scalar(f, (self.val + o.val) % f.char)
        return Scalar(f, tuple((a + b) % f.char for a, b in zip(self.val, o.val)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        f = self.field
        if f.char == 0:
            return Scalar(f, -self.val)
        if f.degree == 1:
            return Scalar(f, (-self.val) % f.char)
        return Scalar(f, tuple((-a) % f.char for a in self.val))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        if f.char == 0:
            return Scalar(f, self.val * o.val)
        if f.degree == 1:
            return Scalar(f, (self.val * o.val) % f.char)
        prod = _pmod(_pmul(self.val, o.val, f.char), f.modulus, f.char)
        return Scalar(f, prod + (0,) * (f.degree - len(prod)))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        f = self.field
        if self.is_zero:
            raise DivisionByZero(f"cannot invert zero in {f}")
        if f.char == 0:
            return Scalar(f, 1 / self.val)
        if f.degree == 1:
            return Scalar(f, pow(self.val, f.char - 2, f.char))
        inv = _pinvmod(self.val, f.modulus, f.char)
        return Scalar(f, inv + (0,) * (f.degree - len(inv)))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (isinstance(other, Scalar)
                and self.field == other.field
                and self.val == other.val)

    def __hash__(self):
        return hash((self.field, self.val))

    def __repr__(self):
        if self.field.degree == 1:
            return str(self.val)
        return "(" + ",".join(str(c) for c in self.val) + ")"

    def coefficients(self) -> tuple:
        """Prime-field coordinates as ints on the basis 1, x, .., x^(n-1).

        A 1-tuple over F_p.  Other modules read finite-field coordinates only
        through this, so the representation stays private to this module.  The
        rationals have no such coordinates.
        """
        f = self.field
        if f.char == 0:
            raise RationalsNotSupported("rational scalars have no prime-field coordinates")
        return (self.val,) if f.degree == 1 else self.val

    def to_json(self):
        """Canonical JSON form: 'n/d' string for Q, int for F_p, int list else."""
        if self.field.char == 0:
            return str(self.val)
        if self.field.degree == 1:
            return self.val
        return list(self.val)


def scalar_from_json(field: Field, value) -> Scalar:
    """Decode the JSON form of a scalar; a malformed value raises ParseError.

    A rational must be a JSON integer or an "n" or "n/d" string, the form
    to_json writes, so a short input never decodes to a huge numerator.
    """
    try:
        if field.char == 0:
            text = str(value) if type(value) is int else value
            if not (isinstance(text, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text)):
                raise ValueError("not an integer or an 'n/d' string")
            return Scalar(field, Fraction(text))
        return field.scalar(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"bad {field} scalar {value!r}: {exc}") from exc


def frobenius(x: Scalar) -> Scalar:
    """x^p, the Frobenius automorphism of a finite field; fixes the prime field."""
    if x.field.char == 0:
        raise CharacteristicZero("Frobenius needs positive characteristic")
    return x ** x.field.char


# -- extensions and embeddings -----------------------------------------------------

@lru_cache(maxsize=None)
def canonical_extension_field(p: int, n: int) -> Field:
    """F_{p^n} with the first monic irreducible modulus in enumeration order."""
    if n == 1:
        return make_field(p)
    for k in range(p ** n):
        try:
            return make_field(p, [k // p ** i % p for i in range(n)] + [1])
        except ReducibleModulus:
            continue
    raise ReducibleModulus(f"no irreducible polynomial of degree {n} over F_{p}")


def extend_field(field: Field, m: int) -> Field:
    """The canonical degree-m extension of a finite field."""
    if field.char == 0:
        raise RationalsNotSupported("scalar extension needs a finite base field")
    if m == 1:
        return field
    return canonical_extension_field(field.char, field.degree * m)


def _poly_value(coeffs, x: Scalar) -> Scalar:
    """sum_i coeffs[i] x^i for int coefficients (constant first), in x's field."""
    f = x.field
    acc = f.zero()
    power = f.one()
    for c in coeffs:
        if c:
            acc = acc + power * f.from_int(c)
        power = power * x
    return acc


@lru_cache(maxsize=None)
def _embedding_generator_image(src: Field, target: Field) -> Scalar:
    """First root of src's modulus inside target, in canonical element order."""
    for cand in target.elements():
        if _poly_value(src.modulus, cand).is_zero:
            return cand
    raise FieldMismatch(f"{src} does not embed into {target}")


def embed_scalar(x: Scalar, target: Field) -> Scalar:
    """Embed x into an overfield of the same characteristic."""
    src = x.field
    if src == target:
        return x
    if src.char != target.char:
        raise FieldMismatch(f"cannot embed {src} into {target}")
    if src.char == 0:
        return x
    if target.degree % src.degree != 0:
        raise FieldMismatch(f"{src} is not a subfield of {target}")
    if src.degree == 1:
        return target.from_int(x.coefficients()[0])
    return _poly_value(x.coefficients(), _embedding_generator_image(src, target))
