"""Exact fields: the rationals, prime fields F_p, and extensions F_{p^n}.

A Field is one of three kinds, told apart by (characteristic, degree): the
rationals (characteristic 0), a prime field (prime characteristic, degree 1),
or an extension field cut out by a monic irreducible modulus polynomial over
the prime field.  Scalar representations are canonical: for the rationals an
int when the value is integral and otherwise a `fractions.Fraction`, whose
denominator is then above 1; a single int in [0, p) for prime fields; and a
coefficient tuple of length `degree` (constant coefficient first) for
extensions.  Scalar equality is representation equality, so scalars key dicts
and sets directly; an int and a Fraction of equal value also compare and hash
equal, and print alike.

Polynomials over F_p appear internally as trimmed int tuples, constant
coefficient first, with () for zero.  No floating point is used anywhere.

Each field carries one arithmetic kernel, `field.ops`, a `RawOps` of its
kind, built once when make_field creates the field.  It holds the raw zero and
one and computes on raw values: from_int, product, sum, difference, inverse,
scale a row, subtract a scaled row, and evaluate linear forms at a point,
which forms a matrix pencil at that point.  Scalar arithmetic and
Field.zero, one and from_int delegate to it, and exact elimination calls it
directly, so a row reduction unwraps its input once and creates no Scalar
per arithmetic step; algebras store their structure constants as raw values
and compute on them through it.  This module is the only one that reads a
Scalar's raw value, apart from two rationals-only reads in `invariants`.
"""

from __future__ import annotations

import itertools
import math
import operator
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

def _is_int(v) -> bool:
    """An int that is not a bool: the only integer the coercions take."""
    return isinstance(v, int) and not isinstance(v, bool)


_FIELD_CACHE: dict = {}


class Field:
    """An exact field; construct through make_field, whose instances are shared,
    so equality is identity."""

    __slots__ = ("char", "degree", "modulus", "ops")

    def __init__(self, char: int, degree: int, modulus):
        self.char = char
        self.degree = degree
        self.modulus = modulus  # int tuple of length degree+1, monic; None otherwise
        kind = _RationalOps if char == 0 else _PrimeOps if degree == 1 else _ExtensionOps
        self.ops = kind(self)  # the field's one arithmetic kernel

    # construction of scalars

    def zero(self) -> "Scalar":
        return Scalar(self, self.ops.zero)

    def one(self) -> "Scalar":
        return Scalar(self, self.ops.one)

    def from_int(self, n: int) -> "Scalar":
        return Scalar(self, self.ops.from_int(n))

    def scalar(self, value) -> "Scalar":
        """Coerce a Scalar, an int, a Fraction or string over Q, or a coefficient
        sequence of ints over F_q.

        Bools and floats raise TypeError, so no value is silently rounded.
        """
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatch(f"scalar from {value.field} used in {self}")
            return value
        return Scalar(self, self.raw_value(value))

    def raw_value(self, value):
        """The raw value of an int, a Fraction or string over Q, or a
        coefficient sequence of ints over F_q, coerced as scalar does."""
        if _is_int(value):
            return self.ops.from_int(value)
        if self.char == 0 and isinstance(value, (Fraction, str)):
            return self.ops.canonical(Fraction(value))
        if self.char != 0 and isinstance(value, (list, tuple)):
            if len(value) > self.degree:
                raise ValueError(f"coefficient list longer than degree {self.degree}")
            if not all(_is_int(c) for c in value):
                raise TypeError(f"{self} coefficients must be ints, not {value!r}")
            return self.ops.from_coefficients(value)
        raise TypeError(f"cannot make a {self} scalar from {value!r}")

    # properties

    @property
    def is_finite(self) -> bool:
        return self.char != 0

    def size(self):
        return None if self.char == 0 else self.char ** self.degree

    def prime_subfield(self) -> "Field":
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
        Coordinate n - 1 is the most significant and element_at(1) is 1, so
        the first member of each line F_q^* v is its multiple whose last
        nonzero coordinate is 1; the division scan tests only those.
        """
        for v in itertools.product(list(self.elements()), repeat=n):
            yield v[::-1]

    def element_at(self, k: int) -> "Scalar":
        return Scalar(self, self.raw_at(k))

    def raw_at(self, k: int):
        """The raw value of element k of a finite field: k mod p over F_p, and
        over F_{p^n} the coefficients of the base-p digits of k, least
        significant first."""
        if self.char == 0:
            raise RationalsNotSupported("the rationals cannot be enumerated")
        if self.degree == 1:
            return k % self.char
        digits = []
        for _ in range(self.degree):
            digits.append(k % self.char)
            k //= self.char
        return tuple(digits)

    def generator(self) -> "Scalar":
        """The residue of x in F_p[x]/(modulus); only for extension fields."""
        if self.degree == 1:
            raise ValueError("prime fields and Q have no distinguished generator")
        return Scalar(self, (0, 1) + (0,) * (self.degree - 2))

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
    gives F_{p^n} after an irreducibility check.  The characteristic and the
    modulus coefficients must be ints; a bool or a float raises TypeError
    before the cache is consulted.  A field built before is returned from the
    cache without being checked again.
    """
    p = characteristic
    if not _is_int(p):
        raise TypeError(f"characteristic must be an int, not {p!r}")
    if p == 0 and modulus is not None:
        raise NonPrimeCharacteristic("the rationals take no modulus")
    if modulus is not None:
        modulus = tuple(modulus)
        if not all(_is_int(c) for c in modulus):
            raise TypeError(f"modulus coefficients must be ints, not {list(modulus)!r}")
    coeffs = None if modulus is None else tuple(c % p for c in modulus)
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


# -- F_{p^n} arithmetic on padded coefficient tuples ------------------------------

def _ext_mul_acc(acc: list, a, b) -> None:
    """acc += a * b, for coefficient sequences and an int list acc, all unreduced."""
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                acc[i + j] += ai * bj


def _ext_reduce(acc: list, f: Field) -> tuple:
    """The padded coefficient tuple of acc (2n - 1 int coefficients) in F_{p^n}.

    The modulus is monic, so c x^k = c x^(k-n) x^n and x^n = -sum_t mod_t x^t
    clear the coefficients from the top down.
    """
    p, n, mod = f.char, f.degree, f.modulus
    for k in range(len(acc) - 1, n - 1, -1):
        c = acc[k] % p
        if c:
            for t in range(n):
                acc[k - n + t] -= c * mod[t]
    return tuple(c % p for c in acc[:n])


def _ext_mul(a, b, f: Field) -> tuple:
    acc = [0] * (2 * f.degree - 1)
    _ext_mul_acc(acc, a, b)
    return _ext_reduce(acc, f)


# -- Scalar ----------------------------------------------------------------------

class Scalar:
    """A field element in canonical form; immutable and hashable.

    Arithmetic and equality combine a Scalar only with Scalars of its field;
    ints enter through Field.scalar and Field.from_int.  The arithmetic is
    that of the field's kernel field.ops on the raw value val.
    """

    __slots__ = ("field", "val")

    def __init__(self, field: Field, val):
        self.field = field
        self.val = val

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is self.field:
                return other
            raise FieldMismatch(f"mixing scalars of {self.field} and {other.field}")
        return None

    @property
    def is_zero(self) -> bool:
        return self.field.ops.is_zero(self.val)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.ops.add(self.val, o.val))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.ops.sub(self.val, o.val))

    def __neg__(self):
        f = self.field
        return Scalar(f, f.ops.sub(f.ops.zero, self.val))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.ops.mul(self.val, o.val))

    def inverse(self) -> "Scalar":
        f = self.field
        if self.is_zero:
            raise DivisionByZero(f"cannot invert zero in {f}")
        return Scalar(f, f.ops.inverse(self.val))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        f = self.field
        return Scalar(f, f.ops.power(self.val, e))

    def __eq__(self, other):
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
        return f.ops.coefficients(self.val)

    def to_json(self):
        """Canonical JSON form: 'n/d' string for Q, int for F_p, int list else."""
        return self.field.ops.to_json(self.val)


# -- raw row operations ------------------------------------------------------------

class _IdentityImage:
    """The integer image of a field whose raw values are ints: each is its own."""

    __slots__ = ()

    def __getitem__(self, v):
        return v


IDENTITY_IMAGE = _IdentityImage()


class RawOps:
    """The arithmetic of one field on raw values: its Scalars and its exact
    elimination both compute here.

    Each field holds exactly one, as field.ops, built with the field.  A raw
    value is what a Scalar of the field holds: an int in [0, p) over F_p; an
    int over Q when integral, else a Fraction; a padded coefficient tuple
    over F_{p^n}.  Raw values are canonical, so v is zero iff v ==
    self.zero; self.one is the raw 1.  is_zero(v) is each kind's fast form
    of that test: an int or a Fraction is zero iff it is falsy.  Over Q,
    canonical(r) is the raw value of an int or a Fraction r; Field.raw_value,
    raw_from_json and the rational roots of the division check build
    through it.  A row is a list of raw values.  Each field kind implements

    - from_int(n): the raw image of the int n;
    - to_json(v): the canonical JSON form of v, which Scalar.to_json and
      specfile.algebra_to_dict write; specfile.algebra_text writes the same
      form as text, formatted by field kind, so a new kind changes both;
    - mul(u, v), add(u, v) and sub(u, v): the product, the sum and u - v;
    - inverse(v): 1/v for nonzero v;
    - scale(row, c): the new row c * row;
    - sub_scaled(row, c, other): the new row row - c * other;
    - forms_at(forms, x): [f . x for f in forms], the values at the point x
      of a row of linear forms given by their coefficient vectors;
    - integer_image(values, terms): the pair (image, vanishes) that lets
      sums of products of the raw values be formed on plain Python ints.
      image maps each raw value in the iterable values to an int; it is
      IDENTITY_IMAGE when every raw value is an int and its own image (F_p),
      and then values is not read.  vanishes(sums) tells whether every int
      in sums, each the difference of two sums of at most terms products
      image[u] * image[v], stands for zero, that is whether the same signed
      sum of the products u v is zero in the field.

    The finite kinds also implement from_coefficients(coeffs), the raw value
    with these int coordinates on 1, x, .., x^(n-1) (padded with zeros),
    and its inverse coefficients(v).  power(v, e) is v^e for e >= 0.

    A sparse row is a dict {column: raw value} that holds no zero value.
    sparse_sub_scaled(row, c, other) makes row - c * other in place, for a
    nonzero c, and drops the entries that cancel; sparse_scale(row, c) is
    the new sparse row c * row.  Both work from mul and sub here, and the
    F_p and Q kinds inline them.
    """

    __slots__ = ("field", "zero", "one")

    def __init__(self, field: Field):
        self.field = field
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

    is_zero = staticmethod(operator.not_)

    def unwrap(self, scalars, what: str = "scalar") -> list:
        """The raw values of a sequence of Scalars of this field.  Anything
        else, a raw value included, raises FieldMismatch naming what."""
        f = self.field
        for x in scalars:
            if not (isinstance(x, Scalar) and x.field is f):
                raise FieldMismatch(f"{what} {x!r} is not a scalar of {f}")
        return [x.val for x in scalars]

    def wrap(self, row) -> tuple:
        f = self.field
        return tuple(Scalar(f, v) for v in row)

    def power(self, v, e: int):
        result, mul = self.one, self.mul
        while e:
            if e & 1:
                result = mul(result, v)
            v = mul(v, v)
            e >>= 1
        return result

    def sparse_scale(self, row, c) -> dict:
        mul = self.mul
        return {k: mul(v, c) for k, v in row.items()}

    def sparse_sub_scaled(self, row, c, other):
        mul, sub, zero, is_zero = self.mul, self.sub, self.zero, self.is_zero
        for k, b in other.items():
            v = sub(row.get(k, zero), mul(c, b))
            if is_zero(v):
                # c b is nonzero, so k was in row
                del row[k]
            else:
                row[k] = v


class _PrimeOps(RawOps):
    __slots__ = ("p",)

    def __init__(self, field: Field):
        self.p = field.char
        super().__init__(field)

    def from_int(self, n):
        return n % self.p

    def from_coefficients(self, coeffs):
        return coeffs[0] % self.p if coeffs else 0

    @staticmethod
    def coefficients(v) -> tuple:
        return (v,)

    to_json = staticmethod(int)

    def mul(self, u, v):
        return u * v % self.p

    def add(self, u, v):
        return (u + v) % self.p

    def sub(self, u, v):
        return (u - v) % self.p

    def inverse(self, v):
        return pow(v, self.p - 2, self.p)

    def scale(self, row, c) -> list:
        p = self.p
        return [x * c % p for x in row]

    def sub_scaled(self, row, c, other) -> list:
        p = self.p
        return [(a - c * b) % p for a, b in zip(row, other)]

    def sparse_scale(self, row, c) -> dict:
        p = self.p
        return {k: v * c % p for k, v in row.items()}

    def sparse_sub_scaled(self, row, c, other):
        p = self.p
        for k, b in other.items():
            v = (row.get(k, 0) - c * b) % p
            if v:
                row[k] = v
            else:
                del row[k]

    def forms_at(self, forms, x) -> list:
        p, mul = self.p, operator.mul
        return [sum(map(mul, f, x)) % p for f in forms]

    def integer_image(self, values, terms):
        """Raw values are ints already, their own images, so values is not
        read; a sum is reduced mod p only when it is tested."""
        p = self.p
        return IDENTITY_IMAGE, lambda sums: not any(map(p.__rmod__, sums))


def _q(r):
    """The canonical raw rational of an int or a Fraction r: an int when r is
    integral, else the Fraction, whose denominator is then above 1."""
    return r if type(r) is int else r.numerator if r.denominator == 1 else r


class _RationalOps(RawOps):
    """Q on canonical raw values: an int when integral, else a Fraction.
    Every result passes through `_q`, since a product, a quotient or a sum
    of Fractions may be integral."""

    __slots__ = ()

    canonical = staticmethod(_q)
    from_int = staticmethod(operator.index)
    to_json = staticmethod(str)

    def mul(self, u, v):
        return _q(u * v)

    def add(self, u, v):
        return _q(u + v)

    def sub(self, u, v):
        return _q(u - v)

    def inverse(self, v):
        return _q(Fraction(v.denominator, v.numerator))

    def power(self, v, e: int):
        return _q(v ** e)

    def scale(self, row, c) -> list:
        return [_q(x * c) if x else x for x in row]

    def sub_scaled(self, row, c, other) -> list:
        return [_q(a - c * b) if b else a for a, b in zip(row, other)]

    def sparse_scale(self, row, c) -> dict:
        return {k: _q(v * c) for k, v in row.items()}

    def sparse_sub_scaled(self, row, c, other):
        for k, b in other.items():
            v = row.get(k, 0) - c * b
            if v:
                row[k] = _q(v)
            else:
                del row[k]

    def forms_at(self, forms, x) -> list:
        return [_q(sum([a * b for a, b in zip(f, x) if a and b])) for f in forms]

    def integer_image(self, values, terms):
        """Each value times the common denominator D of values.  A product
        of two images is D^2 times the product of the values, so a sum of
        such products is zero exactly when the sum of the values' products
        is."""
        values = set(values)
        den = math.lcm(*(v.denominator for v in values))
        return ({v: v.numerator * (den // v.denominator) for v in values},
                lambda sums: not any(sums))


class _ExtensionOps(RawOps):
    __slots__ = ()

    def is_zero(self, v):
        return v == self.zero

    def from_int(self, n):
        f = self.field
        return (n % f.char,) + (0,) * (f.degree - 1)

    def from_coefficients(self, coeffs):
        f = self.field
        return tuple(c % f.char for c in coeffs) + (0,) * (f.degree - len(coeffs))

    @staticmethod
    def coefficients(v) -> tuple:
        return v

    to_json = staticmethod(list)

    def mul(self, u, v):
        return _ext_mul(u, v, self.field)

    def add(self, u, v):
        p = self.field.char
        return tuple((a + b) % p for a, b in zip(u, v))

    def sub(self, u, v):
        p = self.field.char
        return tuple((a - b) % p for a, b in zip(u, v))

    def inverse(self, v):
        f = self.field
        inv = _pinvmod(v, f.modulus, f.char)
        return inv + (0,) * (f.degree - len(inv))

    def scale(self, row, c) -> list:
        f, zero = self.field, self.zero
        return [x if x == zero else _ext_mul(x, c, f) for x in row]

    def sub_scaled(self, row, c, other) -> list:
        f, zero, pad = self.field, self.zero, [0] * (self.field.degree - 1)
        minus_c = [-u for u in c]
        out = []
        for a, b in zip(row, other):
            if b != zero:
                acc = list(a) + pad
                _ext_mul_acc(acc, minus_c, b)
                a = _ext_reduce(acc, f)
            out.append(a)
        return out

    def forms_at(self, forms, x) -> list:
        """Each sum_i f_i x_i is summed unreduced and reduced once."""
        fld, zero, size = self.field, self.zero, 2 * self.field.degree - 1
        out = []
        for f in forms:
            acc = [0] * size
            for a, b in zip(f, x):
                if a != zero and b != zero:
                    _ext_mul_acc(acc, a, b)
            out.append(_ext_reduce(acc, fld))
        return out

    def integer_image(self, values, terms):
        """Coefficient tuples Kronecker-packed into w-bit lanes, one lane per
        power of x.  A product of two images holds the 2n - 1 coefficients
        of the unreduced product polynomial, each at most n (p - 1)^2, so
        the lanes of a difference of two sums of terms products lie strictly
        between -2^(w-1) and 2^(w-1) for w one bit wider than terms n
        (p - 1)^2.  A sum is decoded lane by lane, with signed lanes, and
        reduced mod p and the modulus only when it is tested.
        """
        f, zero = self.field, self.zero
        n = f.degree
        w = (terms * n * (f.char - 1) ** 2).bit_length() + 1
        mask, half = (1 << w) - 1, 1 << (w - 1)

        def vanishes(sums) -> bool:
            for x in sums:
                acc = []
                for _ in range(2 * n - 1):
                    lane = x & mask
                    if lane >= half:
                        lane -= 1 << w
                    acc.append(lane)
                    x = (x - lane) >> w
                if _ext_reduce(acc, f) != zero:
                    return False
            return True

        return {v: sum(c << (w * t) for t, c in enumerate(v)) for v in values}, vanishes


def raw_from_json(field: Field, value):
    """The raw value of the JSON form of a scalar of field; a malformed value
    raises ParseError.  The one decoder of JSON scalars: scalar_from_json
    wraps it, and a raw spec block decodes each distinct constant through it.

    A rational must be a JSON integer or an "n" or "n/d" string, the form
    to_json writes, so a short input never decodes to a huge numerator.  A
    finite-field scalar must be a JSON integer or a list of them; neither
    kind takes a bool or a float.
    """
    try:
        if field.char == 0:
            text = str(value) if type(value) is int else value
            if not (isinstance(text, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text)):
                raise ValueError("not an integer or an 'n/d' string")
            return field.ops.canonical(Fraction(text))
        if not all(type(c) is int for c in (value if isinstance(value, list) else [value])):
            raise ValueError("not an integer or a list of integers")
        return field.raw_value(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"bad {field} scalar {value!r}: {exc}") from exc


def scalar_from_json(field: Field, value) -> Scalar:
    """The Scalar of the JSON form of a scalar, decoded by raw_from_json."""
    return Scalar(field, raw_from_json(field, value))


def frobenius(x: Scalar) -> Scalar:
    """x^p, the Frobenius automorphism of a finite field; fixes the prime field."""
    if x.field.char == 0:
        raise CharacteristicZero("Frobenius needs positive characteristic")
    return x ** x.field.char


# -- extensions and embeddings -----------------------------------------------------

@lru_cache(maxsize=None)
def canonical_extension_field(p: int, n: int) -> Field:
    """F_{p^n} with the first monic irreducible modulus in enumeration order."""
    if p == 0:
        raise RationalsNotSupported("extension fields F_{p^n} need a prime p")
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
    if m < 1:
        raise ValueError(f"extension degree must be at least 1, got {m}")
    if m == 1:
        return field
    return canonical_extension_field(field.char, field.degree * m)


def _poly_value(ops, coeffs, x):
    """sum_i coeffs[i] x^i for int coefficients (constant first), on raw values of ops."""
    acc, power = ops.zero, ops.one
    for c in coeffs:
        if c:
            acc = ops.add(acc, ops.mul(power, ops.from_int(c)))
        power = ops.mul(power, x)
    return acc


@lru_cache(maxsize=None)
def _embedding_generator_image(src: Field, target: Field):
    """First root of src's modulus inside target, in canonical element order,
    as a raw value."""
    ops = target.ops
    for cand in target.elements():
        if ops.is_zero(_poly_value(ops, src.modulus, cand.val)):
            return cand.val
    raise FieldMismatch(f"{src} does not embed into {target}")


def raw_embedding(src: Field, target: Field):
    """The embedding of src into an overfield target on raw values: sum_i c_i
    t^i, for t the generator of src, goes to sum_i c_i y^i, for y the first
    root of src's modulus in target."""
    if src.char != target.char:
        raise FieldMismatch(f"cannot embed {src} into {target}")
    if target.degree % src.degree != 0:
        raise FieldMismatch(f"{src} is not a subfield of {target}")
    if src.degree == 1:
        return target.ops.from_int
    y = _embedding_generator_image(src, target)
    return lambda v: _poly_value(target.ops, src.ops.coefficients(v), y)


def embed_scalar(x: Scalar, target: Field) -> Scalar:
    """Embed x into an overfield of the same characteristic."""
    if x.field is target:
        return x
    return Scalar(target, raw_embedding(x.field, target)(x.val))
