"""Group-graded algebras from structure constants, and every construction used.

A GradedAlgebra is a finite-dimensional associative unital algebra over an
exact field, with a basis whose vectors carry degrees in a finite group and
sparse structure constants e_i e_j = sum_k c_{ij}^k e_k.  It stores them once,
as raw values of the field (field.ops), in the stored form: a.table[i][j] is
the tuple of the (k, c_{ij}^k) pairs, sorted by k and without zeros, and the
unit its raw coordinates.  Builders write that form and kernels read it as it
is; only the public constructor (input from outside) sorts, filters and
unwraps.  An inverse is one raw solve of L_x y = 1.  Each constructor returns a
valid algebra from valid inputs, for the reason its docstring gives, without
scanning it.  validate_algebra checks unit laws, the grading law (c_{ij}^k
nonzero forces deg k = deg i * deg j), homogeneity of the unit, and
associativity; it runs on raw spec-file blocks.  Associativity is decided by
Light's test: the middle nucleus N = {a : (xa)y = x(ay) for all x, y} is a
subalgebra, since for a, b in N, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) =
x((ab)y), and it holds 1 once the unit law does, so A is associative as soon
as a generating set S lies in N.  That takes dim^2 |S| identities instead of
dim^3, checked for each s in S and each basis index i at once over all l,
as sums of table rows on plain Python ints (the field's integer_image).  A
table that fails any check gets the report of the full scan, which lists
every violation.

Crossed products are built from a coefficient algebra D, an action map sigma
and a twisting map alpha.  Their compatibility, sigma's automorphism laws
included, is decided in D by the crossed-product identities before any
structure constant of the product is built, and incompatible data is reported
with the law that fails and where.  The laws, the normalization of alpha,
the product's table and normalize_section run on raw values.
Every crossed product of a finite field by Frobenius powers with a unit twist
(the cyclic algebras, the replication corpus, spec-file constructor blocks and
hunt candidates) is built by the one builder frobenius_crossed_product.  It
decides the laws as congruences on the Frobenius exponents and a few products
in the field, and builds the table only for data that passes.  The coefficient
field as an algebra, its Frobenius matrices and the products x^i Frob^k(x^j)
are built once per field, and each table is put together from those products.
frobenius_crossed_spec gives the same data as a CrossedProductSpec, for the
general path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .errors import (
    AmbientMismatch,
    CharacteristicTwo,
    DimensionTooLarge,
    DivisionByZero,
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
from .fields import Field, Scalar, extend_field, make_field, raw_embedding
from .groups import GroupTable, cyclic_group, klein_group, trivial_group
from .linalg import Matrix, SparseEchelon, Subspace, eliminate_raw

MAX_ALGEBRA_DIM = 64


class GradedAlgebra:
    """A finite-dimensional graded algebra held by structure constants.

    They are stored once, as raw values of the field, in the stored form:
    table[i][j] is the tuple of the (k, c_ij^k) pairs of e_i e_j, sorted by
    k, with k < dim and no zero c, and unit the tuple of the raw coordinates
    of 1.  Builders write their rows in it and hand them to _from_raw; only
    the public constructor, where constants enter from outside, converts.

    An instance is taken to be valid (associative, unital, graded), and
    nothing downstream checks it again; the constructor checks shapes only.
    One built by hand from structure constants should pass validate_algebra.
    """

    __slots__ = ("field", "group", "dim", "degree", "table", "unit", "labels")

    def __init__(self, field: Field, group: GroupTable, degree, sc, unit,
                 labels=None):
        """sc gives the terms (k, c_ij^k) of each e_i e_j by (i, j), in any order and zeros
        allowed; constants and unit entries are Scalars of field.  The degrees are checked
        before any constant, so an oversized dim allocates no table."""
        degree = _checked_degrees(group, degree)
        d, is_zero = len(degree), field.ops.is_zero
        table = [[None] * d for _ in range(d)]
        for (i, j), terms in (sc.items() if isinstance(sc, dict) else sc):
            if not (0 <= i < d and 0 <= j < d):
                raise IndexOutOfRange(f"structure constant at ({i},{j}) out of range 0..{d - 1}")
            if table[i][j] is not None:
                raise ValueError(f"structure constants at ({i},{j}) given twice")
            out = {}
            for k, c in (terms.items() if isinstance(terms, dict) else terms):
                if not 0 <= k < d:
                    raise IndexOutOfRange(
                        f"structure constant ({i},{j},{k}) out of range 0..{d - 1}")
                if k in out:
                    raise ValueError(f"structure constant ({i},{j},{k}) given twice")
                out[k] = c
            values = field.ops.unwrap(out.values(), "structure constant")
            table[i][j] = tuple([(k, c) for k, c in sorted(zip(out, values)) if not is_zero(c)])
        self._store(field, group, degree, [[t or () for t in row] for row in table], unit, labels)
        self.unit = tuple(field.ops.unwrap(self.unit, "unit vector entry"))

    @classmethod
    def _from_raw(cls, field: Field, group: GroupTable, degree, table, unit,
                  labels=None) -> "GradedAlgebra":
        """The algebra of a table in the stored form, whose rows may be lists,
        and the raw coordinates of its unit; only shapes are checked."""
        a = cls.__new__(cls)
        a._store(field, group, _checked_degrees(group, degree), table, unit, labels)
        return a

    def _store(self, field, group, degree, table, unit, labels):
        self.field = field
        self.group = group
        self.degree = degree
        d = self.dim = len(degree)
        self.table = tuple(map(tuple, table))
        self.unit = tuple(unit)
        if len(self.unit) != d:
            raise ValueError("unit vector has wrong length")
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != d:
            raise ValueError("label list has wrong length")

    # -- elements ---------------------------------------------------------------

    def element(self, coords) -> "Element":
        coords = tuple(self.field.scalar(c) for c in coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate vector has wrong length")
        return Element(self, coords)

    def basis_element(self, i: int) -> "Element":
        z = self.field.zero()
        coords = [z] * self.dim
        coords[i] = self.field.one()
        return Element(self, tuple(coords))

    def zero(self) -> "Element":
        return Element(self, (self.field.zero(),) * self.dim)

    def one(self) -> "Element":
        return Element(self, self.field.ops.wrap(self.unit))

    def mul_coords(self, x, y) -> list:
        """The coordinates of x y, for coordinate vectors of Scalars, as L_x y."""
        ops = self.field.ops
        return list(ops.wrap(ops.forms_at(_left_rows(self, ops.unwrap(x)), ops.unwrap(y))))

    def left_mult_matrix(self, x: "Element") -> Matrix:
        ops = self.field.ops
        rows = _left_rows(self, ops.unwrap(x.coords))
        return Matrix(self.field, [ops.wrap(row) for row in rows])

    def component_indices(self, g: int) -> tuple:
        return tuple(i for i, d in enumerate(self.degree) if d == g)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else f"b{i}"

    def __eq__(self, other):
        return (isinstance(other, GradedAlgebra)
                and self.field == other.field
                and self.group == other.group
                and self.degree == other.degree
                and self.table == other.table
                and self.unit == other.unit
                and self.labels == other.labels)

    def __repr__(self):
        return f"GradedAlgebra(dim={self.dim}, field={self.field}, group={self.group})"


def _checked_degrees(group: GroupTable, degree) -> tuple:
    """The degrees as a tuple, once there are 1..MAX_ALGEBRA_DIM of them, each in group."""
    degree = tuple(degree)
    if not degree:
        raise ValueError("zero-dimensional algebras are not allowed")
    if len(degree) > MAX_ALGEBRA_DIM:
        raise DimensionTooLarge(f"dimension {len(degree)} exceeds {MAX_ALGEBRA_DIM}")
    for g in degree:
        group._check(g)
    return degree


def _left_rows(a: GradedAlgebra, x) -> list:
    """The rows of L_x : y -> x y, whose column j is x e_j, on raw values,
    for the raw coordinates x of an element of a."""
    ops = a.field.ops
    rows = [[ops.zero] * a.dim for _ in range(a.dim)]
    for i, u in enumerate(x):
        if not ops.is_zero(u):
            for j, terms in enumerate(a.table[i]):
                for k, c in terms:
                    rows[k][j] = ops.add(rows[k][j], ops.mul(u, c))
    return rows


def _solve_raw(ops, rows, b) -> tuple | None:
    """One solution y of M y = b, or None, for raw rows M and a raw b, by
    eliminate_raw on [M | b].  With M = L_x and b = 1 it is x^-1: a right
    inverse in a finite-dimensional algebra is two-sided."""
    n = len(rows[0])
    m = [list(row) + [v] for row, v in zip(rows, b)]
    pivots = eliminate_raw(ops, m, n + 1)
    if n in pivots:
        return None
    value = dict(zip(pivots, (row[n] for row in m)))
    return tuple(value.get(c, ops.zero) for c in range(n))


class Element:
    """An algebra element: a coordinate vector tied to its owner."""

    __slots__ = ("owner", "coords")

    def __init__(self, owner: GradedAlgebra, coords):
        self.owner = owner
        self.coords = tuple(coords)

    def _require_same(self, other):
        if not (self.owner is other.owner or self.owner == other.owner):
            raise OwnerMismatch("elements belong to different algebras")

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coords)

    def __add__(self, other: "Element") -> "Element":
        self._require_same(other)
        return Element(self.owner, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        self._require_same(other)
        return Element(self.owner, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(self.owner, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._require_same(other)
            return Element(self.owner, tuple(self.owner.mul_coords(self.coords, other.coords)))
        if isinstance(other, (Scalar, int)):
            s = self.owner.field.scalar(other)
            return Element(self.owner, tuple(c * s for c in self.coords))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            s = self.owner.field.scalar(other)
            return Element(self.owner, tuple(s * c for c in self.coords))
        return NotImplemented

    def __pow__(self, e: int) -> "Element":
        if e < 0:
            inv = self.inverse()
            if inv is None:
                raise DivisionByZero("element is not invertible")
            return inv ** (-e)
        result = self.owner.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "Element | None":
        """Two-sided inverse, or None; x is invertible iff L_x is nonsingular."""
        a, ops = self.owner, self.owner.field.ops
        y = _solve_raw(ops, _left_rows(a, ops.unwrap(self.coords)), a.unit)
        return None if y is None else Element(a, ops.wrap(y))

    def homogeneous_degree(self) -> int | None:
        """The common degree of the nonzero coordinates, or None if mixed/zero."""
        degs = {self.owner.degree[i] for i, c in enumerate(self.coords) if not c.is_zero}
        if len(degs) == 1:
            return degs.pop()
        return None

    def component(self, g: int) -> "Element":
        z = self.owner.field.zero()
        return Element(self.owner, tuple(c if self.owner.degree[i] == g else z
                                         for i, c in enumerate(self.coords)))

    def __eq__(self, other):
        return (isinstance(other, Element) and self.owner == other.owner
                and self.coords == other.coords)

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coords):
            if not c.is_zero:
                parts.append(f"{c!r}*{self.owner.label(i)}")
        return " + ".join(parts) if parts else "0"


# -- validation ------------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    unit_errors: list = dc_field(default_factory=list)
    grading_errors: list = dc_field(default_factory=list)
    associativity_errors: list = dc_field(default_factory=list)

    def __str__(self):
        if self.ok:
            return "valid"
        lines = []
        if self.unit_errors:
            lines.append("unit law fails at basis indices " + str(self.unit_errors[:10]))
        if self.grading_errors:
            lines.append("grading law fails at (i,j,k) " + str(self.grading_errors[:10]))
        if self.associativity_errors:
            lines.append("associativity fails at (i,j,l) " + str(self.associativity_errors[:10]))
        return "; ".join(lines)


def validate_algebra(a: GradedAlgebra) -> ValidationReport:
    """Check unit, grading, unit homogeneity, and associativity.

    Associativity is decided by Light's test (Clifford and Preston, The
    Algebraic Theory of Semigroups I, 1961, section 1.2) on a generating set,
    in dim^2 |S| basis triples rather than dim^3.  The middle nucleus
    N = {a : (xa)y = x(ay) for all x, y} is a subalgebra: for a, b in N,
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  Once the unit law
    holds, 1 is in N.  So if a set S of basis vectors lies in N and its left
    words s_1(s_2(..(s_k 1))) span A, then N = A and A is associative.
    _left_word_generators picks S greedily, and the check
    (e_i s) e_l = e_i (s e_l) for every s in S and all i, l puts S in N.
    For each s and i the check compares both sides for every l at once, as
    two sums of table rows, so it builds 2 dim |S| maps, not 2 dim^2 |S|
    products.  The unit laws are two such maps.  The sums are formed on the
    plain Python ints of a.field.ops.integer_image: raw values over F_p,
    reduced mod p only when an entry is tested; every constant times a
    common denominator over Q; coefficient tuples packed into lanes of one
    int over F_{p^n}.

    A table that fails any check, unit, grading or nucleus, gets its report
    from the full scan _scan_algebra, so the report lists every violating
    triple.  The program validates only where structure constants enter from
    outside, in specfile._raw_algebra_from_dict.
    """
    if _passes_light_test(a):
        return ValidationReport(ok=True)
    return _scan_algebra(a)


def sparse_combination(ops, coeffs, vectors) -> dict:
    """sum_k c vectors[k] over the (k, c) pairs of coeffs, on raw values.

    Each vectors[k] is a sequence of (index, raw value) pairs, and the result
    maps each index to its nonzero raw value.  With vectors the row s of a
    table it is the product e_s x, for x given by coeffs; with vectors its
    column l, it is x e_l.
    """
    mul, add, is_zero = ops.mul, ops.add, ops.is_zero
    out: dict = {}
    for k, c in coeffs:
        for m, v in vectors[k]:
            prev = out.get(m)
            out[m] = mul(c, v) if prev is None else add(prev, mul(c, v))
    return {m: v for m, v in out.items() if not is_zero(v)}


def _left_word_generators(ops, rows, unit) -> list:
    """Basis indices S whose left words s_1(s_2(..(s_k 1))) span A, for a
    nonzero raw unit vector.

    The first basis vector outside the span of the left words so far joins
    S, and the span is closed under left multiplication by S before the next
    one is looked for.  No associativity is needed: the words lie in every
    subalgebra that holds S and 1.  The span is a linalg.SparseEchelon, whose
    rows stay fully reduced, so e_b lies in it exactly when its row at pivot
    b is e_b itself.  Each word that enlarges the span is queued as it was
    computed, a copy, since the echelon reduces its rows in place.
    """
    span = SparseEchelon(ops, len(rows))
    span.add({k: c for k, c in enumerate(unit) if not ops.is_zero(c)})
    gens, one = [], ops.one
    for b in range(len(rows)):
        if span.full:
            break
        if span.rows.get(b) == {b: one}:
            continue
        gens.append(b)
        # every (generator, spanning word) pair is multiplied once
        todo = [(b, dict(row)) for row in span.rows.values()]
        while todo:
            s, w = todo.pop()
            product = sparse_combination(ops, w.items(), rows[s])
            if span.add(dict(product)):
                todo.extend((t, product) for t in gens)
    return gens


def _accumulate(acc: dict, coeffs, vectors) -> None:
    """acc[key + shift] += c v for each (k, c, shift) in coeffs and each
    (key, v) in vectors[k], on ints; a missing key counts as 0."""
    get = acc.get
    for k, c, shift in coeffs:
        for key, v in vectors[k]:
            key += shift
            acc[key] = get(key, 0) + c * v


def _passes_light_test(a: GradedAlgebra) -> bool:
    """Whether the unit is homogeneous of degree e and a two-sided unit, every
    structure constant respects the grading, and the generators of
    _left_word_generators lie in the middle nucleus.

    The unit laws and the nucleus check run on the ints of
    ops.integer_image, and each compares whole maps keyed by l d + m, the
    coefficient of e_m in a product with e_l: the unit laws compare
    sum_k u_k (row k of the table) and sum_k u_k (column k) with the
    identity, and the check for a generator s and a basis index i compares
    (e_i s) e_l = sum_k c_is^k (row k)_l with
    e_i (s e_l) = sum_m' c_sl^m' e_i e_m' for every l at once.  Each map
    holds the difference of the two sides, so it vanishes exactly when they
    agree.
    """
    ops = a.field.ops
    d, e, rows = a.dim, a.group.identity, a.table
    unit_terms = [(k, c) for k, c in enumerate(a.unit) if not ops.is_zero(c)]
    if any(a.degree[k] != e for k, _ in unit_terms):
        return False
    # every sum below has at most d products on each side
    image, vanishes = ops.integer_image(
        [ops.one, *a.unit, *(c for row in rows for terms in row for _, c in terms)], d)
    table = [[tuple((k, image[c]) for k, c in terms) for terms in row] for row in rows]
    by_row = [[(l * d + m, v) for l, terms in enumerate(row) for m, v in terms]
              for row in table]
    products = [terms for row in table for terms in row]  # e_i e_k at i d + k
    unit_coeffs = [(k, image[c]) for k, c in unit_terms]
    one = image[ops.one] ** 2
    for coeffs, vectors in (([(k, u, 0) for k, u in unit_coeffs], by_row),  # 1 e_l = e_l
                            ([(i * d + k, u, i * d) for i in range(d)  # e_i 1 = e_i
                              for k, u in unit_coeffs], products)):
        acc = {i * (d + 1): -one for i in range(d)}
        _accumulate(acc, coeffs, vectors)
        if not vanishes(acc.values()):
            return False
    for i, row in enumerate(rows):
        for j, terms in enumerate(row):
            if terms and any(a.degree[k] != a.group.mul(a.degree[i], a.degree[j])
                             for k, _ in terms):
                return False
    for s in _left_word_generators(ops, rows, a.unit):
        minus_s_row = [(m, -v, l * d) for l, terms in enumerate(table[s]) for m, v in terms]
        for i in range(d):
            acc = {}
            _accumulate(acc, [(k, v, 0) for k, v in table[i][s]], by_row)
            _accumulate(acc, minus_s_row, table[i])
            if not vanishes(acc.values()):
                return False
    return True


def _scan_algebra(a: GradedAlgebra) -> ValidationReport:
    """Check unit, grading, unit homogeneity, and associativity at all dim^3
    basis triples, on raw values, listing every violation.

    validate_algebra reports through this scan whenever a table fails one of
    its checks, and tests keep it as the oracle of validate_algebra.
    """
    report = ValidationReport(ok=True)
    ops = a.field.ops
    d, e, rows = a.dim, a.group.identity, a.table
    cols = [[row[l] for row in rows] for l in range(d)]
    unit_terms = [(k, c) for k, c in enumerate(a.unit) if not ops.is_zero(c)]
    report.unit_errors = [k for k, _ in unit_terms if a.degree[k] != e]
    for i in range(d):
        # 1 e_i and e_i 1 against e_i
        if not (sparse_combination(ops, unit_terms, cols[i]) == {i: ops.one}
                == sparse_combination(ops, unit_terms, rows[i])):
            report.unit_errors.append(i)
    for i, row in enumerate(rows):
        for j, terms in enumerate(row):
            want = a.group.mul(a.degree[i], a.degree[j])
            for k, c in terms:
                if a.degree[k] != want:
                    report.grading_errors.append((i, j, k))
    for i in range(d):
        for j in range(d):
            for l in range(d):
                # (e_i e_j) e_l against e_i (e_j e_l)
                if (sparse_combination(ops, rows[i][j], cols[l])
                        != sparse_combination(ops, rows[j][l], rows[i])):
                    report.associativity_errors.append((i, j, l))
    report.ok = not (report.unit_errors or report.grading_errors
                     or report.associativity_errors)
    return report


# -- basic constructors -----------------------------------------------------------

def group_algebra(field: Field, group: GroupTable) -> GradedAlgebra:
    """The group algebra with its natural grading: basis = group elements.

    Associativity comes from the group table, which GroupTable validated.
    """
    one = field.ops.one
    table = [[((gh, one),) for gh in row] for row in group.table]
    unit = [field.ops.zero] * group.order
    unit[group.identity] = one
    labels = [group.label(g) for g in range(group.order)]
    return GradedAlgebra._from_raw(field, group, range(group.order), table, unit, labels=labels)


def field_as_algebra(ext: Field, base: Field, group: GroupTable | None = None) -> GradedAlgebra:
    """A field K as an algebra over its prime subfield (or over itself).

    The basis is 1, x, .., x^(n-1) for the residue x of the modulus variable;
    grading is trivial over the given group.  A field is associative.
    """
    if group is None:
        group = trivial_group()
    ops = base.ops
    if ext == base:
        return GradedAlgebra._from_raw(base, group, [group.identity], [[((0, ops.one),)]],
                                       [ops.one], labels=["1"])
    if base != ext.prime_subfield():
        raise FieldMismatch("coefficient field must be the prime subfield")
    n = ext.degree
    powers = [ext.generator() ** t for t in range(2 * n - 1)]
    # the coefficients are raw values of F_p, and the zeros are left out
    table = [[tuple([(k, c) for k, c in enumerate(powers[i + j].coefficients()) if c])
              for j in range(n)] for i in range(n)]
    unit = [ops.one] + [ops.zero] * (n - 1)
    labels = ["1"] + [f"x{i if i > 1 else ''}" for i in range(1, n)]
    return GradedAlgebra._from_raw(base, group, [group.identity] * n, table, unit, labels=labels)


def frobenius_matrix(ext: Field, power: int) -> Matrix:
    """Matrix of y -> y^(p^power) on the basis 1, x, .., x^(n-1) of ext over F_p.

    The power is taken mod n, the order of the Frobenius automorphism, a
    ring automorphism: x^i maps to y^i for y the image of x.
    """
    base = ext.prime_subfield()
    n = ext.degree
    y = ext.generator() ** (ext.char ** (power % n))
    img = ext.one()
    cols = []
    for _ in range(n):
        cols.append([base.from_int(c) for c in img.coefficients()])
        img = img * y
    return Matrix(base, [[cols[j][i] for j in range(n)] for i in range(n)])


def quaternion_algebra(field: Field, a, b) -> GradedAlgebra:
    """Basis 1, i, j, k with i^2 = a, j^2 = b, ij = k = -ji; Klein-graded.

    The quaternion algebra (a, b) is associative.
    """
    if field.char == 2:
        raise CharacteristicTwo("quaternion algebras need characteristic != 2")
    a = field.scalar(a)
    b = field.scalar(b)
    if a.is_zero or b.is_zero:
        raise ZeroParameter("quaternion parameters must be nonzero")
    one = field.one()
    g = klein_group()
    sc = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (2, 0): {2: one}, (3, 0): {3: one},
        (1, 1): {0: a}, (1, 2): {3: one}, (1, 3): {2: a},
        (2, 1): {3: -one}, (2, 2): {0: b}, (2, 3): {1: -b},
        (3, 1): {2: -a}, (3, 2): {1: b}, (3, 3): {0: -(a * b)},
    }
    unit = [one, field.zero(), field.zero(), field.zero()]
    return GradedAlgebra(field, g, [0, 1, 2, 3], sc, unit, labels=["1", "i", "j", "k"])


def sweedler_algebra(field: Field) -> GradedAlgebra:
    """Basis 1, c, x, cx with c^2 = 1, x^2 = 0, xc = -cx; trivially graded.

    It is the skew group algebra of <c> acting on F[x]/(x^2) by x -> -x.
    """
    if field.char == 2:
        raise CharacteristicTwo("needs characteristic != 2")
    one, zero = field.one(), field.zero()
    g = trivial_group()
    sc = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (2, 0): {2: one}, (3, 0): {3: one},
        (1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
        (2, 1): {3: -one}, (3, 1): {2: -one},
    }
    unit = [one, zero, zero, zero]
    return GradedAlgebra(field, g, [0, 0, 0, 0], sc, unit, labels=["1", "c", "x", "cx"])


# -- crossed products ----------------------------------------------------------------

@dataclass(frozen=True)
class CrossedProductSpec:
    """Coefficient algebra D, grading group, action sigma, and twisting alpha.

    sigma maps each group index to a dim(D) x dim(D) matrix over the base
    field (a unital algebra automorphism of D); alpha maps each index pair to
    the coordinate tuple of an invertible element of D.
    """

    coeff: GradedAlgebra
    group: GroupTable
    sigma: dict
    alpha: dict

    def alpha_element(self, g: int, h: int) -> Element:
        return Element(self.coeff, self.alpha[(g, h)])


def _check_sigma(spec: CrossedProductSpec):
    """Require a dim(D) x dim(D) matrix sigma(g) at every group element; its
    laws are decided by _check_crossed_laws."""
    dd = spec.coeff.dim
    for g in range(spec.group.order):
        s = spec.sigma.get(g)
        if s is None or (s.rows, s.cols) != (dd, dd):
            raise IncompatibleCocycleData(
                f"sigma missing at group element {g} (need a {dd}x{dd} matrix)")


class _RawCoefficients:
    """The coefficient algebra D of a crossed product and the action sigma,
    given as its matrix sigma[g] for each group element g, on raw field
    values (D.field.ops).

    An element of D is the tuple of its raw coordinates.  left(x) gives the
    rows of L_x : y -> x y once per distinct x, so mul(x, y) is ops.forms_at
    of L_x at y and inverse(x) solves L_x y = 1.  act(g, x) applies sigma(g)
    through its unwrapped rows, and images[g] lists its columns sigma(g)(e_i).
    """

    __slots__ = ("coeff", "ops", "sigma", "images", "one", "basis", "_left")

    def __init__(self, d: GradedAlgebra, sigma):
        self.coeff = d
        self.ops = ops = d.field.ops
        self.sigma = [[ops.unwrap(row) for row in m.entries] for m in sigma]
        self.images = [list(zip(*m)) for m in self.sigma]
        self.one = d.unit
        zero, one = ops.zero, ops.one
        self.basis = [tuple(one if k == i else zero for k in range(d.dim))
                      for i in range(d.dim)]
        self._left = {}

    def left(self, x) -> list:
        lx = self._left.get(x)
        if lx is None:
            lx = self._left[x] = _left_rows(self.coeff, x)
        return lx

    def mul(self, x, y) -> tuple:
        return tuple(self.ops.forms_at(self.left(x), y))

    def act(self, g: int, x) -> tuple:
        return tuple(self.ops.forms_at(self.sigma[g], x))

    def inverse(self, x):
        """x^-1, or None: Element.inverse's solve, on the cached rows of L_x."""
        return _solve_raw(self.ops, self.left(x), self.one)


def _normalized_alpha(spec: CrossedProductSpec, raw: _RawCoefficients) -> dict:
    """Rescale the section at the identity so that alpha(e,h) = alpha(g,e) = 1
    for compatible data; _check_crossed_laws decides whether it came out so.

    Each alpha value must hold one scalar of D's field per D-basis vector.
    Each distinct value is inverted once.  The result maps (g, h) to the raw
    coordinates of the normalized alpha(g,h).
    """
    d = spec.coeff
    G = spec.group
    e = G.identity
    inverses = {}
    alpha = {}
    for g in range(G.order):
        for h in range(G.order):
            val = spec.alpha.get((g, h))
            if val is None:
                raise IncompatibleCocycleData(f"alpha missing at pair ({g},{h})")
            if len(val) != d.dim:
                raise IncompatibleCocycleData(
                    f"alpha({g},{h}) has length {len(val)} (need {d.dim})")
            if not all(isinstance(c, Scalar) and c.field is d.field for c in val):
                raise FieldMismatch(
                    f"alpha({g},{h}) has an entry that is not a scalar of {d.field}")
            x = tuple(raw.ops.unwrap(val))
            if x not in inverses:
                inverses[x] = raw.inverse(x)
            if inverses[x] is None:
                raise NonInvertibleAlpha(f"alpha({g},{h}) is not invertible in D")
            alpha[(g, h)] = x
    aee = alpha[(e, e)]
    for b in raw.basis:
        if raw.mul(aee, b) != raw.mul(b, aee):
            raise IncompatibleCocycleData("alpha(e,e) must be central in D")
    c = inverses[aee]
    out = {}
    for g in range(G.order):
        for h in range(G.order):
            # cohomologous rescaling by c_g = alpha(e,e)^-1 at g = e, 1 elsewhere:
            # alpha'(g,h) = c_g sigma(g)(c_h) alpha(g,h) c_{gh}^-1
            val = alpha[(g, h)]
            if h == e:
                val = raw.mul(raw.act(g, c), val)
            if g == e:
                val = raw.mul(c, val)
            if G.mul(g, h) == e:
                val = raw.mul(val, aee)
            out[(g, h)] = val
    return out


# the laws (C) and (Z) as their failures name them; frobenius_crossed_product
# decides them on exponents and reports them in the same words
_CONJUGATION_LAW = "sigma(g) sigma(h) = Inn(alpha(g,h)) sigma(gh)"
_COCYCLE_LAW = ("the twisted 2-cocycle law "
                "(alpha(g,h) alpha(gh,k) = sigma(g)(alpha(h,k)) alpha(g,hk))")


def _check_crossed_laws(spec: CrossedProductSpec, raw: _RawCoefficients, alpha: dict):
    """Decide in D whether sigma and the normalized alpha give a crossed
    product; raise IncompatibleCocycleData naming the first law that fails.

    Write s_g = sigma(g) and u_g for the basis symbol of g, so that the
    product built by _crossed_product_table is
    (a u_g)(b u_h) = a s_g(b) alpha(g,h) u_gh, with unit 1 u_e.  For D valid
    (associative with unit 1), alpha comes out normalized and the product is
    unital and associative exactly when these laws hold for all non-identity
    g, h, k and D-basis vectors e_i, e_j:

    (U) s_e = id, s_g(1) = 1, and alpha(g,e) = alpha(e,g) = 1;
    (M) s_g(e_i e_j) = s_g(e_i) s_g(e_j);
    (C) s_g(s_h(e_i)) alpha(g,h) = alpha(g,h) s_gh(e_i), which is
        s_g s_h = Inn(alpha(g,h)) s_gh written without an inverse;
    (Z) alpha(g,h) alpha(gh,k) = s_g(alpha(h,k)) alpha(g,hk).

    Proof.  The last clause of (U) is the normalization; with s_e = id it
    gives alpha(e,e) = 1 too, as _normalized_alpha makes alpha(e,e) into
    c s_e(c) alpha(e,e)^2 for the central c = alpha(e,e)^-1.  Given it,
    (1 u_e)(b u_h) = s_e(b) u_h and (a u_g)(1 u_e) = a s_g(1) u_g, so 1 u_e is
    a two-sided unit exactly when s_e = id and s_g(1) = 1 (take a = 1).
    Expanding both bracketings,

        ((a u_g)(b u_h))(c u_k) = a s_g(b) alpha(g,h) s_gh(c) alpha(gh,k) u_ghk,
        (a u_g)((b u_h)(c u_k)) = a s_g(b s_h(c) alpha(h,k)) alpha(g,hk) u_ghk,

    and since D has a unit, associativity on basis vectors is

    (A) s_g(b) alpha(g,h) s_gh(c) alpha(gh,k) = s_g(b s_h(c) alpha(h,k)) alpha(g,hk)

    for all g, h, k in G and b, c in D.  Under (U), (A) at h = k = e is (M),
    at b = c = 1 it is (Z), and at b = 1, k = e it is (C).  Conversely, (M) on
    basis vectors makes s_g multiplicative, so the right side of (A) is
    s_g(b) s_g(s_h(c)) s_g(alpha(h,k)) alpha(g,hk), which (Z) turns into
    s_g(b) s_g(s_h(c)) alpha(g,h) alpha(gh,k) and (C) into the left side.
    Where g, h or k is e, (M), (C) and (Z) hold by (U) alone, so checking
    non-identity elements suffices.  With alpha invertible, (C) at
    (g, g^-1) and at (g^-1, g) makes s_g s_{g^-1} and s_{g^-1} s_g bijective,
    so every s_g is an automorphism of D.

    The check takes O(|G| d^2 + |G|^2 d + |G|^3) products in D, d = dim D;
    the unit-law and associativity scan of the product takes (|G| d)^3
    triples.  The laws run in this order on raw field values (see
    _RawCoefficients), and (M) is checked once per distinct matrix.
    """
    G = spec.group
    e = G.identity
    one, basis, images, act, mul = raw.one, raw.basis, raw.images, raw.act, raw.mul
    rest = [g for g in range(G.order) if g != e]

    def fail(law, where):
        raise IncompatibleCocycleData(f"{law} fails at {where}")

    for i, b in enumerate(basis):
        if images[e][i] != b:
            fail("the unit law (sigma(e) = id)", f"D-basis vector {i}")
    for g in rest:
        if act(g, one) != one:
            fail("the unit law (sigma(g)(1) = 1)", f"g={g}")
    for g in rest:
        if alpha[(g, e)] != one or alpha[(e, g)] != one:
            fail("the unit law (alpha(g,e) = alpha(e,g) = 1 once normalized)", f"g={g}")
    basis_products = [[mul(bi, bj) for bj in basis] for bi in basis]
    multiplicative = set()
    for g in rest:
        if spec.sigma[g].entries in multiplicative:
            continue
        for i, row in enumerate(basis_products):
            for j, bij in enumerate(row):
                if act(g, bij) != mul(images[g][i], images[g][j]):
                    fail("multiplicativity of sigma "
                         "(sigma(g)(e_i e_j) = sigma(g)(e_i) sigma(g)(e_j))",
                         f"g={g}, i={i}, j={j}")
        multiplicative.add(spec.sigma[g].entries)
    for g in rest:
        for h in rest:
            agh = alpha[(g, h)]
            gh = G.mul(g, h)
            for i, b in enumerate(images[h]):
                if mul(act(g, b), agh) != mul(agh, images[gh][i]):
                    fail(_CONJUGATION_LAW, f"g={g}, h={h}, D-basis vector {i}")
    for g in rest:
        for h in rest:
            agh = alpha[(g, h)]
            gh = G.mul(g, h)
            for k in rest:
                left = mul(agh, alpha[(gh, k)])
                right = mul(act(g, alpha[(h, k)]), alpha[(g, G.mul(h, k))])
                if left != right:
                    fail(_COCYCLE_LAW, f"g={g}, h={h}, k={k}")


def _compatible_alpha(spec: CrossedProductSpec) -> tuple:
    """D and sigma of spec on raw values, and its normalized alpha, once its
    data is decided compatible.

    D is taken valid, as every GradedAlgebra is (see its docstring).
    """
    if any(deg != spec.coeff.group.identity for deg in spec.coeff.degree):
        raise IncompatibleCocycleData("coefficient algebra must be trivially graded")
    _check_sigma(spec)
    raw = _RawCoefficients(spec.coeff, [spec.sigma[g] for g in range(spec.group.order)])
    alpha = _normalized_alpha(spec, raw)
    _check_crossed_laws(spec, raw, alpha)
    return raw, alpha


def _crossed_product_table(raw: _RawCoefficients, G: GroupTable, alpha: dict) -> GradedAlgebra:
    """The product with (e_i u_g)(e_j u_h) = e_i sigma(g)(e_j) alpha(g,h) u_gh,
    built without validation on raw values, for D and sigma in raw and the
    raw alpha."""
    dd = raw.coeff.dim
    is_zero = raw.ops.is_zero
    table = [[None] * (dd * G.order) for _ in range(dd * G.order)]
    for g in range(G.order):
        for h in range(G.order):
            gh = G.mul(g, h)
            for j, column in enumerate(raw.images[g]):
                right = raw.mul(column, alpha[(g, h)])
                for i, e_i in enumerate(raw.basis):
                    table[g * dd + i][h * dd + j] = tuple([
                        (gh * dd + k, v) for k, v in enumerate(raw.mul(e_i, right))
                        if not is_zero(v)])
    return _crossed_product_algebra(raw.coeff, G, table)


def _crossed_product_algebra(d: GradedAlgebra, G: GroupTable, table) -> GradedAlgebra:
    """The crossed product over D with this table in the stored form, laid
    out by _crossed_product_layout."""
    degree, unit, labels = _crossed_product_layout(d, G)
    return GradedAlgebra._from_raw(d.field, G, degree, table, unit, labels=labels)


def _crossed_product_layout(d: GradedAlgebra, G: GroupTable) -> tuple:
    """The degrees, the raw unit and the labels of a crossed product over D:
    block g of dim(D) basis vectors has degree g, the unit is D's in block
    e, and the labels are D's, tagged with the group element outside block
    e."""
    dd = d.dim
    degree = tuple([g for g in range(G.order) for _ in range(dd)])
    unit = [d.field.ops.zero] * (dd * G.order)
    unit[G.identity * dd:(G.identity + 1) * dd] = d.unit
    labels = None
    if d.labels is not None:
        labels = tuple([f"{d.label(i)}*{G.label(g)}" if g != G.identity else d.label(i)
                        for g in range(G.order) for i in range(dd)])
    return degree, tuple(unit), labels


def crossed_product(spec: CrossedProductSpec) -> GradedAlgebra:
    """Free D-module on group symbols with (a g)(b h) = a sigma(g)(b) alpha(g,h) gh.

    Basis vectors are pairs (D-basis i, group element g), laid out in blocks of
    dim(D) per group element; the degree of block g is g.  Compatibility of
    (sigma, alpha), sigma's automorphism laws included, is decided in D by
    _check_crossed_laws before the table is built, so the product is unital,
    graded and associative by construction and is not scanned again.
    """
    _require_crossed_dim(spec.coeff, spec.group)
    raw, alpha = _compatible_alpha(spec)
    return _crossed_product_table(raw, spec.group, alpha)


def _require_crossed_dim(d: GradedAlgebra, group: GroupTable):
    dim = d.dim * group.order
    if dim > MAX_ALGEBRA_DIM:
        raise DimensionTooLarge(f"crossed product dimension {dim} exceeds {MAX_ALGEBRA_DIM}")


def normalize_section(spec: CrossedProductSpec) -> CrossedProductSpec:
    """Rescale the section so alpha(g, g^-1) = 1 whenever ord(g) > 2.

    Elements of order > 2 pair off as {g, g^-1}: the smaller index keeps its
    section element and its partner h takes u'_h = u_{h^-1}^-1.  Any rescaling
    u'_g = c_g u_g by units c_g of D changes the data by a coboundary computed
    in D alone:

        sigma'(g) = c_g sigma(g)(-) c_g^-1,
        alpha'(g, h) = c_g sigma(g)(c_h) alpha(g, h) c_{gh}^-1,

    with c_g = 1 on the smaller index (and on e and elements of order 2) and
    c_h = sigma(h)(alpha(h^-1, h)^-1) on its partner, since
    u_{h^-1} u_h = alpha(h^-1, h).  alpha is taken normalized at the identity.
    Specs over groups of exponent <= 2 come back unchanged; incompatible data
    is rejected by the crossed-product laws.
    """
    G = spec.group
    if all(G.element_order(g) <= 2 for g in range(G.order)):
        return spec
    d = spec.coeff
    raw, alpha = _compatible_alpha(spec)
    mul, act, wrap = raw.mul, raw.act, raw.ops.wrap
    c = [raw.one if g <= G.inv(g) else act(g, raw.inverse(alpha[(G.inv(g), g)]))
         for g in range(G.order)]
    c_inv = [raw.inverse(x) for x in c]
    new_sigma = {}
    for g in range(G.order):
        # column j of sigma'(g) is c_g sigma(g)(e_j) c_g^-1
        cols = [mul(mul(c[g], column), c_inv[g]) for column in raw.images[g]]
        new_sigma[g] = Matrix(d.field, [wrap(row) for row in zip(*cols)])
    new_alpha = {(g, h): wrap(mul(mul(mul(c[g], act(g, c[h])), alpha[(g, h)]),
                                  c_inv[G.mul(g, h)]))
                 for g in range(G.order) for h in range(G.order)}
    return CrossedProductSpec(coeff=d, group=G, sigma=new_sigma, alpha=new_alpha)


@dataclass(frozen=True)
class _FrobeniusField:
    """What every Frobenius crossed product over one finite field F_q = F_p(x)
    shares, m = dim D:

    - d: F_q as an algebra D over F_p, on the basis 1, x, .., x^(m-1);
    - matrices[k]: the matrix of Frob^k : y -> y^(p^k) on D, k < m (the
      identity alone over F_p), and rows[k] its rows on raw values of F_p;
    - coordinates[k][i][j]: the raw coordinates over F_p of
      P_k[i][j] = x^i Frob^k(x^j), and products[k][i][j] the same in the
      stored form of D, the (t, c) pairs with c != 0, sorted by t.

    In a crossed product with sigma(g) = Frob^(k_g), (x^i u_g)(x^j u_h) is
    P_(k_g)[i][j] alpha(g,h) u_gh, so its table is made of these blocks.
    """

    d: GradedAlgebra
    matrices: tuple
    rows: tuple
    coordinates: tuple
    products: tuple


def _coordinate_pairs(coordinates) -> tuple:
    """The stored form, the (t, c) pairs with c != 0, of raw coordinates over F_p."""
    return tuple([(t, c) for t, c in enumerate(coordinates) if c])


@lru_cache(maxsize=None)
def _frobenius_coefficients(ext: Field) -> _FrobeniusField:
    """The _FrobeniusField of ext.

    Built once per field: fields are shared instances, so the cache keys by
    identity.  Every Frobenius crossed product and spec over ext shares the
    result, which no caller mutates.
    """
    base = ext.prime_subfield()
    d = field_as_algebra(ext, base)
    if ext == base:
        matrices = (Matrix.identity(base, 1),)
    else:
        matrices = tuple(frobenius_matrix(ext, k) for k in range(d.dim))
    ops = ext.ops
    # x^i is the basis vector i of D; over F_p, x^0 = 1 is the only one
    powers = [ops.from_coefficients((0,) * i + (1,)) for i in range(d.dim)]
    rows = tuple(tuple(tuple(base.ops.unwrap(row)) for row in f.entries) for f in matrices)
    coordinates = []
    for frobenius_rows in rows:
        # column j of the matrix of Frob^k holds the coordinates of Frob^k(x^j)
        images = [ops.from_coefficients(column) for column in zip(*frobenius_rows)]
        coordinates.append(tuple(tuple(ops.coefficients(ops.mul(x_i, y)) for y in images)
                                 for x_i in powers))
    products = tuple(tuple(tuple(_coordinate_pairs(v) for v in row) for row in block)
                     for block in coordinates)
    return _FrobeniusField(d, matrices, rows, tuple(coordinates), products)


def _frobenius_powers(fd: _FrobeniusField, group: GroupTable, sigma_powers) -> list:
    """The exponent k_g in [0, dim D) of each group element in index order
    (k_e = 0), so that sigma(g) = Frob^(k_g), from the given powers of the
    non-identity elements."""
    sigma_powers = list(sigma_powers)
    if len(sigma_powers) != group.order - 1:
        raise ValueError("need one Frobenius power per non-identity element")
    return [0] + [power % fd.d.dim for power in sigma_powers]


def _frobenius_twist(fd: _FrobeniusField, alpha_unit) -> tuple:
    """The twist u as the dim D raw values of its coordinates over F_p (each
    int coordinate reduced mod p, any other through Field.scalar); D's unit
    when alpha_unit is None."""
    d = fd.d
    if alpha_unit is None:
        return d.unit
    ops, p = d.field.ops, d.field.char
    u = tuple([c % p if type(c) is int else d.field.scalar(c).val for c in alpha_unit])
    if len(u) > d.dim:
        raise ValueError(f"alpha_unit has more than {d.dim} coefficients")
    return u + (ops.zero,) * (d.dim - len(u))


def _frobenius_alpha(group: GroupTable, one, u) -> dict:
    """alpha(g, h) = u for g, h both non-identity, and one against the identity."""
    return {(g, h): u if g and h else one
            for g in range(group.order) for h in range(group.order)}


def frobenius_crossed_spec(ext: Field, group: GroupTable, sigma_powers,
                           alpha_unit=None) -> CrossedProductSpec:
    """Crossed-product data of a finite field over its prime field F_p, acted on
    by Frobenius powers, with a unit twist.

    sigma_powers lists the Frobenius exponent of each non-identity group
    element in index order (ignored when ext is F_p itself, where the action is
    trivial).  alpha_unit, when given, holds the coefficients of a unit u on
    the basis 1, x, .., x^(m-1); alpha(g, h) = u for g, h both non-identity and
    alpha is 1 against the identity.  Compatibility of the data is decided by
    crossed_product, from the crossed-product laws in D; the builder
    frobenius_crossed_product decides it on exponents instead.
    """
    fd = _frobenius_coefficients(ext)
    powers = _frobenius_powers(fd, group, sigma_powers)
    u = _frobenius_twist(fd, alpha_unit)
    wrap = fd.d.field.ops.wrap
    return CrossedProductSpec(coeff=fd.d, group=group,
                              sigma={g: fd.matrices[k] for g, k in enumerate(powers)},
                              alpha=_frobenius_alpha(group, wrap(fd.d.unit), wrap(u)))


def frobenius_crossed_product(ext: Field, group: GroupTable, sigma_powers,
                              alpha_unit=None) -> GradedAlgebra:
    """crossed_product(frobenius_crossed_spec(ext, group, sigma_powers,
    alpha_unit)), with the crossed-product laws decided as congruences on the
    Frobenius exponents, so that incompatible data builds nothing in D: the
    product of FrobeniusCrossedProducts(ext, group, sigma_powers) at the
    twist alpha_unit.

    The product, and the exception class and message of incompatible data,
    are those of crossed_product.  Write q = p^m for the size of ext, x for
    the generator of D = F_q over F_p (D-basis vector 1), k_g for the
    exponent of g taken mod m, so that sigma(g)(y) = y^(p^(k_g)) and k_e = 0
    (every k_g is 0 when m = 1), and u for the twist, so that alpha(g,h) = u
    for g, h both non-identity and 1 against the identity.  The laws of
    _check_crossed_laws then read:

    (U) and (M) hold for all data: sigma(e) = Frob^0 = id, every power of
        Frobenius is a field automorphism, so it fixes 1 and is
        multiplicative, and alpha(g,e) = alpha(e,g) = 1 as given.  alpha(e,e)
        = 1, so _normalized_alpha returns alpha unchanged.
    Before any law, u must be invertible, which in the field D means u != 0;
    alpha(1,1) is the first pair that holds u, so u = 0 over a nontrivial
    group raises NonInvertibleAlpha there, and over the trivial group u is
    never used.
    (C) D is commutative and u invertible, so s_g s_h (e_i) u = u s_gh(e_i)
        says s_g s_h = s_gh on e_i.  e_0 = 1 is fixed by both sides.  x
        generates D, so Frob^a(x) = Frob^b(x) exactly when Frob^(a-b) fixes
        D, that is when a = b (mod m).  So (C) holds at (g, h) exactly when
        k_g + k_h = k_gh (mod m), and where it fails it fails first at
        D-basis vector 1.  k_e = 0 is used where gh = e.  It depends on
        the exponents alone, not on u.
    (Z) For g, h, k non-identity, alpha(g,h) = alpha(h,k) = u and
        alpha(gh,k), alpha(g,hk) are u or 1 as gh, hk are non-identity or
        not, so the law is u^(1 + [gh != e]) = u^(p^(k_g)) u^[hk != e].
        Both sides take u, u^2, and u^(p^k) and u^(p^k) u for each distinct
        exponent k: a few products in F_q, and no discrete logarithm.

    Failures are reported at the first (g, h) or (g, h, k) in the order of
    _check_crossed_laws, and the dimension bound is checked before any law.

    The table of data that passes is put together from the per-field blocks
    P_k of _FrobeniusField: (x^i u_g)(x^j u_h) is P_(k_g)[i][j] u_gh when g
    or h is e, and P_(k_g)[i][j] u u_gh otherwise, each entry the block's
    pairs with the offset (gh) dim D added to every index.  The twisted
    blocks P_k u are formed once for each distinct exponent k, by the matrix
    of y -> u y over F_p; the rest of the table depends on the exponents
    alone, so FrobeniusCrossedProducts builds it once for all twists.
    Everything runs on raw values: with alpha_unit None or given as ints or
    Scalars, no Scalar is made.
    """
    return FrobeniusCrossedProducts(ext, group, sigma_powers).product(alpha_unit)


class FrobeniusCrossedProducts:
    """The Frobenius crossed products of one action sigma(g) = Frob^(k_g) of
    a group on a finite field: product(u) is frobenius_crossed_product(ext,
    group, sigma_powers, u) for each twist u, with the work that depends on
    the exponents alone done once.

    Made from (ext, group, sigma_powers), it decides the exponents, the
    dimension bound and the conjugation law (C) once, and lists the
    comparisons of the cocycle law (Z) that the exponents call for.  Each
    twist then parses u and decides (Z) on those comparisons; see
    frobenius_crossed_product for the laws.  product raises the error of the
    first failure; product_if_compatible returns None where the laws refuse
    u, and builds and formats nothing for it.

    The part of the table that no twist enters (the rows of block e, and
    the products against e in every other row), the degrees, the unit and
    the labels are built at the first accepted twist and kept, so an action
    that no twist passes builds none of them.  Each accepted twist forms
    only its blocks P_k u, once for each distinct exponent k, splices them
    into the kept rows and goes through GradedAlgebra._from_raw, whose
    shape checks stay.  The hunt keeps one of these per action, as its
    candidate stream runs through the twists of one action at a time.
    """

    __slots__ = ("fd", "group", "powers", "_ops", "_too_large", "_conjugation",
                 "_cocycle", "_untwisted")

    def __init__(self, ext: Field, group: GroupTable, sigma_powers):
        self.fd = fd = _frobenius_coefficients(ext)
        self.group = group
        self.powers = powers = _frobenius_powers(fd, group, sigma_powers)
        self._ops = ext.ops
        self._too_large = fd.d.dim * group.order > MAX_ALGEBRA_DIM
        self._conjugation = self._cocycle = self._untwisted = None
        if not self._too_large:
            self._conjugation = _conjugation_failure(group, powers, fd.d.dim)
            if self._conjugation is None:
                self._cocycle = _cocycle_comparisons(group, powers)

    def product(self, alpha_unit=None) -> GradedAlgebra:
        """The crossed product twisted by alpha_unit; incompatible data
        raises IncompatibleCocycleData naming the first law that fails."""
        u, x = self._twist(alpha_unit)
        where = self._conjugation or self._cocycle_failure(u, x)
        if where is not None:
            raise IncompatibleCocycleData(_law_failure(where))
        return self._product(u)

    def product_if_compatible(self, alpha_unit) -> GradedAlgebra | None:
        """product(alpha_unit), or None where it would raise
        IncompatibleCocycleData; every other error is raised as there."""
        u, x = self._twist(alpha_unit)
        if self._conjugation or self._cocycle_failure(u, x) is not None:
            return None
        return self._product(u)

    def _twist(self, alpha_unit) -> tuple:
        """The raw coordinates of the twist and its value in ext, once the
        dimension bound holds and the twist is invertible, the checks that
        precede the laws."""
        u = _frobenius_twist(self.fd, alpha_unit)
        if self._too_large:
            _require_crossed_dim(self.fd.d, self.group)
        x = self._ops.from_coefficients(u)
        if self.group.order > 1 and self._ops.is_zero(x):
            raise NonInvertibleAlpha("alpha(1,1) is not invertible in D")
        return u, x

    def _cocycle_failure(self, u, x) -> tuple | None:
        """The first (g, h, k) where (Z) fails for the twist u, with value x
        in ext, or None.  Frob^k(u) is read off the rows of the matrix of
        Frob^k, and u^2 and Frob^k(u) u are formed only when a comparison
        needs them."""
        ops, forms_at, rows = self._ops, self.fd.d.field.ops.forms_at, self.fd.rows
        left = [x, None]  # u^(1 + twice)
        rights = {}  # exponent k -> [u^(p^k), u^(p^k) u], by once_more
        for (twice, k, once_more), where in self._cocycle:
            if left[twice] is None:
                left[1] = ops.mul(x, x)
            right = rights.get(k)
            if right is None:
                right = rights[k] = [ops.from_coefficients(forms_at(rows[k], u)), None]
            if right[once_more] is None:
                right[1] = ops.mul(right[0], x)
            if left[twice] != right[once_more]:
                return where
        return None

    def _product(self, u) -> GradedAlgebra:
        """The product of the accepted twist u: the kept untwisted part,
        with the twisted blocks spliced into every row of a non-identity
        block (the identity is index 0).  An entry at offset 0 is the
        block's own tuple, which is immutable."""
        if self._untwisted is None:
            self._untwisted = self._untwisted_part()
        heads, degree, unit, labels = self._untwisted
        fd, group, powers = self.fd, self.group, self.powers
        d, m = fd.d, fd.d.dim
        forms, forms_at = _left_rows(d, u), d.field.ops.forms_at
        twisted = {}  # exponent k -> the block P_k u in the stored form
        table = heads[:m]
        for g in range(1, group.order):
            block = twisted.get(powers[g])
            if block is None:
                block = twisted[powers[g]] = [[_coordinate_pairs(forms_at(forms, v)) for v in row]
                                              for row in fd.coordinates[powers[g]]]
            offsets = [gh * m for gh in group.table[g][1:]]
            for head, row in zip(heads[g * m:(g + 1) * m], block):
                table.append(head + tuple([
                    tuple([(offset + t, c) for t, c in row[j]]) if offset else row[j]
                    for offset in offsets for j in range(m)]))
        return GradedAlgebra._from_raw(d.field, group, degree, table, unit, labels)

    def _untwisted_part(self) -> tuple:
        """What every accepted twist shares: the rows of block e whole and,
        for each other row, its products against block e, in the stored
        form; then the degrees, unit and labels of the layout."""
        fd, group = self.fd, self.group
        m = fd.d.dim
        heads = []
        for g, k in enumerate(self.powers):
            offsets = [gh * m for gh in group.table[g]] if g == 0 else [g * m]
            block = fd.products[k]
            for i in range(m):
                heads.append(tuple([
                    tuple([(offset + t, c) for t, c in block[i][j]]) if offset else block[i][j]
                    for offset in offsets for j in range(m)]))
        return (heads, *_crossed_product_layout(fd.d, group))


def _conjugation_failure(group: GroupTable, powers, m: int) -> tuple | None:
    """The first (g, h) of non-identity elements with k_g + k_h != k_gh
    (mod m), where (C) fails, or None."""
    table, rest = group.table, range(1, group.order)
    for g in rest:
        for h in rest:
            if (powers[g] + powers[h] - powers[table[g][h]]) % m:
                return g, h
    return None


def _cocycle_comparisons(group: GroupTable, powers) -> list:
    """The comparisons u^(1 + twice) = Frob^k(u) u^once_more that (Z) makes,
    each once, as ((twice, k, once_more), (g, h, k')) with the first
    (g, h, k') of the loop over non-identity triples that makes it, in the
    order of those triples.  So the first comparison that fails for a twist
    names the first triple where (Z) fails."""
    e, table, rest = group.identity, group.table, range(1, group.order)
    first = {}
    for g in rest:
        for h in rest:
            twice = table[g][h] != e
            for k in rest:
                first.setdefault((twice, powers[g], table[h][k] != e), (g, h, k))
    return list(first.items())


def _law_failure(where: tuple) -> str:
    """The message of the first failure: (C) at a pair (g, h), or (Z) at a
    triple (g, h, k)."""
    if len(where) == 2:
        return f"{_CONJUGATION_LAW} fails at g={where[0]}, h={where[1]}, D-basis vector 1"
    return f"{_COCYCLE_LAW} fails at g={where[0]}, h={where[1]}, k={where[2]}"


def _cyclic_algebra_data(p: int) -> tuple:
    if p not in (2, 3, 5, 7):
        raise UnsupportedPrime(f"supported primes are 2, 3, 5, 7; got {p}")
    ext = make_field(p, [p - 1, p - 1] + [0] * (p - 2) + [1])
    return ext, cyclic_group(p), range(1, p)


def cyclic_algebra_spec(p: int) -> CrossedProductSpec:
    """Crossed-product data of the degree-p skew group algebra over F_p.

    The coefficient field is F_p(x) with x^p = x + 1, acted on by Frobenius
    powers, with trivial twisting: y^p = 1 and y a = a^p y.
    """
    return frobenius_crossed_spec(*_cyclic_algebra_data(p))


def cyclic_algebra(p: int) -> GradedAlgebra:
    """The C_p-graded skew group algebra of F_{p^p} over F_p, dimension p^2:
    the product of cyclic_algebra_spec(p)."""
    return frobenius_crossed_product(*_cyclic_algebra_data(p))


# -- good gradings on matrix algebras ---------------------------------------------------

def good_matrix_algebra(n: int, sigmas, delta: GradedAlgebra) -> GradedAlgebra:
    """n x n matrices over delta, graded so block (i,j) of degree g is
    delta's component at sigma_i g sigma_j^-1.

    The basis vector at matrix position (i,j) tensored with a delta basis
    vector of degree t has degree sigma_i^-1 t sigma_j.  This is M_n(delta),
    and the degrees multiply as delta's do.
    """
    if n < 1:
        raise ValueError("need one group element per matrix row")
    g = delta.group
    dd = delta.dim
    dim = n * n * dd
    if dim > MAX_ALGEBRA_DIM:
        raise DimensionTooLarge(f"dimension {dim} exceeds {MAX_ALGEBRA_DIM}")
    sigmas = tuple(sigmas)
    if len(sigmas) != n:
        raise ValueError("need one group element per matrix row")
    field = delta.field

    def index(i, j, t):
        return (i * n + j) * dd + t

    degree = []
    for i in range(n):
        for j in range(n):
            for t in range(dd):
                degree.append(g.mul(g.mul(g.inv(sigmas[i]), delta.degree[t]), sigmas[j]))
    table = [[()] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for t in range(dd):
                for l in range(n):
                    for s in range(dd):
                        table[index(i, j, t)][index(j, l, s)] = tuple(
                            [(index(i, l, r), c) for r, c in delta.table[t][s]])
    unit = [field.ops.zero] * dim
    for i in range(n):
        unit[index(i, i, 0):index(i, i, dd)] = delta.unit
    labels = [f"E{i + 1}{j + 1}" + (f"*{delta.label(t)}" if dd > 1 else "")
              for i in range(n) for j in range(n) for t in range(dd)]
    return GradedAlgebra._from_raw(field, g, degree, table, unit, labels=labels)


def matrix_algebra(field: Field, n: int) -> GradedAlgebra:
    """M_n(field) with the trivial grading."""
    delta = field_as_algebra(field, field)
    return good_matrix_algebra(n, itertools.repeat(0, n), delta)


# -- derived constructions ----------------------------------------------------------------

def trivial_extension(a: GradedAlgebra) -> GradedAlgebra:
    """A + A* with (a,m)(a',m') = (aa', am' + ma'); the dual half squares to zero.

    With e_l e_m = sum_j c_lm^j e_j and f_j the dual basis, the bimodule
    actions are (x f)(y) = f(yx) and (f x)(y) = f(xy), so e_m f_j has
    coefficient c_lm^j at f_l and f_j e_l has coefficient c_lm^j at f_m; one
    pass over the structure constants fills both.  The dual of a degree-g basis
    vector gets degree g^-1, matching the grading of the dual space.  A* is a
    graded A-bimodule, so A + A* is valid when A is.
    """
    d = a.dim
    table = ([list(row) + [[] for _ in range(d)] for row in a.table]
             + [[[] for _ in range(d)] + [()] * d for _ in range(d)])
    for l, row in enumerate(a.table):
        for m, terms in enumerate(row):
            for j, c in terms:  # appended in increasing l, or m: sorted
                table[m][d + j].append((d + l, c))
                table[d + j][l].append((d + m, c))
    table = [[tuple(terms) for terms in row] for row in table]
    degree = list(a.degree) + [a.group.inv(g) for g in a.degree]
    unit = list(a.unit) + [a.field.ops.zero] * d
    labels = None
    if a.labels is not None:
        labels = list(a.labels) + [f"f({lbl})" for lbl in a.labels]
    return GradedAlgebra._from_raw(a.field, a.group, degree, table, unit, labels=labels)


def direct_product(a: GradedAlgebra, b: GradedAlgebra) -> GradedAlgebra:
    """A x B, valid when A and B are: the blocks do not multiply each other."""
    if a.field != b.field:
        raise FieldMismatch("direct product needs a common base field")
    if a.group != b.group:
        raise GroupMismatch("direct product needs a common grading group")
    da = a.dim
    table = [row + ((),) * b.dim for row in a.table]
    table += [((),) * da + tuple(tuple([(da + k, c) for k, c in terms]) for terms in row)
              for row in b.table]
    degree = list(a.degree) + list(b.degree)
    unit = list(a.unit) + list(b.unit)
    return GradedAlgebra._from_raw(a.field, a.group, degree, table, unit)


def tensor_product(a: GradedAlgebra, b: GradedAlgebra) -> GradedAlgebra:
    """Componentwise product on basis pairs; needs an abelian grading group,
    over which the tensor product of valid algebras is valid."""
    if a.field != b.field:
        raise FieldMismatch("tensor product needs a common base field")
    if a.group != b.group:
        raise GroupMismatch("tensor product needs a common grading group")
    if not a.group.is_abelian():
        raise NonAbelianGroup("tensor products are only degree-compatible over abelian groups")
    db = b.dim
    dim = a.dim * db
    if dim > MAX_ALGEBRA_DIM:
        raise DimensionTooLarge(f"dimension {dim} exceeds {MAX_ALGEBRA_DIM}")
    mul = a.field.ops.mul
    # e_(i1,j1) e_(i2,j2) = e_i1 e_i2 (x) e_j1 e_j2 at row i1 db + j1, column i2 db + j2
    table = [[tuple([(k * db + l, mul(ca, cb)) for k, ca in terms_a for l, cb in terms_b])
              for terms_a in row_a for terms_b in row_b]
             for row_a in a.table for row_b in b.table]
    degree = [a.group.mul(ga, gb) for ga in a.degree for gb in b.degree]
    unit = [mul(ca, cb) for ca in a.unit for cb in b.unit]
    return GradedAlgebra._from_raw(a.field, a.group, degree, table, unit)


def scalar_extension(a: GradedAlgebra, m: int) -> GradedAlgebra:
    """The same structure constants reinterpreted over the degree-m extension,
    where the laws of A, polynomial identities in them, still hold."""
    if a.field.char == 0:
        raise RationalsNotSupported("scalar extension needs a finite base field")
    if m == 1:
        return a
    if a.field.degree * m > 6:
        raise DimensionTooLarge("extension degree beyond 6 is out of scope")
    target = extend_field(a.field, m)
    embed = raw_embedding(a.field, target)
    table = [[tuple([(k, embed(c)) for k, c in terms]) for terms in row] for row in a.table]
    return GradedAlgebra._from_raw(target, a.group, a.degree, table, map(embed, a.unit),
                                   labels=a.labels)


def ungrade(a: GradedAlgebra) -> GradedAlgebra:
    """Forget the grading: the same algebra over the trivial group, valid as A is."""
    if a.group.order == 1:
        return a
    return GradedAlgebra._from_raw(a.field, trivial_group(), [0] * a.dim, a.table, a.unit,
                                   labels=a.labels)


def subspace_algebra(a: GradedAlgebra, s: Subspace) -> GradedAlgebra:
    """The unital subalgebra on a multiplicatively closed subspace.

    Degrees are inherited when every basis row of s is homogeneous; otherwise
    the result is trivially graded.  Rows of a closed subspace holding the
    unit that are all homogeneous span a graded subalgebra.
    """
    if s.ambient_dim != a.dim or s.field != a.field:
        raise AmbientMismatch("subspace does not live in the algebra's coordinate space")
    try:
        unit = s.reduce_vector(a.one().coords)
    except AmbientMismatch:
        raise UnitMissing("subspace does not contain the unit") from None
    rows = [list(r) for r in s.basis]
    r = len(rows)
    sc = {}
    for i in range(r):
        for j in range(r):
            try:
                sc[(i, j)] = enumerate(s.reduce_vector(a.mul_coords(rows[i], rows[j])))
            except AmbientMismatch:
                raise NotClosed(
                    f"product of subspace basis vectors {i} and {j} escapes") from None
    degrees = []
    homogeneous = True
    for row in rows:
        degs = {a.degree[i] for i, c in enumerate(row) if not c.is_zero}
        if len(degs) == 1:
            degrees.append(degs.pop())
        else:
            homogeneous = False
            break
    if homogeneous:
        group = a.group
    else:
        group = trivial_group()
        degrees = [0] * r
    return GradedAlgebra(a.field, group, degrees, sc, unit)


def homogeneous_component(a: GradedAlgebra, g: int) -> Subspace:
    """The span of the basis vectors of degree g, as a coordinate subspace."""
    a.group._check(g)
    z, o = a.field.zero(), a.field.one()
    rows = []
    for i in a.component_indices(g):
        row = [z] * a.dim
        row[i] = o
        rows.append(row)
    return Subspace(a.field, a.dim, rows)
