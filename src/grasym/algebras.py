"""Group-graded algebras from structure constants, and every construction used.

A GradedAlgebra is a finite-dimensional associative unital algebra over an
exact field, with a basis whose vectors carry degrees in a finite group and
sparse structure constants e_i e_j = sum_k c_{ij}^k e_k.  Validation checks
unit laws, the grading law (c_{ij}^k nonzero forces deg k = deg i * deg j),
homogeneity of the unit, and full associativity, listing every violation.

Crossed products are built from a coefficient algebra D, an action map sigma
and a twisting map alpha.  Their compatibility, sigma's automorphism laws
included, is exactly the unit law and associativity of the product, so the
validation scan of the constructed product decides it and incompatible data is
reported with a failing triple.
Every crossed product of a finite field by Frobenius powers with a unit twist
(the cyclic algebras, the replication corpus, spec-file constructor blocks and
hunt candidates) gets its data from the one builder frobenius_crossed_spec.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

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
    ValidationError,
    ZeroParameter,
)
from .fields import Field, Scalar, embed_scalar, extend_field, make_field
from .groups import GroupTable, cyclic_group, klein_group, trivial_group
from .linalg import Matrix, Subspace

MAX_ALGEBRA_DIM = 64


class GradedAlgebra:
    """A finite-dimensional graded algebra held by structure constants."""

    __slots__ = ("field", "group", "dim", "degree", "sc", "unit", "labels", "meta")

    def __init__(self, field: Field, group: GroupTable, degree, sc, unit,
                 labels=None, meta=None):
        self.field = field
        self.group = group
        self.degree = tuple(degree)
        self.dim = len(self.degree)
        if self.dim == 0:
            raise ValueError("zero-dimensional algebras are not allowed")
        if self.dim > MAX_ALGEBRA_DIM:
            raise DimensionTooLarge(f"dimension {self.dim} exceeds {MAX_ALGEBRA_DIM}")
        for g in self.degree:
            group._check(g)
        clean = {}
        for (i, j), terms in (sc.items() if isinstance(sc, dict) else sc):
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise IndexOutOfRange(
                    f"structure constant at ({i},{j}) out of range 0..{self.dim - 1}")
            if (i, j) in clean:
                raise ValueError(f"structure constants at ({i},{j}) given twice")
            out = {}
            for k, c in (terms.items() if isinstance(terms, dict) else terms):
                if not 0 <= k < self.dim:
                    raise IndexOutOfRange(
                        f"structure constant ({i},{j},{k}) out of range 0..{self.dim - 1}")
                if k in out:
                    raise ValueError(f"structure constant ({i},{j},{k}) given twice")
                if not isinstance(c, Scalar) or c.field != field:
                    raise FieldMismatch("structure constant from a foreign field")
                out[k] = c
            clean[(i, j)] = tuple((k, c) for k, c in sorted(out.items()) if not c.is_zero)
        self.sc = {ij: terms for ij, terms in clean.items() if terms}
        self.unit = tuple(unit)
        if len(self.unit) != self.dim:
            raise ValueError("unit vector has wrong length")
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.dim:
            raise ValueError("label list has wrong length")
        self.meta = dict(meta) if meta else {}

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
        return Element(self, self.unit)

    def basis_product(self, i: int, j: int):
        return self.sc.get((i, j), ())

    def mul_coords(self, x, y) -> list:
        z = self.field.zero()
        out = [z] * self.dim
        for i, xi in enumerate(x):
            if xi.is_zero:
                continue
            for j, yj in enumerate(y):
                if yj.is_zero:
                    continue
                f = xi * yj
                for k, c in self.sc.get((i, j), ()):
                    out[k] = out[k] + f * c
        return out

    def left_mult_matrix(self, x: "Element") -> Matrix:
        cols = []
        for j in range(self.dim):
            z = self.field.zero()
            col = [z] * self.dim
            for i, xi in enumerate(x.coords):
                if xi.is_zero:
                    continue
                for k, c in self.sc.get((i, j), ()):
                    col[k] = col[k] + xi * c
            cols.append(col)
        return Matrix(self.field, [[cols[j][i] for j in range(self.dim)]
                                   for i in range(self.dim)])

    def component_indices(self, g: int) -> tuple:
        return tuple(i for i, d in enumerate(self.degree) if d == g)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else f"b{i}"

    def __eq__(self, other):
        return (isinstance(other, GradedAlgebra)
                and self.field == other.field
                and self.group == other.group
                and self.degree == other.degree
                and self.sc == other.sc
                and self.unit == other.unit
                and self.labels == other.labels)

    def __repr__(self):
        name = self.meta.get("construction", "algebra")
        return f"GradedAlgebra({name}, dim={self.dim}, field={self.field})"


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
        lm = self.owner.left_mult_matrix(self)
        sol = lm.solve(list(self.owner.unit))
        if sol is None:
            return None
        return Element(self.owner, sol)

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
    """Check unit, grading, unit homogeneity, and full associativity."""
    report = ValidationReport(ok=True)
    d = a.dim
    e = a.group.identity
    for i, c in enumerate(a.unit):
        if not c.is_zero and a.degree[i] != e:
            report.unit_errors.append(i)
    for i in range(d):
        b = a.basis_element(i)
        left = a.mul_coords(a.unit, b.coords)
        right = a.mul_coords(b.coords, a.unit)
        if tuple(left) != b.coords or tuple(right) != b.coords:
            report.unit_errors.append(i)
    for (i, j), terms in a.sc.items():
        want = a.group.mul(a.degree[i], a.degree[j])
        for k, c in terms:
            if a.degree[k] != want:
                report.grading_errors.append((i, j, k))
    products = {}
    for i in range(d):
        for j in range(d):
            products[(i, j)] = dict(a.sc.get((i, j), ()))
    for i in range(d):
        for j in range(d):
            p_ij = products[(i, j)]
            for l in range(d):
                left: dict = {}
                for k, c in p_ij.items():
                    for m, c2 in products[(k, l)].items():
                        v = left.get(m)
                        s = c * c2 if v is None else v + c * c2
                        if s.is_zero:
                            left.pop(m, None)
                        else:
                            left[m] = s
                right: dict = {}
                for k, c in products[(j, l)].items():
                    for m, c2 in products[(i, k)].items():
                        v = right.get(m)
                        s = c * c2 if v is None else v + c * c2
                        if s.is_zero:
                            right.pop(m, None)
                        else:
                            right[m] = s
                if left != right:
                    report.associativity_errors.append((i, j, l))
    report.ok = not (report.unit_errors or report.grading_errors
                     or report.associativity_errors)
    return report


def _require_valid(a: GradedAlgebra, error=None) -> GradedAlgebra:
    report = validate_algebra(a)
    if not report.ok:
        if error is None:
            raise ValidationError(report)
        raise error(str(report))
    return a


# -- basic constructors -----------------------------------------------------------

def group_algebra(field: Field, group: GroupTable) -> GradedAlgebra:
    """The group algebra with its natural grading: basis = group elements."""
    one = field.one()
    sc = {(i, j): ((group.table[i][j], one),)
          for i in range(group.order) for j in range(group.order)}
    unit = [field.zero()] * group.order
    unit[group.identity] = one
    labels = [group.label(g) for g in range(group.order)]
    a = GradedAlgebra(field, group, range(group.order), sc, unit, labels=labels,
                      meta={"construction": "group_algebra"})
    return _require_valid(a)


def field_as_algebra(ext: Field, base: Field, group: GroupTable | None = None) -> GradedAlgebra:
    """A field K as an algebra over its prime subfield (or over itself).

    The basis is 1, x, .., x^(n-1) for the residue x of the modulus variable;
    grading is trivial over the given group.
    """
    if group is None:
        group = trivial_group()
    if ext == base:
        one = base.one()
        a = GradedAlgebra(base, group, [group.identity], {(0, 0): ((0, one),)}, [one],
                          labels=["1"], meta={"construction": "field_algebra",
                                              "extension_degree": 1})
        return _require_valid(a)
    if base != ext.prime_subfield():
        raise FieldMismatch("coefficient field must be the prime subfield")
    n = ext.degree
    gen = ext.generator()
    powers = [ext.one()]
    for _ in range(2 * n):
        powers.append(powers[-1] * gen)
    sc = {}
    for i in range(n):
        for j in range(n):
            coeffs = powers[i + j].coefficients()
            sc[(i, j)] = tuple((k, base.from_int(c)) for k, c in enumerate(coeffs) if c)
    unit = [base.one()] + [base.zero()] * (n - 1)
    labels = ["1"] + [f"x{i if i > 1 else ''}" for i in range(1, n)]
    a = GradedAlgebra(base, group, [group.identity] * n, sc, unit, labels=labels,
                      meta={"construction": "field_algebra", "extension_degree": n,
                            "modulus": list(ext.modulus)})
    return _require_valid(a)


def frobenius_matrix(ext: Field, power: int) -> Matrix:
    """Matrix of y -> y^(p^power) on the basis 1, x, .., x^(n-1) of ext over F_p.

    The power is taken mod n, the order of the Frobenius automorphism.
    """
    base = ext.prime_subfield()
    n = ext.degree
    gen = ext.generator()
    cols = []
    for i in range(n):
        img = (gen ** i) ** (ext.char ** (power % n))
        cols.append([base.from_int(c) for c in img.coefficients()])
    return Matrix(base, [[cols[j][i] for j in range(n)] for i in range(n)])


def quaternion_algebra(field: Field, a, b) -> GradedAlgebra:
    """Basis 1, i, j, k with i^2 = a, j^2 = b, ij = k = -ji; Klein-graded."""
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
    alg = GradedAlgebra(field, g, [0, 1, 2, 3], sc, unit, labels=["1", "i", "j", "k"],
                        meta={"construction": "quaternion_algebra",
                              "a": a, "b": b})
    return _require_valid(alg)


def sweedler_algebra(field: Field) -> GradedAlgebra:
    """Basis 1, c, x, cx with c^2 = 1, x^2 = 0, xc = -cx; trivially graded."""
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
    alg = GradedAlgebra(field, g, [0, 0, 0, 0], sc, unit, labels=["1", "c", "x", "cx"],
                        meta={"construction": "sweedler_algebra"})
    return _require_valid(alg)


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
    """Require a dim(D) x dim(D) matrix sigma(g) at every group element; the
    rest is crossed_product's scan."""
    dd = spec.coeff.dim
    for g in range(spec.group.order):
        s = spec.sigma.get(g)
        if s is None or (s.rows, s.cols) != (dd, dd):
            raise IncompatibleCocycleData(
                f"sigma missing at group element {g} (need a {dd}x{dd} matrix)")


def _normalized_alpha(spec: CrossedProductSpec) -> dict:
    """Rescale the section at the identity so alpha(e,h) = alpha(g,e) = 1."""
    d = spec.coeff
    G = spec.group
    e = G.identity
    alpha = {}
    for g in range(G.order):
        for h in range(G.order):
            val = spec.alpha.get((g, h))
            if val is None:
                raise IncompatibleCocycleData(f"alpha missing at pair ({g},{h})")
            el = Element(d, val)
            if el.inverse() is None:
                raise NonInvertibleAlpha(f"alpha({g},{h}) is not invertible in D")
            alpha[(g, h)] = el
    aee = alpha[(e, e)]
    for i in range(d.dim):
        ei = d.basis_element(i)
        if aee * ei != ei * aee:
            raise IncompatibleCocycleData("alpha(e,e) must be central in D")
    c = aee.inverse()
    out = {}
    for g in range(G.order):
        for h in range(G.order):
            # cohomologous rescaling by c_g = alpha(e,e)^-1 at g = e, 1 elsewhere:
            # alpha'(g,h) = c_g sigma(g)(c_h) alpha(g,h) c_{gh}^-1
            val = alpha[(g, h)]
            if h == e:
                val = Element(d, spec.sigma[g].mulvec(c.coords)) * val
            if g == e:
                val = c * val
            if G.mul(g, h) == e:
                val = val * aee
            out[(g, h)] = val
    one = d.one()
    for g in range(G.order):
        if out[(g, e)] != one or out[(e, g)] != one:
            raise IncompatibleCocycleData(
                f"alpha is not section-consistent at the identity (element {g})")
    return out


def crossed_product(spec: CrossedProductSpec) -> GradedAlgebra:
    """Free D-module on group symbols with (a g)(b h) = a sigma(g)(b) alpha(g,h) gh.

    Basis vectors are pairs (D-basis i, group element g), laid out in blocks of
    dim(D) per group element; the degree of block g is g.  The validation
    scan of the result is the compatibility check for (sigma, alpha), and with
    alpha normalized and invertible it covers sigma too: the unit law forces
    sigma(e) = id and sigma(g)(1) = 1, the triples (u_g, b, c) force
    sigma(g)(bc) = sigma(g)(b) sigma(g)(c), and the triples (u_{g^-1}, u_g, b)
    force sigma(g^-1) sigma(g) = conjugation by alpha(g^-1, g), so sigma(g)
    is injective.
    """
    d = spec.coeff
    G = spec.group
    if any(deg != d.group.identity for deg in d.degree):
        raise IncompatibleCocycleData("coefficient algebra must be trivially graded")
    dd = d.dim
    dim = dd * G.order
    if dim > MAX_ALGEBRA_DIM:
        raise DimensionTooLarge(f"crossed product dimension {dim} exceeds {MAX_ALGEBRA_DIM}")
    _check_sigma(spec)
    alpha = _normalized_alpha(spec)
    field = d.field
    sc = {}
    for g in range(G.order):
        for h in range(G.order):
            gh = G.mul(g, h)
            a_gh = alpha[(g, h)].coords
            for j in range(dd):
                sig_ej = spec.sigma[g].mulvec(d.basis_element(j).coords)
                right = d.mul_coords(sig_ej, a_gh)
                for i in range(dd):
                    prod = d.mul_coords(d.basis_element(i).coords, right)
                    terms = tuple((gh * dd + k, c) for k, c in enumerate(prod) if not c.is_zero)
                    if terms:
                        sc[(g * dd + i, h * dd + j)] = terms
    degree = [g for g in range(G.order) for _ in range(dd)]
    unit = [field.zero()] * dim
    for i, c in enumerate(d.unit):
        unit[G.identity * dd + i] = c
    labels = None
    if d.labels is not None:
        labels = [f"{d.label(i)}*{G.label(g)}" if g != G.identity else d.label(i)
                  for g in range(G.order) for i in range(dd)]
    a = GradedAlgebra(field, G, degree, sc, unit, labels=labels,
                      meta={"construction": "crossed_product"})
    return _require_valid(a, error=IncompatibleCocycleData)


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
    is rejected by building the crossed product once.
    """
    G = spec.group
    if all(G.element_order(g) <= 2 for g in range(G.order)):
        return spec
    crossed_product(spec)
    d = spec.coeff
    alpha = _normalized_alpha(spec)
    sigma = spec.sigma

    def act(g: int, x: Element) -> Element:
        return Element(d, sigma[g].mulvec(x.coords))

    c = {g: d.one() if g <= G.inv(g) else act(g, alpha[(G.inv(g), g)].inverse())
         for g in range(G.order)}
    c_inv = {g: x.inverse() for g, x in c.items()}
    new_sigma = {}
    for g in range(G.order):
        cols = [(c[g] * act(g, d.basis_element(j)) * c_inv[g]).coords
                for j in range(d.dim)]
        new_sigma[g] = Matrix(d.field, cols).transpose()
    new_alpha = {(g, h): (c[g] * act(g, c[h]) * alpha[(g, h)] * c_inv[G.mul(g, h)]).coords
                 for g in range(G.order) for h in range(G.order)}
    return CrossedProductSpec(coeff=d, group=G, sigma=new_sigma, alpha=new_alpha)


def trivial_sigma(d: GradedAlgebra, group: GroupTable) -> dict:
    ident = Matrix.identity(d.field, d.dim)
    return {g: ident for g in range(group.order)}


def constant_alpha(d: GradedAlgebra, group: GroupTable, value=None) -> dict:
    if value is None:
        v = tuple(d.unit)
    elif isinstance(value, Element):
        v = tuple(value.coords)
    else:
        v = tuple(d.field.scalar(c) for c in value)
    return {(g, h): v for g in range(group.order) for h in range(group.order)}


def frobenius_crossed_spec(ext: Field, group: GroupTable, sigma_powers,
                           alpha_unit=None) -> CrossedProductSpec:
    """Crossed-product data of a finite field over its prime field F_p, acted on
    by Frobenius powers, with a unit twist.

    sigma_powers lists the Frobenius exponent of each non-identity group
    element in index order (ignored when ext is F_p itself, where the action is
    trivial).  alpha_unit, when given, holds the coefficients of a unit u on
    the basis 1, x, .., x^(m-1); alpha(g, h) = u for g, h both non-identity and
    alpha is 1 against the identity.  Compatibility of the data is left to
    crossed_product's associativity scan.
    """
    base = ext.prime_subfield()
    d = field_as_algebra(ext, base)
    sigma_powers = list(sigma_powers)
    if len(sigma_powers) != group.order - 1:
        raise ValueError("need one Frobenius power per non-identity element")
    ident = Matrix.identity(base, d.dim)
    sigma = {0: ident}
    for g, power in enumerate(sigma_powers, start=1):
        sigma[g] = ident if ext == base else frobenius_matrix(ext, power)
    one = tuple(d.unit)
    u = one if alpha_unit is None else tuple(base.scalar(c) for c in alpha_unit)
    if len(u) > d.dim:
        raise ValueError(f"alpha_unit has more than {d.dim} coefficients")
    u += (base.zero(),) * (d.dim - len(u))
    alpha = {(g, h): u if g and h else one
             for g in range(group.order) for h in range(group.order)}
    return CrossedProductSpec(coeff=d, group=group, sigma=sigma, alpha=alpha)


def cyclic_algebra_spec(p: int) -> CrossedProductSpec:
    """Crossed-product data of the degree-p skew group algebra over F_p.

    The coefficient field is F_p(x) with x^p = x + 1, acted on by Frobenius
    powers, with trivial twisting: y^p = 1 and y a = a^p y.
    """
    if p not in (2, 3, 5, 7):
        raise UnsupportedPrime(f"supported primes are 2, 3, 5, 7; got {p}")
    ext = make_field(p, [p - 1, p - 1] + [0] * (p - 2) + [1])
    return frobenius_crossed_spec(ext, cyclic_group(p), range(1, p))


def cyclic_algebra(p: int) -> GradedAlgebra:
    """The C_p-graded skew group algebra of F_{p^p} over F_p, dimension p^2."""
    a = crossed_product(cyclic_algebra_spec(p))
    a.meta.update({"construction": "cyclic_algebra", "p": p})
    return a


# -- good gradings on matrix algebras ---------------------------------------------------

def good_matrix_algebra(n: int, sigmas, delta: GradedAlgebra) -> GradedAlgebra:
    """n x n matrices over delta, graded so block (i,j) of degree g is
    delta's component at sigma_i g sigma_j^-1.

    The basis vector at matrix position (i,j) tensored with a delta basis
    vector of degree t has degree sigma_i^-1 t sigma_j.
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
    sc = {}
    for i in range(n):
        for j in range(n):
            for t in range(dd):
                for l in range(n):
                    for s in range(dd):
                        terms = tuple((index(i, l, r), c)
                                      for r, c in delta.basis_product(t, s))
                        if terms:
                            sc[(index(i, j, t), index(j, l, s))] = terms
    unit = [field.zero()] * dim
    for i in range(n):
        for t, c in enumerate(delta.unit):
            unit[index(i, i, t)] = c
    labels = [f"E{i + 1}{j + 1}" + (f"*{delta.label(t)}" if dd > 1 else "")
              for i in range(n) for j in range(n) for t in range(dd)]
    a = GradedAlgebra(field, g, degree, sc, unit, labels=labels,
                      meta={"construction": "good_matrix_algebra", "n": n,
                            "sigmas": sigmas, "delta_dim": dd})
    return _require_valid(a)


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
    vector gets degree g^-1, matching the grading of the dual space.
    """
    d = a.dim
    field = a.field
    sc = dict(a.sc)
    for (l, m), terms in a.sc.items():
        for j, c in terms:
            sc.setdefault((m, d + j), []).append((d + l, c))
            sc.setdefault((d + j, l), []).append((d + m, c))
    degree = list(a.degree) + [a.group.inv(g) for g in a.degree]
    unit = list(a.unit) + [field.zero()] * d
    labels = None
    if a.labels is not None:
        labels = list(a.labels) + [f"f({lbl})" for lbl in a.labels]
    out = GradedAlgebra(field, a.group, degree, sc, unit, labels=labels,
                        meta={"construction": "trivial_extension"})
    return _require_valid(out)


def direct_product(a: GradedAlgebra, b: GradedAlgebra) -> GradedAlgebra:
    if a.field != b.field:
        raise FieldMismatch("direct product needs a common base field")
    if a.group != b.group:
        raise GroupMismatch("direct product needs a common grading group")
    da = a.dim
    sc = dict(a.sc)
    for (i, j), terms in b.sc.items():
        sc[(da + i, da + j)] = tuple((da + k, c) for k, c in terms)
    degree = list(a.degree) + list(b.degree)
    unit = list(a.unit) + list(b.unit)
    out = GradedAlgebra(a.field, a.group, degree, sc, unit,
                        meta={"construction": "direct_product"})
    return _require_valid(out)


def tensor_product(a: GradedAlgebra, b: GradedAlgebra) -> GradedAlgebra:
    """Componentwise product on basis pairs; needs an abelian grading group."""
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
    sc = {}
    for (i1, i2), terms_a in a.sc.items():
        for (j1, j2), terms_b in b.sc.items():
            out = {}
            for k, ca in terms_a:
                for l, cb in terms_b:
                    c = ca * cb
                    if not c.is_zero:
                        out[k * db + l] = c
            if out:
                sc[(i1 * db + j1, i2 * db + j2)] = tuple(sorted(out.items()))
    degree = [a.group.mul(ga, gb) for ga in a.degree for gb in b.degree]
    unit = [ca * cb for ca in a.unit for cb in b.unit]
    out = GradedAlgebra(a.field, a.group, degree, sc, unit,
                        meta={"construction": "tensor_product"})
    return _require_valid(out)


def scalar_extension(a: GradedAlgebra, m: int) -> GradedAlgebra:
    """The same structure constants reinterpreted over the degree-m extension."""
    if a.field.char == 0:
        raise RationalsNotSupported("scalar extension needs a finite base field")
    if m == 1:
        return a
    if a.field.degree * m > 6:
        raise DimensionTooLarge("extension degree beyond 6 is out of scope")
    target = extend_field(a.field, m)
    sc = {ij: tuple((k, embed_scalar(c, target)) for k, c in terms)
          for ij, terms in a.sc.items()}
    unit = [embed_scalar(c, target) for c in a.unit]
    out = GradedAlgebra(target, a.group, a.degree, sc, unit, labels=a.labels,
                        meta=dict(a.meta))
    return _require_valid(out)


def ungrade(a: GradedAlgebra) -> GradedAlgebra:
    """Forget the grading: the same algebra over the trivial group."""
    if a.group.order == 1:
        return a
    g = trivial_group()
    out = GradedAlgebra(a.field, g, [0] * a.dim, a.sc, a.unit, labels=a.labels,
                        meta=dict(a.meta))
    return _require_valid(out)


def subspace_algebra(a: GradedAlgebra, s: Subspace) -> GradedAlgebra:
    """The unital subalgebra on a multiplicatively closed subspace.

    Degrees are inherited when every basis row of s is homogeneous; otherwise
    the result is trivially graded.
    """
    if s.ambient_dim != a.dim or s.field != a.field:
        raise AmbientMismatch("subspace does not live in the algebra's coordinate space")
    try:
        unit = s.reduce_vector(list(a.unit))
    except AmbientMismatch:
        raise UnitMissing("subspace does not contain the unit") from None
    rows = [list(r) for r in s.basis]
    r = len(rows)
    products = {}
    for i in range(r):
        for j in range(r):
            try:
                products[(i, j)] = s.reduce_vector(a.mul_coords(rows[i], rows[j]))
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
    sc = {}
    for (i, j), coords in products.items():
        terms = tuple((k, c) for k, c in enumerate(coords) if not c.is_zero)
        if terms:
            sc[(i, j)] = terms
    out = GradedAlgebra(a.field, group, degrees, sc, unit,
                        meta={"construction": "subspace_algebra"})
    return _require_valid(out)


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
