"""Structural invariants: centers, commutator spaces, support, invertibility.

Everything reduces to exact kernels of commutation constraints or to spans of
commutators.  Graded-division recognition follows the definition: the identity
component must be a division algebra and every nonzero component must contain
an invertible element; together these make every nonzero homogeneous element
invertible (a = (a u^-1) u with a u^-1 invertible in the identity component).
So once the identity component is division, each other component is decided
by inverting any one of its nonzero elements.

Over finite fields the identity component is decided exhaustively: every
nonzero element is covered, in `Field.vectors` order, and the first singular
one is the No witness.  Since L_{cx} = c L_x, one element decides its whole
line F_q^* x, so the scan tests L_x only for the line representatives, the
x whose last nonzero coordinate is 1; each is the first member of its line
in that order.  A_e over F_q = F_{p^k} is taken over F_p by restriction of
scalars: an n x n matrix over F_q becomes the N x N matrix over F_p, N = n k,
whose k x k blocks multiply by its entries, and its determinant is the norm
of the one over F_q, so one is nonsingular exactly when the other is.  Each
row of that matrix is one Python int, one lane of w bits per column
(`linalg.packed_nonsingular`).  The scan walks the representatives with L_x
updated by integer multiples of precomputed packed matrices, so each lane
is an exact, never reduced sum of at most N (p - 1)^2; the elimination
reduces only its pivots and multipliers mod p.  w covers that bound times
p^N, and p^N = q^n is at most SCAN_BOUND, so w is at most 60 bits.  No
Element, Matrix or Scalar is built per element, and no F_q product or
inverse is taken.  A Yes still reports `scan_size` = q^n - 1, the nonzero
elements the scan covers, and a No the witness's index in `Field.vectors`
order: the certificate says what was proved, not how many matrices were
eliminated.

Over the rationals only two certificates are accepted: quaternion parameters,
read off the table, making the norm form positive definite, and commutative
identity components of dimension <= 3 with an element whose minimal
polynomial has full degree and no rational root (degree <= 3, so that means
irreducible).  Anything else is reported Unknown rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .algebras import Element, GradedAlgebra, _solve_raw, quaternion_algebra
from .errors import AmbientMismatch
from .fields import Scalar
from .linalg import Subspace, lane_width, packed_nonsingular, sparse_kernel, sparse_span
from .multipoly import linear_pencil, nonvanishing_point, structured_det

SCAN_BOUND = 10 ** 6


def center(a: GradedAlgebra) -> Subspace:
    """Kernel of the stacked constraints x e_i = e_i x over all basis i."""
    return centralizer(a, Subspace.full(a.field, a.dim))


def centralizer(a: GradedAlgebra, s: Subspace) -> Subspace:
    """All x with xv = vx for every v in s, as the kernel of the constraints
    built and reduced on raw field values."""
    if s.ambient_dim != a.dim or s.field != a.field:
        raise AmbientMismatch("subspace does not match the algebra's coordinates")
    ops = a.field.ops
    zero, add, sub, mul, is_zero = ops.zero, ops.add, ops.sub, ops.mul, ops.is_zero
    products = a.table
    rows = []
    for v in s.basis:
        terms = [(i, c) for i, c in enumerate(ops.unwrap(v)) if not is_zero(c)]
        # row k: sum_l x_l ((e_l v)_k - (v e_l)_k) = 0
        constraint = [{} for _ in range(a.dim)]
        for l in range(a.dim):
            for i, c in terms:
                for k, b in products[l][i]:
                    row = constraint[k]
                    row[l] = add(row.get(l, zero), mul(c, b))
                for k, b in products[i][l]:
                    row = constraint[k]
                    row[l] = sub(row.get(l, zero), mul(c, b))
        for row in constraint:
            row = {l: x for l, x in row.items() if not is_zero(x)}
            if row:
                rows.append(row)
    return sparse_kernel(ops, a.dim, rows)


def commutator_pairs(a: GradedAlgebra, graded: bool = False):
    """Basis pairs i < j, in order; graded keeps the pairs of mutually
    inverse degrees, whose commutators land in the identity component."""
    if not graded:
        return ((i, j) for i in range(a.dim) for j in range(i + 1, a.dim))
    inverse_degree = [a.group.inv(g) for g in a.degree]
    return ((i, j) for i in range(a.dim) for j in range(i + 1, a.dim)
            if a.degree[j] == inverse_degree[i])


def commutator_rows(a: GradedAlgebra, pairs):
    """The nonzero commutators [e_i, e_j] over the basis pairs, as sparse
    rows {k: raw value} of a.field.ops.

    Products are stored sorted and without zero terms, so [e_i, e_j] = 0
    exactly when e_i e_j and e_j e_i have the same terms.
    """
    ops, table = a.field.ops, a.table
    for i, j in pairs:
        ij, ji = table[i][j], table[j][i]
        if ij == ji:
            continue
        row = dict(ij)
        ops.sparse_sub_scaled(row, ops.one, dict(ji))
        yield row


def _commutator_span(a: GradedAlgebra, pairs) -> Subspace:
    """Span of the commutators [e_i, e_j] over the given basis pairs."""
    return sparse_span(a.field.ops, a.dim, commutator_rows(a, pairs))


def commutator_subspace(a: GradedAlgebra) -> Subspace:
    """Span of all [e_i, e_j]; bilinearity makes basis pairs i < j enough."""
    return _commutator_span(a, commutator_pairs(a))


def graded_commutator_space(a: GradedAlgebra) -> Subspace:
    """Span of [u, v] over homogeneous basis pairs of mutually inverse degrees.

    Lands inside the identity component; for graded division algebras its
    properness there decides graded symmetry.  [e_j, e_i] = -[e_i, e_j], so
    the pairs i < j are enough.
    """
    return _commutator_span(a, commutator_pairs(a, graded=True))


def support(a: GradedAlgebra) -> tuple:
    """Degrees with a nonzero homogeneous component, sorted."""
    return tuple(sorted({g for g in a.degree}))


def component_has_invertible(a: GradedAlgebra, g: int):
    """Decide whether the degree-g component contains an invertible element.

    The left-multiplication matrix of a generic component element has entries
    linear in its coordinates; an invertible element exists iff the symbolic
    determinant is not identically zero, and a witness over the base field is
    produced by the deterministic point search.  It always finds one, by the
    descent argument of symmetry.decide_form_existence applied to A = A(g)
    as graded left modules (x in A_g is a unit iff right multiplication by x
    is such an isomorphism); a walk of the whole base field that finds none
    raises AssertionError.  Returns (exists, witness_or_None,
    point_search_result).
    """
    indices = a.component_indices(g)
    if not indices:
        return False, None, None
    field = a.field
    # column j of L_x is x e_j, and x = sum_r t_r e_{indices[r]}
    pencil = linear_pencil(field, a.dim, len(indices), (
        (k, j, r, c) for r, i in enumerate(indices) for j, terms in enumerate(a.table[i])
        for k, c in terms))
    result = nonvanishing_point(structured_det(pencil), field)
    if result.status == "identically_zero":
        return False, None, None
    if not result.found:
        raise AssertionError("a nonzero unit determinant has no point over the base "
                             "field, against descent from its extensions; this is a bug")
    coords = [field.zero()] * a.dim
    for r, i in enumerate(indices):
        coords[i] = result.point[r]
    witness = Element(a, coords)
    if witness.inverse() is None:
        raise AssertionError("point search returned a non-invertible witness")
    return True, witness, result


@dataclass
class DivisionVerdict:
    """Yes/No/Unknown with a checkable certificate or witness."""

    status: str  # "yes" | "no" | "unknown"
    certificate: dict
    witness: Element | None = None

    @property
    def is_yes(self) -> bool:
        return self.status == "yes"


def _identity_component_algebra(a: GradedAlgebra) -> GradedAlgebra:
    """A_e on the basis vectors of degree e, in their order in a.

    a is graded, so their products and the unit lie in A_e: this is
    subspace_algebra of homogeneous_component(a, e), read off a.table by
    index.
    """
    e = a.group.identity
    indices = a.component_indices(e)
    if len(indices) == a.dim:
        return a
    position = {i: r for r, i in enumerate(indices)}
    sc = {(position[i], position[j]): [(position[k], c) for k, c in a.table[i][j]]
          for i in indices for j in indices}
    return GradedAlgebra._from_raw(a.field, a.group, [e] * len(indices), sc,
                                   [a.unit[i] for i in indices])


def _restricted_left_mults(e_alg: GradedAlgebra, w: int) -> list:
    """M[i*k + s]: the packed F_p-matrix of x^s L_{e_i}, for F_q = F_p(x) of degree k.

    An F_q entry a of an n x n matrix becomes its k x k block over F_p, whose
    column t holds the coefficients of a x^t, so row r*k + u of the N = n*k
    rows has in lane j*k + t the coefficient u of L_{e_i}[r][j] x^(s + t).
    """
    n, k, ops = e_alg.dim, e_alg.field.degree, e_alg.field.ops
    powers, x = [ops.one], ops.from_coefficients((0, 1))
    for _ in range(2 * k - 2):
        powers.append(ops.mul(powers[-1], x))
    multiples = {}
    packed = [[0] * (n * k) for _ in range(n * k)]
    # column j of L_{e_i} is e_i e_j, so a term (r, c) of it is entry (r, j)
    for i, row in enumerate(e_alg.table):
        for j, terms in enumerate(row):
            for r, c in terms:
                if c not in multiples:
                    multiples[c] = [ops.coefficients(ops.mul(c, x)) for x in powers]
                for s in range(k):
                    rows = packed[i * k + s]
                    for t in range(k):
                        shift = (j * k + t) * w
                        for u, coeff in enumerate(multiples[c][s + t]):
                            rows[r * k + u] += coeff << shift
    return packed


def _scan_division(e_alg: GradedAlgebra):
    """Decide whether every nonzero element of a finite algebra is invertible.

    x is invertible iff L_x is nonsingular (see Element.inverse), and
    L_x = sum_i x_i L_{e_i} is linear in x, so L_{cx} = c L_x: one element
    decides its whole line F_q^* x.  Only the line representatives, the x
    whose last nonzero coordinate is 1, are tested.  Each is the first
    member of its line in Field.vectors order, so the first singular one is
    the first zero divisor of the full scan.

    Over F_q = F_p(x) of degree k, L_x is tested as the N x N matrix over
    F_p that it is by restriction of scalars, N = n k: each entry becomes
    its k x k multiplication block, and the determinant over F_p is the
    norm of the one over F_q, so one is nonsingular exactly when the other
    is.  With x_i = sum_s c_is x^s, the restriction of L_x is the integer
    combination sum_is c_is M[i*k + s] of the restrictions of x^s L_{e_i},
    held with each row packed into one int, one w-bit lane per column
    (linalg.packed_nonsingular).  Since x_i = element_at(d_i) has the base-p
    digits of d_i as its coefficients, the index of x in Field.vectors order
    has the digits c_is, i*k + s from least significant up.  So the
    representatives with last nonzero coordinate j are walked by an
    odometer over the j k digits before x_j = 1, and a digit stepping from
    c to c' adds (c' - c) M[i*k + s]: every lane stays the exact sum, at most
    N (p - 1)^2, and nothing is reduced mod p.  Elimination multiplies that
    bound by at most p per column, so w = lane_width(N, p) covers
    N (p - 1)^2 p^N; since p^N = q^n is at most SCAN_BOUND, that is 60 bits
    at most (N = 1 over the largest prime below 10^6), 41 for F_997 with
    N = 2 and 24 for F_2 with N = 19.

    Returns (all invertible, first singular element or None, count).  The
    count is the number of elements covered: q^n - 1 on a Yes, and on a No
    the witness's index in Field.vectors order, as when every nonzero
    element was eliminated in turn.
    """
    field, n = e_alg.field, e_alg.dim
    p, k = field.char, field.degree
    w = lane_width(n * k, p)
    packed = _restricted_left_mults(e_alg, w)
    for j in range(n):
        # x_j = 1 is the single digit c_j0 = 1
        lx = packed[j * k]
        digits = [0] * (j * k)
        while True:
            if not packed_nonsingular(lx, p, w):
                coords = ([field.scalar(digits[i:i + k]) for i in range(0, j * k, k)]
                          + [field.one()] + [field.zero()] * (n - j - 1))
                index = p ** (j * k) + sum(c * p ** t for t, c in enumerate(digits))
                return False, Element(e_alg, tuple(coords)), index
            for t in range(j * k):
                c = digits[t] = (digits[t] + 1) % p
                delta = 1 if c else 1 - p
                lx = [row + delta * m for row, m in zip(lx, packed[t])]
                if c:
                    break
            else:
                break
    return True, None, field.size() ** n - 1


def _min_poly(e_alg: GradedAlgebra, el: Element):
    """Minimal polynomial coefficients (monic, low first) of el over the rationals."""
    ops = e_alg.field.ops
    powers, power = [e_alg.unit], e_alg.one()
    for _ in range(e_alg.dim):
        power = power * el
        # None while the powers so far stay linearly independent
        deps = _solve_raw(ops, list(zip(*powers)), ops.unwrap(power.coords))
        if deps is not None:
            return [-c for c in ops.wrap(deps)] + [e_alg.field.one()]
        powers.append(ops.unwrap(power.coords))
    raise AssertionError("minimal polynomial must exist in a finite-dimensional algebra")


def _rational_division_check(e_alg: GradedAlgebra):
    """Certificate-based division test over Q; Unknown when no criterion applies."""
    if e_alg.dim == 1:
        return DivisionVerdict("yes", {"kind": "scalar-field"})
    # the quaternion parameters are the coefficients of e_0 in e_1^2 and e_2^2
    a_val, b_val = (dict(e_alg.table[i][i]).get(0) for i in (1, 2)) if e_alg.dim == 4 else (0, 0)
    h = quaternion_algebra(e_alg.field, a_val, b_val) if a_val and b_val else None
    if h is not None and (h.table, h.unit) == (e_alg.table, e_alg.unit):
        if a_val < 0 and b_val < 0:
            return DivisionVerdict("yes", {
                "kind": "positive-definite-norm-form",
                "a": str(a_val), "b": str(b_val)})
        return DivisionVerdict("unknown", {"kind": "rationals-uncertified",
                                           "reason": "norm form not definite by sign check"})
    commutative = all(
        e_alg.table[i][j] == e_alg.table[j][i]
        for i in range(e_alg.dim) for j in range(i + 1, e_alg.dim))
    if commutative and e_alg.dim <= 3:
        candidates = [e_alg.basis_element(i) for i in range(e_alg.dim)]
        for i in range(e_alg.dim):
            for j in range(i + 1, e_alg.dim):
                candidates.append(e_alg.basis_element(i) + e_alg.basis_element(j))
        for el in candidates:
            coeffs = _min_poly(e_alg, el)
            deg = len(coeffs) - 1
            if deg < 2:
                continue
            roots = _rational_roots(coeffs)
            if deg == e_alg.dim and not roots:
                return DivisionVerdict("yes", {
                    "kind": "irreducible-minimal-polynomial",
                    "element": [c.to_json() for c in el.coords],
                    "min_poly": [c.to_json() for c in coeffs]})
            if roots:
                # a rational root r makes el - r a zero divisor
                root_witness = None
                for r_num in roots:
                    cand = el - r_num * e_alg.one()
                    if not cand.is_zero and cand.inverse() is None:
                        root_witness = cand
                        break
                if root_witness is not None:
                    return DivisionVerdict("no", {"kind": "zero-divisor"}, root_witness)
        return DivisionVerdict("unknown", {"kind": "rationals-uncertified",
                                           "reason": "no primitive element certified"})
    return DivisionVerdict("unknown", {"kind": "rationals-uncertified",
                                       "reason": "no accepted certificate applies"})


def _rational_roots(coeffs):
    """The rational roots of f = sum_i coeffs[i] x^i, each once, by (|numerator|,
    denominator, positive first); [0] alone when the constant term is 0.  With
    integer coefficients c_i and leading one L, g(y) = L^(n-1) f(y / L) is
    monic in Z[y], so its rational roots y = L x are integers, found by
    bisection (_integer_brackets) instead of by factoring the constant term."""
    fractions = [c.val for c in coeffs]
    denom = 1
    for f in fractions:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fractions]
    field = coeffs[0].field
    if ints[0] == 0:
        return [field.zero()]
    n, lead = len(ints) - 1, ints[-1]
    g = [c * lead ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    bound = 1 + max(abs(c) for c in g[:-1])  # Cauchy: every root has |y| < bound
    roots = {Fraction(y, lead) for y in _integer_brackets(g, -bound, bound)
             if _poly_at(g, y) == 0}
    return [Scalar(field, r) for r in sorted(
        roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))]


def _poly_at(poly, y):
    acc = 0
    for c in reversed(poly):
        acc = acc * y + c
    return acc


def _integer_brackets(poly, lo: int, hi: int) -> list:
    """Sorted integers of [lo, hi], lo and hi among them, holding the floor and
    ceiling of each real root of poly in [lo, hi].  Between brackets of the
    derivative 2 or more apart, poly is monotone, so a sign change there is
    one root, which bisection pins to a unit interval."""
    if len(poly) <= 1:
        return [lo, hi]
    points = _integer_brackets([i * c for i, c in enumerate(poly)][1:], lo, hi)
    out = set(points)
    for a, b in zip(points, points[1:]):
        fa = _poly_at(poly, a)
        if b - a < 2 or fa * _poly_at(poly, b) >= 0:
            continue
        while b - a > 1:  # a root at m stays an end: the other values keep their signs
            m = (a + b) // 2
            if (_poly_at(poly, m) < 0) == (fa < 0):
                a = m
            else:
                b = m
        out.update((a, b))
    return sorted(out)


def is_graded_division(a: GradedAlgebra) -> DivisionVerdict:
    """Decide whether every nonzero homogeneous element is invertible.

    Splits into: the identity component is a division algebra, and every
    nonzero component contains an invertible element.  Given the first, an
    invertible u in A_g makes every nonzero a = (a u^-1) u in A_g invertible,
    so one inverse per component decides the second; the last basis vector
    is tested and recorded as the witness.  A No verdict carries a
    homogeneous witness whose left multiplication is singular.
    """
    e = a.group.identity
    e_alg = _identity_component_algebra(a)
    if a.field.is_finite:
        if a.field.size() ** e_alg.dim > SCAN_BOUND:
            id_verdict = DivisionVerdict("unknown", {
                "kind": "scan-bound-exceeded", "bound": SCAN_BOUND})
        else:
            ok, bad, count = _scan_division(e_alg)
            if ok:
                id_verdict = DivisionVerdict("yes", {"kind": "exhaustive",
                                                     "scan_size": count})
            else:
                id_verdict = DivisionVerdict("no", {"kind": "zero-divisor"}, bad)
    else:
        id_verdict = _rational_division_check(e_alg)
    if id_verdict.status != "yes":
        witness = id_verdict.witness
        if witness is not None and e_alg is not a:
            # coordinate r of e_alg is coordinate indices[r] of a
            coords = [a.field.zero()] * a.dim
            for i, c in zip(a.component_indices(e), witness.coords):
                coords[i] = c
            witness = Element(a, tuple(coords))
        return DivisionVerdict(id_verdict.status,
                               {"identity_component": id_verdict.certificate},
                               witness)
    component_info = {}
    for g in support(a):
        if g == e:
            continue
        indices = a.component_indices(g)
        witness = a.basis_element(indices[-1])
        if witness.inverse() is None:
            bad = a.basis_element(indices[0])
            if bad.inverse() is not None:
                raise AssertionError(f"component {g} mixes invertible and "
                                     "non-invertible basis elements over a division A_e")
            return DivisionVerdict("no", {
                "identity_component": id_verdict.certificate,
                "component_without_invertible": g}, bad)
        component_info[g] = [c.to_json() for c in witness.coords]
    verdict = DivisionVerdict("yes", {
        "identity_component": id_verdict.certificate,
        "component_witnesses": component_info})
    sub = a.group.subgroup_generated(support(a))
    if sub != support(a):
        raise AssertionError("support of a graded division algebra must be a subgroup")
    return verdict
