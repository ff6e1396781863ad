"""Structural invariants: centers, commutator spaces, support, invertibility.

Everything reduces to exact kernels of commutation constraints or to spans of
commutators.  Graded-division recognition follows the definition: the identity
component must be a division algebra and every nonzero component must contain
an invertible element; together these make every nonzero homogeneous element
invertible (a = (a u^-1) u with a u^-1 invertible in the identity component).
So once the identity component is division, each other component is decided
by inverting any one of its nonzero elements.

Over finite fields a commutative A_e is first given to its Frobenius map
Φ(x) = x^q (`_frobenius_verdict`; Berlekamp 1970), which decides it when
A_e is local, that is when the fixed space of Φ is F_q·1.  The non-units
are then the radical J = ker Φ^K, for q^K >= dim A_e.  J = 0 makes A_e a
field: every nonzero element is a unit, and the Yes is the scan's
certificate, q^n - 1 elements covered.  Otherwise the least nonzero vector
of J in `Field.vectors` order is its RREF row with the lowest pivot, each
row's pivot taken at its highest coordinate.  So that row is the first zero
divisor the scan would meet, and it is the No witness, at any size.

Every other finite A_e, non-commutative or commutative and not local, is
scanned: every nonzero element is covered, in `Field.vectors` order, and
the first singular one is the No witness.  Since L_{cx} = c L_x, one
element decides its whole line F_q^* x, so the scan eliminates L_x only for
the line representatives, the x whose last nonzero coordinate is 1; each
is the first member of its line in that order.  A Yes reports `scan_size` =
q^n - 1, the nonzero elements covered, and a No the witness's index in
that order: the certificate says what was proved, not how many matrices
were eliminated.

Nothing that reaches the scan is division: a finite division algebra is a
field (Wedderburn 1905), and a commutative algebra that is not local is
not one.  So the scan stops early.  The non-units of A_e are the union of
its maximal left ideals, and a maximal left ideal M has codimension s, the
dimension over F_q of the simple module A_e/M; so span(e_0, .., e_s) meets
M, and the first zero divisor has index below q^(s+1).  With
A_e/J = prod M_k(F_{q^r}), the simple modules have dims k r, and when A_e
is not division one of them has s <= n/2: with two or more factors, the
least k r is at most half of sum k^2 r <= n; one factor with k >= 2 has
k r <= k^2 r / 2; one field F_{q^r} with J != 0 has dim J >= r, since J/J^2
is a nonzero F_{q^r}-space.  So the first zero divisor lies below
q^(floor(n/2) + 1), and the scan eliminates fewer than 2 q^(n/2) matrices.
The scan stops at index SCAN_BOUND, at any size of A_e: when
q^(floor(n/2) + 1) is within that cap it always finds its zero divisor,
and otherwise a zero divisor below the cap is still a No, and a walk that
reaches the cap is Unknown.

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

from .algebras import (Element, GradedAlgebra, _left_rows, _solve_raw, quaternion_algebra,
                       sparse_combination)
from .errors import AmbientMismatch
from .fields import Scalar
from .linalg import SparseEchelon, Subspace, eliminate_raw, sparse_kernel, sparse_span
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
    exactly when e_i e_j and e_j e_i have the same terms.  A pair whose two
    products were met before, in either order, gives a row already yielded
    or its negative, which spans nothing new, so it is skipped.  Tensor
    products repeat many: the 258 nonzero commutators of the basis of
    Sweedler (x) M_3 come from 66 such pairs of products.
    """
    ops, table = a.field.ops, a.table
    seen = set()
    for i, j in pairs:
        ij, ji = table[i][j], table[j][i]
        if ij == ji or (ij, ji) in seen:
            continue
        seen.add((ij, ji))
        seen.add((ji, ij))
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


def regular_trace(a: GradedAlgebra, indices) -> list:
    """The raw values of the regular trace of the span of the basis vectors
    at indices: entry k, for k in indices, is the trace of L_{e_k} there,
    the sum over j in indices of the coefficient of e_j in e_k e_j; the
    other entries are 0.  The span must be a subalgebra."""
    ops = a.field.ops
    values = [ops.zero] * a.dim
    for k in indices:
        row = a.table[k]
        acc = ops.zero
        for j in indices:
            for l, c in row[j]:
                if l == j:
                    acc = ops.add(acc, c)
        values[k] = acc
    return values


def form_rows(a: GradedAlgebra, x) -> list:
    """The rows of the bilinear form (i, j) -> x(e_i e_j) on raw values, for
    a functional given by its raw values x on the basis, in one pass over the
    table."""
    ops = a.field.ops

    def value(terms):
        acc = ops.zero
        for k, c in terms:
            if not ops.is_zero(x[k]):
                acc = ops.add(acc, ops.mul(c, x[k]))
        return acc

    return [[value(terms) for terms in row] for row in a.table]


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
    table = [[tuple([(position[k], c) for k, c in a.table[i][j]]) for j in indices]
             for i in indices]
    return GradedAlgebra._from_raw(a.field, a.group, [e] * len(indices), table,
                                   [a.unit[i] for i in indices])


def _scan_division(e_alg: GradedAlgebra):
    """Decide whether every nonzero element of a finite algebra is invertible.

    x is invertible iff L_x is nonsingular (see Element.inverse), and
    L_x = sum_i x_i L_{e_i} is linear in x, so L_{cx} = c L_x: one element
    decides its whole line F_q^* x.  Only the line representatives, the x
    whose last nonzero coordinate is 1, are tested.  Each is the first
    member of its line in Field.vectors order, so the first singular one is
    the first zero divisor of the full scan.  The representatives whose last
    nonzero coordinate is j are the indices q^j + k, k < q^j, in that order,
    and coordinate i of index d is element_at(d // q^i % q).

    Returns (all invertible, first singular element or None, count).  The
    count is the number of elements covered: q^n - 1 on a Yes, and on a No
    the witness's index in Field.vectors order, as when every nonzero
    element was eliminated in turn.  The walk stops at index SCAN_BOUND and
    returns None when no index below it is a zero divisor.  Whatever
    _identity_verdict hands it is never division, so it returns a No below
    index q^(floor(n/2) + 1) (see the module docstring); only a direct call
    on a field of at most SCAN_BOUND elements walks every line.
    """
    field, n, ops = e_alg.field, e_alg.dim, e_alg.field.ops
    q = field.size()
    for j in range(n):
        for index in range(q ** j, 2 * q ** j):
            if index >= SCAN_BOUND:
                return None
            coords = tuple(field.element_at(index // q ** i % q) for i in range(n))
            lx = _left_rows(e_alg, ops.unwrap(coords))
            if eliminate_raw(ops, lx, n, stop_at_gap=True) is None:
                return False, Element(e_alg, coords), index
    return True, None, q ** n - 1


def _is_commutative(a: GradedAlgebra) -> bool:
    """Whether e_i e_j = e_j e_i for all i < j: the tables are canonical, so
    equal products have equal terms."""
    table = a.table
    return all(table[i][j] == table[j][i] for i in range(a.dim) for j in range(i + 1, a.dim))


def _frobenius_verdict(e_alg: GradedAlgebra) -> DivisionVerdict | None:
    """The verdict of _scan_division on the commutative finite algebra e_alg,
    found without scanning when e_alg is local; None when it is not.

    In a commutative finite algebra C over F_q the non-units are the union of
    the maximal ideals, and when C is local they are its radical J.
    Φ(x) = x^q is F_q-linear on C, and J = ker Φ^K for q^K >= dim C, since
    J^dim C = 0.  C is local exactly when the fixed space of Φ is F_q·1, of
    dim 1 (Berlekamp 1970).  A local C with J = 0 is a field: every nonzero
    element is a unit, and the Yes is the scan's, q^n - 1 elements covered.
    Otherwise the No witness is the least nonzero vector of J.

    The scan's order compares coordinate n - 1 first, so the least nonzero
    vector of a subspace is the row with the lowest pivot of its RREF with
    each row's pivot at its highest nonzero coordinate, scaled to 1 there.
    Reducing the rows of Φ^K with pivots at their lowest columns gives it:
    the kernel vector of the least free column f, 1 at f and minus each
    pivot row's entry at f, is zero past f and at every other free column.
    """
    field, n, table = e_alg.field, e_alg.dim, e_alg.table
    ops = field.ops
    zero, one = ops.zero, ops.one

    def product(x, y):
        # x y = sum_i x_i (e_i y), and e_i y = sum_j y_j e_i e_j
        return sparse_combination(ops, x.items(), {
            i: sparse_combination(ops, y.items(), table[i]).items() for i in x})

    def frobenius(x):
        # x^q by square-and-multiply
        power, e = None, field.size()
        while True:
            if e & 1:
                power = x if power is None else product(power, x)
            e >>= 1
            if not e:
                return power
            x = product(x, x)

    # column j of Φ is e_j^q; the rank of Φ - 1 is that of its columns
    phi = [frobenius({j: one}) for j in range(n)]
    fixed = SparseEchelon(ops, n)
    for j, image in enumerate(phi):
        column = dict(image)
        ops.sparse_sub_scaled(column, one, {j: one})
        fixed.add(column)
    if len(fixed.rows) != n - 1:
        return None
    # the columns of Φ^K, for the least K with q^K >= n
    images = [image.items() for image in phi]
    columns, reach = phi, field.size()
    while reach < n:
        columns = [sparse_combination(ops, v.items(), images) for v in columns]
        reach *= field.size()
    radical = SparseEchelon(ops, n)
    rows = [{} for _ in range(n)]
    for j, column in enumerate(columns):
        for k, v in column.items():
            rows[k][j] = v
    radical.add_all(rows)
    free = [f for f in range(n) if f not in radical.rows]
    if not free:
        return DivisionVerdict("yes", {"kind": "exhaustive", "scan_size": field.size() ** n - 1})
    f = free[0]
    witness = [zero] * n
    witness[f] = one
    for p, row in radical.rows.items():
        if f in row:
            witness[p] = ops.sub(zero, row[f])
    if eliminate_raw(ops, _left_rows(e_alg, witness), n, stop_at_gap=True) is not None:
        raise AssertionError("the least vector of the radical is invertible; this is a bug")
    return DivisionVerdict("no", {"kind": "zero-divisor"}, Element(e_alg, ops.wrap(witness)))


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
    if _is_commutative(e_alg) and e_alg.dim <= 3:
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
    canonical = field.ops.canonical
    roots = {canonical(Fraction(y, lead)) for y in _integer_brackets(g, -bound, bound)
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


def _identity_verdict(e_alg: GradedAlgebra) -> DivisionVerdict:
    """Whether the identity component e_alg is a division algebra; see
    is_graded_division.

    Over Q this is the certificate check.  A commutative finite e_alg goes
    to _frobenius_verdict, whose No holds at any size and whose Yes is kept
    up to SCAN_BOUND: the Yes states that every nonzero element was covered,
    which only a scan re-checks, so past the bound it waits for a
    certificate of its own and is Unknown.  Whatever is left, a
    non-commutative or a non-local e_alg, is never division, at any size:
    the scan, capped at SCAN_BOUND indices, answers No when the first zero
    divisor lies below the cap, and Unknown otherwise.  The first zero
    divisor lies below q^(floor(n/2) + 1), so when that is within the cap,
    a scan that finds none is a bug and raises AssertionError.
    """
    if not e_alg.field.is_finite:
        return _rational_division_check(e_alg)
    q, n = e_alg.field.size(), e_alg.dim
    unknown = DivisionVerdict("unknown", {"kind": "scan-bound-exceeded", "bound": SCAN_BOUND})
    verdict = _frobenius_verdict(e_alg) if _is_commutative(e_alg) else None
    if verdict is not None:
        return unknown if verdict.is_yes and q ** n > SCAN_BOUND else verdict
    scanned = _scan_division(e_alg)
    if scanned is not None and not scanned[0]:
        return DivisionVerdict("no", {"kind": "zero-divisor"}, scanned[1])
    if scanned is not None or q ** (n // 2 + 1) <= SCAN_BOUND:
        raise AssertionError("a non-commutative or non-local algebra has no zero divisor "
                             "below q^(n/2 + 1); this is a bug")
    return unknown


def is_graded_division(a: GradedAlgebra) -> DivisionVerdict:
    """Decide whether every nonzero homogeneous element is invertible.

    Splits into: the identity component is a division algebra, and every
    nonzero component contains an invertible element.  Given the first, an
    invertible u in A_g makes every nonzero a = (a u^-1) u in A_g invertible,
    so one inverse per component decides the second; the last basis vector
    is tested and recorded as the witness.  A No verdict carries a
    homogeneous witness of a whose left multiplication is singular.

    A_e is decided by _identity_verdict on A_e re-indexed as an algebra of
    its own, and a No witness is lifted into a.  Over a finite field, a
    commutative A_e is first given to its Frobenius map Φ(x) = x^q, which
    decides it when A_e is local: the non-units are then its radical
    J = ker Φ^K.  J = 0 makes A_e a field, a Yes with the scan's
    certificate, q^n - 1 elements covered; otherwise the least vector of J
    in scan order, its lowest-pivot RREF row, is the witness the scan would
    return, and that No holds however large A_e is.  A field with
    more than SCAN_BOUND elements is Unknown.  What Φ does not decide is
    scanned up to index SCAN_BOUND, so every verdict is the scan's.  What
    reaches the scan is never division, a non-commutative A_e (Wedderburn)
    or a non-local one, so the scan ends at an early zero divisor, below
    q^(floor(n/2) + 1); only when that lies past the cap can the walk reach
    the cap first, and A_e is then Unknown.

    Once A_e is division, a functional vanishing off A_e whose form is
    nondegenerate proves the same with no inverse per component: see
    symmetry.graded_trace_witness, which the hunt uses that way.  The hunt
    decides each coefficient field here once, on the builder's D, the A_e of
    every candidate over that field.
    """
    e = a.group.identity
    id_verdict = _identity_verdict(_identity_component_algebra(a))
    if id_verdict.status != "yes":
        witness = id_verdict.witness
        if witness is not None and witness.owner is not a:
            # coordinate r of A_e is coordinate indices[r] of a
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
