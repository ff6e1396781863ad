"""Structural invariants: centers, commutator spaces, support, invertibility.

Everything reduces to exact kernels of commutation constraints or to spans of
commutators.  Graded-division recognition follows the definition: the identity
component must be a division algebra and every nonzero component must contain
an invertible element; together these make every nonzero homogeneous element
invertible (a = (a u^-1) u with a u^-1 invertible in the identity component).
So once the identity component is division, each other component is decided
by inverting any one of its nonzero elements.

Over finite fields the identity component is scanned exhaustively.  Over the
rationals only two certificates are accepted: quaternion parameters making
the norm form positive definite, and commutative identity components of
dimension <= 3 with an element whose minimal polynomial has full degree and
no rational root (degree <= 3, so that means irreducible).  Anything else is
reported Unknown rather than guessed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .algebras import Element, GradedAlgebra, homogeneous_component, subspace_algebra
from .errors import AmbientMismatch
from .fields import Scalar
from .linalg import Matrix, Subspace
from .multipoly import GramPencil, MultiPoly, nonvanishing_point, structured_det

SCAN_BOUND = 10 ** 6


def center(a: GradedAlgebra) -> Subspace:
    """Kernel of the stacked constraints x e_i = e_i x over all basis i."""
    return centralizer(a, Subspace.full(a.field, a.dim))


def centralizer(a: GradedAlgebra, s: Subspace) -> Subspace:
    """All x with xv = vx for every v in s."""
    if s.ambient_dim != a.dim or s.field != a.field:
        raise AmbientMismatch("subspace does not match the algebra's coordinates")
    rows = []
    for v in s.basis:
        # constraint rows: for each output coordinate k, sum_l x_l (c(l,v)k - c(v,l)k) = 0
        columns = []
        for l in range(a.dim):
            e_l = [a.field.zero()] * a.dim
            e_l[l] = a.field.one()
            left = a.mul_coords(e_l, list(v))
            right = a.mul_coords(list(v), e_l)
            columns.append([x - y for x, y in zip(left, right)])
        for k in range(a.dim):
            rows.append([columns[l][k] for l in range(a.dim)])
    if not rows:
        return Subspace.full(a.field, a.dim)
    return Matrix(a.field, rows).kernel()


def _commutator_span(a: GradedAlgebra, pairs) -> Subspace:
    """Span of the commutators [e_i, e_j] over the given basis pairs."""
    vectors = []
    for i, j in pairs:
        terms = dict(a.basis_product(i, j))
        for k, c in a.basis_product(j, i):
            cur = terms.get(k)
            s = -c if cur is None else cur - c
            if s.is_zero:
                terms.pop(k, None)
            else:
                terms[k] = s
        if terms:
            row = [a.field.zero()] * a.dim
            for k, c in terms.items():
                row[k] = c
            vectors.append(row)
    return Subspace.from_vectors(a.field, a.dim, vectors)


def commutator_subspace(a: GradedAlgebra) -> Subspace:
    """Span of all [e_i, e_j]; bilinearity makes basis pairs enough."""
    return _commutator_span(a, ((i, j) for i in range(a.dim)
                                for j in range(i + 1, a.dim)))


def graded_commutator_space(a: GradedAlgebra) -> Subspace:
    """Span of [u, v] over homogeneous basis pairs of mutually inverse degrees.

    Lands inside the identity component; for graded division algebras its
    properness there decides graded symmetry.
    """
    inverse_degree = [a.group.inv(g) for g in a.degree]
    return _commutator_span(a, ((i, j) for i in range(a.dim) for j in range(a.dim)
                                if a.degree[j] == inverse_degree[i]))


def support(a: GradedAlgebra) -> tuple:
    """Degrees with a nonzero homogeneous component, sorted."""
    return tuple(sorted({g for g in a.degree}))


def component_has_invertible(a: GradedAlgebra, g: int):
    """Decide whether the degree-g component contains an invertible element.

    The left-multiplication matrix of a generic component element has entries
    linear in its coordinates; an invertible element exists iff the symbolic
    determinant is not identically zero, and a witness over the base field is
    produced by the deterministic point search.  Returns
    (exists_over_base_field, witness_or_None, point_search_result).
    """
    indices = a.component_indices(g)
    if not indices:
        return False, None, None
    m = len(indices)
    field = a.field
    zero_poly = MultiPoly.zero(field, m)
    entries = [[zero_poly for _ in range(a.dim)] for _ in range(a.dim)]
    for r, i in enumerate(indices):
        for j in range(a.dim):
            for k, c in a.basis_product(i, j):
                entries[k][j] = entries[k][j] + MultiPoly.variable(field, m, r, c)
    pencil = GramPencil(field, a.dim, m, tuple(tuple(row) for row in entries))
    det = structured_det(pencil)
    if det.is_zero:
        return False, None, None
    result = nonvanishing_point(det, field)
    if not result.found:
        return False, None, result
    coords = [field.zero()] * a.dim
    for r, i in enumerate(indices):
        coords[i] = result.point[r]
    witness = Element(a, coords)
    assert witness.inverse() is not None
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
    e = a.group.identity
    if len(a.component_indices(e)) == a.dim:
        return a
    return subspace_algebra(a, homogeneous_component(a, e))


def _scan_division(e_alg: GradedAlgebra):
    """Exhaustively test invertibility of every nonzero element of a finite algebra."""
    count = 0
    for coords in itertools.islice(e_alg.field.vectors(e_alg.dim), 1, None):
        el = Element(e_alg, coords)
        count += 1
        if el.inverse() is None:
            return False, el, count
    return True, None, count


def _min_poly(e_alg: GradedAlgebra, el: Element):
    """Minimal polynomial coefficients (monic, low first) of el over the rationals."""
    rows = [list(e_alg.unit)]
    power = e_alg.one()
    for _ in range(e_alg.dim):
        power = power * el
        # None while the powers so far stay linearly independent
        deps = Matrix(e_alg.field, rows).transpose().solve(list(power.coords))
        if deps is not None:
            return [-c for c in deps] + [e_alg.field.one()]
        rows.append(list(power.coords))
    raise AssertionError("minimal polynomial must exist in a finite-dimensional algebra")


def _rational_division_check(e_alg: GradedAlgebra):
    """Certificate-based division test over Q; Unknown when no criterion applies."""
    if e_alg.dim == 1:
        return DivisionVerdict("yes", {"kind": "scalar-field"})
    meta = e_alg.meta
    if meta.get("construction") == "quaternion_algebra":
        a_val, b_val = meta["a"].val, meta["b"].val
        if a_val < 0 and b_val < 0:
            return DivisionVerdict("yes", {
                "kind": "positive-definite-norm-form",
                "a": str(a_val), "b": str(b_val)})
        return DivisionVerdict("unknown", {"kind": "rationals-uncertified",
                                           "reason": "norm form not definite by sign check"})
    commutative = all(
        e_alg.basis_product(i, j) == e_alg.basis_product(j, i)
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
    fractions = [c.val for c in coeffs]
    denom = 1
    for f in fractions:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fractions]
    lead, const = ints[-1], ints[0]
    field = coeffs[0].field
    roots = []
    if const == 0:
        roots.append(field.zero())
        return roots
    def divisors(n):
        n = abs(n)
        out = []
        f = 1
        while f * f <= n:
            if n % f == 0:
                out.extend([f, n // f])
            f += 1
        return sorted(set(out))
    for p in divisors(const):
        for q in divisors(lead):
            for sign in (1, -1):
                r = Fraction(sign * p, q)
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * r + c
                if acc == 0:
                    roots.append(Scalar(field, r))
    return roots


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
            # e_alg's basis is the identity component's basis inside a
            basis = Matrix(a.field, homogeneous_component(a, e).basis)
            witness = Element(a, basis.transpose().mulvec(witness.coords))
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
            assert bad.inverse() is None
            return DivisionVerdict("no", {
                "identity_component": id_verdict.certificate,
                "component_without_invertible": g}, bad)
        component_info[g] = [c.to_json() for c in witness.coords]
    verdict = DivisionVerdict("yes", {
        "identity_component": id_verdict.certificate,
        "component_witnesses": component_info})
    sub = a.group.subgroup_generated(support(a))
    assert sub == support(a), "support of a graded division algebra must be a subgroup"
    return verdict
