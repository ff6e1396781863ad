"""Decide (graded) symmetry and Frobeniusness with verifiable certificates.

A trace functional for a mode is a linear functional satisfying that mode's
linear constraints: vanishing off the identity component (graded modes) and
vanishing on commutators (symmetric modes).  For such a functional, the set
{x : lam(Ax) = 0} is a (graded) left ideal contained in Ker lam, and it is
zero exactly when the Gram matrix (lam(e_i e_j)) is nonsingular; so the
kernel-contains-no-ideal clause of the definition is equivalent to Gram
nonsingularity and the decision becomes: does the trace space contain a point
where the symbolic Gram determinant is nonzero?  That determinant is a
polynomial in the coordinates of the trace space, computed exactly from the
Gram pencil, and point searches are deterministic, so verdicts are
reproducible and every Yes comes with a functional that an independent
checker re-verifies from scratch.

Graded trace functionals vanish off the identity component, which makes the
Gram pencil block-structured (rows of degree g pair only with columns of
degree g^-1); the determinant is computed blockwise so large algebras with
small homogeneous components stay tractable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebras import (
    CrossedProductSpec,
    Element,
    GradedAlgebra,
    crossed_product,
    homogeneous_component,
)
from .errors import (
    AsymmetricMu,
    CharacteristicDividesGroupOrder,
    DimensionTooLarge,
    EmptyTraceSpace,
    InvalidCertificate,
    NotAGoodMatrixAlgebra,
    NotInvariant,
    NotNormalized,
    OwnerMismatch,
)
from .invariants import commutator_subspace, graded_commutator_space
from .linalg import Matrix, Subspace
from .multipoly import GramPencil, MultiPoly, nonvanishing_point, structured_det

MODES = ("graded-symmetric", "graded-frobenius", "symmetric", "frobenius")
MAX_TRACE_SPACE_DIM = 8
ENUMERATION_BOUND = 3 ** 8


class LinearFunctional:
    """A functional on an algebra, stored by its values on the basis."""

    __slots__ = ("owner", "coords")

    def __init__(self, owner: GradedAlgebra, coords):
        self.owner = owner
        self.coords = tuple(owner.field.scalar(c) for c in coords)
        if len(self.coords) != owner.dim:
            raise ValueError("functional coordinate vector has wrong length")

    def __call__(self, x: Element):
        if not (x.owner is self.owner or x.owner == self.owner):
            raise OwnerMismatch("element belongs to a different algebra")
        acc = self.owner.field.zero()
        for c, v in zip(self.coords, x.coords):
            if not c.is_zero and not v.is_zero:
                acc = acc + c * v
        return acc

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coords)

    def __eq__(self, other):
        return (isinstance(other, LinearFunctional)
                and self.owner == other.owner and self.coords == other.coords)

    def __repr__(self):
        return "Functional(" + ", ".join(repr(c) for c in self.coords) + ")"


@dataclass
class SymmetryVerdict:
    """Decision plus certificate: a witness functional or a refutation tag."""

    mode: str
    status: str  # "yes" | "no" | "no-over-base-field"
    witness: LinearFunctional | None = None
    refutation: str | None = None  # "trace-space-zero" | "gram-det-identically-zero"
    extension_degree: int | None = None
    gram_rank: int | None = None
    trace_space_dim: int = 0

    @property
    def is_yes(self) -> bool:
        return self.status == "yes"


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _asymmetric_pairs(a: GradedAlgebra, coords):
    """Basis pairs i < j, in order, where the functional with these
    coordinates does not vanish on the commutator [e_i, e_j]."""
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            v = a.field.zero()
            for k, c in a.basis_product(i, j):
                v = v + c * coords[k]
            for k, c in a.basis_product(j, i):
                v = v - c * coords[k]
            if not v.is_zero:
                yield i, j


def _pullback(lam: LinearFunctional, s: Matrix) -> tuple:
    """Coordinates of lam o s, for a matrix s acting on lam's algebra."""
    return s.transpose().mulvec(lam.coords)


def graded_trace_space(a: GradedAlgebra, mode: str = "graded-symmetric") -> Subspace:
    """Functionals satisfying the linear constraints of the mode.

    Graded modes force vanishing on every component off the identity; the
    symmetric variants additionally force vanishing on the (graded) commutator
    span.  For functionals already vanishing off the identity component,
    vanishing on commutators of mutually-inverse-degree pairs is equivalent to
    full trace symmetry, since other commutators live off the identity.
    """
    _check_mode(mode)
    e = a.group.identity
    constraints = []
    z, o = a.field.zero(), a.field.one()
    if mode.startswith("graded-"):
        for i in range(a.dim):
            if a.degree[i] != e:
                row = [z] * a.dim
                row[i] = o
                constraints.append(row)
    if mode == "graded-symmetric":
        constraints.extend(list(r) for r in graded_commutator_space(a).basis)
    elif mode == "symmetric":
        constraints.extend(list(r) for r in commutator_subspace(a).basis)
    if not constraints:
        return Subspace.full(a.field, a.dim)
    return Matrix(a.field, constraints).kernel()


def gram_matrix(a: GradedAlgebra, lam: LinearFunctional) -> Matrix:
    """The bilinear form (i, j) -> lam(e_i e_j) as an exact matrix."""
    z = a.field.zero()
    entries = []
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            acc = z
            for k, c in a.basis_product(i, j):
                lk = lam.coords[k]
                if not lk.is_zero:
                    acc = acc + c * lk
            row.append(acc)
        entries.append(row)
    return Matrix(a.field, entries)


def gram_pencil(a: GradedAlgebra, functionals) -> GramPencil:
    """Symbolic Gram matrix with entries linear in the functional coordinates."""
    functionals = list(functionals)
    if not functionals:
        raise EmptyTraceSpace("the trace space is zero")
    m = len(functionals)
    field = a.field
    entries = []
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            terms = {}
            for k, c in a.basis_product(i, j):
                for r, lam in enumerate(functionals):
                    lk = lam.coords[k]
                    if lk.is_zero:
                        continue
                    exp = tuple(1 if t == r else 0 for t in range(m))
                    cur = terms.get(exp)
                    v = c * lk if cur is None else cur + c * lk
                    if v.is_zero:
                        terms.pop(exp, None)
                    else:
                        terms[exp] = v
            row.append(MultiPoly(field, m, terms))
        entries.append(tuple(row))
    return GramPencil(field, a.dim, m, tuple(entries))


def verify_certificate(a: GradedAlgebra, lam: LinearFunctional, mode: str):
    """Independently recheck a witness functional; returns a CertificateReport.

    Checks, from scratch: vanishing off the identity component (graded
    modes), lam([e_i, e_j]) = 0 for every basis pair (symmetric modes), and
    exact full rank of the evaluated Gram matrix.
    """
    _check_mode(mode)
    checks = []
    e = a.group.identity
    if mode.startswith("graded-"):
        bad = [i for i in range(a.dim)
               if a.degree[i] != e and not lam.coords[i].is_zero]
        checks.append(("vanishing-off-identity-component", not bad,
                       f"nonzero at indices {bad[:5]}" if bad else ""))
    if mode in ("graded-symmetric", "symmetric"):
        bad_pairs = list(_asymmetric_pairs(a, lam.coords))
        checks.append(("symmetry-on-all-pairs", not bad_pairs,
                       f"asymmetric at pairs {bad_pairs[:5]}" if bad_pairs else ""))
    rank = gram_matrix(a, lam).rank()
    checks.append(("gram-full-rank", rank == a.dim, f"rank {rank} of {a.dim}"))
    return CertificateReport(all(ok for _, ok, _ in checks), tuple(checks), rank)


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    checks: tuple
    gram_rank: int

    def __str__(self):
        return "; ".join(f"{name}: {'ok' if ok else 'FAIL ' + detail}"
                         for name, ok, detail in self.checks)


def graded_division_criterion(a: GradedAlgebra) -> bool:
    """For graded division algebras: graded symmetric iff the graded commutator
    span is a proper subspace of the identity component."""
    c = graded_commutator_space(a)
    ae = homogeneous_component(a, a.group.identity)
    assert ae.contains(c), "graded commutators must land in the identity component"
    return c.dim < ae.dim


def decide_form_existence(a: GradedAlgebra, mode: str, division=None) -> SymmetryVerdict:
    """Decide existence of a nondegenerate trace functional for the mode.

    Pipeline: compute the trace space; empty space refutes outright; then the
    blockwise symbolic Gram determinant; identical vanishing refutes; else a
    deterministic point search over the base field either yields a witness
    (re-verified by exact rank) or proves the base field too small, in which
    case the least extension degree holding a witness is reported.  When a Yes
    division verdict is supplied and the mode is graded-symmetric, the
    commutator-span criterion is cross-checked against the outcome.
    """
    _check_mode(mode)
    space = graded_trace_space(a, mode)
    if space.dim == 0:
        return SymmetryVerdict(mode, "no", refutation="trace-space-zero",
                               trace_space_dim=0)
    if space.dim > MAX_TRACE_SPACE_DIM:
        raise DimensionTooLarge(
            f"trace space dimension {space.dim} exceeds {MAX_TRACE_SPACE_DIM} unknowns")
    functionals = [LinearFunctional(a, row) for row in space.basis]
    pencil = gram_pencil(a, functionals)
    det = structured_det(pencil)
    if det.is_zero:
        verdict = SymmetryVerdict(mode, "no", refutation="gram-det-identically-zero",
                                  trace_space_dim=space.dim)
    else:
        result = nonvanishing_point(det, a.field)
        if result.found:
            basis = Matrix(a.field, space.basis)
            witness = LinearFunctional(a, basis.transpose().mulvec(result.point))
            rank = gram_matrix(a, witness).rank()
            if rank != a.dim:
                raise AssertionError("point search returned a degenerate witness")
            verdict = SymmetryVerdict(mode, "yes", witness=witness, gram_rank=rank,
                                      trace_space_dim=space.dim)
        else:
            verdict = SymmetryVerdict(mode, "no-over-base-field",
                                      refutation="no-point-over-field",
                                      extension_degree=result.extension_degree,
                                      trace_space_dim=space.dim)
    if division is not None and mode == "graded-symmetric" and division.is_yes:
        criterion = graded_division_criterion(a)
        consistent = (criterion and verdict.status in ("yes", "no-over-base-field")) or \
                     (not criterion and verdict.status == "no")
        if not consistent:
            raise AssertionError(
                "division criterion and pencil decision disagree; this is a bug")
    return verdict


def decide_by_enumeration(a: GradedAlgebra, mode: str):
    """Independent oracle: try every functional in the trace space.

    Only for finite fields with at most ENUMERATION_BOUND candidates; returns
    ("yes", witness) at the first functional with a full-rank Gram matrix in
    enumeration order, else ("no", None).
    """
    _check_mode(mode)
    space = graded_trace_space(a, mode)
    if space.dim == 0:
        return "no", None
    q = a.field.size()
    if q is None:
        raise ValueError("enumeration oracle needs a finite field")
    total = q ** space.dim
    if total > ENUMERATION_BOUND:
        raise DimensionTooLarge(f"{total} candidates exceed the enumeration bound")
    combine = Matrix(a.field, space.basis).transpose()
    for coeffs in itertools.islice(a.field.vectors(space.dim), 1, None):
        lam = LinearFunctional(a, combine.mulvec(coeffs))
        if gram_matrix(a, lam).rank() == a.dim:
            return "yes", lam
    return "no", None


# -- the three explicit constructions -------------------------------------------------

def average_functional(spec: CrossedProductSpec, mu: LinearFunctional) -> LinearFunctional:
    """Average a symmetric functional on the coefficient algebra over the action.

    Produces lam = sum_g mu o sigma(g), which is symmetric, fixed by every
    sigma(h), and has lam(1) = |G| mu(1); requires the characteristic not to
    divide the group order and mu symmetric with mu(1) nonzero.
    """
    d = spec.coeff
    if mu.owner != d:
        raise AsymmetricMu("functional does not live on the coefficient algebra")
    g_order = spec.group.order
    if d.field.char != 0 and g_order % d.field.char == 0:
        raise CharacteristicDividesGroupOrder(
            f"characteristic {d.field.char} divides |G| = {g_order}")
    if mu(d.one()).is_zero:
        raise AsymmetricMu("mu(1) must be nonzero")
    bad = next(_asymmetric_pairs(d, mu.coords), None)
    if bad is not None:
        raise AsymmetricMu("mu is not symmetric at basis pair ({},{})".format(*bad))
    coords = [d.field.zero()] * d.dim
    for g in range(g_order):
        coords = [x + y for x, y in zip(coords, _pullback(mu, spec.sigma[g]))]
    lam = LinearFunctional(d, coords)
    for h in range(g_order):
        assert _pullback(lam, spec.sigma[h]) == lam.coords, \
            "averaged functional must be invariant"
    expected = d.field.from_int(g_order) * mu(d.one())
    assert lam(d.one()) == expected
    return lam


def lift_functional(spec: CrossedProductSpec, lam: LinearFunctional) -> LinearFunctional:
    """Extend an invariant symmetric functional on D by zero off the identity block.

    The spec must be section-normalized (alpha trivial against the identity
    and alpha(g, g^-1) = 1 for every g of order > 2); the result evaluates any
    element through its identity-block coordinates and is a graded-symmetric
    certificate whenever the characteristic does not divide the dimension.
    """
    d = spec.coeff
    G = spec.group
    e = G.identity
    if lam.owner != d:
        raise NotInvariant("functional does not live on the coefficient algebra")
    one = d.one()
    for g in range(G.order):
        if spec.alpha_element(g, e) != one or spec.alpha_element(e, g) != one:
            raise NotNormalized(f"alpha is not trivial against the identity at {g}")
        if G.element_order(g) > 2 and spec.alpha_element(g, G.inv(g)) != one:
            raise NotNormalized(f"alpha({g}, {g}^-1) differs from 1")
    if lam.is_zero:
        raise InvalidCertificate("the zero functional cannot be lifted")
    if any(_asymmetric_pairs(d, lam.coords)):
        raise AsymmetricMu("functional is not symmetric on the coefficients")
    for g in range(G.order):
        if _pullback(lam, spec.sigma[g]) != lam.coords:
            raise NotInvariant(f"functional is not fixed by sigma({g})")
    a = crossed_product(spec)
    coords = [a.field.zero()] * a.dim
    for i in range(d.dim):
        coords[e * d.dim + i] = lam.coords[i]
    return LinearFunctional(a, coords)


def matrix_trace_functional(m: GradedAlgebra, lam: LinearFunctional) -> LinearFunctional:
    """Compose a graded-symmetric certificate of the coefficient algebra with
    the usual matrix trace of a good-graded matrix algebra."""
    meta = m.meta
    if meta.get("construction") != "good_matrix_algebra":
        raise NotAGoodMatrixAlgebra("algebra was not built by good_matrix_algebra")
    n, dd = meta["n"], meta["delta_dim"]
    if lam.owner.dim != dd:
        raise NotAGoodMatrixAlgebra("functional does not match the coefficient algebra")
    report = verify_certificate(lam.owner, lam, "graded-symmetric")
    if not report.ok:
        raise InvalidCertificate(f"coefficient functional fails: {report}")
    z = m.field.zero()
    coords = [z] * m.dim
    for i in range(n):
        for t in range(dd):
            coords[(i * n + i) * dd + t] = lam.coords[t]
    return LinearFunctional(m, coords)
