"""Decide (graded) symmetry and Frobeniusness with verifiable certificates.

A trace functional for a mode is a linear functional satisfying that mode's
linear constraints: vanishing off the identity component (graded modes) and
vanishing on commutators (symmetric modes).  For such a functional, the set
{x : lam(Ax) = 0} is a (graded) left ideal contained in Ker lam, and it is
zero exactly when the Gram matrix (lam(e_i e_j)) is nonsingular; so the
kernel-contains-no-ideal clause of the definition is equivalent to Gram
nonsingularity and the decision becomes: is the Gram pencil sum_r t_r G_r,
G_r[i][j] = lam_r(e_i e_j) over a basis lam_r of the trace space, nonsingular
at some point?  It is stored as its grid of linear forms, built in one pass
over the structure constants.  Point searches are deterministic, so verdicts
are reproducible and every Yes comes with a functional that an independent
checker re-verifies from scratch.

Graded trace functionals vanish off the identity component, which makes the
Gram pencil block-structured (rows of degree g pair only with columns of
degree g^-1); the determinant is taken blockwise so large algebras with small
homogeneous components stay tractable.  The decision walks before it proves:
the point search evaluates each block at grid points by exact elimination,
and a Yes needs only one point where every block is nonsingular.  A No is a
vanishing block, proved by a shrunk subspace: a U with dim(sum_r G_r U) <
dim U for the block's Gram matrices G_r, found by the second Wong sequence at
a singular walk point and re-checked by two ranks.  Polynomials appear only in
a block's cofactor expansion, the fallback that runs when no such U turns up
or when no witness turns up among the first grid points; the blocks are
never multiplied together to reach a verdict.  Every question is settled
over the base field: a Gram determinant that is nonzero has a point there,
however small the field, by descent from any extension (see
decide_form_existence), so there is no third verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .algebras import (
    CrossedProductSpec,
    Element,
    GradedAlgebra,
    crossed_product,
    good_matrix_algebra,
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
from .invariants import (commutator_pairs, commutator_rows, form_rows, graded_commutator_space,
                         regular_trace)
from .linalg import Matrix, Subspace, eliminate_raw, sparse_kernel
from .multipoly import GramPencil, linear_pencil, nonvanishing_point, structured_det

MODES = ("graded-symmetric", "graded-frobenius", "symmetric", "frobenius")
REFUTATIONS = ("trace-space-zero", "gram-det-identically-zero")
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
    status: str  # "yes" | "no"
    witness: LinearFunctional | None = None
    refutation: str | None = None  # one of REFUTATIONS
    gram_rank: int | None = None
    trace_space_dim: int = 0

    @property
    def is_yes(self) -> bool:
        return self.status == "yes"


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _gram_rows(a: GradedAlgebra, lam: LinearFunctional) -> list:
    """The rows of the Gram matrix (i, j) -> lam(e_i e_j) on raw values, in one
    pass over the table: every Gram question of this module reads them."""
    return form_rows(a, a.field.ops.unwrap(lam.coords))


def _asymmetric_pairs(gram):
    """Pairs i < j, in order, where lam([e_i, e_j]) = gram[i][j] - gram[j][i]
    is nonzero, for lam's raw Gram rows: canonical raw values differ there."""
    for i, row in enumerate(gram):
        for j in range(i + 1, len(gram)):
            if row[j] != gram[j][i]:
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

    The constraints are reduced in one pass (`linalg.sparse_kernel`): the
    off-identity columns go in as unit rows, then the commutators of the
    pairs i < j, read until the rank is full.  The Frobenius modes have no
    commutator rows, so their space is the kernel of the unit rows alone.
    """
    _check_mode(mode)
    e = a.group.identity
    graded = mode.startswith("graded-")
    rows = commutator_rows(a, commutator_pairs(a, graded)) if mode.endswith("symmetric") else ()
    dead = [i for i in range(a.dim) if a.degree[i] != e] if graded else ()
    return sparse_kernel(a.field.ops, a.dim, rows, dead)


def _check_owner(a: GradedAlgebra, lam: LinearFunctional):
    if not (lam.owner is a or lam.owner == a):
        raise OwnerMismatch("functional belongs to a different algebra")


def gram_matrix(a: GradedAlgebra, lam: LinearFunctional) -> Matrix:
    """The bilinear form (i, j) -> lam(e_i e_j) as an exact matrix: the rows
    of _gram_rows, wrapped once."""
    _check_owner(a, lam)
    return Matrix(a.field, map(a.field.ops.wrap, _gram_rows(a, lam)))


def gram_pencil(a: GradedAlgebra, functionals) -> GramPencil:
    """The Gram pencil: entry (i, j) is the linear form sum_r lam_r(e_i e_j) t_r."""
    functionals = list(functionals)
    if not functionals:
        raise EmptyTraceSpace("the trace space is zero")
    for lam in functionals:
        _check_owner(a, lam)
    ops = a.field.ops
    coords = [ops.unwrap(lam.coords) for lam in functionals]
    # the nonzero raw values (r, lam_r(e_k)) of each basis vector e_k
    values = [[(r, x[k]) for r, x in enumerate(coords) if not ops.is_zero(x[k])]
              for k in range(a.dim)]
    return linear_pencil(a.field, a.dim, len(functionals), (
        (i, j, r, ops.mul(c, v)) for i, row in enumerate(a.table)
        for j, terms in enumerate(row) for k, c in terms for r, v in values[k]))


def verify_certificate(a: GradedAlgebra, lam: LinearFunctional, mode: str):
    """Independently recheck a witness functional; returns a CertificateReport.

    Checks, from scratch: vanishing off the identity component (graded
    modes), lam([e_i, e_j]) = 0 for every basis pair (symmetric modes), and
    exact full rank of the evaluated Gram matrix, both from one _gram_rows.
    """
    _check_mode(mode)
    _check_owner(a, lam)
    gram = _gram_rows(a, lam)
    checks = []
    e = a.group.identity
    if mode.startswith("graded-"):
        bad = [i for i in range(a.dim)
               if a.degree[i] != e and not lam.coords[i].is_zero]
        checks.append(("vanishing-off-identity-component", not bad,
                       f"nonzero at indices {bad[:5]}" if bad else ""))
    if mode in ("graded-symmetric", "symmetric"):
        bad_pairs = list(_asymmetric_pairs(gram))
        checks.append(("symmetry-on-all-pairs", not bad_pairs,
                       f"asymmetric at pairs {bad_pairs[:5]}" if bad_pairs else ""))
    rank = len(eliminate_raw(a.field.ops, gram, a.dim))
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


def graded_trace_witness(a: GradedAlgebra) -> LinearFunctional:
    """The regular trace of the identity component composed with the
    projection onto it: lam(x) = tr(L_{pi_e(x)} on A_e).

    One raw pass over the table on the identity-component indices idx:
    lam(e_k) is the sum over j in idx of the coefficient of e_j in e_k e_j
    for k in idx, and lam is 0 off A_e.  The values are wrapped once.

    On a graded division algebra lam is a graded-symmetric certificate as
    soon as it is nonzero.  It vanishes off A_e, and products of homogeneous
    elements land in A_e only for mutually inverse degrees.  On A_e,
    tr(L_{xy}) = tr(L_x L_y) = tr(L_y L_x) = tr(L_{yx}).  A nonzero
    homogeneous x of degree g is a unit, so for y of degree g^-1,
    yx = x^-1 (xy) x: conjugation by x is an automorphism phi of A_e, and
    L_{phi(c)} = phi L_c phi^-1 on A_e has the same trace as L_c.  So lam is
    symmetric, and invariant under conjugation by homogeneous units.  It is
    nondegenerate once some z in A_e has lam(z) != 0: any nonzero x has a
    nonzero component x_g, and y = x_g^-1 z of degree g^-1 gives
    lam(x y) = lam(z).  Finally lam(1) = tr(id on A_e) = dim A_e, which is
    nonzero whenever the characteristic does not divide dim A_e, the
    paper's hypothesis (dim A is dim A_e times the size of the support).
    That hypothesis is sufficient, not necessary: over a finite field A_e
    is a field and lam is its trace form, which is nonzero, so lam also
    certifies cyclic_algebra(p), where p divides dim A_e = p.

    Off graded division algebras nothing is promised (lam is zero on
    ungrade(F_2[C_2]), for instance): check lam with verify_certificate.

    Conversely, a verified lam proves graded division once A_e is division.
    Take any lam vanishing off A_e with (x, y) -> lam(xy) nondegenerate,
    and a nonzero x in A_g.  Some y has lam(xy) != 0, and only y's part y'
    of degree g^-1 contributes, since x y'' lies off A_e for y'' of any
    other degree.  So z = x y' is a nonzero element of the division algebra
    A_e, and x (y' z^-1) = 1.  A right inverse in a finite-dimensional
    algebra is two-sided (L_x is onto, so one-to-one), so x is a unit.
    verify_certificate in the graded modes checks exactly these hypotheses:
    vanishing off A_e and a Gram matrix of full rank.  hunt_counterexample
    proves its candidates graded division this way, with no inverse per
    component.
    """
    values = regular_trace(a, a.component_indices(a.group.identity))
    return LinearFunctional(a, a.field.ops.wrap(values))


def graded_division_criterion(a: GradedAlgebra) -> bool:
    """For graded division algebras: graded symmetric iff the graded commutator
    span is a proper subspace of the identity component.

    graded_trace_witness vanishes on that span, so wherever it is nonzero,
    for instance when the characteristic does not divide dim A_e, the
    criterion holds.  Over any field it holds too: every finite-dimensional
    graded division algebra is graded symmetric.  Let D = A_e, a division
    algebra, and Z = Z(D).  Conjugation by a homogeneous unit is an
    automorphism of D, so it maps Z to Z; these restrictions form a finite
    group Gamma <= Aut(Z/F) (finite since Z/F is finite).  Take
    lam = mu o Tr_{Z/Z^Gamma} o Trd_{D/Z} o pi_e for any nonzero F-linear
    mu : Z^Gamma -> F.  Step by step:
    - Trd_{D/Z} is Z-linear and nonzero on the central simple Z-algebra D,
      so it is onto Z; it is symmetric, Trd(xy) = Trd(yx), and it commutes
      with automorphisms: Trd o phi = phi|_Z o Trd.
    - Z/Z^Gamma is Galois with group Gamma (Artin), so Tr_{Z/Z^Gamma} is
      onto Z^Gamma and Gamma-invariant.  Hence t = Tr o Trd : D -> Z^Gamma
      is onto, symmetric on D, and invariant under conjugation by
      homogeneous units, and lam = mu o t is nonzero on D.
    - lam vanishes off A_e, so lam(xy) = lam(yx) needs checking only for x of
      degree g and y of degree g^-1 with x != 0: then yx = x^-1 (xy) x, and
      lam(yx) = lam(xy) by the invariance.  So lam is graded symmetric.
    - A nonzero functional on A_e gives a nondegenerate form on A: pick z in
      D with lam(z) != 0; any nonzero x has a nonzero homogeneous part x_g,
      and y = x_g^-1 z has lam(xy) = lam(z) != 0.
    So the criterion is always True, the hunt cannot find a non-symmetric
    graded division algebra, and the char-does-not-divide-dim hypothesis is
    only what the regular trace needs.
    """
    c, e = graded_commutator_space(a), a.group.identity
    # A_e is the coordinate subspace on the indices of degree e
    if any(not x.is_zero for row in c.basis for x, g in zip(row, a.degree) if g != e):
        raise AssertionError("graded commutators must land in the identity component")
    return c.dim < len(a.component_indices(e))


def check_division_criterion(a: GradedAlgebra, status: str):
    """Cross-check a graded-symmetric status of a graded division algebra
    against graded_division_criterion: True goes with "yes", False with
    "no".  A disagreement is a bug."""
    criterion = graded_division_criterion(a)
    if criterion != (status == "yes"):
        raise AssertionError(
            f"division criterion {criterion} disagrees with status {status!r}; this is a bug")


def decide_form_existence(a: GradedAlgebra, mode: str) -> SymmetryVerdict:
    """Decide existence of a nondegenerate trace functional for the mode.

    Pipeline: compute the trace space; empty space refutes outright; then the
    blockwise Gram determinant, one unexpanded determinant per block, goes to
    the deterministic point search over the base field.  The search walks the
    grid first, testing each point by exact elimination of the evaluated
    blocks, so a Yes found there (re-verified by exact rank) expands nothing.
    A vanishing block refutes (the Gram determinant is identically zero).
    It is proved by a shrunk subspace U, with dim(sum_r G_r U) < dim U for
    the block's Gram matrices G_r: each block runs the second Wong sequence
    at its first singular walk point, and the zero test runs it once more at
    its walked point of largest rank.  A U that passes its two-rank re-check
    makes the block singular at every point over every extension, and ends
    the walk with the No.  Only when the first WITNESS_WALK points hold no
    witness and no U does the zero test expand the blocks, by cofactors
    (capped at PENCIL_DET_MAX_DIM), and otherwise the walk goes on until it
    yields a witness.  Blocks that share no unknown are walked apart, in
    groups, each on the grid of its own unknowns and degree, and the groups'
    first points are put together: the nonzero set is the product of the
    groups', so its lexicographically first point is theirs combined, and a
    group's grid holds its first point because a nonzero polynomial of
    degree <= d has a nonzero point on every S^k with |S| > d.  The witness
    is the one a walk of the whole grid would give; a group with its witness
    among its own first WITNESS_WALK points is never expanded.

    It always does, even over a field no larger than the degree, by descent
    (Noether-Deuring).  Let T be the trace space over F and K/F finite; then
    T (x) K is the trace space of A_K.  For lam in T (x) K, a -> a.lam with
    (a.lam)(x) = lam(xa) is a morphism A_K -> A_K* in the mode's category:
    graded left modules with (A*)_g = (A_{g^-1})* (graded-frobenius), left
    modules (frobenius), graded or plain bimodules (the symmetric modes).  It
    is an isomorphism exactly when the Gram matrix of lam is nonsingular.
    These are finite-dimensional modules over a finite-dimensional
    F-algebra, so restricting scalars gives A^n = (A*)^n with n = [K:F], and
    Krull-Schmidt cancels n: A = A* over F.  For such an isomorphism psi,
    psi(1) is a nondegenerate functional in T (homogeneous of degree e, and
    symmetric in the symmetric modes).  So a nonzero determinant has a point
    over F, and a walk of all of F^m that finds none raises AssertionError.
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
    result = nonvanishing_point(structured_det(pencil), a.field)
    if result.status == "identically_zero":
        return SymmetryVerdict(mode, "no", refutation="gram-det-identically-zero",
                               trace_space_dim=space.dim)
    if not result.found:
        raise AssertionError("a nonzero Gram determinant has no point over the base "
                             "field, against descent from its extensions; this is a bug")
    basis = Matrix(a.field, space.basis)
    witness = LinearFunctional(a, basis.transpose().mulvec(result.point))
    rank = len(eliminate_raw(a.field.ops, _gram_rows(a, witness), a.dim))
    if rank != a.dim:
        raise AssertionError("point search returned a degenerate witness")
    return SymmetryVerdict(mode, "yes", witness=witness, gram_rank=rank,
                           trace_space_dim=space.dim)


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
        if len(eliminate_raw(a.field.ops, _gram_rows(a, lam), a.dim)) == a.dim:
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
    bad = next(_asymmetric_pairs(_gram_rows(d, mu)), None)
    if bad is not None:
        raise AsymmetricMu("mu is not symmetric at basis pair ({},{})".format(*bad))
    coords = [d.field.zero()] * d.dim
    for g in range(g_order):
        coords = [x + y for x, y in zip(coords, _pullback(mu, spec.sigma[g]))]
    lam = LinearFunctional(d, coords)
    for h in range(g_order):
        if _pullback(lam, spec.sigma[h]) != lam.coords:
            raise AssertionError("averaged functional must be invariant")
    if lam(d.one()) != d.field.from_int(g_order) * mu(d.one()):
        raise AssertionError("averaged functional must have lam(1) = |G| mu(1)")
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
    if any(_asymmetric_pairs(_gram_rows(d, lam))):
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
    """Compose a graded-symmetric certificate lam on Delta = lam.owner with the
    usual matrix trace of m, which must have the field, group, table and unit
    of good_matrix_algebra(n, sigmas, Delta) for dim m = n^2 dim Delta; the
    table does not depend on the sigmas, so m is compared with sigmas = e.

    Symmetry and a nonsingular Gram matrix then carry over from lam, so the
    composite is a certificate exactly when it vanishes off m's identity
    component.  Under every good grading it does: E_ii (x) d_t has degree
    sigma_i^-1 deg(d_t) sigma_i, which is e wherever lam(d_t) != 0.  Any
    other grading of the same table that puts the composite off e raises
    NotAGoodMatrixAlgebra."""
    delta = lam.owner
    dd = delta.dim
    n = max(1, math.isqrt(m.dim // dd))
    plain = good_matrix_algebra(n, (delta.group.identity,) * n, delta)
    if (m.field, m.group, m.table, m.unit) != (delta.field, delta.group, plain.table, plain.unit):
        raise NotAGoodMatrixAlgebra("algebra is not M_n of the functional's algebra")
    report = verify_certificate(delta, lam, "graded-symmetric")
    if not report.ok:
        raise InvalidCertificate(f"coefficient functional fails: {report}")
    z, e = m.field.zero(), m.group.identity
    coords = [z] * m.dim
    for i in range(n):
        for t in range(dd):
            k = (i * n + i) * dd + t
            if not lam.coords[t].is_zero and m.degree[k] != e:
                raise NotAGoodMatrixAlgebra(
                    f"the trace is nonzero at basis vector {k}, of degree {m.degree[k]}")
            coords[k] = lam.coords[t]
    return LinearFunctional(m, coords)
