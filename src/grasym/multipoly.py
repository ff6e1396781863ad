"""Linear pencils, their determinants, and deterministic point searches.

A pencil is a square grid of linear forms in unknowns t_1..t_m, stored
sparse: a map from each nonzero entry (i, j) to the tuple of its m raw
coefficients (values of field.ops); a cell that is not in the map is zero.
linear_pencil builds one from sparse contributions, on raw values.  Its
determinant splits over the independent row/column blocks of the nonzero
pattern, read off the map's keys, into a signed product (FactoredPoly) of
block determinants (BlockDet), none expanded up front: the value of a block
at a point is an exact elimination of the evaluated block.  A nonzero d x d
determinant is homogeneous of degree d, so the degree that sets the search
grid is known without expanding anything.  A block whose determinant
vanishes identically is proved so without polynomials, by a shrunk subspace:
a U with dim(sum_r G_r U) < dim U for the pencil sum_r t_r G_r, found by the
second Wong sequence at a singular value of the block (_shrunk_subspace) and
re-checked by two ranks (_shrinks).  Scalars are made only at the edge: for
a pencil's Scalar grid, built on first read, and for polynomials (MultiPoly:
exponent tuples to nonzero Scalars), which appear only in pencil_det, the
cofactor expansion that a zero test falls back to when no shrunk subspace
turns up.

Witness searches are deterministic and walk before they prove: over a field
larger than the total degree a grid with degree+1 values per variable must
contain a nonzero point of a nonzero polynomial, so the first WITNESS_WALK
grid points are tried by evaluation alone.  A block that a shrunk subspace
proves zero on the way ends its group's walk with "identically_zero"; when
none of the points is a witness and nothing was proved, the zero test runs
(for a determinant, one more sequence per block and then the cofactor
expansion) before the walk goes on.  Small fields are enumerated
exhaustively; a nonzero polynomial that vanishes on all of such a field has
no point there, and the search says so and stops.  A determinant of a
decision never does: see symmetry.decide_form_existence.

A product whose factors fall into groups sharing no unknown is searched one
group at a time, each on the grid of its own unknowns and its own degree,
and the groups' first points are put together.  That is the point the walk
of the whole grid finds: the nonzero set is the product of the groups'
nonzero sets, so its lexicographically first point is made of theirs, and a
group's smaller grid already holds its first point, because a nonzero
polynomial of degree <= d has a nonzero point on every S^k with |S| > d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionTooLarge, FieldMismatch, SearchSpaceTooLarge
from .fields import Field, Scalar
from .linalg import SparseEchelon, eliminate_raw

# bounds the cofactor expansion, which a decision needs only for a No that no
# shrunk subspace proves (or a Yes whose first witness lies beyond WITNESS_WALK)
PENCIL_DET_MAX_DIM = 12
SEARCH_BUDGET = 10 ** 7
# grid points a search evaluates before it runs the zero test
WITNESS_WALK = 16


class MultiPoly:
    __slots__ = ("field", "num_vars", "terms")

    def __init__(self, field: Field, num_vars: int, terms=None):
        self.field = field
        self.num_vars = num_vars
        cleaned = {}
        if terms:
            for exps, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if len(exps) != num_vars:
                    raise ValueError("exponent tuple of wrong length")
                if not coeff.is_zero:
                    cleaned[tuple(exps)] = coeff
        self.terms = cleaned

    @classmethod
    def zero(cls, field: Field, num_vars: int) -> "MultiPoly":
        return cls(field, num_vars)

    @classmethod
    def constant(cls, field: Field, num_vars: int, c: Scalar) -> "MultiPoly":
        return cls(field, num_vars, {(0,) * num_vars: c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    known_zero = is_zero

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def nonzero_degree(self) -> int:
        """The total degree if the polynomial is nonzero; no zero test is implied."""
        return self.total_degree()

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            s = c if cur is None else cur + c
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(self.field, self.num_vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.field, self.num_vars,
                         {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, Scalar):
            return MultiPoly(self.field, self.num_vars,
                             {e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                cur = out.get(e)
                s = prod if cur is None else cur + prod
                if s.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(self.field, self.num_vars, out)

    def evaluate(self, point) -> Scalar:
        if len(point) != self.num_vars:
            raise ValueError("point has wrong arity")
        acc = self.field.zero()
        for exps, coeff in self.terms.items():
            term = coeff
            for e, v in zip(exps, point):
                for _ in range(e):
                    term = term * v
            acc = acc + term
        return acc

    def sorted_terms(self):
        """Terms in graded lexicographic order, highest first."""
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.field == other.field and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(f"t{i + 1}^{e}" if e > 1 else f"t{i + 1}"
                            for i, e in enumerate(exps) if e)
            if not mono:
                parts.append(repr(coeff))
            elif coeff == self.field.one():
                parts.append(mono)
            else:
                parts.append(f"{coeff!r}*{mono}")
        return " + ".join(parts)


class FactoredPoly:
    """The polynomial sign * f_1 * ... * f_k, kept as its factors.

    F[t_1..t_m] is a domain, so the product is zero iff some factor is, and
    its total degree is the sum of the factors' degrees; a value at a point
    is the product of the factors' values.  None of these multiplies the
    factors out.  expand() does, once, for the terms and for equality.  The
    factors are MultiPolys or BlockDets.
    """

    __slots__ = ("field", "num_vars", "sign", "factors", "_expanded")

    def __init__(self, field: Field, num_vars: int, sign: int, factors):
        self.field = field
        self.num_vars = num_vars
        self.sign = sign
        self.factors = tuple(factors)
        self._expanded = None

    @property
    def known_zero(self) -> bool:
        """Whether a factor is known to be zero without a zero test."""
        return any(f.known_zero for f in self.factors)

    @property
    def is_zero(self) -> bool:
        return self.known_zero or any(f.is_zero for f in self.factors)

    def total_degree(self) -> int:
        if self.is_zero:
            return 0
        return sum(f.total_degree() for f in self.factors)

    def nonzero_degree(self) -> int:
        """The total degree if the product is nonzero, read without the zero test."""
        return sum(f.nonzero_degree() for f in self.factors)

    def evaluate(self, point) -> Scalar:
        if len(point) != self.num_vars:
            raise ValueError("point has wrong arity")
        acc = self.field.one()
        for f in self.factors:
            v = f.evaluate(point)
            if v.is_zero:
                return v
            acc = acc * v
        return -acc if self.sign < 0 else acc

    def expand(self) -> MultiPoly:
        """The product as a MultiPoly, multiplied out on first use."""
        if self._expanded is None:
            if self.is_zero:
                out = MultiPoly.zero(self.field, self.num_vars)
            else:
                out = MultiPoly.constant(self.field, self.num_vars, self.field.one())
                for f in self.factors:
                    out = out * f
                if self.sign < 0:
                    out = -out
            self._expanded = out
        return self._expanded

    @property
    def terms(self) -> dict:
        return self.expand().terms

    def __eq__(self, other):
        if isinstance(other, FactoredPoly):
            other = other.expand()
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.expand() == other

    def __repr__(self):
        body = " * ".join(f"({f!r})" for f in self.factors) or "1"
        return f"-{body}" if self.sign < 0 else body


class GramPencil:
    """A dim x dim pencil of linear forms in num_vars unknowns, stored sparse.

    forms maps each nonzero entry (i, j) to the tuple of the raw coefficients
    of t_1..t_m in it; every other entry is zero.  The constructor takes the
    grid of Scalar forms, checks it and unwraps it once.  entries is that
    grid, wrapped on first read, with the shared zero form (_zero_form) in
    every zero cell.  Two pencils are equal when their fields, sizes and
    forms are, that is when their grids are equal.
    """

    __slots__ = ("field", "dim", "num_vars", "forms", "_entries")

    def __init__(self, field: Field, dim: int, num_vars: int, entries):
        if len(entries) != dim or any(len(row) != dim for row in entries):
            raise ValueError(f"pencil grid must be {dim} x {dim}")
        ops, zero = field.ops, _zero_form(field, num_vars)
        forms = {}
        for i, row in enumerate(entries):
            for j, form in enumerate(row):
                if form is zero:
                    continue
                if not (isinstance(form, tuple) and len(form) == num_vars and all(
                        isinstance(c, Scalar) and c.field is field for c in form)):
                    raise ValueError(f"pencil entries must be {num_vars} scalars of {field}")
                raw = ops.unwrap(form)
                if not all(map(ops.is_zero, raw)):
                    forms[i, j] = tuple(raw)
        self._store(field, dim, num_vars, forms)

    @classmethod
    def _from_raw(cls, field: Field, dim: int, num_vars: int, forms: dict) -> "GramPencil":
        """The pencil of a sparse map of raw forms, none of them zero; nothing
        is checked."""
        pencil = cls.__new__(cls)
        pencil._store(field, dim, num_vars, forms)
        return pencil

    def _store(self, field, dim, num_vars, forms):
        self.field = field
        self.dim = dim
        self.num_vars = num_vars
        self.forms = forms
        self._entries = None

    @property
    def entries(self) -> tuple:
        """The grid of forms as tuples of Scalars, wrapped on first read."""
        if self._entries is None:
            d, forms, wrap = self.dim, self.forms, self.field.ops.wrap
            zero = _zero_form(self.field, self.num_vars)
            self._entries = tuple(
                tuple(wrap(forms[i, j]) if (i, j) in forms else zero for j in range(d))
                for i in range(d))
        return self._entries

    def evaluate(self, point) -> list:
        return [[sum((c * v for c, v in zip(form, point)), self.field.zero()) for form in row]
                for row in self.entries]

    def __eq__(self, other):
        if not isinstance(other, GramPencil):
            return NotImplemented
        return ((self.field, self.dim, self.num_vars, self.forms)
                == (other.field, other.dim, other.num_vars, other.forms))

    def __hash__(self):
        return hash((self.field, self.dim, self.num_vars, frozenset(self.forms.items())))


@lru_cache(maxsize=None)
def _zero_form(field: Field, num_vars: int) -> tuple:
    """One zero form per field and arity, so zero entries compare by identity."""
    return (field.zero(),) * num_vars


def linear_pencil(field: Field, dim: int, num_vars: int, contributions) -> GramPencil:
    """The pencil whose entry (i, j) sums c t_r over the contributions
    (i, j, r, c), for raw values c of field.ops.  The sums are formed on raw
    values, straight into the sparse store; an entry whose contributions
    cancel to the zero form is left out, as if none had reached it."""
    ops = field.ops
    add, is_zero, zero = ops.add, ops.is_zero, ops.zero
    sums: dict = {}
    for i, j, r, c in contributions:
        form = sums.get((i, j))
        if form is None:
            form = sums[i, j] = [zero] * num_vars
        form[r] = add(form[r], c)
    return GramPencil._from_raw(field, dim, num_vars, {
        key: tuple(form) for key, form in sums.items() if not all(map(is_zero, form))})


def pencil_det(pencil: GramPencil) -> MultiPoly:
    """Exact determinant by cofactor expansion, memoized on column sets."""
    d = pencil.dim
    if d > PENCIL_DET_MAX_DIM:
        raise DimensionTooLarge(f"pencil dimension {d} exceeds {PENCIL_DET_MAX_DIM}")
    field, m = pencil.field, pencil.num_vars
    one = MultiPoly.constant(field, m, field.one())
    if d == 0:
        return one
    units = [tuple(int(t == r) for t in range(m)) for r in range(m)]
    wrap = field.ops.wrap
    # the nonzero entries only, each wrapped once
    entries = {key: MultiPoly(field, m, zip(units, wrap(form)))
               for key, form in pencil.forms.items()}
    memo: dict = {}

    def minor(cols: frozenset) -> MultiPoly:
        if not cols:
            return one
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = d - len(cols)
        acc = MultiPoly.zero(field, m)
        for pos, c in enumerate(sorted(cols)):
            entry = entries.get((row, c))
            if entry is None:
                continue
            sub = minor(cols - {c})
            term = entry * sub
            if pos % 2:
                term = -term
            acc = acc + term
        memo[cols] = acc
        return acc

    return minor(frozenset(range(d)))


class BlockDet:
    """The determinant of one square block of a pencil, expanded only on demand.

    The block's raw rows are laid out once from the pencil's sparse forms,
    with no Scalar made.  evaluate(point) eliminates the evaluated block on
    raw field values; a nonsingular block proves the determinant nonzero,
    and a block that was nonsingular at any point is never expanded.

    A vanishing determinant is proved by a shrunk subspace (_shrunk_subspace,
    the second Wong sequence): at its first singular walk point where the
    block is not the zero matrix, and once more at its walked point of
    largest rank when the zero test comes.  A subspace U with
    dim(sum_r G_r U) < dim U, re-checked by two ranks (_shrinks), makes the
    block singular at every point over every extension, so the determinant
    is identically zero; the block then evaluates to zero without an
    elimination and known_zero is True.  The sequence finds no U when the
    pencil's non-commutative rank is full (the generic 3 x 3 skew-symmetric
    pencil has det 0 and none) or when the walk never met a point of the
    right rank; the zero test then falls back to pencil_det, the cofactor
    expansion, and keeps its result, as the terms do (a block proved zero
    expands to the zero polynomial without it).  A nonzero d x d
    determinant of a linear homogeneous pencil is homogeneous of degree d.
    """

    __slots__ = ("pencil", "_ops", "_forms", "_nonzero", "_shrunk", "_singular", "_expanded")

    def __init__(self, pencil: GramPencil):
        self.pencil = pencil
        self._ops = pencil.field.ops
        # _forms[r][c] is the raw form of entry (r, c), all zeros off the support
        d, zero = pencil.dim, (self._ops.zero,) * pencil.num_vars
        self._forms = [[zero] * d for _ in range(d)]
        for (r, c), form in pencil.forms.items():
            self._forms[r][c] = form
        self._nonzero = False
        self._shrunk = None  # the basis of a shrunk subspace, once one is proved
        # the raw points where the block was singular, from the first where it
        # was not the zero matrix, at which the sequence first ran
        self._singular = []
        self._expanded = None

    @property
    def field(self) -> Field:
        return self.pencil.field

    @property
    def num_vars(self) -> int:
        return self.pencil.num_vars

    def evaluate(self, point) -> Scalar:
        """The product of the elimination pivots of the block at point,
        negated once per row swap; zero at the first column with no pivot."""
        if len(point) != self.num_vars:
            raise ValueError("point has wrong arity")
        ops, d = self._ops, self.pencil.dim
        x = ops.unwrap(point)
        if self._shrunk is not None:
            return self.field.zero()
        rows = [ops.forms_at(row, x) for row in self._forms]
        log: list = []
        if eliminate_raw(ops, list(rows), d, stop_at_gap=True, pivot_log=log) is None:
            singular = self._singular
            # from the first point where the block is not the zero matrix
            if not self._nonzero and (singular or rows.count([ops.zero] * d) < d):
                singular.append(x)
                if len(singular) == 1:
                    self._prove_zero(rows)
            return self.field.zero()
        self._nonzero = True
        value = self.field.one()
        for pivot in ops.wrap(v for _, v in log):
            value = value * pivot
        return -value if sum(swapped for swapped, _ in log) % 2 else value

    def _prove_zero(self, rows):
        """Run the sequence at the evaluated block rows, and keep a U that
        passes the two-rank re-check."""
        gram = _gram_matrices(self)
        basis = _shrunk_subspace(self._ops, gram, rows)
        if basis is not None:
            if not _shrinks(self._ops, gram, basis):
                raise AssertionError("a converged Wong sequence gave no shrunk subspace; "
                                     "this is a bug")
            self._shrunk = basis

    def _retry_at_best_rank(self):
        """Run the sequence once more at the first walked singular point of
        largest rank, unless that is the point of the first run."""
        ops, d, points = self._ops, self.pencil.dim, self._singular
        self._singular = []
        values = [[ops.forms_at(row, x) for row in self._forms] for x in points]
        ranks = [len(eliminate_raw(ops, list(rows), d)) for rows in values]
        best = ranks.index(max(ranks))
        if best:
            self._prove_zero(values[best])

    def expand(self) -> MultiPoly:
        if self._expanded is None:
            self._expanded = (MultiPoly.zero(self.field, self.num_vars)
                              if self._shrunk is not None else pencil_det(self.pencil))
        return self._expanded

    @property
    def known_zero(self) -> bool:
        """Whether a shrunk subspace has proved the determinant zero."""
        return self._shrunk is not None

    @property
    def is_zero(self) -> bool:
        if not self._nonzero and self._shrunk is None:
            if self._singular:
                self._retry_at_best_rank()
            # a nonzero expansion ends the proofs at later walk points
            if self._shrunk is None and not self.expand().is_zero:
                self._nonzero = True
        return not self._nonzero

    @property
    def terms(self) -> dict:
        return self.expand().terms

    def total_degree(self) -> int:
        return 0 if self.is_zero else self.pencil.dim

    def nonzero_degree(self) -> int:
        return self.pencil.dim

    def __repr__(self):
        return repr(self.expand())


def _gram_matrices(block: BlockDet) -> list:
    """The nonzero coefficient matrices G_r of the block's pencil
    sum_r t_r G_r, as raw row grids (tuples of tuples)."""
    d = block.pencil.dim
    zero_row = (block._ops.zero,) * d
    # row i of G_r is the r-th coordinate of each form of row i
    return [g for g in zip(*(zip(*row) for row in block._forms)) if g.count(zero_row) < d]


def _sparse(ops, row) -> dict:
    is_zero = ops.is_zero
    return {c: v for c, v in enumerate(row) if not is_zero(v)}


def _shrunk_subspace(ops, gram, block):
    """A subspace that the pencil sum_r t_r G_r shrinks, found by the second
    Wong sequence at one of its singular values, or None.

    gram holds the G_r and block the value A of the pencil at some point,
    all as raw row grids.  The sequence W_0 = 0, W_{i+1} = sum_r G_r
    A^-1(W_i), with A^-1(W) = {v : Av in W}, grows to a limit W; while every
    W_i lies in im A, U = A^-1(W) has dim U = dim W + dim ker A and
    sum_r G_r U = W, so a singular A gives dim(sum_r G_r U) < dim U
    (Ivanyos, Karpinski and Saxena, SIAM J. Comput. 39, 2010; Fortin and
    Reutenauer, Sem. Lothar. Combin. 52, 2004).  Such a U makes every value
    of the pencil, over every extension, map U into a smaller space, so the
    determinant vanishes identically.

    One elimination of [A | I] gives the pivots of A, the rows E that solve
    Av = w for w in im A (v at the pivots is E w, and zero elsewhere), and
    the left kernel Y of A, so w lies in im A iff Y w = 0.  U starts as
    ker A and W as 0; each new u of U is sent through every G_r, and each
    image w independent of W is tested, then joins W with its preimage v
    joining U; v is independent of U, since A maps U into W and v to w.
    Returns the basis of U so built, ker A first, as raw rows, or None as
    soon as an image leaves im A.
    """
    d = len(block)
    zero, one, is_zero = ops.zero, ops.one, ops.is_zero
    aug = [list(row) + [one if j == i else zero for j in range(d)]
           for i, row in enumerate(block)]
    pivots = eliminate_raw(ops, aug, d)
    rank = len(pivots)
    solve, left = [row[d:] for row in aug[:rank]], [row[d:] for row in aug[rank:]]
    pivot_set = set(pivots)
    basis = []
    for f in range(d):
        if f not in pivot_set:
            v = [zero] * d
            v[f] = one
            for p, row in zip(pivots, aug):
                v[p] = ops.sub(zero, row[f])
            basis.append(v)
    span_w = SparseEchelon(ops, d)
    queue = list(basis)
    while queue:
        u = queue.pop()
        for g in gram:
            w = ops.forms_at(g, u)
            # an image in W lies in im A already
            if span_w.add(_sparse(ops, w)):
                if not all(map(is_zero, ops.forms_at(left, w))):
                    return None
                v = [zero] * d
                for p, c in zip(pivots, ops.forms_at(solve, w)):
                    v[p] = c
                basis.append(v)
                queue.append(v)
    return basis


def _shrinks(ops, gram, basis) -> bool:
    """The re-check of a shrunk subspace by two ranks: the span U of the raw
    rows of basis has dim(sum_r G_r U) < dim U."""
    d = len(gram[0])
    rank_u = len(eliminate_raw(ops, [list(u) for u in basis], d))
    images = [ops.forms_at(g, u) for u in basis for g in gram]
    return len(eliminate_raw(ops, images, d)) < rank_u


def _roots(n: int, links) -> list:
    """The root of each of the nodes 0..n-1 once every pair in links is
    joined: a union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(x) for x in range(n)]


def _support_components(pencil: GramPencil):
    """Connected components of the nonzero pattern (rows and cols as nodes),
    each as its rows and its columns in ascending order, in the order of
    their least rows (row-less components last)."""
    d = pencil.dim
    roots = _roots(2 * d, ((i, d + j) for i, j in pencil.forms))
    groups: dict = {}
    for i in range(d):
        groups.setdefault(roots[i], [[], []])[0].append(i)
    for j in range(d):
        groups.setdefault(roots[d + j], [[], []])[1].append(j)
    return [(tuple(rows), tuple(cols)) for rows, cols in groups.values()]


def structured_det(pencil: GramPencil) -> FactoredPoly:
    """Exact determinant factored over independent blocks of the support.

    Equal to pencil_det (after expand()) but tolerates large dimensions
    whenever the nonzero pattern decomposes into blocks, as Gram matrices of
    degree-homogeneous functionals always do.  The result is the sign times
    one BlockDet per block, none of them expanded here: a point search
    evaluates them, which may prove a block zero by a shrunk subspace, and
    only a zero test that no evaluation settled runs their cofactor
    expansions, in block order, stopping at the first vanishing block.  A
    non-square block makes the determinant zero outright.
    Each block is the sparse map of its forms, re-indexed from the pencil's
    raw forms without a Scalar.
    """
    d = pencil.dim
    field, m = pencil.field, pencil.num_vars
    zero = FactoredPoly(field, m, 1, (MultiPoly.zero(field, m),))
    components = _support_components(pencil)
    for rows, cols in components:
        if len(rows) != len(cols):
            return zero
    # base permutation: i-th smallest row of a component pairs with its i-th
    # smallest column; the block determinants then multiply with this sign
    col_of_row, block_of_row, row_pos, col_pos = [0] * d, [0] * d, [0] * d, [0] * d
    for b, (rows, cols) in enumerate(components):
        for pos, (r, c) in enumerate(zip(rows, cols)):
            col_of_row[r], block_of_row[r], row_pos[r], col_pos[c] = c, b, pos, pos
    # a nonzero entry (i, j) joins row i and column j, so both lie in i's block
    blocks: list = [{} for _ in components]
    for (i, j), form in pencil.forms.items():
        blocks[block_of_row[i]][row_pos[i], col_pos[j]] = form
    factors = [BlockDet(GramPencil._from_raw(field, len(rows), m, block))
               for (rows, _), block in zip(components, blocks)]
    inversions = sum(1 for a in range(d) for b in range(a + 1, d)
                     if col_of_row[a] > col_of_row[b])
    return FactoredPoly(field, m, -1 if inversions % 2 else 1, factors)


@dataclass(frozen=True)
class PointResult:
    """Outcome of a nonvanishing-point search."""

    status: str  # "found" | "identically_zero" | "no_point_over_field"
    point: tuple | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def _grid_values(field: Field, count: int):
    if field.char == 0:
        return [field.from_int(k) for k in range(count)]
    return [field.element_at(k) for k in range(min(count, field.size()))]


def _first_nonzero(poly, points):
    """The first point where poly is nonzero, or None once the points run
    out or poly is known to be zero."""
    for point in points:
        if not poly.evaluate(point).is_zero:
            return point
        if poly.known_zero:
            return None
    return None


def _factor_unknowns(factor) -> list:
    """The unknowns a factor uses, in ascending order: those with a nonzero
    coefficient in some form of a BlockDet, or a positive exponent in some
    term of a MultiPoly."""
    if isinstance(factor, BlockDet):
        is_zero, forms = factor._ops.is_zero, factor.pencil.forms.values()
        return [k for k in range(factor.num_vars)
                if not all(is_zero(form[k]) for form in forms)]
    return [k for k in range(factor.num_vars) if any(exps[k] for exps in factor.terms)]


def _unknown_groups(poly) -> list:
    """poly's factors in groups that share no unknown, as pairs (unknowns in
    ascending order, the group's product), in the order of their first
    factors; factors that use no unknown form a group of their own.  A
    MultiPoly, or a product with a factor on all m unknowns or that forms
    one group, is one group on all m unknowns."""
    m = poly.num_vars
    whole = [(tuple(range(m)), poly)]
    if not isinstance(poly, FactoredPoly) or len(poly.factors) < 2:
        return whole
    uses = []
    for f in poly.factors:
        uses.append(_factor_unknowns(f))
        if len(uses[-1]) == m:
            return whole
    roots = _roots(m, ((ks[0], k) for ks in uses for k in ks[1:]))
    groups: dict = {}
    for f, ks in zip(poly.factors, uses):
        groups.setdefault(roots[ks[0]] if ks else None, []).append(f)
    if len(groups) == 1:
        return whole
    return [(tuple(k for k in range(m) if root is not None and roots[k] == root),
             FactoredPoly(poly.field, m, 1, factors))
            for root, factors in groups.items()]


def _grid_points(field: Field, deg: int, unknowns: tuple, m: int):
    """The grid of the first deg + 1 values of field (all of it when it has
    no more) on the given unknowns, in lexicographic order, with every other
    coordinate at the first value."""
    values = _grid_values(field, deg + 1)
    grid = itertools.product(values, repeat=len(unknowns))
    if len(unknowns) == m:
        return grid

    def spread(coords):
        point = [values[0]] * m
        for k, v in zip(unknowns, coords):
            point[k] = v
        return tuple(point)

    return map(spread, grid)


def nonvanishing_point(poly: MultiPoly | FactoredPoly, field: Field) -> PointResult:
    """Deterministically find a point of field^m where poly is nonzero.

    field must be poly.field; any other raises FieldMismatch.  A
    FactoredPoly is searched through its factors and never multiplied out;
    it yields the same result as its expand().

    The factors are split into groups that share no unknown (a union-find
    over the unknowns each factor uses); a MultiPoly, or a product that
    forms one group, is searched as one group on all m unknowns.  Group G is
    walked on the grid of the first d_G + 1 values per unknown of G, all of
    field when |field| <= d_G, where d_G is the degree G's product has if it
    is nonzero.  The result puts the groups' first points together, with
    every unknown that no factor uses at the first grid value, and equals
    the first point of the whole grid:
    - the nonzero set is the product of the groups' nonzero sets, so its
      lexicographically first point is theirs put together, even when the
      groups' unknowns interleave;
    - with the first i coordinates of that point fixed, G's product is still
      nonzero of degree <= d_G, so if coordinate i lay outside G's grid, a
      point of G's grid would come earlier.

    Each group's first WITNESS_WALK grid points are tried before the zero
    test, so for a determinant a Yes within them never expands a block.  A
    group whose product becomes known_zero on the way, a block proved zero
    by a shrunk subspace at a walked point, stops its walk, and the search
    yields "identically_zero" at once.  The zero test otherwise runs on the
    whole product and expands only blocks that neither an evaluation showed
    nonzero nor a sequence at their walked point of largest rank proved
    zero: a zero poly yields "identically_zero", and otherwise the walks go
    on.  With |field| > d_G the grid bound guarantees G's walk succeeds; a
    nonzero group vanishing on all of a smaller field yields
    "no_point_over_field".  A group whose unknowns span more than
    SEARCH_BUDGET points of a field no larger than d_G is not walked: that
    raises SearchSpaceTooLarge (after the zero test, so a zero poly still
    yields "identically_zero").
    """
    if poly.field != field:
        raise FieldMismatch(f"polynomial over {poly.field} searched over {field}")
    m, size = poly.num_vars, field.size()
    point = list(_grid_values(field, 1)) * m
    pending = []
    for unknowns, part in _unknown_groups(poly):
        deg = part.nonzero_degree()
        if size is not None and size <= deg and size ** len(unknowns) > SEARCH_BUDGET:
            pending.append((unknowns, part, deg, None))
            continue
        points = _grid_points(field, deg, unknowns, m)
        found = _first_nonzero(part, itertools.islice(points, WITNESS_WALK))
        if found is None:
            if part.known_zero:
                return PointResult("identically_zero")
            pending.append((unknowns, part, deg, points))
        else:
            for k in unknowns:
                point[k] = found[k]
    if not pending:
        return PointResult("found", point=tuple(point))
    if poly.is_zero:
        return PointResult("identically_zero")
    for unknowns, _, _, points in pending:
        if points is None:
            raise SearchSpaceTooLarge(
                f"{size}^{len(unknowns)} points exceed the exhaustive budget")
    for unknowns, part, deg, points in pending:
        found = _first_nonzero(part, points)
        if found is None:
            if size is None or size > deg:
                raise AssertionError("grid bound violated; polynomial arithmetic "
                                     "or factor evaluation is broken")
            return PointResult("no_point_over_field")
        for k in unknowns:
            point[k] = found[k]
    return PointResult("found", point=tuple(point))
