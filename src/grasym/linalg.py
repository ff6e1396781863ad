"""Exact linear algebra over any Field: row reduction, kernels, subspaces.

Matrices are dense grids of Scalars.  Subspaces are always stored as a
reduced-row-echelon basis with no zero rows, so subspace equality is plain
representation equality.

Row reduction runs on raw field values, through the field's arithmetic
kernel `field.ops`: `Matrix.rref` unwraps its entries once, reduces the raw
rows with `eliminate_raw`, and wraps the result once.  `kernel`, `solve`,
`rank`, `inverse` and the other `Subspace` operations reduce through `rref`,
or through `eliminate_raw` itself in `Subspace.from_vectors`, which wraps
only the rank rows.  The reduced row echelon form is unique, so it is the
same matrix a reduction on Scalars gives.

`sparse_span` and `sparse_kernel` reduce a stream of sparse rows, dicts
{column: raw value} with no zero entry, one at a time against the pivot
rows found so far (`SparseEchelon`), and keep those rows fully reduced.
A row that reduces to nothing costs only its reduction, and the stream is
read no further once the rank is full.  The span keeps the first nonzero
column of each row as its pivot, so its rows are the RREF basis.  The
kernel keeps the last one: each pivot row then holds its pivot and free
columns before it, so the kernel vector of a free column f, 1 at f and
minus each pivot row's entry at f, has f as its first nonzero column and is
zero at the other free columns.  Those vectors are the RREF basis of the
kernel as they stand; they share one zero Scalar and one unit Scalar, and
only the pivot entries are wrapped.  This is what decides trace spaces,
commutator spans and centralizers, whose constraint rows have few nonzeros.
"""

from __future__ import annotations

from .errors import AmbientMismatch
from .fields import Field, Scalar, embed_scalar


def eliminate_raw(ops, m, ncols: int, stop_at_gap: bool = False, pivot_log=None):
    """Gauss-Jordan elimination of the raw rows m, in place, to reduced row echelon form.

    Returns the pivot columns.  The pivot of each column is its first nonzero
    entry at or below the current row.  stop_at_gap makes it a nonsingularity
    test: it returns None at the first column with no pivot, which for a
    square m happens exactly when m is singular, and it clears only the rows
    below each pivot, since no later pivot search looks above.  A list given
    as pivot_log receives one (swapped, value) pair per pivot: whether a row
    swap brought it up, and its raw value before its row is scaled.  The
    determinant of a nonsingular square m is the product of those values,
    negated once per swap.  Rows are replaced, never written into, so a
    shallow copy of m keeps the caller's rows intact.
    """
    is_zero = ops.is_zero
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if not is_zero(m[i][c]):
                break
        else:
            if stop_at_gap:
                return None
            continue
        if pivot_log is not None:
            pivot_log.append((i != r, m[i][c]))
        m[r], m[i] = m[i], m[r]
        prow = m[r] = ops.scale(m[r], ops.inverse(m[r][c]))
        for i in range(r + 1 if stop_at_gap else 0, nrows):
            if i != r and not is_zero(m[i][c]):
                m[i] = ops.sub_scaled(m[i], m[i][c], prow)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


class SparseEchelon:
    """Sparse raw rows kept fully reduced as they arrive.

    rows maps each pivot column to its row, whose pivot entry is one and
    which is zero at every other pivot column.  pick chooses the pivot of a
    new row among its columns: min for the RREF of the span, max for the
    kernel (see the module docstring).
    """

    __slots__ = ("ops", "ncols", "pick", "rows")

    def __init__(self, ops, ncols: int, pick=min):
        self.ops = ops
        self.ncols = ncols
        self.pick = pick
        self.rows = {}

    @property
    def full(self) -> bool:
        return len(self.rows) == self.ncols

    def add(self, row: dict) -> bool:
        """Reduce the sparse row in place, and keep it if it is independent."""
        ops, rows = self.ops, self.rows
        # the pivot rows are zero at each other's pivots, so one pass clears them
        for c in [c for c in row if c in rows]:
            ops.sparse_sub_scaled(row, row[c], rows[c])
        if not row:
            return False
        p = self.pick(row)
        row = ops.sparse_scale(row, ops.inverse(row[p]))
        for other in rows.values():
            if p in other:
                ops.sparse_sub_scaled(other, other[p], row)
        rows[p] = row
        return True

    def add_all(self, rows):
        """Add rows in turn until the rank is full; the rest are not read."""
        if self.full:
            return
        for row in rows:
            if self.add(row) and self.full:
                return


def sparse_span(ops, ncols: int, rows) -> "Subspace":
    """The span of the sparse rows, as a Subspace of ops.field^ncols.

    The rows are reduced in place.
    """
    echelon = SparseEchelon(ops, ncols, min)
    echelon.add_all(rows)
    zero = ops.zero
    basis = []
    for p in sorted(echelon.rows):
        dense = [zero] * ncols
        for c, v in echelon.rows[p].items():
            dense[c] = v
        basis.append(ops.wrap(dense))
    return Subspace(ops.field, ncols, basis)


def sparse_kernel(ops, ncols: int, rows, dead=()) -> "Subspace":
    """The vectors of ops.field^ncols that every sparse row annihilates and
    that are zero at the dead columns.

    A dead column is the unit row at that column, given before the rows;
    unit rows are reduced against each other, so they go in as pivot rows.
    The rows are reduced in place.
    """
    field, zero, one, sub = ops.field, ops.zero, ops.one, ops.sub
    echelon = SparseEchelon(ops, ncols, max)
    echelon.rows.update((c, {c: one}) for c in dead)
    echelon.add_all(rows)
    zero_s, one_s = ops.wrap((zero, one))
    kernel = {f: [zero_s] * ncols for f in range(ncols) if f not in echelon.rows}
    for p, row in echelon.rows.items():
        for c, v in row.items():
            if c != p:
                kernel[c][p] = Scalar(field, sub(zero, v))
    for f, vector in kernel.items():
        vector[f] = one_s
    return Subspace(field, ncols, [kernel[f] for f in sorted(kernel)])


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries):
        self.field = field
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise AmbientMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        z = self.field.zero()
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if not a.is_zero:
                        acc = acc + a * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(self.field, out)

    def mulvec(self, vec) -> tuple:
        if len(vec) != self.cols:
            raise AmbientMismatch("vector length does not match column count")
        z = self.field.zero()
        out = []
        for i in range(self.rows):
            acc = z
            for k in range(self.cols):
                a = self.entries[i][k]
                if not a.is_zero and not vec[k].is_zero:
                    acc = acc + a * vec[k]
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[self.entries[i][j] for i in range(self.rows)]
                                   for j in range(self.cols)])

    def rref(self):
        """Reduced row echelon form: (matrix, rank, pivot column tuple)."""
        ops = self.field.ops
        m = [ops.unwrap(row) for row in self.entries]
        pivots = eliminate_raw(ops, m, self.cols)
        return Matrix(self.field, [ops.wrap(row) for row in m]), len(pivots), tuple(pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def kernel(self) -> "Subspace":
        """Right kernel {v : Mv = 0} as a subspace of the column space."""
        red, rank, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        z, o = self.field.zero(), self.field.one()
        vectors = []
        for f in free:
            v = [z] * self.cols
            v[f] = o
            for r_i, p in enumerate(pivots):
                v[p] = -red.entries[r_i][f]
            vectors.append(v)
        return Subspace.from_vectors(self.field, self.cols, vectors)

    def solve(self, b) -> tuple | None:
        """One solution of Mx = b, or None if inconsistent."""
        if len(b) != self.rows:
            raise AmbientMismatch("right-hand side length does not match row count")
        aug = Matrix(self.field, [list(self.entries[i]) + [b[i]] for i in range(self.rows)])
        red, rank, pivots = aug.rref()
        if self.cols in pivots:
            return None
        z = self.field.zero()
        x = [z] * self.cols
        for r_i, p in enumerate(pivots):
            x[p] = red.entries[r_i][self.cols]
        return tuple(x)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise AmbientMismatch("only square matrices invert")
        n = self.rows
        ident = Matrix.identity(self.field, n)
        aug = Matrix(self.field, [list(self.entries[i]) + list(ident.entries[i]) for i in range(n)])
        red, rank, pivots = aug.rref()
        if rank < n or pivots[:n] != tuple(range(n)):
            raise AmbientMismatch("matrix is singular")
        return Matrix(self.field, [row[n:] for row in red.entries])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.entries == other.entries)

    def __repr__(self):
        return "[" + "; ".join(" ".join(repr(x) for x in row) for row in self.entries) + "]"


class Subspace:
    """A coordinate subspace held as an RREF row basis; equality is structural."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: Field, ambient_dim: int, basis):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(row) for row in basis)

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors) -> "Subspace":
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch(f"vector of length {len(v)} in ambient {ambient_dim}")
        ops = field.ops
        rows = [ops.unwrap(v) for v in vectors]
        rank = len(eliminate_raw(ops, rows, ambient_dim))
        return cls(field, ambient_dim, [ops.wrap(row) for row in rows[:rank]])

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, [])

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def contains_vector(self, v) -> bool:
        v = list(v)
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length does not match ambient dimension")
        try:
            self.reduce_vector(v)
        except AmbientMismatch:
            return False
        return True

    def reduce_vector(self, v) -> tuple:
        """Coordinates of v in the RREF basis; raises if v has the wrong length
        or lies outside."""
        v = list(v)
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length does not match ambient dimension")
        coords = []
        for row in self.basis:
            pivot = next(i for i, x in enumerate(row) if not x.is_zero)
            c = v[pivot]
            coords.append(c)
            if not c.is_zero:
                v = [a - c * b for a, b in zip(v, row)]
        if not all(x.is_zero for x in v):
            raise AmbientMismatch("vector lies outside the subspace")
        return tuple(coords)

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(row) for row in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(self.field, self.ambient_dim,
                                     list(self.basis) + list(other.basis))

    def change_field(self, target: Field) -> "Subspace":
        """Reinterpret the basis over an overfield; RREF shape is preserved."""
        rows = [[embed_scalar(x, target) for x in row] for row in self.basis]
        return Subspace(target, self.ambient_dim, rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.field == other.field
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"
