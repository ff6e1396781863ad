"""Exact linear algebra over any Field: row reduction, kernels, subspaces.

Matrices are dense grids of Scalars.  Subspaces are always stored as a
reduced-row-echelon basis with no zero rows, so subspace equality is plain
representation equality.
"""

from __future__ import annotations

from .errors import AmbientMismatch
from .fields import Field, embed_scalar


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

    def row(self, i: int):
        return self.entries[i]

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
        m = [list(row) for row in self.entries]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if not m[i][c].is_zero:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = m[r][c].inverse()
            m[r] = [x * inv for x in m[r]]
            for i in range(self.rows):
                if i != r and not m[i][c].is_zero:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(self.field, m), r, tuple(pivots)

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

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

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
        if not vectors:
            return cls(field, ambient_dim, [])
        red, rank, _ = Matrix(field, vectors).rref()
        return cls(field, ambient_dim, red.entries[:rank])

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
        """Coordinates of v in the RREF basis; raises if v is outside."""
        v = list(v)
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

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: reduce [U|U; W|0], read the intersection off the right half."""
        self._check_ambient(other)
        n = self.ambient_dim
        z = self.field.zero()
        rows = [list(u) + list(u) for u in self.basis]
        rows += [list(w) + [z] * n for w in other.basis]
        if not rows:
            return Subspace.zero(self.field, n)
        red, rank, _ = Matrix(self.field, rows).rref()
        inter = []
        for row in red.entries[:rank]:
            if all(x.is_zero for x in row[:n]):
                inter.append(row[n:])
        return Subspace.from_vectors(self.field, n, inter)

    def quotient_basis(self, sub: "Subspace") -> list:
        """Vectors from this basis completing sub's basis to a basis of self."""
        self._check_ambient(sub)
        if not self.contains(sub):
            raise AmbientMismatch("quotient basis needs sub contained in self")
        chosen = []
        span = list(sub.basis)
        current = Subspace.from_vectors(self.field, self.ambient_dim, span)
        for row in self.basis:
            if not current.contains_vector(row):
                chosen.append(row)
                span.append(row)
                current = Subspace.from_vectors(self.field, self.ambient_dim, span)
        return chosen

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
