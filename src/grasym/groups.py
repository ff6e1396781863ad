"""Finite groups as validated Cayley tables.

Elements are dense indices 0..N-1 with 0 the identity.  Validation checks the
Latin-square property, full associativity (O(N^3), fine for the order <= 64
cap), and the identity/inverse laws, reporting the first offending triple.
The constructors cache one group per typed argument, so the scan runs once
per distinct table in a process and groups compare by identity.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import IndexOutOfRange, InvalidTable, ParseError

MAX_GROUP_ORDER = 64


class GroupTable:
    """A finite group given by its multiplication table; construct through the
    named constructors or group_from_table, which share one instance per group."""

    __slots__ = ("order", "table", "identity", "inverse", "labels", "kind")

    def __init__(self, table, labels=None, kind=None):
        n = len(table)
        if n == 0:
            raise InvalidTable("empty table")
        if n > MAX_GROUP_ORDER:
            raise InvalidTable(f"order {n} exceeds the cap {MAX_GROUP_ORDER}")
        tab = tuple(tuple(row) for row in table)
        for g, row in enumerate(tab):
            if len(row) != n:
                raise InvalidTable(f"row {g} has length {len(row)}, expected {n}")
            if any(not (0 <= v < n) for v in row):
                raise InvalidTable(f"row {g} contains an out-of-range index")
            if sorted(row) != list(range(n)):
                raise InvalidTable(f"row {g} is not a permutation")
        for c in range(n):
            col = [tab[g][c] for g in range(n)]
            if sorted(col) != list(range(n)):
                raise InvalidTable(f"column {c} is not a permutation")
        for g in range(n):
            if tab[0][g] != g or tab[g][0] != g:
                raise InvalidTable(f"index 0 is not an identity at element {g}")
        for a in range(n):
            for b in range(n):
                ab = tab[a][b]
                for c in range(n):
                    if tab[ab][c] != tab[a][tab[b][c]]:
                        raise InvalidTable(f"associativity fails at triple ({a},{b},{c})")
        inv = [None] * n
        for g in range(n):
            for h in range(n):
                if tab[g][h] == 0:
                    inv[g] = h
                    break
        self.order = n
        self.table = tab
        self.identity = 0
        self.inverse = tuple(inv)
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label list has wrong length")
        self.kind = kind

    def mul(self, g: int, h: int) -> int:
        self._check(g)
        self._check(h)
        return self.table[g][h]

    def inv(self, g: int) -> int:
        self._check(g)
        return self.inverse[g]

    def power(self, g: int, k: int) -> int:
        self._check(g)
        if k < 0:
            g, k = self.inverse[g], -k
        acc = 0
        for _ in range(k):
            acc = self.table[acc][g]
        return acc

    def element_order(self, g: int) -> int:
        """Least m >= 1 with g^m = identity."""
        self._check(g)
        acc, m = g, 1
        while acc != 0:
            acc = self.table[acc][g]
            m += 1
        return m

    def subgroup_generated(self, generators) -> tuple:
        """Closure of the generators (and the identity) under product and inverse."""
        for s in generators:
            self._check(s)
        closure = {0}
        frontier = set(generators) | {0}
        closure |= {self.inverse[s] for s in frontier}
        closure |= frontier
        changed = True
        while changed:
            changed = False
            for a in list(closure):
                for b in list(closure):
                    ab = self.table[a][b]
                    if ab not in closure:
                        closure.add(ab)
                        changed = True
        return tuple(sorted(closure))

    def is_abelian(self) -> bool:
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.order) for b in range(self.order))

    def exponent(self) -> int:
        e = 1
        for g in range(self.order):
            m = self.element_order(g)
            e = e * m // gcd(e, m)
        return e

    def label(self, g: int) -> str:
        if self.labels is not None:
            return self.labels[g]
        return f"g{g}"

    def _check(self, g: int):
        if not (0 <= g < self.order):
            raise IndexOutOfRange(f"element index {g} out of range 0..{self.order - 1}")

    def __repr__(self):
        if self.kind is not None:
            return "Group(" + ",".join(str(k) for k in self.kind) + ")"
        return f"Group(order={self.order})"

    def to_dict(self) -> dict:
        d = {"order": self.order, "table": [list(r) for r in self.table]}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d


def _check_order(n: int):
    """Refuse an order above the cap before its table is built."""
    if n > MAX_GROUP_ORDER:
        raise InvalidTable(f"order {n} exceeds the cap {MAX_GROUP_ORDER}")


@lru_cache(maxsize=None, typed=True)
def cyclic_group(n: int) -> GroupTable:
    if n < 1:
        raise InvalidTable("cyclic group order must be positive")
    _check_order(n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + [("g" if i == 1 else f"g{i}") for i in range(1, n)]
    return GroupTable(table, labels=labels, kind=("cyclic", n))


def trivial_group() -> GroupTable:
    return cyclic_group(1)


def cyclic_product_group(orders) -> GroupTable:
    """Direct product of cyclic groups C_{n1} x ... x C_{nk}."""
    return _cyclic_product_group(*orders)


@lru_cache(maxsize=None, typed=True)
def _cyclic_product_group(*orders) -> GroupTable:
    orders = list(orders)
    if not orders or any(n < 1 for n in orders):
        raise InvalidTable("cyclic factors must be positive")
    total = 1
    for n in orders:
        total *= n
    _check_order(total)
    def decode(k):
        parts = []
        for n in orders:
            parts.append(k % n)
            k //= n
        return parts
    def encode(parts):
        k, mult = 0, 1
        for v, n in zip(parts, orders):
            k += v * mult
            mult *= n
        return k
    table = []
    for i in range(total):
        a = decode(i)
        row = []
        for j in range(total):
            b = decode(j)
            row.append(encode([(x + y) % n for x, y, n in zip(a, b, orders)]))
        table.append(row)
    labels = ["(" + ",".join(str(v) for v in decode(i)) + ")" for i in range(total)]
    return GroupTable(table, labels=labels, kind=("product", tuple(orders)))


def klein_group() -> GroupTable:
    return cyclic_product_group([2, 2])


@lru_cache(maxsize=None, typed=True)
def dihedral_group(n: int) -> GroupTable:
    """Dihedral group of order 2n: rotations r^i and reflections r^i s."""
    if n < 1:
        raise InvalidTable("dihedral parameter must be positive")
    size = 2 * n
    _check_order(size)
    def mul(a, b):
        i1, j1 = a % n, a // n
        i2, j2 = b % n, b // n
        if j1 == 0:
            return (i1 + i2) % n + n * j2
        return (i1 - i2) % n + n * (1 - j2)
    table = [[mul(a, b) for b in range(size)] for a in range(size)]
    labels = [f"r{i}" for i in range(n)] + [f"r{i}s" for i in range(n)]
    labels[0] = "e"
    return GroupTable(table, labels=labels, kind=("dihedral", n))


@lru_cache(maxsize=None)
def symmetric_group_3() -> GroupTable:
    g = dihedral_group(3)
    return GroupTable(g.table, labels=g.labels, kind=("sym3",))


def group_from_table(table, labels=None) -> GroupTable:
    """The shared group of a table of ints and its hashable labels; a table with
    another entry type is built unshared, raising as GroupTable does."""
    tab = tuple(tuple(row) for row in table)
    if any(type(v) is not int for row in tab for v in row):
        return GroupTable(tab, labels=labels)
    return _table_group(tab, labels is not None, *(labels or ()))


@lru_cache(maxsize=None, typed=True)
def _table_group(table, labelled, *labels) -> GroupTable:
    return GroupTable(table, labels=labels if labelled else None)


def group_from_kind(kind) -> GroupTable:
    """Build the group named by a GroupTable.kind tuple, e.g. ("cyclic", 4),
    ("product", (2, 2)), ("dihedral", 3) or ("sym3",)."""
    name, *params = kind
    if name == "cyclic":
        return cyclic_group(*params)
    if name == "product":
        return cyclic_product_group(*params)
    if name == "dihedral":
        return dihedral_group(*params)
    if name == "sym3":
        return symmetric_group_3(*params)
    raise ParseError(f"unknown group kind {name!r}")
