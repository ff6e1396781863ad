"""Microbenchmarks of single layers on fixed inputs (independent of the seed).

Scalar arithmetic per field kind, a 49x49 rref over F_7, and the pieces of
the cyclic_algebra(5) graded-frobenius decision.  Each figure is the best of
a few repeats, so it tracks the code rather than the machine's busiest moment.
"""

from __future__ import annotations

import random
import time

from grasym import algebras, fields, multipoly, symmetry
from grasym.linalg import Matrix

# (name, unit, better) of every metric run_micro returns
METRICS = tuple(
    [(f"fields.{op}_ns.{f}", "ns", "lower")
     for op in ("mul", "add", "inv") for f in ("F7", "F8", "Q")]
    + [
        ("linalg.rref_ms.F7_49", "ms", "lower"),
        ("algebras.mul_coords_us.cyc5", "us", "lower"),
        ("algebras.validate_ms.cyc5", "ms", "lower"),
        ("multipoly.block_det_ms.cyc5", "ms", "lower"),
        ("multipoly.point_search_ms.cyc5", "ms", "lower"),
    ]
)

SCALAR_PAIRS = 2000
REPEATS = 3


def _best_s(fn, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _nonzero(field, rng):
    if field.char == 0:
        return field.scalar(rng.randint(1, 97)) / field.scalar(rng.randint(1, 89))
    return field.element_at(rng.randrange(1, field.size()))


def _scalar_metrics(rng) -> dict:
    out = {}
    kinds = {"F7": fields.make_field(7), "F8": fields.canonical_extension_field(2, 3),
             "Q": fields.rationals()}
    for tag, field in kinds.items():
        xs = [_nonzero(field, rng) for _ in range(SCALAR_PAIRS)]
        ys = [_nonzero(field, rng) for _ in range(SCALAR_PAIRS)]

        def mul():
            for x, y in zip(xs, ys):
                x * y

        def add():
            for x, y in zip(xs, ys):
                x + y

        def inv():
            for x in xs:
                x.inverse()

        for op, fn in (("mul", mul), ("add", add), ("inv", inv)):
            out[f"fields.{op}_ns.{tag}"] = _best_s(fn) / SCALAR_PAIRS * 1e9
    return out


def run_micro() -> dict:
    rng = random.Random(20250808)
    out = _scalar_metrics(rng)

    f7 = fields.make_field(7)
    m = Matrix(f7, [[f7.element_at(rng.randrange(7)) for _ in range(49)] for _ in range(49)])
    out["linalg.rref_ms.F7_49"] = _best_s(m.rref) * 1e3

    cyc5 = algebras.cyclic_algebra(5)
    vectors = [[cyc5.field.element_at(rng.randrange(5)) for _ in range(cyc5.dim)]
               for _ in range(20)]

    def mul_coords():
        for x, y in zip(vectors, vectors[1:]):
            cyc5.mul_coords(x, y)

    out["algebras.mul_coords_us.cyc5"] = _best_s(mul_coords) / (len(vectors) - 1) * 1e6
    out["algebras.validate_ms.cyc5"] = _best_s(lambda: algebras.validate_algebra(cyc5), 2) * 1e3

    space = symmetry.graded_trace_space(cyc5, "graded-frobenius")
    functionals = [symmetry.LinearFunctional(cyc5, row) for row in space.basis]
    pencil = symmetry.gram_pencil(cyc5, functionals)
    # the identity-component block: degree-e rows pair with degree-e columns
    idx = cyc5.component_indices(cyc5.group.identity)
    block = multipoly.GramPencil(pencil.field, len(idx), pencil.num_vars,
                                 tuple(tuple(pencil.entries[i][j] for j in idx) for i in idx))
    out["multipoly.block_det_ms.cyc5"] = _best_s(lambda: multipoly.pencil_det(block)) * 1e3
    det = multipoly.structured_det(pencil)
    out["multipoly.point_search_ms.cyc5"] = _best_s(
        lambda: multipoly.nonvanishing_point(det, cyc5.field)) * 1e3
    return out
