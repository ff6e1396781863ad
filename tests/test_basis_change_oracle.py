"""random_graded_basis_change on raw values builds the same algebra, byte for
byte, as the Scalar version it replaced, kept here as its oracle."""

import random
import sys
from pathlib import Path

import pytest

from grasym.algebras import GradedAlgebra
from grasym.errors import RationalsNotSupported
from grasym.linalg import Matrix
from grasym.replicate import dim4_f2_corpus, random_graded_basis_change
from grasym.specfile import algebra_hash

from test_specfile import all_constructor_outputs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def scalar_basis_change(a: GradedAlgebra, rng: random.Random) -> GradedAlgebra:
    """The Scalar implementation: the whole d x d inverse, and every product
    through GradedAlgebra.mul_coords."""
    if not a.field.is_finite:
        raise RationalsNotSupported("random basis changes draw from a finite field")
    q = a.field.size()
    blocks = {}
    for g in set(a.degree):
        idx = a.component_indices(g)
        n = len(idx)
        while True:
            rows = [[a.field.element_at(rng.randrange(q)) for _ in range(n)]
                    for _ in range(n)]
            m = Matrix(a.field, rows)
            if m.is_invertible():
                blocks[g] = (idx, m)
                break
    z = a.field.zero()
    basis_rows = []
    for i in range(a.dim):
        g = a.degree[i]
        idx, m = blocks[g]
        pos = idx.index(i)
        row = [z] * a.dim
        for col, j in enumerate(idx):
            row[j] = m.entries[pos][col]
        basis_rows.append(row)
    express = Matrix(a.field, basis_rows).inverse().transpose().mulvec
    sc = {}
    for i in range(a.dim):
        for j in range(a.dim):
            coords = express(a.mul_coords(basis_rows[i], basis_rows[j]))
            terms = tuple((k, c) for k, c in enumerate(coords) if not c.is_zero)
            if terms:
                sc[(i, j)] = terms
    unit = express(a.one().coords)
    return GradedAlgebra(a.field, a.group, a.degree, sc, unit)


def _inputs():
    """(name, algebra, seeds).  The benchmark changes the basis of the
    questions marked basis_change, so those get ten seeds.  The others are
    one dense block each once their basis changes, which the Scalar version
    takes 0.05-0.3 s per seed to conjugate up to dim 20, 3.4 s at dim 36 and
    far longer at dim 64; they get two seeds, and dims 36 and 64 none."""
    seeds = range(10)
    out = [(f"constructor-{i}", a, seeds)
           for i, a in enumerate(all_constructor_outputs()) if a.field.is_finite]
    out += [(name, a, seeds) for name, a in dim4_f2_corpus()]
    for q in workloads.DECIDE + workloads.REFUTE:
        a = q.build()
        if a.field.is_finite and a.dim <= 25:
            out.append((q.name, a, seeds if q.basis_change else range(2)))
    return out


INPUTS = _inputs()


@pytest.mark.parametrize("name, a, seeds", INPUTS, ids=[name for name, _, _ in INPUTS])
def test_raw_basis_change_matches_the_scalar_oracle(name, a, seeds):
    for seed in seeds:
        fast = random_graded_basis_change(a, random.Random(seed))
        assert algebra_hash(fast) == algebra_hash(scalar_basis_change(a, random.Random(seed)))


def test_raw_basis_change_draws_what_the_oracle_draws():
    # the two consume the generator identically, so a stream shared by
    # several basis changes (random_small_algebra) stays in step
    a = all_constructor_outputs()[4]  # cyclic_algebra(3)
    fast, slow = random.Random(5), random.Random(5)
    random_graded_basis_change(a, fast)
    scalar_basis_change(a, slow)
    assert fast.getstate() == slow.getstate()
