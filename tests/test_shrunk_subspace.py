"""Vanishing blocks proved by a shrunk subspace, against cofactor expansion.

A block of a pencil sum_r t_r G_r whose determinant vanishes identically is
proved so by a subspace U with dim(sum_r G_r U) < dim U, found by the second
Wong sequence at a walk point and re-checked by two ranks.  pencil_det, the
cofactor expansion that proved these Nos before, stays as the fallback and
is the oracle here.
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from grasym import (
    MultiPoly,
    make_field,
    matrix_algebra,
    nonvanishing_point,
    pencil_det,
    rationals,
    structured_det,
    sweedler_algebra,
    tensor_product,
)
from grasym import multipoly, symmetry
from grasym.cli import main
from grasym.errors import GrasymError
from grasym.linalg import eliminate_raw
from grasym.multipoly import PENCIL_DET_MAX_DIM, BlockDet, _gram_matrices, _shrinks
from grasym.replicate import random_graded_basis_change
from grasym.specfile import write_algebra_file
from grasym.symmetry import MODES, LinearFunctional, gram_pencil, graded_trace_space

from test_decision_oracle import CORPUS
from test_multipoly import pencil, var

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _record(monkeypatch, name):
    """Wrap multipoly.name so that each call appends (args, result) to the
    returned list."""
    calls = []
    original = getattr(multipoly, name)

    def recorded(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(multipoly, name, recorded)
    return calls


def _walked_blocks(monkeypatch):
    """A dict that collects every BlockDet evaluated from now on."""
    walked = {}
    evaluate = BlockDet.evaluate

    def recorded(self, point):
        walked[id(self)] = self
        return evaluate(self, point)

    monkeypatch.setattr(BlockDet, "evaluate", recorded)
    return walked


def _changed(basis, ops):
    """The basis with one coordinate changed: the first of its first vector."""
    out = [list(u) for u in basis]
    out[0][0] = ops.add(out[0][0], ops.one)
    return out


def _check_shrunk(block):
    """The block's subspace passes the two-rank re-check, and fails it with
    one coordinate changed."""
    ops, gram = block._ops, _gram_matrices(block)
    assert _shrinks(ops, gram, block._shrunk)
    assert not _shrinks(ops, gram, _changed(block._shrunk, ops))


def _questions(workload):
    return [(asked.question.name, asked.algebra, asked.question.mode)
            for asked in workloads.WORKLOADS[workload](workloads.DEFAULT_SEED)
            if asked.question.mode is not None]


def test_a_block_gets_a_shrunk_subspace_only_where_its_determinant_vanishes(monkeypatch):
    walked = _walked_blocks(monkeypatch)
    inputs = [(name, a, mode) for name, a in CORPUS for mode in MODES]
    inputs += _questions("decide") + _questions("refute")
    shrunk = nonzero = 0
    for name, a, mode in inputs:
        walked.clear()
        try:
            symmetry.decide_form_existence(a, mode)
        except GrasymError:
            pass
        for block in walked.values():
            if block._shrunk is None:
                # every walked block of these corpora that vanishes is proved
                assert block._nonzero, (name, mode)
                nonzero += 1
                continue
            assert block.pencil.dim <= PENCIL_DET_MAX_DIM
            assert pencil_det(block.pencil).is_zero, (name, mode)
            _check_shrunk(block)
            shrunk += 1
    # the eight vanishing blocks are the refute workload's; no decision
    # corpus input reaches the walk with one
    assert shrunk == 8 and nonzero > 900


def test_a_refute_pass_expands_no_block(monkeypatch):
    questions = _questions("refute")
    expanded = _record(monkeypatch, "pencil_det")
    for name, a, mode in questions:
        assert symmetry.decide_form_existence(a, mode).status == "no", name
    assert expanded == []
    # without the sequence, the zero test expands each vanishing block
    monkeypatch.setattr(multipoly, "_shrunk_subspace", lambda ops, gram, block: None)
    for name, a, mode in questions:
        assert symmetry.decide_form_existence(a, mode).status == "no", name
    assert len(expanded) == 8


def test_a_proof_ends_the_walk(monkeypatch, f3):
    # the F_3 Sweedler symmetric block at seed 1: the origin is the zero
    # matrix, the next grid point is singular, and the sequence run there
    # proves the block zero, so no third point is evaluated
    a = dict((n, a) for n, a, _ in _questions("refute"))["F3-Sweedler-symmetric"]
    space = graded_trace_space(a, "symmetric")
    det = structured_det(gram_pencil(a, [LinearFunctional(a, r) for r in space.basis]))
    (block,) = det.factors
    points = []
    evaluate = BlockDet.evaluate
    monkeypatch.setattr(BlockDet, "evaluate",
                        lambda self, point: points.append(point) or evaluate(self, point))
    assert nonvanishing_point(det, f3).status == "identically_zero"
    assert len(points) == 2 and block.known_zero and det.known_zero


@pytest.mark.parametrize("field", [rationals(), make_field(3)], ids=["Q", "F3"])
def test_the_skew_symmetric_pencil_has_no_shrunk_subspace(monkeypatch, field):
    # det = 0 for every odd skew-symmetric matrix, yet the generic 3 x 3 one
    # has non-commutative rank 3: every sequence leaves im A, and the zero
    # test falls back to the cofactor expansion
    m = 3
    t1, t2, t3 = (var(field, m, k) for k in range(m))
    z = MultiPoly.zero(field, m)
    p = pencil(field, m, [[z, t1, t2], [-t1, z, t3], [-t2, -t3, z]])
    runs = _record(monkeypatch, "_shrunk_subspace")
    expanded = _record(monkeypatch, "pencil_det")
    assert nonvanishing_point(structured_det(p), field).status == "identically_zero"
    assert runs and all(result is None for _, result in runs)
    assert len(expanded) == 1 and expanded[0][1].is_zero
    # at every point of a small grid, not only the walked ones
    ops, gram = field.ops, _gram_matrices(BlockDet(p))
    for x in itertools.product(range(3), repeat=m):
        if any(x):
            rows = [ops.forms_at(row, [ops.from_int(v) for v in x])
                    for row in BlockDet(p)._forms]
            assert multipoly._shrunk_subspace(ops, gram, rows) is None


def _sweedler_m3(p):
    f = make_field(p)
    return random_graded_basis_change(tensor_product(sweedler_algebra(f), matrix_algebra(f, 3)),
                                      random.Random(1))


@pytest.mark.parametrize("p,ranks", [(5, [18]), (3, [9, 18])])
def test_a_dense_block_beyond_the_cofactor_cap_is_decided(monkeypatch, p, ranks):
    # one dense 36 x 36 block, three times PENCIL_DET_MAX_DIM: the expansion
    # would raise DimensionTooLarge.  Over F_5 the sequence converges at the
    # first singular walk point, of rank 18.  Over F_3 that point has rank 9
    # and its sequence escapes; the zero test retries at the walked point of
    # largest rank, 18, where it converges
    a = _sweedler_m3(p)
    runs = _record(monkeypatch, "_shrunk_subspace")
    blocks = _record(monkeypatch, "structured_det")
    monkeypatch.setattr(symmetry, "structured_det", multipoly.structured_det)
    verdict = symmetry.decide_form_existence(a, "symmetric")
    assert (verdict.status, verdict.refutation) == ("no", "gram-det-identically-zero")
    (_, det), = blocks
    (block,) = det.factors
    assert block.pencil.dim == 36 > PENCIL_DET_MAX_DIM and block.known_zero
    assert block.expand().is_zero  # the zero polynomial, with no expansion
    ops, gram = a.field.ops, _gram_matrices(block)
    assert [len(eliminate_raw(ops, [list(r) for r in rows], 36)) for (_, _, rows), _ in runs] \
        == ranks
    assert [result is not None for _, result in runs] == [False] * (len(ranks) - 1) + [True]
    # U is 18-dimensional and every G_r kills it, so no single changed
    # coordinate can undo the shrink (the trace space has dim 2)
    assert _shrinks(ops, gram, block._shrunk) and len(block._shrunk) == 18 and len(gram) == 2
    assert not any(map(any, (ops.forms_at(g, u) for g in gram for u in block._shrunk)))


def test_check_refutes_a_dense_block_beyond_the_cofactor_cap(tmp_path, capsys):
    path = tmp_path / "sweedler-m3.json"
    write_algebra_file(_sweedler_m3(3), str(path))
    assert main(["check", str(path), "--mode", "symmetric"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["refutation"]) == ("no", "gram-det-identically-zero")
