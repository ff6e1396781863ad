"""A raw spec block is decoded straight to raw values, each distinct constant
once, and its table is filled by the routine the public constructor shares.
Its oracle is the Scalar path: one scalar_from_json per term and the public
GradedAlgebra constructor, which must give the same algebra, or the same
error, on every input."""

import json
import random

import pytest

from grasym import (
    cyclic_algebra,
    cyclic_group,
    group_algebra,
    make_field,
    matrix_algebra,
    quaternion_algebra,
    rationals,
    sweedler_algebra,
    tensor_product,
    trivial_extension,
)
from grasym import specfile
from grasym.algebras import GradedAlgebra
from grasym.errors import IndexOutOfRange, ParseError
from grasym.fields import scalar_from_json
from grasym.replicate import random_graded_basis_change, random_small_algebra
from grasym.specfile import _decoding, algebra_from_dict, algebra_to_dict

from test_decision_oracle import CORPUS
from test_equal_algebras import _replication_algebras


def _corpus():
    out = [a for _, a in CORPUS]
    out += [a for _, a, _ in _replication_algebras()]
    out += [random_small_algebra(make_field((2, 3, 5)[s % 3]), random.Random(s))
            for s in range(50)]
    return out


def _scalar_path(d):
    """The algebra of a raw spec decoded term by term: one Scalar per constant
    through scalar_from_json, then the public constructor, under the decoding
    context of the raw block."""
    field = specfile.field_from_dict(d["field"])
    group = specfile.group_from_dict(d["group"])
    block = d["algebra"]
    with _decoding("algebra block"):
        unit = [scalar_from_json(field, v) for v in block["unit"]]
        sc = {}
        for i, j, k, c in block["sc"]:
            sc.setdefault((i, j), []).append((k, scalar_from_json(field, c)))
        return GradedAlgebra(field, group, block["degrees"], sc, unit,
                             labels=block.get("labels"))


def _outcome(decode, d):
    try:
        return decode(d)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


def _agree(d):
    raw, oracle = _outcome(algebra_from_dict, d), _outcome(_scalar_path, d)
    assert raw == oracle
    return raw


def _zero_json(a):
    return a.field.ops.to_json(a.field.ops.zero)


def _shuffled(d, rng):
    rng.shuffle(d["algebra"]["sc"])
    return d


def _with_zeros(d, a, rng):
    """d with an explicit zero constant at a third of the (i, j, k) with none."""
    present = {tuple(row[:3]) for row in d["algebra"]["sc"]}
    zero = _zero_json(a)
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                if (i, j, k) not in present and rng.random() < 0.3:
                    d["algebra"]["sc"].append([i, j, k, zero])
    return d


def _off_canonical(value, field, rng):
    """Another JSON form of the same scalar: over F_p an int outside [0, p),
    over F_{p^n} a list with coefficients outside [0, p) and trailing zeros
    dropped (or an int, for a prime-field element), over Q an int for an
    integral string and an unreduced fraction otherwise."""
    p = field.char
    if p == 0:
        if "/" in value:
            n, m = value.split("/")
            return f"{int(n) * 3}/{int(m) * 3}"
        return int(value)
    if field.degree == 1:
        return value + p * rng.choice([-2, -1, 1, 5])
    coeffs = list(value)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1 and rng.random() < 0.5:
        return (coeffs[0] if coeffs else 0) - p
    return [c + p * rng.choice([-1, 0, 2]) for c in coeffs]


def _off_canonical_values(d, a, rng):
    block = d["algebra"]
    block["unit"] = [_off_canonical(v, a.field, rng) for v in block["unit"]]
    for row in block["sc"]:
        row[3] = _off_canonical(row[3], a.field, rng)
    return d


def test_the_raw_decoder_agrees_with_the_scalar_path():
    rng = random.Random(40)
    for a in _corpus():
        assert _agree(algebra_to_dict(a)) == a
        d = _shuffled(_with_zeros(_off_canonical_values(algebra_to_dict(a), a, rng), a, rng),
                      rng)
        assert _agree(d) == a
        for variant in (_shuffled(algebra_to_dict(a), rng),
                        _with_zeros(algebra_to_dict(a), a, rng),
                        _off_canonical_values(algebra_to_dict(a), a, rng)):
            assert _agree(variant) == a


def test_the_off_canonical_forms_are_exercised():
    # each field kind meets the forms the decoder must canonicalize
    f9, q = make_field(3, [1, 0, 1]), rationals()
    rng = random.Random(1)
    v = _off_canonical(2, make_field(3), rng)
    assert v % 3 == 2 and not 0 <= v < 3
    assert _off_canonical("3/4", q, rng) == "9/12" and _off_canonical("-2", q, rng) == -2
    forms = {json.dumps(_off_canonical([1, 0], f9, rng)) for _ in range(40)}
    assert "1" not in forms and "[1, 0]" not in forms
    assert any(f.startswith("[") and f.count(",") == 0 for f in forms)  # a list [c]
    assert any(not f.startswith("[") for f in forms)  # an int


def test_a_repeated_constant_raises_alike_on_both_paths():
    for a in _corpus()[::7]:
        d = algebra_to_dict(a)
        rows = d["algebra"]["sc"]
        # the first term of a cell given twice, once at the end
        rows.append(list(rows[0]))
        raw = _agree(d)
        assert raw[0] is ParseError
        i, j, k = rows[0][:3]
        assert raw[1] == f"bad algebra block: structure constant ({i},{j},{k}) given twice"


@pytest.mark.parametrize("row, replace, message", [
    ([0, 0, 7, 1], False, "structure constant (0,0,7) out of range 0..1"),
    ([0, 0, 7, 1], True, "structure constant (0,0,7) out of range 0..1"),  # a one-term cell
    ([0, 0, -1, 1], True, "structure constant (0,0,-1) out of range 0..1"),
    ([0, 2, 0, 1], False, "structure constant at (0,2) out of range 0..1"),
    ([-1, 0, 0, 1], False, "structure constant at (-1,0) out of range 0..1"),
])
def test_an_index_out_of_range_raises_alike_on_both_paths(row, replace, message):
    d = algebra_to_dict(group_algebra(make_field(3), cyclic_group(2)))
    d["algebra"]["sc"][0:int(replace)] = [row]  # cell (0, 0) comes first
    assert _agree(d) == (IndexOutOfRange, message)


def _distinct_constants(d):
    block = d["algebra"]
    return {json.dumps(c) for c in block["unit"] + [row[3] for row in block["sc"]]}


def test_the_decoder_runs_once_per_distinct_constant(monkeypatch):
    # a table holds a handful of distinct constants; decoding one per term
    # would cost a Scalar coercion each
    calls = []
    decode = specfile.raw_from_json

    def counted(field, value):
        calls.append(value)
        return decode(field, value)

    monkeypatch.setattr(specfile, "raw_from_json", counted)
    f3, f5, q = make_field(3), make_field(5), rationals()
    s = sweedler_algebra(f3)
    for a in (tensor_product(tensor_product(s, s), s),
              random_graded_basis_change(matrix_algebra(f5, 3), random.Random(2)),
              cyclic_algebra(3),
              trivial_extension(quaternion_algebra(q, -1, -1))):
        d = algebra_to_dict(a)
        calls.clear()
        assert algebra_from_dict(d) == a
        distinct = _distinct_constants(d)
        assert len(calls) == len(distinct) < len(d["algebra"]["sc"])
        assert {json.dumps(c) for c in calls} == distinct
