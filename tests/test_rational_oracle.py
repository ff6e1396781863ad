"""The kernel of Q holds an integral rational as an int and any other as a
Fraction; the all-Fraction kernel it replaced is kept here as its oracle.

A Q field given FractionOps as its kernel builds every raw value as a
Fraction, since Field.scalar, scalar_from_json and the rational roots of the
division check all build through ops.canonical.  Every Q question of the
replication suite and of the decide and refute benchmarks is answered under
both kernels, and the answers must agree value for value and byte for byte.
The values the new kernel returns must be canonical: an int when integral,
else a Fraction with denominator above 1.
"""

import itertools
import random
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

from grasym import (
    GradedAlgebra,
    cyclic_group,
    decide_form_existence,
    direct_product,
    field_as_algebra,
    good_matrix_algebra,
    graded_trace_space,
    is_graded_division,
    quaternion_algebra,
    rationals,
    subspace_algebra,
    sweedler_algebra,
    trivial_extension,
    trivial_group,
    ungrade,
)
from grasym.errors import DimensionTooLarge
from grasym.fields import RawOps, scalar_from_json
from grasym.invariants import _rational_roots, center
from grasym.multipoly import _zero_form
from grasym.specfile import canonical_json, certificate_to_dict
from grasym.symmetry import MODES

from conftest import is_canonical_rational

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

Q = rationals()


class FractionOps(RawOps):
    """The kernel of Q before integral values became ints: every raw value
    a Fraction.  canonical keeps the Fraction, so the values built from
    outside the kernel are Fractions too."""

    __slots__ = ()

    canonical = staticmethod(Fraction)

    def from_int(self, n):
        return Fraction(n)

    to_json = staticmethod(str)

    def mul(self, u, v):
        return u * v

    def add(self, u, v):
        return u + v

    def sub(self, u, v):
        return u - v

    def inverse(self, v):
        return 1 / v

    def scale(self, row, c) -> list:
        return [x * c if x else x for x in row]

    def sub_scaled(self, row, c, other) -> list:
        return [a - c * b if b else a for a, b in zip(row, other)]

    def sparse_scale(self, row, c) -> dict:
        return {k: v * c for k, v in row.items()}

    def sparse_sub_scaled(self, row, c, other):
        for k, b in other.items():
            v = row.get(k, 0) - c * b
            if v:
                row[k] = v
            else:
                del row[k]

    def forms_at(self, forms, x) -> list:
        zero = self.zero
        return [sum((a * b for a, b in zip(f, x) if a and b), zero) for f in forms]

    def integer_image(self, values, terms):
        values = set(values)
        den = lcm(*(v.denominator for v in values))
        return ({v: v.numerator * (den // v.denominator) for v in values},
                lambda sums: not any(sums))


def _fractions(rng, count):
    """Fractions with small and large numerators and denominators, about a
    third of them integral, and 0, 1 and -1."""
    out = [Fraction(0), Fraction(1), Fraction(-1)]
    for _ in range(count):
        size = rng.choice([9, 9, 10 ** 12])
        out.append(Fraction(rng.randint(-size, size), rng.choice([1, 1, rng.randint(1, size)])))
    return out


def _values(result):
    """The raw values in an op's result: a value, a row or a sparse row."""
    if isinstance(result, dict):
        return list(result.values())
    return list(result) if isinstance(result, list) else [result]


def test_every_op_agrees_with_the_fraction_oracle_and_returns_canonical_values():
    rng = random.Random(31)
    old, new = FractionOps(Q), Q.ops
    fractions = _fractions(rng, 60)
    canonical = [new.canonical(x) for x in fractions]
    assert all(map(is_canonical_rational, canonical))
    assert {type(x) for x in canonical} == {int, Fraction}
    pairs = list(zip(fractions, canonical))
    nonzero = [p for p in pairs if p[1]]
    cases = []  # (op name, oracle result, kernel result)
    for n in range(-5, 6):
        cases.append(("from_int", old.from_int(n), new.from_int(n)))
    for (x, u), (y, v) in itertools.product(pairs[:25], repeat=2):
        for name in ("mul", "add", "sub"):
            cases.append((name, getattr(old, name)(x, y), getattr(new, name)(u, v)))
    for x, u in nonzero:
        cases.append(("inverse", old.inverse(x), new.inverse(u)))
    for x, u in pairs:
        for e in range(5):
            cases.append(("power", old.power(x, e), new.power(u, e)))
    for _ in range(200):
        n = rng.randint(1, 8)
        picks = [rng.choice(pairs) if rng.random() < 0.6 else (Fraction(0), 0)
                 for _ in range(2 * n)]
        row, other = [p[0] for p in picks[:n]], [p[0] for p in picks[n:]]
        row_c, other_c = [p[1] for p in picks[:n]], [p[1] for p in picks[n:]]
        c, c_c = rng.choice(nonzero)
        cases.append(("scale", old.scale(row, c), new.scale(row_c, c_c)))
        cases.append(("sub_scaled", old.sub_scaled(row, c, other),
                      new.sub_scaled(row_c, c_c, other_c)))
        cases.append(("forms_at", old.forms_at([row], other), new.forms_at([row_c], other_c)))
        sparse = {k: v for k, v in enumerate(row) if v}
        sparse_c = {k: v for k, v in enumerate(row_c) if v}
        sparse_other = {k: v for k, v in enumerate(other) if v}
        sparse_other_c = {k: v for k, v in enumerate(other_c) if v}
        cases.append(("sparse_scale", old.sparse_scale(sparse, c),
                      new.sparse_scale(sparse_c, c_c)))
        old.sparse_sub_scaled(sparse, c, sparse_other)
        new.sparse_sub_scaled(sparse_c, c_c, sparse_other_c)
        # a row that cancels completely: it must come back empty
        again = dict(sparse_other_c)
        new.sparse_sub_scaled(again, 1, sparse_other_c)
        cases.append(("sparse_sub_scaled", sparse, sparse_c))
        cases.append(("sparse_sub_scaled", {}, again))
    for name, want, got in cases:
        assert want == got, (name, want, got)
        for v in _values(got):
            assert is_canonical_rational(v), (name, v)
        if isinstance(got, dict):
            assert 0 not in got.values(), name
    # the integer images decide the same signed sums of products
    for _ in range(100):
        plus = [rng.choice(pairs) for _ in range(3)]
        minus = [rng.choice(pairs) for _ in range(3)]
        results = []
        for ops, at in ((old, 0), (new, 1)):
            image, vanishes = ops.integer_image([p[at] for p in plus + minus], 3)
            results.append(vanishes([sum(image[p[at]] ** 2 for p in plus)
                                     - sum(image[p[at]] ** 2 for p in minus)]))
        assert results[0] == results[1]


def test_values_built_from_outside_the_kernel_are_canonical(q):
    assert type(q.scalar(Fraction(4, 2)).val) is int
    assert type(q.scalar("4/2").val) is int
    assert type(q.scalar(-7).val) is int
    for text in ("4/2", "-0", "12", 12, "-5/6", "10/4"):
        assert is_canonical_rational(scalar_from_json(q, text).val), text
    assert type(scalar_from_json(q, "4/2").val) is int
    assert scalar_from_json(q, "10/4").val == Fraction(5, 2)
    assert q.scalar(Fraction(4, 2)).to_json() == "2"
    assert q.scalar(Fraction(-5, 6)).to_json() == "-5/6"
    assert scalar_from_json(q, "-5/6").to_json() == "-5/6"
    # Scalar arithmetic comes back to an int whenever the value is integral
    half, third = q.scalar("1/2"), q.scalar("1/3")
    for x in (half + half, half * q.from_int(2), half.inverse(), (half - third) * q.from_int(6),
              q.from_int(2) / q.from_int(2), q.from_int(-1).inverse(), half ** 0, -half - half,
              q.from_int(3) ** -1 * q.from_int(3)):
        assert type(x.val) is int, x
    # the rational roots of (x - 2)(x + 1/3)(x + 1) and of x^2 - 4
    roots = _rational_roots([q.scalar(c) for c in ("-2/3", "-7/3", "-2/3", "1")])
    assert [r.to_json() for r in roots] == ["-1", "-1/3", "2"]
    assert all(is_canonical_rational(r.val) for r in roots)
    square_roots = _rational_roots([q.from_int(-4), q.zero(), q.one()])
    assert [type(r.val) for r in square_roots] == [int, int]


def _split_quadratic():
    # Q[s]/(s^2 - 9/4) = Q x Q; its zero divisor is s - r for a rational root r
    one = Q.one()
    return GradedAlgebra(Q, trivial_group(), [0, 0],
                         {(0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),),
                          (1, 1): ((0, Q.scalar("9/4")),)},
                         [one, Q.zero()])


def test_the_division_witnesses_over_q_are_canonical():
    quad = _split_quadratic()
    inputs = [quad, direct_product(field_as_algebra(Q, Q), quad),
              quaternion_algebra(Q, -1, -1), ungrade(quaternion_algebra(Q, "-1/2", -3))]
    for a in inputs:
        verdict = is_graded_division(a)
        assert verdict.status in ("yes", "no")
        if verdict.witness is not None:
            assert all(is_canonical_rational(c.val) for c in verdict.witness.coords)
            assert verdict.witness.inverse() is None
    witness = is_graded_division(quad).witness
    # s - 3/2 for the root 3/2 of s^2 - 9/4, with its integral 1 held as an int
    assert [type(c.val) for c in witness.coords] == [Fraction, int]


# -- the Q corpora under both kernels ----------------------------------------------------------

def _replication_inputs():
    """The Q algebras of the replication suite, with the mode it decides."""
    c2, c3 = cyclic_group(2), cyclic_group(3)
    delta2, delta3 = field_as_algebra(Q, Q, c2), field_as_algebra(Q, Q, c3)
    m2 = good_matrix_algebra(2, (0, 1), delta2)
    te = trivial_extension(sweedler_algebra(Q))
    te_h = trivial_extension(quaternion_algebra(Q, -1, -1))
    return [
        ("H(-1,-1) ungraded", ungrade(quaternion_algebra(Q, -1, -1)), "symmetric"),
        ("H(-1,-3) ungraded", ungrade(quaternion_algebra(Q, -1, -3)), "symmetric"),
        ("H(-1,-1)", quaternion_algebra(Q, -1, -1), "graded-symmetric"),
        ("M2(Q)(e,g)", m2, "graded-symmetric"),
        ("M3(Q)(e,g,g2)", good_matrix_algebra(3, (0, 1, 2), delta3), "graded-symmetric"),
        ("M2xM2", direct_product(m2, m2), "graded-symmetric"),
        ("M2xM3", direct_product(m2, good_matrix_algebra(3, (0, 0, 1), delta2)),
         "graded-symmetric"),
        ("Z(TE(Sweedler))", subspace_algebra(te, center(te)), "frobenius"),
        ("Z(TE(H(-1,-1)))", subspace_algebra(te_h, center(te_h)), "symmetric"),
        ("split quadratic", _split_quadratic(), "symmetric"),
    ]


def _benchmark_questions():
    return [q for q in workloads.DECIDE + workloads.REFUTE if q.build().field is Q]


def _scalars(x):
    """The raw values of a Scalar, or of the Scalars in x's vectors."""
    if hasattr(x, "val"):
        return [x.val]
    return [v for item in x for v in _scalars(item)]


def _answers(kernel_is_oracle: bool) -> dict:
    """Everything the corpus asks, by input, in bytes: trace spaces, decisions,
    certificates, division verdicts, rref of L_x, inverses of elements."""
    answers = {}
    inputs = _replication_inputs()
    for asked in workloads.question_setup(_benchmark_questions(), workloads.DEFAULT_SEED):
        q = asked.question
        answers[q.name, "record"] = asked.check(asked.run()).record
        inputs.append((q.name, asked.algebra, q.mode))
    for name, a, mode in inputs:
        raw = [c for row in a.table for terms in row for _, c in terms] + list(a.unit)
        if kernel_is_oracle:
            assert all(type(c) is Fraction for c in raw), name
        values = []
        for m in MODES:
            space = graded_trace_space(a, m)
            values += _scalars(space.basis)
            answers[name, "trace", m] = [[c.to_json() for c in v] for v in space.basis]
        try:
            verdict = decide_form_existence(a, mode)
            answers[name, "decision"] = (verdict.status, verdict.refutation,
                                         canonical_json(certificate_to_dict(a, verdict)))
        except DimensionTooLarge as exc:
            answers[name, "decision"] = str(exc)
        division = is_graded_division(a)
        witness = None if division.witness is None else division.witness.coords
        answers[name, "division"] = (division.status, canonical_json(division.certificate),
                                     None if witness is None else [c.to_json() for c in witness])
        values += _scalars(witness or ())
        # x = sum_i (i + 1)/(i + 2) e_i and each basis element
        x = a.element([Q.scalar(Fraction(i + 1, i + 2)) for i in range(a.dim)])
        for k, el in enumerate([x] + [a.basis_element(i) for i in range(min(a.dim, 6))]):
            red, rank, pivots = a.left_mult_matrix(el).rref()
            inv = el.inverse()
            values += _scalars(red.entries) + _scalars(() if inv is None else inv.coords)
            answers[name, "rref", k] = ([[c.to_json() for c in row] for row in red.entries],
                                        rank, pivots)
            answers[name, "inverse", k] = None if inv is None else [c.to_json()
                                                                    for c in inv.coords]
        if not kernel_is_oracle:
            assert all(map(is_canonical_rational, raw + values)), name
    return answers


def test_the_q_corpora_give_the_oracle_answers(monkeypatch):
    got = _answers(kernel_is_oracle=False)
    # the cached zero forms of the pencils hold Scalars of the kernel that built them
    _zero_form.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(Q, "ops", FractionOps(Q))
        want = _answers(kernel_is_oracle=True)
    _zero_form.cache_clear()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key
    questions = {key[0] for key in want if key[1] == "record"}
    assert len(questions) == 11
