import itertools
import random

import pytest

from grasym import (
    GramPencil,
    MultiPoly,
    component_has_invertible,
    cyclic_algebra,
    decide_form_existence,
    nonvanishing_point,
    pencil_det,
    structured_det,
    sweedler_algebra,
)
from grasym.errors import DimensionTooLarge, FieldMismatch, SearchSpaceTooLarge
from grasym import multipoly
from grasym.multipoly import SEARCH_BUDGET, WITNESS_WALK, BlockDet, FactoredPoly, PointResult


def var(field, m, i):
    return MultiPoly(field, m, {tuple(int(t == i) for t in range(m)): field.one()})


def const(field, m, c):
    return MultiPoly.constant(field, m, field.scalar(c))


def form(poly):
    """The coefficients of t_1..t_m in a linear homogeneous MultiPoly."""
    m, zero = poly.num_vars, poly.field.zero()
    units = [tuple(int(t == r) for t in range(m)) for r in range(m)]
    if not set(poly.terms) <= set(units):
        raise ValueError("pencil entries must be linear homogeneous")
    return tuple(poly.terms.get(u, zero) for u in units)


def pencil(field, m, grid):
    """The pencil of a square grid of linear homogeneous MultiPolys."""
    return GramPencil(field, len(grid), m, tuple(tuple(form(p) for p in row) for row in grid))


def test_pencil_det_2x2(q):
    t1, t2 = var(q, 2, 0), var(q, 2, 1)
    p = pencil(q, 2, [[t1, t2], [t2, t1]])
    assert pencil_det(p) == t1 * t1 - t2 * t2


def test_pencil_det_diagonal(q):
    t1 = var(q, 1, 0)
    p = pencil(q, 1, [[t1, MultiPoly.zero(q, 1), MultiPoly.zero(q, 1)],
                      [MultiPoly.zero(q, 1), t1, MultiPoly.zero(q, 1)],
                      [MultiPoly.zero(q, 1), MultiPoly.zero(q, 1), t1]])
    assert pencil_det(p) == t1 * t1 * t1


def test_pencil_det_square_zero_pattern(q):
    # the pencil of a dim-3 local algebra with square-zero radical: identically 0
    t1, t2, t3 = (var(q, 3, i) for i in range(3))
    z = MultiPoly.zero(q, 3)
    p = pencil(q, 3, [[t1, t2, t3], [t2, z, z], [t3, z, z]])
    assert pencil_det(p).is_zero


def test_pencil_det_dimension_cap(q):
    z = MultiPoly.zero(q, 1)
    t = var(q, 1, 0)
    grid = [[t if i == j else z for j in range(13)] for i in range(13)]
    with pytest.raises(DimensionTooLarge):
        pencil_det(pencil(q, 1, grid))


def _random_linear(field, m, rng):
    terms = {}
    for i in range(m):
        c = field.element_at(rng.randrange(field.size()))
        if not c.is_zero:
            exp = tuple(1 if j == i else 0 for j in range(m))
            terms[exp] = c
    return MultiPoly(field, m, terms)


@pytest.mark.parametrize("dim,m", [(2, 2), (3, 2), (4, 3), (5, 2)])
def test_det_agrees_with_evaluation(dim, m, f5):
    rng = random.Random(dim * 100 + m)
    grid = [[_random_linear(f5, m, rng) for _ in range(dim)] for _ in range(dim)]
    p = pencil(f5, m, grid)
    det = pencil_det(p)
    for _ in range(100):
        point = [f5.element_at(rng.randrange(5)) for _ in range(m)]
        evaluated = Matrix_det(p.evaluate(point), f5)
        assert det.evaluate(point) == evaluated


def Matrix_det(rows, field):
    """Independent cofactor determinant used only as a test oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = field.zero()
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * Matrix_det(minor, field)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


@pytest.mark.parametrize("dim,m,seed", [(3, 2, 1), (4, 2, 2), (5, 3, 3), (6, 2, 4),
                                        (4, 2, 5), (5, 2, 6), (6, 3, 7), (6, 2, 8),
                                        (5, 2, 9), (4, 3, 10)])
def test_structured_det_equals_plain_det(dim, m, seed, f3):
    rng = random.Random(seed)
    grid = []
    for i in range(dim):
        row = []
        for j in range(dim):
            # sparse pattern so block structure actually appears
            if rng.random() < 0.5:
                row.append(MultiPoly.zero(f3, m))
            else:
                row.append(_random_linear(f3, m, rng))
        grid.append(row)
    p = pencil(f3, m, grid)
    det, plain = structured_det(p), pencil_det(p)
    assert det.expand() == plain
    assert det == plain and plain == det
    # the factored reads agree with the multiplied-out product
    assert det.is_zero == plain.is_zero
    assert det.total_degree() == plain.total_degree()
    for point in itertools.product(list(f3.elements()), repeat=m):
        assert det.evaluate(point) == plain.evaluate(point)
    assert nonvanishing_point(det, f3) == nonvanishing_point(plain, f3)


def test_structured_det_block_permutation(q):
    # antidiagonal blocks: det([[0, A], [B, 0]]) = -det(A)det(B) for 1x1 blocks
    t1, t2 = var(q, 2, 0), var(q, 2, 1)
    z = MultiPoly.zero(q, 2)
    p = pencil(q, 2, [[z, t1], [t2, z]])
    assert structured_det(p) == -(t1 * t2)
    assert pencil_det(p) == -(t1 * t2)
    assert structured_det(p) != t1 * t2


def test_structured_det_handles_large_block_diagonal(f5):
    t = var(f5, 1, 0)
    z = MultiPoly.zero(f5, 1)
    dim = 20
    grid = [[t if i == j else z for j in range(dim)] for i in range(dim)]
    det = structured_det(pencil(f5, 1, grid))
    assert not det.is_zero and det.total_degree() == dim


def test_structured_det_stops_at_a_vanishing_block(f5):
    # rows/cols 0-1 hold [[t, t], [t, t]], whose determinant is zero; the
    # rest is a connected 13x13 bidiagonal block, above the cofactor cap
    t = var(f5, 1, 0)
    z = MultiPoly.zero(f5, 1)
    dim = 15
    grid = [[z] * dim for _ in range(dim)]
    for i in range(2):
        for j in range(2):
            grid[i][j] = t
    for i in range(2, dim):
        grid[i][i] = t
        if i + 1 < dim:
            grid[i][i + 1] = t
    assert structured_det(pencil(f5, 1, grid)).is_zero


def test_nonvanishing_point_simple(f2):
    t1, t2 = var(f2, 2, 0), var(f2, 2, 1)
    res = nonvanishing_point(t1 * t2, f2)
    assert res.found
    assert res.point == (f2.one(), f2.one())


def test_nonvanishing_point_zero_poly(f2):
    res = nonvanishing_point(MultiPoly.zero(f2, 2), f2)
    assert res.status == "identically_zero"


def _no_point_over(poly, field):
    # a nonzero polynomial vanishing on all of a field no larger than its
    # degree: the whole field is walked and the search stops there
    assert not poly.is_zero
    assert all(poly.evaluate((c,)).is_zero for c in field.elements())
    assert nonvanishing_point(poly, field) == PointResult("no_point_over_field")


def test_nonvanishing_point_needs_extension(f2):
    # t^2 + t vanishes on all of F_2
    t = var(f2, 1, 0)
    _no_point_over(t * t + t, f2)


def test_nonvanishing_point_refuses_another_field(f2, f4):
    t = var(f2, 1, 0)
    with pytest.raises(FieldMismatch):
        nonvanishing_point(t * t + t, f4)


def test_nonvanishing_point_over_rationals(q):
    t = var(q, 1, 0)
    poly = t * t - const(q, 1, 4)
    res = nonvanishing_point(poly, q)
    assert res.found
    # first grid value in deterministic order is 0, where the value is -4
    assert res.point == (q.zero(),)
    assert poly.evaluate(res.point) == q.from_int(-4)


def test_grid_bound_guarantees_point(f5):
    # a polynomial vanishing at many grid points still yields a witness
    t1, t2 = var(f5, 2, 0), var(f5, 2, 1)
    poly = (t1 - const(f5, 2, 1)) * (t2 - const(f5, 2, 2))
    res = nonvanishing_point(poly, f5)
    assert res.found
    assert not poly.evaluate(res.point).is_zero


def test_returned_point_reverified(f3):
    rng = random.Random(11)
    for _ in range(10):
        grid_poly = _random_linear(f3, 3, rng) * _random_linear(f3, 3, rng)
        res = nonvanishing_point(grid_poly, f3)
        if res.found:
            assert not grid_poly.evaluate(res.point).is_zero


def test_extension_search_from_extension_field(f4):
    # t^4 + t vanishes on all of F_4
    t = var(f4, 1, 0)
    _no_point_over(t * t * t * t + t, f4)


def test_extension_walk_covers_a_field_no_larger_than_the_degree(f2):
    # t^4 + t^3 vanishes on F_2, which has fewer elements than the degree
    t = var(f2, 1, 0)
    _no_point_over(t * t * t * t + t * t * t, f2)


def test_nonvanishing_point_of_a_nonzero_constant(f2, q):
    for field in (f2, q):
        res = nonvanishing_point(const(field, 2, 1), field)
        assert res.found and res.point == (field.zero(), field.zero())


def test_exhaustive_walk_over_budget_raises(f2):
    m = 24
    with pytest.raises(SearchSpaceTooLarge, match=r"2\^24 points exceed the exhaustive budget"):
        nonvanishing_point(var(f2, m, 0) * var(f2, m, 1), f2)


# -- the factored determinant against its expanded product ------------------------

def _same_search(det, field):
    res = nonvanishing_point(det, field)
    assert res == nonvanishing_point(det.expand(), field)
    return res


def _diagonal(field, m, diag):
    z = MultiPoly.zero(field, m)
    return pencil(field, m, [[diag[i] if i == j else z for j in range(len(diag))]
                             for i in range(len(diag))])


def test_factored_search_identically_zero_block(f5):
    t1, t2 = var(f5, 2, 0), var(f5, 2, 1)
    z = MultiPoly.zero(f5, 2)
    # block {0} is t1, block {1, 2} is [[t2, t2], [t2, t2]], which vanishes
    p = pencil(f5, 2, [[t1, z, z], [z, t2, t2], [z, t2, t2]])
    det = structured_det(p)
    assert det.is_zero
    assert _same_search(det, f5).status == "identically_zero"


def test_factored_search_exhaustive_small_field(f2):
    # degree 3 over F_2: the grid bound does not apply, so F_2^2 is walked
    t1, t2 = var(f2, 2, 0), var(f2, 2, 1)
    det = structured_det(_diagonal(f2, 2, [t1, t2, t1 + t2]))
    assert det.total_degree() == 3
    assert _same_search(det, f2).status == "no_point_over_field"
    det = structured_det(_diagonal(f2, 2, [t1, t2]))
    assert _same_search(det, f2).point == (f2.one(), f2.one())


def test_factored_search_grid_above_degree(f5):
    # |F_5| > degree 3: the first 4 values per variable are enough
    t1, t2 = var(f5, 2, 0), var(f5, 2, 1)
    det = structured_det(_diagonal(f5, 2, [t1, t2, t1 - t2]))
    res = _same_search(det, f5)
    assert res.found and not det.evaluate(res.point).is_zero


def test_factored_search_sign_of_the_block_permutation(q):
    t1, t2 = var(q, 2, 0), var(q, 2, 1)
    z = MultiPoly.zero(q, 2)
    det = structured_det(pencil(q, 2, [[z, t1], [t2, z]]))
    assert det.sign == -1
    point = (q.from_int(2), q.from_int(3))
    assert det.evaluate(point) == det.expand().evaluate(point) == q.from_int(-6)
    assert _same_search(det, q).found


def test_factored_search_no_point_over_field(f2):
    # t (t + 1) vanishes on all of F_2
    t = var(f2, 1, 0)
    det = FactoredPoly(f2, 1, 1, (t, t + const(f2, 1, 1)))
    assert _same_search(det, f2).status == "no_point_over_field"


def test_decisions_never_expand_the_factored_det(monkeypatch, f3):
    def refuse(self):
        raise AssertionError("the decision path multiplied the blocks out")

    monkeypatch.setattr(FactoredPoly, "expand", refuse)
    assert decide_form_existence(cyclic_algebra(3), "graded-frobenius").is_yes
    assert decide_form_existence(sweedler_algebra(f3), "symmetric").status == "no"
    assert component_has_invertible(cyclic_algebra(3), 1)[0]


# -- the walk: evaluate first, prove only when the first points fail ---------------

@pytest.mark.parametrize("k", [0, 1, WITNESS_WALK - 1, WITNESS_WALK, WITNESS_WALK + 1,
                               2 * WITNESS_WALK])
def test_walk_finds_the_first_witness_on_either_side_of_the_zero_test(k, q):
    # prod_{j<k} (t - j) has degree k and first vanishes off the grid 0..k-1
    t = var(q, 1, 0)
    det = FactoredPoly(q, 1, 1, [t - const(q, 1, j) for j in range(k)])
    res = nonvanishing_point(det, q)
    assert res.found and res.point == (q.from_int(k),)


def test_a_witness_within_the_walk_expands_no_block(monkeypatch, f5):
    def refuse(pencil):
        raise AssertionError("a block was expanded")

    t1, t2 = var(f5, 2, 0), var(f5, 2, 1)
    det = structured_det(pencil(f5, 2, [[t1, t2], [t2, t1]]))
    monkeypatch.setattr(multipoly, "pencil_det", refuse)
    res = nonvanishing_point(det, f5)
    assert res.found and res.point == (f5.zero(), f5.one())
    assert not det.is_zero  # known nonzero from the walk


def test_block_value_carries_the_sign_of_each_row_swap(f5):
    # one connected block; at t1 = 0 its first column has its pivot in row 2,
    # so elimination swaps the rows once
    t1, t2 = var(f5, 2, 0), var(f5, 2, 1)
    z = MultiPoly.zero(f5, 2)
    p = pencil(f5, 2, [[t1, t2], [t2, z]])
    det = structured_det(p)
    point = (f5.zero(), f5.from_int(3))
    assert det.evaluate(point) == pencil_det(p).evaluate(point) == f5.from_int(-9)


def test_search_over_budget_still_reports_a_zero_determinant(f2):
    # 24 unknowns over F_2 exceed the exhaustive budget, but a vanishing
    # block is refuted by the zero test before the budget check raises
    m = 24
    t = var(f2, m, 0)
    det = structured_det(pencil(f2, m, [[t, t], [t, t]]))
    assert nonvanishing_point(det, f2).status == "identically_zero"


# -- the shape of a pencil ------------------------------------------------------------

def test_pencil_refuses_a_ragged_grid(f3):
    zero_form = (f3.zero(),)
    with pytest.raises(ValueError, match="2 x 2"):
        GramPencil(f3, 2, 1, ((zero_form,),))
    with pytest.raises(ValueError, match="2 x 2"):
        GramPencil(f3, 2, 1, ((zero_form, zero_form), (zero_form,)))


def test_pencil_refuses_a_form_of_the_wrong_length_or_field(f3, f5):
    with pytest.raises(ValueError, match="1 scalars"):
        GramPencil(f3, 1, 1, (((f3.one(), f3.zero()),),))
    with pytest.raises(ValueError, match="1 scalars"):
        GramPencil(f3, 1, 1, (((f5.one(),),),))
    with pytest.raises(ValueError, match="1 scalars"):
        GramPencil(f3, 1, 1, ((var(f3, 1, 0),),))


def test_linear_pencil_sums_the_contributions(f5):
    t1, t2 = var(f5, 2, 0), var(f5, 2, 1)
    two, three = f5.from_int(2), f5.from_int(3)
    # the contributions are raw values of F_5
    p = multipoly.linear_pencil(f5, 2, 2, [(0, 0, 0, 2), (0, 0, 0, 3), (0, 1, 1, 2),
                                           (1, 0, 0, 3), (1, 0, 1, 1)])
    # 2 t1 + 3 t1 cancels to the zero form
    assert p == pencil(f5, 2, [[MultiPoly.zero(f5, 2), t2 * two],
                               [t1 * three + t2, MultiPoly.zero(f5, 2)]])
    assert pencil_det(p) == -(t2 * two) * (t1 * three + t2)


@pytest.mark.parametrize("fixture", ["f5", "q"])
def test_contributions_that_cancel_leave_the_entry_out(request, fixture):
    # (0, 1, 0, c) and (0, 1, 0, -c) sum to the zero form: (0, 1) is not in
    # the support, its cell is the shared zero form, and the pencil splits as
    # if neither contribution had been made
    field = request.getfixturevalue(fixture)
    ops, m = field.ops, 2
    c = ops.inverse(ops.from_int(2))
    kept = [(0, 0, 0, ops.one), (1, 1, 1, ops.one)]
    made = multipoly.linear_pencil(field, 2, m, [kept[0], (0, 1, 0, c), kept[1],
                                                 (0, 1, 0, ops.sub(ops.zero, c))])
    never = multipoly.linear_pencil(field, 2, m, kept)
    assert (0, 1) not in made.forms and made == never
    assert made.entries[0][1] is multipoly._zero_form(field, m)
    assert multipoly._support_components(made) == [((0,), (0,)), ((1,), (1,))]
    det, want = structured_det(made), structured_det(never)
    assert det.sign == want.sign == 1
    assert [f.pencil for f in det.factors] == [f.pencil for f in want.factors]
    assert [f.pencil.dim for f in det.factors] == [1, 1]
    t1, t2 = var(field, m, 0), var(field, m, 1)
    assert det.expand() == t1 * t2


# -- the split search against the unsplit walk it replaced ---------------------------

def _grid(field, count):
    if field.char == 0:
        return [field.from_int(k) for k in range(count)]
    return [field.element_at(k) for k in range(min(count, field.size()))]


def unsplit_point(poly, field):
    """The search before the split: one walk of the grid of all m unknowns,
    with deg + 1 values each for the degree deg of the whole product."""
    if poly.field != field:
        raise FieldMismatch(f"polynomial over {poly.field} searched over {field}")
    m, deg, size = poly.num_vars, poly.nonzero_degree(), field.size()
    if size is not None and size <= deg and size ** m > SEARCH_BUDGET:
        if poly.is_zero:
            return PointResult("identically_zero")
        raise SearchSpaceTooLarge(f"{size}^{m} points exceed the exhaustive budget")
    points = itertools.product(_grid(field, deg + 1), repeat=m)

    def first(candidates):
        return next((p for p in candidates if not poly.evaluate(p).is_zero), None)

    point = first(itertools.islice(points, WITNESS_WALK))
    if point is None:
        if poly.is_zero:
            return PointResult("identically_zero")
        point = first(points)
    if point is not None:
        return PointResult("found", point=point)
    if size is None or size > deg:
        raise AssertionError("grid bound violated")
    return PointResult("no_point_over_field")


def _search(search, poly, field):
    try:
        return search(poly, field)
    except (SearchSpaceTooLarge, AssertionError) as exc:
        return type(exc).__name__


def _random_value(field, rng):
    if field.char == 0:
        return field.from_int(rng.randrange(-2, 3))
    return field.element_at(rng.randrange(field.size()))


def _random_factor(field, m, unknowns, rng):
    """A block determinant or a polynomial in some of the given unknowns."""
    zero = field.zero()
    if rng.random() < 0.5:
        d = rng.randrange(1, 4)
        used = rng.sample(unknowns, rng.randrange(1, len(unknowns) + 1))
        forms = tuple(tuple(tuple(_random_value(field, rng) if k in used and rng.random() < 0.7
                                  else zero for k in range(m)) for _ in range(d))
                      for _ in range(d))
        return BlockDet(GramPencil(field, d, m, forms))
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        exps = [0] * m
        for _ in range(rng.randrange(1, 4)):
            exps[rng.choice(unknowns)] += 1
        terms[tuple(exps)] = _random_value(field, rng)
    return MultiPoly(field, m, terms)


def _random_product(field, rng) -> FactoredPoly:
    """A product of factors on two or three groups of unknowns, in random
    (so often interleaved) positions, with some unknowns used by no factor,
    and now and then a constant factor."""
    m = rng.randrange(2, 5 if field.char == 0 else 6)
    labels = [rng.randrange(3) for _ in range(m)]
    factors = []
    for label in set(labels):
        unknowns = [k for k in range(m) if labels[k] == label]
        if label or len(set(labels)) == 1:  # label 0 marks unused unknowns
            factors += [_random_factor(field, m, unknowns, rng)
                        for _ in range(rng.randrange(1, 3))]
    if rng.random() < 0.1:
        factors.append(MultiPoly.constant(field, m, _random_value(field, rng)))
    rng.shuffle(factors)
    return FactoredPoly(field, m, rng.choice((1, -1)), factors)


def test_split_search_matches_the_unsplit_walk(f2, f3, f5, q):
    seen = {"split": 0, "interleaved": 0, "small-field group": 0, "unused unknown": 0}
    statuses = set()
    for field in (f2, f3, f5, q):
        rng = random.Random(f"split-{field}")
        for _ in range(150):
            det = _random_product(field, rng)
            groups = multipoly._unknown_groups(det)
            got = _search(nonvanishing_point, det, field)
            assert got == _search(unsplit_point, det, field), (field, det)
            if isinstance(got, PointResult):
                statuses.add(got.status)
                if got.found:
                    assert not det.evaluate(got.point).is_zero
            if len(groups) > 1:
                seen["split"] += 1
                spans = [(min(u), max(u)) for u, _ in groups if u]
                seen["interleaved"] += any(lo < hi2 and lo2 < hi for lo, hi in spans
                                           for lo2, hi2 in spans if (lo, hi) != (lo2, hi2))
                seen["small-field group"] += any(
                    field.size() is not None and field.size() <= part.nonzero_degree()
                    for _, part in groups)
                seen["unused unknown"] += sum(len(u) for u, _ in groups) < det.num_vars
    assert statuses == {"found", "identically_zero", "no_point_over_field"}
    assert min(seen.values()) >= 20, seen


def _far_product(field, m, count):
    """t_1 t_2 ... t_count in m unknowns, one factor per unknown."""
    return FactoredPoly(field, m, 1, [var(field, m, k) for k in range(count)])


def _over_budget(field, m):
    """t_1 t_2 + t_3 t_4 + ... + t_23 t_24: 24 unknowns of F_2 in one factor of
    degree 2, so its own grid is the whole of F_2^24, above the budget."""
    return MultiPoly(field, m, {tuple(int(k // 2 == i) for k in range(m)): field.one()
                                for i in range(12)})


def test_a_zero_group_refutes_before_another_group_runs_over_budget(f2):
    m = 26
    t24, t25 = var(f2, m, 24), var(f2, m, 25)
    vanishing = structured_det(pencil(f2, m, [[t24, t25], [t24, t25]]))
    det = FactoredPoly(f2, m, 1, (_over_budget(f2, m),) + vanishing.factors)
    assert nonvanishing_point(det, f2).status == "identically_zero"
    det = FactoredPoly(f2, m, 1, (_over_budget(f2, m), t24 * t25))
    with pytest.raises(SearchSpaceTooLarge, match=r"2\^24 points exceed"):
        nonvanishing_point(det, f2)


def test_the_budget_is_decided_per_group(f2):
    # 24 groups of one unknown and degree 1: each walks {0, 1}, while the
    # whole product has degree 24 and would need all of F_2^24
    det = _far_product(f2, 24, 24)
    with pytest.raises(SearchSpaceTooLarge):
        unsplit_point(det, f2)
    assert nonvanishing_point(det, f2).point == (f2.one(),) * 24


def test_a_group_without_a_point_over_a_small_field(f2):
    # t_2 (t_2 + 1) vanishes on all of F_2; t_1 does not
    t1, t2 = var(f2, 2, 0), var(f2, 2, 1)
    det = FactoredPoly(f2, 2, 1, (t1, t2 * (t2 + const(f2, 2, 1))))
    assert len(multipoly._unknown_groups(det)) == 2
    assert nonvanishing_point(det, f2) == unsplit_point(det, f2) \
        == PointResult("no_point_over_field")


class _VanishingPoly(MultiPoly):
    """A nonzero polynomial whose evaluation is broken: always zero."""

    __slots__ = ()

    def evaluate(self, point):
        return self.field.zero()


def test_a_group_without_a_point_above_the_grid_bound_is_a_bug(q):
    t1, t2 = var(q, 2, 0), var(q, 2, 1)
    broken = _VanishingPoly(q, 2, t1.terms)
    for det in (broken, FactoredPoly(q, 2, 1, (t2, broken))):
        with pytest.raises(AssertionError, match="grid bound violated"):
            nonvanishing_point(det, q)


def test_one_group_runs_the_unsplit_walk(monkeypatch, f2):
    # t_1 (t_1 + 1) leaves t_2..t_24 unused, yet one group keeps the walk of
    # all of F_2^24 and its budget, as before the split
    m = 24
    t = var(f2, m, 0)
    det = FactoredPoly(f2, m, 1, (t, t + const(f2, m, 1)))
    with pytest.raises(SearchSpaceTooLarge, match=r"2\^24 points exceed"):
        nonvanishing_point(det, f2)

    def refuse(factor):
        raise AssertionError("the unknowns of a lone factor were read")

    monkeypatch.setattr(multipoly, "_factor_unknowns", refuse)
    t1, t2 = var(f2, 2, 0), var(f2, 2, 1)
    for poly in (t1 * t2, structured_det(pencil(f2, 2, [[t1, t2], [t2, t1]]))):
        assert nonvanishing_point(poly, f2) == unsplit_point(poly, f2)
