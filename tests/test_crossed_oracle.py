"""The crossed-product pipeline on raw field values (algebras._compatible_alpha
and algebras._crossed_product_table) against the Scalar version it replaced,
kept here as its oracle: the same exception class and message, or the same
normalized alpha and the same table.  normalize_section, which computes its
coboundary on raw values, against the same computation on Elements and
Matrices.  Then algebras.frobenius_crossed_product,
which decides the laws on Frobenius exponents, against
crossed_product(frobenius_crossed_spec(...)), which decides them in D, and
algebras.FrobeniusCrossedProducts, which does the work of one action once
for all its twists, against the per-candidate builder it replaced."""

import sys
from pathlib import Path

import pytest

from grasym import (
    CrossedProductSpec,
    Element,
    GradedAlgebra,
    Matrix,
    cyclic_algebra_spec,
)
from grasym import algebras
from grasym.errors import GrasymError, IncompatibleCocycleData, NonInvertibleAlpha
from grasym.replicate import HuntParams, default_hunt_params, hunt_candidates, hunt_char2_params

from conftest import scalar_inverse, scalar_table

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _normalized_alpha(spec: CrossedProductSpec) -> dict:
    """Rescale the section at the identity so that alpha(e,h) = alpha(g,e) = 1
    for compatible data; _check_crossed_laws decides whether it came out so.

    Each distinct alpha value is inverted once.
    """
    d = spec.coeff
    G = spec.group
    e = G.identity
    inverses = {}
    alpha = {}
    for g in range(G.order):
        for h in range(G.order):
            val = spec.alpha.get((g, h))
            if val is None:
                raise IncompatibleCocycleData(f"alpha missing at pair ({g},{h})")
            el = Element(d, val)
            if el.coords not in inverses:
                inverses[el.coords] = scalar_inverse(el)
            if inverses[el.coords] is None:
                raise NonInvertibleAlpha(f"alpha({g},{h}) is not invertible in D")
            alpha[(g, h)] = el
    aee = alpha[(e, e)]
    for i in range(d.dim):
        ei = d.basis_element(i)
        if (aee * ei).coords != (ei * aee).coords:
            raise IncompatibleCocycleData("alpha(e,e) must be central in D")
    c = inverses[aee.coords]
    out = {}
    for g in range(G.order):
        for h in range(G.order):
            # cohomologous rescaling by c_g = alpha(e,e)^-1 at g = e, 1 elsewhere:
            # alpha'(g,h) = c_g sigma(g)(c_h) alpha(g,h) c_{gh}^-1
            val = alpha[(g, h)]
            if h == e:
                val = Element(d, spec.sigma[g].mulvec(c.coords)) * val
            if g == e:
                val = c * val
            if G.mul(g, h) == e:
                val = val * aee
            out[(g, h)] = val
    return out


def _check_crossed_laws(spec: CrossedProductSpec, alpha: dict):
    """The laws (U), (M), (C), (Z) of algebras._check_crossed_laws, in its
    order, on Scalars through GradedAlgebra.mul_coords."""
    d = spec.coeff
    G = spec.group
    e = G.identity
    sigma = spec.sigma
    one = d.one().coords
    basis = [d.basis_element(i).coords for i in range(d.dim)]
    rest = [g for g in range(G.order) if g != e]
    images = {g: [sigma[g].mulvec(b) for b in basis] for g in range(G.order)}

    def mul(x, y):
        return tuple(d.mul_coords(x, y))

    def fail(law, where):
        raise IncompatibleCocycleData(f"{law} fails at {where}")

    for i, b in enumerate(basis):
        if images[e][i] != b:
            fail("the unit law (sigma(e) = id)", f"D-basis vector {i}")
    for g in rest:
        if sigma[g].mulvec(one) != one:
            fail("the unit law (sigma(g)(1) = 1)", f"g={g}")
    for g in rest:
        if alpha[(g, e)].coords != one or alpha[(e, g)].coords != one:
            fail("the unit law (alpha(g,e) = alpha(e,g) = 1 once normalized)", f"g={g}")
    basis_products = [[mul(bi, bj) for bj in basis] for bi in basis]
    multiplicative = set()
    for g in rest:
        if sigma[g].entries in multiplicative:
            continue
        for i, row in enumerate(basis_products):
            for j, bij in enumerate(row):
                if sigma[g].mulvec(bij) != mul(images[g][i], images[g][j]):
                    fail("multiplicativity of sigma "
                         "(sigma(g)(e_i e_j) = sigma(g)(e_i) sigma(g)(e_j))",
                         f"g={g}, i={i}, j={j}")
        multiplicative.add(sigma[g].entries)
    for g in rest:
        for h in rest:
            agh = alpha[(g, h)].coords
            gh = G.mul(g, h)
            for i, b in enumerate(images[h]):
                if mul(sigma[g].mulvec(b), agh) != mul(agh, images[gh][i]):
                    fail("sigma(g) sigma(h) = Inn(alpha(g,h)) sigma(gh)",
                         f"g={g}, h={h}, D-basis vector {i}")
    for g in rest:
        for h in rest:
            agh = alpha[(g, h)].coords
            gh = G.mul(g, h)
            for k in rest:
                left = mul(agh, alpha[(gh, k)].coords)
                right = mul(sigma[g].mulvec(alpha[(h, k)].coords),
                            alpha[(g, G.mul(h, k))].coords)
                if left != right:
                    fail("the twisted 2-cocycle law "
                         "(alpha(g,h) alpha(gh,k) = sigma(g)(alpha(h,k)) alpha(g,hk))",
                         f"g={g}, h={h}, k={k}")


def _crossed_product_table(spec: CrossedProductSpec, alpha: dict) -> GradedAlgebra:
    """The product with (e_i u_g)(e_j u_h) = e_i sigma(g)(e_j) alpha(g,h) u_gh,
    built without validation."""
    d = spec.coeff
    G = spec.group
    dd = d.dim
    dim = dd * G.order
    field = d.field
    basis = [d.basis_element(i).coords for i in range(dd)]
    sc = {}
    for g in range(G.order):
        columns = [spec.sigma[g].mulvec(b) for b in basis]
        for h in range(G.order):
            gh = G.mul(g, h)
            a_gh = alpha[(g, h)].coords
            for j in range(dd):
                right = d.mul_coords(columns[j], a_gh)
                for i in range(dd):
                    prod = d.mul_coords(basis[i], right)
                    terms = tuple((gh * dd + k, c) for k, c in enumerate(prod) if not c.is_zero)
                    if terms:
                        sc[(g * dd + i, h * dd + j)] = terms
    degree = [g for g in range(G.order) for _ in range(dd)]
    unit = [field.zero()] * dim
    for i, c in enumerate(d.one().coords):
        unit[G.identity * dd + i] = c
    labels = None
    if d.labels is not None:
        labels = [f"{d.label(i)}*{G.label(g)}" if g != G.identity else d.label(i)
                  for g in range(G.order) for i in range(dd)]
    return GradedAlgebra(field, G, degree, sc, unit, labels=labels)


def _agree(spec) -> bool:
    """Whether crossed_product accepts spec, after checking that the raw
    pipeline agrees with the Scalar one at each step: the same error from
    normalizing alpha, or the same normalized alpha and the same table, then
    the same error from the laws, or the same product."""
    try:
        scalar_alpha = _normalized_alpha(spec)
    except (IncompatibleCocycleData, NonInvertibleAlpha) as exc:
        with pytest.raises(type(exc)) as raised:
            algebras._compatible_alpha(spec)
        assert str(raised.value) == str(exc)
        return False
    raw = algebras._RawCoefficients(spec.coeff, [spec.sigma[g] for g in range(spec.group.order)])
    alpha = algebras._normalized_alpha(spec, raw)
    assert ({gh: raw.ops.wrap(v) for gh, v in alpha.items()}
            == {gh: x.coords for gh, x in scalar_alpha.items()})
    table = algebras._crossed_product_table(raw, spec.group, alpha)
    assert table == _crossed_product_table(spec, scalar_alpha)
    try:
        _check_crossed_laws(spec, scalar_alpha)
    except IncompatibleCocycleData as exc:
        with pytest.raises(IncompatibleCocycleData) as raised:
            algebras.crossed_product(spec)
        assert str(raised.value) == str(exc)
        return False
    assert algebras.crossed_product(spec) == table
    return True


def test_raw_laws_agree_on_the_crossed_law_corpus():
    # imported here: test_algebras imports this module's Scalar oracle
    from test_algebras import CROSSED_LAW_CORPUS_ACCEPTED, _crossed_law_corpus

    accepted = [_agree(spec) for spec in _crossed_law_corpus()]
    assert (len(accepted), sum(accepted)) == (365, CROSSED_LAW_CORPUS_ACCEPTED[0])


def test_raw_laws_agree_on_every_pool_cell_candidate():
    cells = {cell.name: cell for draw in workloads.POOL for cell in draw}
    assert len(cells) == 4
    for cell in cells.values():
        accepted = [_agree(algebras.frobenius_crossed_spec(*args))
                    for _, args in hunt_candidates(cell.params())]
        assert (len(accepted), sum(accepted)) == (cell.enumerated, cell.tested), cell.name


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_raw_laws_agree_on_the_cyclic_algebras(p):
    assert _agree(cyclic_algebra_spec(p))


# -- frobenius_crossed_product against crossed_product ----------------------------------

def builder_agrees(ext, group, sigma_powers, alpha_unit=None) -> bool:
    """Whether frobenius_crossed_product accepts the data, after checking
    that it gives the exception class and message of
    crossed_product(frobenius_crossed_spec(...)), or the same algebra with
    the same labels."""
    args = (ext, group, sigma_powers, alpha_unit)
    try:
        want = algebras.crossed_product(algebras.frobenius_crossed_spec(*args))
    except GrasymError as exc:
        with pytest.raises(GrasymError) as raised:
            algebras.frobenius_crossed_product(*args)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return False
    got = algebras.frobenius_crossed_product(*args)
    assert got == want
    assert (scalar_table(got), got.one().coords, got.degree, got.labels) == (
        scalar_table(want), want.one().coords, want.degree, want.labels)
    return True


def _builder_counts(params: HuntParams) -> tuple:
    accepted = [builder_agrees(*args) for _, args in hunt_candidates(params)]
    return len(accepted), sum(accepted)


def test_builder_agrees_on_the_pinned_hunts():
    assert _builder_counts(hunt_char2_params()) == (57, 13)
    assert _builder_counts(HuntParams(3, (1, 3), (("cyclic", 3),))) == (236, 4)


def test_builder_agrees_on_every_pool_cell_candidate():
    cells = {cell.name: cell for draw in workloads.POOL for cell in draw}
    assert len(cells) == 4
    for cell in cells.values():
        assert _builder_counts(cell.params()) == (cell.enumerated, cell.tested), cell.name


@pytest.mark.parametrize("params, counts", [
    # the default char-2 hunt over groups of order <= 4, every extension degree
    (default_hunt_params(2, max_group=4), (532, 27)),
    # char 3 over groups of order <= 6, extension degrees 1 and 2
    (default_hunt_params(3, max_group=6, max_ext=2), (1088, 33)),
    # char 2 over groups of order <= 8 (C5-C8, C2xC4, C2^3, D3, D4 included),
    # extension degrees 1 and 2
    (default_hunt_params(2, max_group=8, max_ext=2), (2143, 50)),
])
def test_builder_agrees_on_a_default_hunt_slice(params, counts):
    assert _builder_counts(params) == counts


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cyclic_algebra_is_the_product_of_its_spec(p):
    a = algebras.cyclic_algebra(p)
    b = algebras.crossed_product(cyclic_algebra_spec(p))
    assert a == b


# -- the per-action builder against the per-candidate builder it replaced ---------------

def per_candidate_frobenius_crossed_product(ext, group, sigma_powers, alpha_unit=None):
    """frobenius_crossed_product as it ran before algebras.FrobeniusCrossedProducts,
    one candidate at a time: the arguments read, every check made and the
    whole table put together on each call.  The oracle of the per-action
    builder."""
    fd = algebras._frobenius_coefficients(ext)
    d = fd.d
    sigma_powers = list(sigma_powers)
    if len(sigma_powers) != group.order - 1:
        raise ValueError("need one Frobenius power per non-identity element")
    powers = [0] + [power % d.dim for power in sigma_powers]
    u = d.unit
    if alpha_unit is not None:
        p = d.field.char
        u = tuple([c % p if type(c) is int else d.field.scalar(c).val for c in alpha_unit])
        if len(u) > d.dim:
            raise ValueError(f"alpha_unit has more than {d.dim} coefficients")
        u += (d.field.ops.zero,) * (d.dim - len(u))
    algebras._require_crossed_dim(d, group)
    _per_candidate_laws(ext, fd, group, powers, u)
    m = d.dim
    forms, forms_at = algebras._left_rows(d, u), d.field.ops.forms_at
    twisted = {k: [[algebras._coordinate_pairs(forms_at(forms, v)) for v in row]
                   for row in fd.coordinates[k]] for k in set(powers[1:])}
    table = []
    for g, k in enumerate(powers):
        blocks = [(gh * m, twisted[k] if g and h else fd.products[k])
                  for h, gh in enumerate(group.table[g])]
        for i in range(m):
            table.append([tuple([(offset + t, c) for t, c in block[i][j]])
                          for offset, block in blocks for j in range(m)])
    return algebras._crossed_product_algebra(d, group, table)


def _per_candidate_laws(ext, fd, group, powers, u):
    """The laws of one candidate, in the order and words of
    algebras._check_crossed_laws: the twist invertible, then (C) at every
    pair, then (Z) at every triple."""
    e, m, ops, table = group.identity, ext.degree, ext.ops, group.table
    rest = range(1, group.order)
    x = ops.from_coefficients(u)
    if rest and ops.is_zero(x):
        raise NonInvertibleAlpha("alpha(1,1) is not invertible in D")
    for g in rest:
        for h in rest:
            if (powers[g] + powers[h] - powers[table[g][h]]) % m:
                raise IncompatibleCocycleData(
                    f"{algebras._CONJUGATION_LAW} fails at g={g}, h={h}, D-basis vector 1")
    for g in rest:
        image = ops.from_coefficients(fd.d.field.ops.forms_at(fd.rows[powers[g]], u))
        for h in rest:
            left = ops.mul(x, x) if table[g][h] != e else x
            for k in rest:
                right = ops.mul(image, x) if table[h][k] != e else image
                if left != right:
                    raise IncompatibleCocycleData(
                        f"{algebras._COCYCLE_LAW} fails at g={g}, h={h}, k={k}")


def _agrees_with_the_reference(build, args) -> bool:
    """Whether build(*args) accepts, after checking that it raises the
    exception class and message of per_candidate_frobenius_crossed_product,
    or gives an equal algebra: the same table, degrees, unit and labels."""
    errors = (GrasymError, ValueError, TypeError)
    try:
        want = per_candidate_frobenius_crossed_product(*args)
    except errors as exc:
        with pytest.raises(errors) as raised:
            build(*args)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc)), args
        return False
    got = build(*args)
    assert got == want, args
    assert (got.table, got.degree, got.unit, got.labels) == (
        want.table, want.degree, want.unit, want.labels)
    return True


def _per_action_counts(params: HuntParams) -> tuple:
    """(candidates, accepted) of a hunt, with every candidate built as the
    hunt builds it, by one FrobeniusCrossedProducts kept across the twists
    of its action (product_if_compatible, then product on the same object),
    and by frobenius_crossed_product, each checked against the reference."""
    sigma = products = None
    count = accepted = 0
    for _, (ext, group, powers, unit) in hunt_candidates(params):
        if (ext, group, powers) != sigma:
            sigma = (ext, group, powers)
            products = algebras.FrobeniusCrossedProducts(*sigma)
        args = (ext, group, powers, unit)
        got = products.product_if_compatible(unit)
        ok = _agrees_with_the_reference(lambda *a: products.product(a[3]), args)
        assert _agrees_with_the_reference(algebras.frobenius_crossed_product, args) == ok
        if ok:
            assert got == per_candidate_frobenius_crossed_product(*args)
        else:
            assert got is None
        count += 1
        accepted += ok
    return count, accepted


def test_per_action_builder_agrees_on_every_benchmark_cell():
    pool = [cell for draw in workloads.POOL for cell in draw]
    cells = {cell.name: cell for cell in [*workloads.FIXED_CELLS, *pool]}
    assert len(cells) == 12
    for cell in cells.values():
        assert _per_action_counts(cell.params()) == (cell.enumerated, cell.tested), cell.name


@pytest.mark.parametrize("params, counts", [
    (default_hunt_params(2), (74614, 75)),
    (HuntParams(3, (1, 3), (("cyclic", 3),)), (236, 4)),
], ids=["default-char2", "char3-C3"])
def test_per_action_builder_agrees_on_the_pinned_hunts(params, counts):
    assert _per_action_counts(params) == counts


def test_per_action_builder_keeps_the_order_of_the_checks():
    # one object per action answers twists that fail at every stage, in any
    # order, as the reference does: the twist is read first, then the
    # dimension bound, then invertibility, then (C) and (Z)
    from grasym import canonical_extension_field, cyclic_group

    f4, f8 = canonical_extension_field(2, 2), canonical_extension_field(2, 3)
    actions = [
        # 66-dimensional, and (C) fails
        ((f8, cyclic_group(22), (1,) * 21), [[0, 0, 0], [0, 0, 0, 0], [1], None]),
        # (C) fails at (1, 1)
        ((f8, cyclic_group(2), (1,)), [[0, 1], [0, 0], [0, 0, 0, 1], None, [1, 1, 1]]),
        # (C) holds; (Z) refuses some twists
        ((f4, cyclic_group(4), (1, 0, 1)), [[0, 1], [0, 0], [1], [1, 1], [1, 0, 1], None]),
        ((f4, cyclic_group(2), (1,)), [[1, 1], [0, 0], [True, 1], [0, 1], None]),
    ]
    for (ext, group, powers), twists in actions:
        products = algebras.FrobeniusCrossedProducts(ext, group, powers)
        for twist in twists:
            _agrees_with_the_reference(lambda *a: products.product(a[3]),
                                       (ext, group, powers, twist))
    with pytest.raises(ValueError, match="one Frobenius power"):
        algebras.FrobeniusCrossedProducts(f4, cyclic_group(2), (0, 1))


# -- normalize_section against its computation on Elements -----------------------------

def scalar_normalize_section(spec: CrossedProductSpec) -> CrossedProductSpec:
    """normalize_section on Elements and Matrices, as it ran before it moved
    to raw coefficients, for compatible data: the oracle."""
    G = spec.group
    if all(G.element_order(g) <= 2 for g in range(G.order)):
        return spec
    d = spec.coeff
    alpha = _normalized_alpha(spec)
    sigma = spec.sigma

    def act(g: int, x: Element) -> Element:
        return Element(d, sigma[g].mulvec(x.coords))

    c = {g: d.one() if g <= G.inv(g) else act(g, scalar_inverse(alpha[(G.inv(g), g)]))
         for g in range(G.order)}
    c_inv = {g: scalar_inverse(x) for g, x in c.items()}
    new_sigma = {}
    for g in range(G.order):
        cols = [(c[g] * act(g, d.basis_element(j)) * c_inv[g]).coords
                for j in range(d.dim)]
        new_sigma[g] = Matrix(d.field, cols).transpose()
    new_alpha = {(g, h): (c[g] * act(g, c[h]) * alpha[(g, h)] * c_inv[G.mul(g, h)]).coords
                 for g in range(G.order) for h in range(G.order)}
    return CrossedProductSpec(coeff=d, group=G, sigma=new_sigma, alpha=new_alpha)


def _normalize_section_corpus() -> list:
    """Specs over groups with elements of order > 2: the cyclic algebras of
    degree 3 and 5, the 4 accepted candidates of the pinned char-3 C_3 hunt
    as Frobenius specs, and the coboundary-twisted quaternions."""
    from test_algebras import _coboundary_twisted_quaternions

    specs = [cyclic_algebra_spec(3), cyclic_algebra_spec(5)]
    for _, args in hunt_candidates(HuntParams(3, (1, 3), (("cyclic", 3),))):
        try:
            algebras.frobenius_crossed_product(*args)
        except IncompatibleCocycleData:
            continue
        specs.append(algebras.frobenius_crossed_spec(*args))
    return specs + [_coboundary_twisted_quaternions()]


def test_raw_normalize_section_matches_the_element_computation():
    specs = _normalize_section_corpus()
    assert len(specs) == 7
    for spec in specs:
        got, want = algebras.normalize_section(spec), scalar_normalize_section(spec)
        assert got is not spec
        assert got.sigma == want.sigma and got.alpha == want.alpha
        assert algebras.crossed_product(got) == _crossed_product_table(
            want, _normalized_alpha(want))
