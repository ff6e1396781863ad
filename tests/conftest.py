import pytest

from grasym import make_field, rationals


@pytest.fixture(scope="session")
def q():
    return rationals()


@pytest.fixture(scope="session")
def f2():
    return make_field(2)


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f5():
    return make_field(5)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, [1, 1, 1])


@pytest.fixture(scope="session")
def f9():
    return make_field(3, [1, 0, 1])


@pytest.fixture(scope="session")
def f27():
    return make_field(3, [-1, -1, 0, 1])


@pytest.fixture
def built_groups(monkeypatch):
    """Every GroupTable construction during the test, which starts from empty
    group caches; the shared groups of other tests come back afterwards."""
    from functools import lru_cache

    from grasym import groups

    for name in ("cyclic_group", "_cyclic_product_group", "dihedral_group",
                 "symmetric_group_3", "_table_group"):
        fresh = lru_cache(maxsize=None, typed=True)(getattr(groups, name).__wrapped__)
        monkeypatch.setattr(groups, name, fresh)
    built = []
    init = groups.GroupTable.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.GroupTable, "__init__", counting)
    return built


def candidate_spec(ext, group, sigma_powers, alpha_unit) -> dict:
    """The frobenius_crossed_product spec of a hunt candidate, written from
    its builder arguments as specfile.algebra_from_dict reads it."""
    from grasym.specfile import group_to_dict

    return {"group": group_to_dict(group),
            "constructor": {"name": "frobenius_crossed_product", "char": ext.char,
                            "ext_modulus": None if ext.degree == 1 else list(ext.modulus),
                            "sigma_powers": list(sigma_powers),
                            "alpha_unit": list(alpha_unit)}}


def trivial_sigma(d, group) -> dict:
    """The crossed-product action of a group acting trivially on d."""
    from grasym import Matrix

    ident = Matrix.identity(d.field, d.dim)
    return {g: ident for g in range(group.order)}


def constant_alpha(d, group, value=None) -> dict:
    """The constant crossed-product cocycle at value (an Element or
    coordinates of d), 1 by default."""
    from grasym import Element

    if value is None:
        v = d.one().coords
    elif isinstance(value, Element):
        v = tuple(value.coords)
    else:
        v = tuple(d.field.scalar(c) for c in value)
    return {(g, h): v for g in range(group.order) for h in range(group.order)}


def scalar_table(a) -> dict:
    """a.table in the form GradedAlgebra takes: {(i, j): ((k, c_ij^k), ..)}
    over the nonzero products e_i e_j, with each constant a Scalar."""
    wrap = a.field.ops.wrap
    return {(i, j): tuple(zip([k for k, _ in terms], wrap([c for _, c in terms])))
            for i, row in enumerate(a.table) for j, terms in enumerate(row) if terms}


def scalar_inverse(x):
    """The inverse of the Element x on the Scalar path that Element.inverse
    replaced, the solve of L_x y = 1 by Matrix.solve: an Element, or None."""
    from grasym import Element

    a = x.owner
    y = a.left_mult_matrix(x).solve(a.one().coords)
    return None if y is None else Element(a, y)


def stored_form_errors(a) -> list:
    """Every entry of a that breaks the stored form of GradedAlgebra (see its
    docstring), one message each: a table that is not dim x dim, a product
    that is not a tuple, a k out of range or not increasing, a zero value,
    and a unit of the wrong length."""
    d, is_zero = a.dim, a.field.ops.is_zero
    errors = []
    if len(a.table) != d or any(len(row) != d for row in a.table):
        errors.append(f"table is {len(a.table)} rows of {[len(row) for row in a.table]}, "
                      f"not {d}x{d}")
    for i, row in enumerate(a.table):
        for j, terms in enumerate(row):
            if type(terms) is not tuple:
                errors.append(f"({i},{j}): terms are a {type(terms).__name__}, not a tuple")
            previous = -1
            for k, c in terms:
                if not 0 <= k < d:
                    errors.append(f"({i},{j},{k}): k out of range 0..{d - 1}")
                elif k <= previous:
                    errors.append(f"({i},{j},{k}): k not increasing after {previous}")
                if is_zero(c):
                    errors.append(f"({i},{j},{k}): zero value")
                previous = k
    if len(a.unit) != d:
        errors.append(f"unit has length {len(a.unit)}, not {d}")
    return errors


def is_canonical_rational(v) -> bool:
    """Whether v is a raw rational in canonical form: an int (not a bool)
    when integral, else a Fraction, whose denominator is then above 1."""
    from fractions import Fraction

    return type(v) is int or (type(v) is Fraction and v.denominator > 1)
