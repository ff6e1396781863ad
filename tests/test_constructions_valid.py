"""Constructors return valid algebras without scanning them; validate_algebra,
which they no longer run, checks random compositions of them, and agrees
with its oracle, the full scan."""

import random

import pytest

from grasym import (
    canonical_extension_field,
    cyclic_group,
    direct_product,
    field_as_algebra,
    good_matrix_algebra,
    group_algebra,
    klein_group,
    make_field,
    rationals,
    scalar_extension,
    tensor_product,
    trivial_extension,
    trivial_group,
    ungrade,
    validate_algebra,
)
from grasym.algebras import _scan_algebra
from grasym.replicate import random_graded_basis_change

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

MAX_DIM = 16


@st.composite
def _base_algebra(draw, field, group):
    """A group algebra or a field algebra over field, graded by group."""
    kind = draw(st.sampled_from(["group", "field", "extension"]))
    if kind == "group":
        return group_algebra(field, group)
    if kind == "extension" and field.char and field.degree == 1:
        ext = canonical_extension_field(field.char, draw(st.integers(2, 3)))
        return field_as_algebra(ext, field, group)
    return field_as_algebra(field, field, group)


@st.composite
def _composed_algebra(draw):
    field = draw(st.sampled_from([make_field(2), make_field(3), rationals()]))
    group = draw(st.sampled_from([trivial_group(), cyclic_group(2), cyclic_group(3),
                                  klein_group()]))
    a = draw(_base_algebra(field, group))
    for _ in range(draw(st.integers(1, 3))):
        steps = ["ungrade", "direct_product", "tensor_product"]
        if 2 * a.dim <= MAX_DIM:
            steps.append("trivial_extension")
        if 4 * a.dim <= MAX_DIM:
            steps.append("good_matrix_algebra")
        if a.field.char:
            steps.append("basis_change")
            if 2 * a.field.degree <= 6:
                steps.append("scalar_extension")
        step = draw(st.sampled_from(steps))
        if step == "ungrade":
            a = ungrade(a)
        elif step == "trivial_extension":
            a = trivial_extension(a)
        elif step == "good_matrix_algebra":
            sigmas = draw(st.lists(st.integers(0, a.group.order - 1), min_size=2, max_size=2))
            a = good_matrix_algebra(2, sigmas, a)
        elif step == "basis_change":
            a = random_graded_basis_change(a, random.Random(draw(st.integers(0, 2 ** 16))))
        elif step == "scalar_extension":
            m = draw(st.sampled_from([m for m in (2, 3) if a.field.degree * m <= 6]))
            a = scalar_extension(a, m)
        else:
            b = draw(_base_algebra(a.field, a.group))
            dim = a.dim + b.dim if step == "direct_product" else a.dim * b.dim
            if dim <= MAX_DIM:
                a = (direct_product if step == "direct_product" else tensor_product)(a, b)
    return a


@settings(max_examples=80, deadline=None, derandomize=True)
@given(a=_composed_algebra())
def test_composed_constructions_are_valid(a):
    report = validate_algebra(a)
    assert report.ok
    assert report == _scan_algebra(a)
