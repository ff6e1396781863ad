import pytest

from grasym import (
    cyclic_group,
    cyclic_product_group,
    dihedral_group,
    group_from_table,
    klein_group,
    symmetric_group_3,
    trivial_group,
)
from grasym.errors import IndexOutOfRange, InvalidTable
from grasym.groups import GroupTable, group_from_kind


def test_cyclic_generator_order():
    c4 = cyclic_group(4)
    assert c4.element_order(1) == 4
    assert c4.element_order(0) == 1
    assert c4.element_order(2) == 2


def test_klein_all_involutions():
    k = klein_group()
    assert all(k.element_order(g) == 2 for g in range(1, 4))
    assert all(k.inverse[g] == g for g in range(4))


def test_cyclic_p_used_for_gradings():
    c5 = cyclic_group(5)
    assert c5.order == 5
    assert all(c5.element_order(g) == 5 for g in range(1, 5))


def test_subgroup_generated():
    c4 = cyclic_group(4)
    assert c4.subgroup_generated([2]) == (0, 2)
    assert c4.subgroup_generated([]) == (0,)
    k = klein_group()
    assert k.subgroup_generated([1, 2]) == (0, 1, 2, 3)


def test_subgroup_closure_property():
    d4 = dihedral_group(4)
    for gens in ([1], [4], [1, 4], [2, 5]):
        sub = d4.subgroup_generated(gens)
        assert 0 in sub
        members = set(sub)
        for a in sub:
            assert d4.inverse[a] in members
            for b in sub:
                assert d4.table[a][b] in members


def test_lagrange_for_all_constructed_groups():
    for g in (cyclic_group(6), klein_group(), dihedral_group(3),
              symmetric_group_3(), cyclic_product_group([2, 4])):
        for x in range(g.order):
            assert g.order % g.element_order(x) == 0


def test_sym3_nonabelian():
    s3 = symmetric_group_3()
    assert s3.order == 6
    assert not s3.is_abelian()
    assert klein_group().is_abelian()


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        cyclic_group(3).element_order(3)
    with pytest.raises(IndexOutOfRange):
        cyclic_group(3).subgroup_generated([5])


def test_invalid_table_reports_associativity():
    # a Latin square with identity that is not associative
    table = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]]
    with pytest.raises(InvalidTable, match="associativity"):
        group_from_table(table)


def test_invalid_table_reports_bad_row():
    with pytest.raises(InvalidTable, match="permutation"):
        group_from_table([[0, 0], [1, 1]])


def test_identity_must_be_index_zero():
    with pytest.raises(InvalidTable, match="identity"):
        group_from_table([[1, 0], [0, 1]])


def test_order_cap():
    with pytest.raises(InvalidTable):
        group_from_table([[0] * 65] * 65)


@pytest.mark.parametrize("build", [lambda: cyclic_group(10 ** 9),
                                   lambda: cyclic_product_group([10 ** 5, 10 ** 5]),
                                   lambda: dihedral_group(10 ** 9)])
def test_order_cap_checked_before_the_table_is_built(build):
    with pytest.raises(InvalidTable, match="exceeds the cap"):
        build()


def test_trivial_group():
    t = trivial_group()
    assert t.order == 1 and t.exponent() == 1


def test_power():
    c6 = cyclic_group(6)
    assert c6.power(1, 4) == 4
    assert c6.power(1, -1) == 5
    assert c6.power(5, 0) == 0


# -- one shared instance per group ----------------------------------------------

def test_each_named_group_is_one_shared_instance():
    assert cyclic_group(4) is group_from_kind(("cyclic", 4))
    assert klein_group() is cyclic_product_group([2, 2]) is cyclic_product_group((2, 2))
    assert klein_group() is group_from_kind(("product", (2, 2)))
    assert trivial_group() is cyclic_group(1)
    assert dihedral_group(3) is group_from_kind(("dihedral", 3))
    assert symmetric_group_3() is group_from_kind(("sym3",))


def test_a_named_group_is_not_its_table():
    # S_3 and D_3 share a table, and C_4 is not its loaded table: their spec
    # group blocks differ, so the groups differ
    assert symmetric_group_3().table == dihedral_group(3).table
    assert symmetric_group_3() != dihedral_group(3)
    c4 = cyclic_group(4)
    assert group_from_table(c4.table, c4.labels) != c4


def test_a_table_is_one_shared_instance():
    t = cyclic_group(4).table
    assert group_from_table(t) is group_from_table([list(r) for r in t])
    labels = ("a", "b", "c", "d")
    assert group_from_table(t, labels) is group_from_table(t, list(labels))
    assert group_from_table(t, labels) is not group_from_table(t)
    # labels are keys of their own type: 1.0 is not the label 1
    assert group_from_table(t, [0, 1, 2, 3]).labels == (0, 1, 2, 3)
    assert type(group_from_table(t, [0.0, 1, 2, 3]).labels[0]) is float


@pytest.mark.parametrize("labels", [[], ["a", "b", "c"], ["a", "b", "c", "d", "e"]])
def test_a_label_list_must_name_every_element(labels):
    t = cyclic_group(4).table
    with pytest.raises(ValueError, match="label list has wrong length"):
        group_from_table(t, labels)
    with pytest.raises(ValueError, match="label list has wrong length"):
        GroupTable(t, labels=labels)


def test_each_group_is_built_once(built_groups):
    from grasym import groups

    for _ in range(3):
        groups.cyclic_group(5)
        groups.klein_group()
        groups.symmetric_group_3()
        groups.group_from_table([[0, 1], [1, 0]], ["e", "g"])
    # D_3 is built once, for the table of S_3
    assert [g.kind for g in built_groups] == [("cyclic", 5), ("product", (2, 2)),
                                              ("dihedral", 3), ("sym3",), None]


def test_an_invalid_table_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(InvalidTable, match="permutation"):
            group_from_table([[0, 0], [1, 1]])
        with pytest.raises(InvalidTable, match="associativity"):
            group_from_table([[0, 1, 2, 3, 4],
                              [1, 0, 3, 4, 2],
                              [2, 4, 0, 1, 3],
                              [3, 2, 4, 0, 1],
                              [4, 3, 1, 2, 0]])


@pytest.mark.parametrize("build", [lambda: cyclic_group(2.0),
                                   lambda: dihedral_group(2.0),
                                   lambda: cyclic_product_group([2.0, 2]),
                                   lambda: group_from_table([[0, 1], [1, 0.0]])])
def test_a_float_never_finds_the_shared_int_group(build):
    # the int groups are built (and shared) first
    cyclic_group(2)
    dihedral_group(2)
    cyclic_product_group([2, 2])
    group_from_table([[0, 1], [1, 0]])
    with pytest.raises(TypeError):
        build()
