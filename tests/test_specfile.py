import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from grasym import (
    center,
    crossed_product,
    cyclic_algebra,
    cyclic_group,
    dihedral_group,
    direct_product,
    field_as_algebra,
    good_matrix_algebra,
    group_algebra,
    group_from_table,
    klein_group,
    make_field,
    matrix_algebra,
    quaternion_algebra,
    rationals,
    scalar_extension,
    subspace_algebra,
    sweedler_algebra,
    symmetric_group_3,
    tensor_product,
    trivial_extension,
    ungrade,
    validate_algebra,
)
from grasym.algebras import frobenius_crossed_product, frobenius_crossed_spec
from grasym.invariants import _identity_component_algebra
from grasym.replicate import dim4_f2_corpus, random_graded_basis_change
from grasym.errors import GroupMismatch, ParseError, ValidationError
from grasym.specfile import (
    algebra_from_dict,
    algebra_hash,
    algebra_text,
    algebra_to_dict,
    canonical_json,
    field_from_dict,
    parse_algebra_file,
    write_algebra_file,
)

from conftest import stored_form_errors

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def all_constructor_outputs():
    q = rationals()
    f2, f3 = make_field(2), make_field(3)
    f4 = make_field(2, [1, 1, 1])
    c2 = cyclic_group(2)
    te = trivial_extension(sweedler_algebra(f3))
    graded_m2 = good_matrix_algebra(2, [0, 1], field_as_algebra(f3, f3, c2))
    return [
        group_algebra(f2, c2),
        group_algebra(q, klein_group()),
        quaternion_algebra(q, -1, -1),
        sweedler_algebra(f3),
        cyclic_algebra(3),
        matrix_algebra(f3, 2),
        good_matrix_algebra(2, [0, 1], field_as_algebra(f2, f2, c2)),
        trivial_extension(sweedler_algebra(q)),
        tensor_product(group_algebra(f3, c2), group_algebra(f3, c2)),
        ungrade(cyclic_algebra(2)),
        field_as_algebra(f4, f2),
        direct_product(group_algebra(f3, c2), graded_m2),
        scalar_extension(group_algebra(f2, cyclic_group(3)), 2),
        subspace_algebra(te, center(te)),
        random_graded_basis_change(graded_m2, random.Random(7)),
        crossed_product(frobenius_crossed_spec(f4, c2, [0], [0, 1])),
        _identity_component_algebra(cyclic_algebra(3)),
    ]


@pytest.mark.parametrize("idx", range(17))
def test_round_trip_bit_exact(idx):
    # constructors return valid algebras without a scan; the scan is the oracle
    a = all_constructor_outputs()[idx]
    assert stored_form_errors(a) == []
    assert validate_algebra(a).ok
    d = algebra_to_dict(a)
    b = algebra_from_dict(json.loads(canonical_json(d)))
    assert b == a
    assert canonical_json(algebra_to_dict(b)) == canonical_json(d)


def test_hash_is_stable_and_distinguishes():
    f2 = make_field(2)
    a = group_algebra(f2, cyclic_group(2))
    b = group_algebra(f2, cyclic_group(3))
    assert algebra_hash(a) == algebra_hash(a)
    assert algebra_hash(a) != algebra_hash(b)


def test_algebra_equality_agrees_with_the_hash():
    # fields and groups compare by identity, so two algebras are equal exactly
    # when their canonical spec files are byte-identical; S_3 and D_3 (one
    # table, two kinds) and C_4 and its loaded table used to compare equal
    q, c4 = rationals(), cyclic_group(4)
    groups = [symmetric_group_3(), dihedral_group(3), c4, group_from_table(c4.table, c4.labels)]
    corpus = (all_constructor_outputs() + [a for _, a in dim4_f2_corpus()]
              + [group_algebra(q, g) for g in groups])
    hashed = [(a, algebra_hash(a)) for a in corpus]
    for (a, ha), (b, hb) in itertools.product(hashed, repeat=2):
        assert (a == b) == (ha == hb), (a, b)


@pytest.mark.parametrize("combine", [direct_product, tensor_product])
def test_products_need_the_same_group_not_the_same_table(combine):
    q = rationals()
    with pytest.raises(GroupMismatch):
        combine(group_algebra(q, symmetric_group_3()), group_algebra(q, dihedral_group(3)))


@pytest.mark.parametrize("field", [rationals(), make_field(2), make_field(2, [1, 1, 1]),
                                   make_field(3, [1, 0, 1])], ids=repr)
def test_field_block_degree_must_be_the_field_degree(field):
    # the blocks Field.to_dict writes load, with or without a degree entry
    block = field.to_dict()
    assert field_from_dict(block) is field
    assert field_from_dict({**block, "degree": field.degree}) is field
    for bad in (field.degree + 1, float(field.degree), True, str(field.degree)):
        with pytest.raises(ParseError):
            field_from_dict({**block, "degree": bad})


def test_file_round_trip(tmp_path):
    a = cyclic_algebra(3)
    path = tmp_path / "alg.json"
    write_algebra_file(a, str(path))
    b = parse_algebra_file(str(path))
    assert b == a


def _labelled(a, labels):
    """a with these labels, loaded from its spec dict as a file would be."""
    spec = algebra_to_dict(a)
    spec["algebra"]["labels"] = labels
    return algebra_from_dict(json.loads(json.dumps(spec)))


def _text_oracle_corpus():
    """Algebras of every field kind, dense and sparse, with and without
    labels, before and after basis changes."""
    from grasym.errors import IncompatibleCocycleData
    from grasym.replicate import HuntParams, hunt_candidates, hunt_char2_params

    q, f2 = rationals(), make_field(2)
    corpus = [a for _, a in dim4_f2_corpus()]
    cells = {cell.name: cell for draw in workloads.POOL for cell in draw}
    hunts = [hunt_char2_params(), HuntParams(3, (1, 3), (("cyclic", 3),))]
    for params in hunts + [cell.params() for cell in cells.values()]:
        for _, args in hunt_candidates(params):
            try:
                corpus.append(frobenius_crossed_product(*args))
            except IncompatibleCocycleData:
                pass
    corpus += [asked.algebra for asked in workloads.question_setup(
        workloads.DECIDE + workloads.REFUTE, workloads.DEFAULT_SEED)]
    corpus += [cyclic_algebra(5), cyclic_algebra(7), scalar_extension(cyclic_algebra(3), 2)]
    # negative and non-integral rationals, next to integral ones
    quat = quaternion_algebra(q, q.scalar("-1/2"), q.scalar("-3/7"))
    corpus += [quat, trivial_extension(quat),
               tensor_product(quat, group_algebra(q, quat.group))]
    # labels that need escaping, and labels that are not strings
    corpus += [_labelled(group_algebra(f2, klein_group()),
                         ['say "hi"', "back\\slash", "\u00e9\u2202\U0001f600", "\u0000\n"]),
               _labelled(quat, [1, None, 2.5, [0, {"b": [True, False], "a": "x"}]]),
               _labelled(scalar_extension(group_algebra(f2, cyclic_group(3)), 2),
                         [{"\u00e9": "\"\\", "a": {}}, -7, []])]
    return corpus


def test_algebra_text_is_the_canonical_json_of_the_spec_dict(tmp_path):
    # algebra_text writes the sc array itself; the spec dict through json is its oracle
    corpus = _text_oracle_corpus()
    assert len(corpus) == 20 + 245 + 46 + 3 + 3 + 3
    kinds = set()
    for a in corpus:
        assert algebra_text(a) == canonical_json(algebra_to_dict(a))
        kinds.add((a.field.char == 0, a.field.degree > 1, a.labels is not None))
    assert kinds >= {(c, e, l) for c, e in ((True, False), (False, False), (False, True))
                     for l in (False, True)}
    path = tmp_path / "a.json"
    for a in corpus[-3:] + [cyclic_algebra(5)]:
        write_algebra_file(a, str(path))
        assert path.read_bytes() == (algebra_text(a) + "\n").encode()


def test_constructor_block_cyclic():
    a = algebra_from_dict({"constructor": {"name": "cyclic_algebra", "p": 3}})
    assert a.dim == 9


def test_constructor_block_group_algebra():
    a = algebra_from_dict({
        "field": {"char": 2},
        "group": {"kind": "cyclic", "n": 2},
        "constructor": {"name": "group_algebra"},
    })
    assert a == group_algebra(make_field(2), cyclic_group(2))


def test_constructor_block_nested():
    a = algebra_from_dict({
        "constructor": {
            "name": "trivial_extension",
            "base": {"field": {"char": 3},
                     "constructor": {"name": "sweedler_algebra"}},
        },
    })
    assert a.dim == 8


def _group_algebra_block(char, n):
    return {"field": {"char": char}, "group": {"kind": "cyclic", "n": n},
            "constructor": {"name": "group_algebra"}}


def _constructor_block_cases():
    """Each documented constructor name: its spec and the library call it means."""
    q, f2, f3 = rationals(), make_field(2), make_field(3)
    c2 = cyclic_group(2)
    sweedler = {"field": {"char": 3}, "constructor": {"name": "sweedler_algebra"}}
    graded_m2 = {"field": {"char": 3}, "group": {"kind": "cyclic", "n": 2},
                 "constructor": {"name": "good_matrix_algebra", "n": 2, "sigmas": [0, 1]}}
    m2 = good_matrix_algebra(2, [0, 1], field_as_algebra(f3, f3, c2))
    raw_f3_c2 = algebra_to_dict(group_algebra(f3, c2))
    return {
        "group_algebra": (_group_algebra_block(3, 2), group_algebra(f3, c2)),
        "cyclic_algebra": ({"constructor": {"name": "cyclic_algebra", "p": 3}},
                           cyclic_algebra(3)),
        "quaternion_algebra": (
            {"field": {"char": 0},
             "constructor": {"name": "quaternion_algebra", "a": "-1", "b": "-3/2"}},
            quaternion_algebra(q, -1, q.scalar("-3/2"))),
        "sweedler_algebra": (sweedler, sweedler_algebra(f3)),
        "matrix_algebra": ({"field": {"char": 2},
                            "constructor": {"name": "matrix_algebra", "n": 2}},
                           matrix_algebra(f2, 2)),
        "good_matrix_algebra": (graded_m2, m2),
        "trivial_extension": ({"constructor": {"name": "trivial_extension", "base": sweedler}},
                              trivial_extension(sweedler_algebra(f3))),
        "ungrade": ({"constructor": {"name": "ungrade", "base": _group_algebra_block(2, 3)}},
                    ungrade(group_algebra(f2, cyclic_group(3)))),
        "scalar_extension": (
            {"constructor": {"name": "scalar_extension", "m": 2,
                             "base": _group_algebra_block(2, 3)}},
            scalar_extension(group_algebra(f2, cyclic_group(3)), 2)),
        "direct_product": (
            {"constructor": {"name": "direct_product",
                             "factors": [_group_algebra_block(3, 2), graded_m2, raw_f3_c2]}},
            direct_product(direct_product(group_algebra(f3, c2), m2), group_algebra(f3, c2))),
        "tensor_product": (
            {"constructor": {"name": "tensor_product",
                             "factors": [_group_algebra_block(3, 2), graded_m2, raw_f3_c2]}},
            tensor_product(tensor_product(group_algebra(f3, c2), m2), group_algebra(f3, c2))),
        "frobenius_crossed_product": (
            {"group": {"kind": "cyclic", "n": 2},
             "constructor": {"name": "frobenius_crossed_product", "char": 2,
                             "ext_modulus": [1, 1, 1], "sigma_powers": [0],
                             "alpha_unit": [0, 1]}},
            crossed_product(frobenius_crossed_spec(make_field(2, [1, 1, 1]), c2,
                                                   [0], [0, 1]))),
    }


@pytest.mark.parametrize("name", sorted(_constructor_block_cases()))
def test_constructor_block_builds_the_library_algebra(name):
    spec, expected = _constructor_block_cases()[name]
    assert spec["constructor"]["name"] == name
    a = algebra_from_dict(json.loads(canonical_json(spec)))
    assert a == expected
    assert algebra_hash(a) == algebra_hash(expected)


def test_raw_block_round_trip():
    f2 = make_field(2)
    a = group_algebra(f2, cyclic_group(2))
    d = algebra_to_dict(a)
    assert d["algebra"]["sc"] == [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]
    assert algebra_from_dict(d) == a


def test_raw_block_grading_violation_rejected():
    bad = {
        "field": {"char": 2},
        "group": {"kind": "cyclic", "n": 2},
        "algebra": {
            "dim": 2,
            "degrees": [0, 1],
            "unit": [1, 0],
            "sc": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 1]],
        },
    }
    with pytest.raises(ValidationError) as err:
        algebra_from_dict(bad)
    assert (1, 1, 1) in err.value.report.grading_errors


def test_parse_errors():
    with pytest.raises(ParseError):
        algebra_from_dict({"constructor": {"name": "no-such-thing"}})
    with pytest.raises(ParseError):
        algebra_from_dict({"field": {"char": 2}})
    with pytest.raises(ParseError):
        parse_algebra_file("/nonexistent/path.json")


def test_rational_scalars_serialize():
    q = rationals()
    a = quaternion_algebra(q, q.scalar("-1/2"), -3)
    d = algebra_to_dict(a)
    b = algebra_from_dict(d)
    assert b == a


def test_certificate_round_trip(tmp_path):
    from grasym import decide_form_existence, verify_certificate
    from grasym.specfile import (
        certificate_to_dict,
        functional_from_certificate,
        load_certificate_file,
        write_certificate_file,
    )
    a = cyclic_algebra(2)
    v = decide_form_existence(a, "graded-symmetric")
    path = tmp_path / "cert.json"
    write_certificate_file(certificate_to_dict(a, v), str(path))
    cert = load_certificate_file(str(path))
    assert cert["algebra_sha256"] == algebra_hash(a)
    lam = functional_from_certificate(a, cert)
    assert verify_certificate(a, lam, cert["mode"]).ok


def _frobenius_crossed(name):
    from grasym.replicate import _frobenius_actions, dim4_f2_corpus
    if name.startswith("cyclic_algebra"):
        return cyclic_algebra(int(name[-2]))
    if name.startswith("crossed-F4"):
        return dict(dim4_f2_corpus())[name]
    if name == "hunt-char3-degree3-skew":
        from grasym.replicate import HuntParams, hunt_candidates
        params = HuntParams(3, (3,), (("cyclic", 3),))
        return frobenius_crossed_product(*next(
            args for _, args in hunt_candidates(params)
            if args[2:] == ((1, 2), (1, 0, 0))))
    return frobenius_crossed_product(*dict(_frobenius_actions())[name])


# Digests of the Frobenius crossed products as built before all of them went
# through algebras.frobenius_crossed_spec, and then through
# algebras.frobenius_crossed_product; the builder must not move a byte.
FROBENIUS_CROSSED_HASHES = {
    "cyclic_algebra(2)": "8e61477204fc19da42266b01302188b95a14cdb3c638c58feea3b8abc21ee686",
    "cyclic_algebra(3)": "e840453d8f4fdeb4128eeb37c75ec5414e45c0b63d8ba8aa1c3bf3607bc18c1d",
    "cyclic_algebra(5)": "e4867cbf97c61337c51d781ee0b2be45b22df8d8f50164bab3aafe67fb7d1d08",
    "crossed-F4-frob": "8e61477204fc19da42266b01302188b95a14cdb3c638c58feea3b8abc21ee686",
    "crossed-F4-trivial": "e73908b5f473a26e7eaa855a2b8d73b6517befd8a2dd7b68d43ddca994a9f8a0",
    "crossed-F4-twisted": "e4c8de72b7f9ce4f51dc9c272dec8b85f7f5f114d453beeb5ba2d3c27f64cb0e",
    "F_9^Frob[C2]/F_3": "f16419805d3f21495c4908d15d8f4e05665ef459e3b9164f12182c9592174c74",
    "F_25^Frob[C2]/F_5": "4108bcf3fc9084c6005bd1d2fa3f922e5340c2cda328620cca48621032df1f81",
    "hunt-char3-degree3-skew":
        "4977e60e929ca1bd9da868329be10826a75e1df4f2c64909c82a8a8cab17626a",
}


@pytest.mark.parametrize("name", sorted(FROBENIUS_CROSSED_HASHES))
def test_frobenius_crossed_product_hash_pinned(name):
    assert algebra_hash(_frobenius_crossed(name)) == FROBENIUS_CROSSED_HASHES[name]


def test_the_spec_of_every_hunt_candidate_builds_what_the_hunt_builds():
    # the hunt calls the builder with its arguments; the spec written from
    # them decodes to the same algebra, or fails with the same error
    from grasym.errors import IncompatibleCocycleData
    from grasym.replicate import HuntParams, hunt_candidates, hunt_char2_params

    from conftest import candidate_spec

    cells = {cell.name: cell for draw in workloads.POOL for cell in draw}
    assert len(cells) == 4
    hunts = [hunt_char2_params(), HuntParams(3, (1, 3), (("cyclic", 3),))]
    built = rejected = 0
    for params in hunts + [cell.params() for cell in cells.values()]:
        for _, args in hunt_candidates(params):
            spec = json.loads(canonical_json(candidate_spec(*args)))
            try:
                want = frobenius_crossed_product(*args)
            except IncompatibleCocycleData as exc:
                with pytest.raises(IncompatibleCocycleData) as raised:
                    algebra_from_dict(spec)
                assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
                rejected += 1
                continue
            got = algebra_from_dict(spec)
            assert got == want
            assert canonical_json(algebra_to_dict(got)) == canonical_json(algebra_to_dict(want))
            built += 1
    assert (built, rejected) == (13 + 4 + 18 + 130 + 54 + 26, 44 + 232 + 42 + 110 + 42 + 52)
