"""Every malformed spec, certificate or checkpoint exits 3, never with a traceback."""

import copy
import json

import pytest

from grasym import (
    cyclic_group,
    decide_form_existence,
    field_as_algebra,
    group_algebra,
    make_field,
    rationals,
)
from grasym.cli import main
from grasym.replicate import default_hunt_params, hunt_counterexample
from grasym.specfile import algebra_to_dict, certificate_to_dict

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

HUNT_ARGS = ["hunt", "--char", "2", "--max-group", "2", "--max-ext", "1"]


def _f2_c2():
    return group_algebra(make_field(2), cyclic_group(2))


def _spec() -> dict:
    return algebra_to_dict(_f2_c2())


def _certificate() -> dict:
    a = _f2_c2()
    return certificate_to_dict(a, decide_form_existence(a, "graded-symmetric"))


def _checkpoint(path) -> dict:
    hunt_counterexample(default_hunt_params(2, 2, 1), checkpoint_path=str(path))
    return json.loads(path.read_text())


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# A JSON integer literal beyond CPython's 4,300-digit int-string limit: json
# raises a plain ValueError for it, not JSONDecodeError.
HUGE = "7" * 5000


def _write_huge(path, doc):
    """Write doc with every "HUGE" string replaced by the HUGE literal."""
    path.write_text(json.dumps(doc).replace('"HUGE"', HUGE))
    return str(path)


def _spec_without(*keys):
    spec = _spec()
    block = spec
    for key in keys[:-1]:
        block = block[key]
    del block[keys[-1]]
    return spec


def _with_sc_row(row):
    spec = _spec()
    spec["algebra"]["sc"].append(row)
    return spec


def _f3_c2_spec_with_sc_row(row):
    spec = algebra_to_dict(group_algebra(make_field(3), cyclic_group(2)))
    spec["algebra"]["sc"].append(row)
    return spec


def _quaternion_spec(a):
    return {"field": {"char": 0},
            "constructor": {"name": "quaternion_algebra", "a": a, "b": -1}}


def _spec_with_constant(a, value):
    """The raw spec of a with its first structure constant replaced by value."""
    spec = algebra_to_dict(a)
    spec["algebra"]["sc"][0][3] = value
    return spec


def _rational_spec(unit):
    spec = algebra_to_dict(group_algebra(rationals(), cyclic_group(2)))
    spec["algebra"]["unit"] = unit
    return spec


def _spec_with_field(a, block):
    return {**algebra_to_dict(a), "field": block}


def _spec_with_labels(labels):
    spec = _spec()
    spec["algebra"]["labels"] = labels
    return spec


def _spec_with_group_labels(labels):
    return {**_spec(), "group": {"table": [[0, 1], [1, 0]], "labels": labels}}


def _scalar_extension_spec(m):
    return {"constructor": {"name": "scalar_extension", "base": _spec(), "m": m}}


def _f2_field_spec(**changes):
    """The raw spec of F_2 as a one-dimensional algebra, with block entries
    replaced; every integer entry must be a JSON integer."""
    spec = algebra_to_dict(field_as_algebra(make_field(2), make_field(2)))
    for key, value in changes.items():
        block, entry = key.split("__")
        spec[block][entry] = value
    return spec


# Each case writes its inputs under tmp_path and returns the argv for main.
MALFORMED = {
    "hunt-over-the-rationals": lambda tmp: [
        "hunt", "--char", "0", "--max-group", "2", "--max-ext", "1"],
    "hunt-over-no-groups": lambda tmp: [
        "hunt", "--char", "2", "--max-group", "1", "--max-ext", "1"],
    "hunt-over-no-extension-degrees": lambda tmp: [
        "hunt", "--char", "2", "--max-group", "2", "--max-ext", "0"],
    # fields above the division scan's bound, whose candidates the hunt would
    # count as tested and not division; the second ran until killed
    "hunt-over-a-prime-field-above-the-scan-bound": lambda tmp: [
        "hunt", "--char", "1000003", "--max-group", "2", "--max-ext", "1"],
    "hunt-over-an-extension-above-the-scan-bound": lambda tmp: [
        "hunt", "--char", "2", "--max-group", "2", "--max-ext", "40"],
    "float-dim": lambda tmp: [
        "check", _write(tmp / "s.json", _f2_field_spec(algebra__dim=1.9))],
    "float-degree": lambda tmp: [
        "check", _write(tmp / "s.json", _f2_field_spec(algebra__degrees=[0.7]))],
    "bool-unit-scalar": lambda tmp: [
        "check", _write(tmp / "s.json", _f2_field_spec(algebra__unit=[True]))],
    "float-sc-index": lambda tmp: [
        "check", _write(tmp / "s.json", _f2_field_spec(algebra__sc=[[0.2, 0, 0, 1]]))],
    "float-coefficient-in-scalar": lambda tmp: [
        "check", _write(tmp / "s.json", _f2_field_spec(algebra__unit=[[1.5]]))],
    "float-char": lambda tmp: [
        "check", _write(tmp / "s.json", _f2_field_spec(field__char=2.0))],
    "field-degree-beyond-a-prime-field": lambda tmp: [
        "check", _write(tmp / "s.json", _f2_field_spec(field__degree=2))],
    "field-degree-with-no-modulus": lambda tmp: [
        "invariants", _write(tmp / "s.json", _spec_with_field(
            group_algebra(make_field(3), cyclic_group(2)), {"char": 3, "degree": 2}))],
    "field-degree-not-the-modulus-degree": lambda tmp: [
        "check", _write(tmp / "s.json", _spec_with_field(
            field_as_algebra(make_field(2, [1, 1, 1]), make_field(2, [1, 1, 1])),
            {"char": 2, "degree": 3, "modulus": [1, 1, 1]}))],
    "float-field-degree": lambda tmp: [
        "check", _write(tmp / "s.json", _f2_field_spec(field__degree=1.0))],
    "group-labels-that-cannot-key-the-group": lambda tmp: [
        "check", _write(tmp / "s.json", {**_spec(), "group": {
            "table": [[0, 1], [1, 0]], "labels": [["e"], ["g"]]}})],
    "group-labels-as-a-string": lambda tmp: [
        "check", _write(tmp / "s.json", _spec_with_group_labels("eg"))],
    "group-labels-as-an-object": lambda tmp: [
        "check", _write(tmp / "s.json", _spec_with_group_labels({"e": 1, "g": 2}))],
    "group-labels-as-null": lambda tmp: [
        "check", _write(tmp / "s.json", _spec_with_group_labels(None))],
    "group-labels-beyond-the-order": lambda tmp: [
        "check", _write(tmp / "s.json", _spec_with_group_labels(["e", "g", "h"]))],
    "scalar-extension-of-degree-zero": lambda tmp: [
        "check", _write(tmp / "s.json", _scalar_extension_spec(0))],
    "scalar-extension-of-negative-degree": lambda tmp: [
        "check", _write(tmp / "s.json", _scalar_extension_spec(-1))],
    "labels-as-a-string": lambda tmp: [
        "check", _write(tmp / "s.json", _spec_with_labels("ab"))],
    "labels-as-an-object": lambda tmp: [
        "check", _write(tmp / "s.json", _spec_with_labels({"x": 1, "y": 2}))],
    "labels-as-null": lambda tmp: [
        "check", _write(tmp / "s.json", _spec_with_labels(None))],
    "float-cyclic-order": lambda tmp: [
        "check", _write(tmp / "s.json", {**_spec(), "group": {"kind": "cyclic", "n": 2.5}})],
    "float-constructor-size": lambda tmp: [
        "emit", "--constructor", "matrix_algebra", "--field", '{"char":2}',
        "--params", '{"n": 2.0}'],
    "emit-without-params": lambda tmp: ["emit", "--constructor", "cyclic_algebra"],
    "emit-params-not-an-object": lambda tmp: [
        "emit", "--constructor", "cyclic_algebra", "--params", "[1]"],
    "hunt-report-in-a-missing-directory": lambda tmp: HUNT_ARGS + [
        "--report", str(tmp / "missing" / "r.json")],
    "frobenius-block-without-sigma-powers": lambda tmp: [
        "check", _write(tmp / "s.json", {
            "group": {"kind": "cyclic", "n": 2},
            "constructor": {"name": "frobenius_crossed_product", "char": 2,
                            "ext_modulus": [1, 1, 1]}})],
    "cyclic-group-without-n": lambda tmp: [
        "check", _write(tmp / "s.json", _spec_without("group", "n"))],
    "spec-without-field": lambda tmp: [
        "check", _write(tmp / "s.json", _spec_without("field"))],
    "sc-row-beyond-dim": lambda tmp: [
        "check", _write(tmp / "s.json", _with_sc_row([0, 1, 2, 1]))],
    "rational-one-over-zero": lambda tmp: [
        "check", _write(tmp / "s.json", _rational_spec(["1/0", "0"]))],
    "sc-row-repeated": lambda tmp: [
        "check", _write(tmp / "s.json", _f3_c2_spec_with_sc_row([1, 1, 0, 1]))],
    # raw-value shapes of other field kinds in a raw block
    "prime-field-constant-as-a-coefficient-pair": lambda tmp: [
        "check", _write(tmp / "s.json", _spec_with_constant(
            group_algebra(make_field(3), cyclic_group(2)), [1, 0]))],
    "rational-unit-as-a-numerator-denominator-pair": lambda tmp: [
        "check", _write(tmp / "s.json", _rational_spec([[1, 2], "0"]))],
    "extension-constant-as-a-long-coefficient-tuple": lambda tmp: [
        "check", _write(tmp / "s.json", _spec_with_constant(
            field_as_algebra(make_field(2, [1, 1, 1]), make_field(2, [1, 1, 1])), [1, 0, 0]))],
    "matrix-algebra-huge-n": lambda tmp: [
        "emit", "--constructor", "matrix_algebra", "--field", '{"char":2}',
        "--params", '{"n": 4611686018427387904}'],
    "truncated-witness": lambda tmp: [
        "verify", _write(tmp / "s.json", _spec()),
        _write(tmp / "c.json", {**_certificate(), "witness": _certificate()["witness"][:1]})],
    "certificate-without-witness": lambda tmp: [
        "verify", _write(tmp / "s.json", _spec()),
        _write(tmp / "c.json", {k: v for k, v in _certificate().items() if k != "witness"})],
    "certificate-without-status": lambda tmp: [
        "verify", _write(tmp / "s.json", _spec()),
        _write(tmp / "c.json", {k: v for k, v in _certificate().items() if k != "status"})],
    "certificate-with-status-maybe": lambda tmp: [
        "verify", _write(tmp / "s.json", _spec()),
        _write(tmp / "c.json", {**_certificate(), "status": "maybe"})],
    "certificate-with-status-null": lambda tmp: [
        "verify", _write(tmp / "s.json", _spec()),
        _write(tmp / "c.json", {**_certificate(), "status": None})],
    "no-certificate-with-an-unknown-refutation": lambda tmp: [
        "verify", _write(tmp / "s.json", _spec()),
        _write(tmp / "c.json", {**_certificate(), "status": "no", "witness": None,
                                "refutation": "gram-det-nonzero"})],
    "resume-from-a-spec-file": lambda tmp: HUNT_ARGS + [
        "--resume", _write(tmp / "s.json", _spec())],
    "spec-with-huge-int": lambda tmp: [
        "check", _write_huge(tmp / "s.json", _quaternion_spec("HUGE"))],
    "certificate-with-huge-int": lambda tmp: [
        "verify", _write(tmp / "s.json", _spec()),
        _write_huge(tmp / "c.json", {**_certificate(), "gram_rank": "HUGE"})],
    "checkpoint-with-huge-int": lambda tmp: HUNT_ARGS + [
        "--resume", _write_huge(tmp / "k.json",
                                {**_checkpoint(tmp / "k0.json"), "next_index": "HUGE"})],
    "checkpoint-with-negative-next-index": lambda tmp: HUNT_ARGS + [
        "--resume", _write(tmp / "k.json", {**_checkpoint(tmp / "k0.json"), "next_index": -3})],
    "checkpoint-with-inflated-count": lambda tmp: HUNT_ARGS + [
        "--resume", _write(tmp / "k.json",
                           {**_checkpoint(tmp / "k0.json"), "candidates_enumerated": 99})],
    "checkpoint-with-division-beyond-tested": lambda tmp: HUNT_ARGS + [
        "--resume", _write(tmp / "k.json", {**_checkpoint(tmp / "k0.json"), "division_count": 2})],
    "checkpoint-with-a-forged-finding": lambda tmp: HUNT_ARGS + [
        "--resume", _write(tmp / "k.json", {
            **_checkpoint(tmp / "k0.json"), "non_symmetric_instances": [{"bogus": 1}]})],
    "checkpoint-past-the-stream": lambda tmp: HUNT_ARGS + [
        "--resume", _write(tmp / "k.json", {
            **_checkpoint(tmp / "k0.json"), "next_index": 5, "candidates_enumerated": 5,
            "incompatible_count": 4})],
    "emit-params-with-huge-int": lambda tmp: [
        "emit", "--constructor", "matrix_algebra", "--field", '{"char":2}',
        "--params", '{"n": %s}' % HUGE],
    "emit-field-with-huge-int": lambda tmp: [
        "emit", "--constructor", "matrix_algebra", "--field", '{"char": %s}' % HUGE,
        "--params", '{"n": 2}'],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_3(case, tmp_path, capsys):
    assert main(MALFORMED[case](tmp_path)) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("max_group", ["65", "100000000"])
def test_hunt_over_groups_beyond_the_order_cap_exits_3_before_listing_them(
        max_group, capsys, monkeypatch):
    # above groups.MAX_GROUP_ORDER the stream would reach a group it cannot
    # build; 10^8 used to list 10^8 cyclic kinds and every factorisation
    # first, and ran out of memory
    from grasym import replicate

    listed = []
    monkeypatch.setattr(replicate, "_cyclic_factorizations", listed.append)
    assert main(["hunt", "--char", "2", "--max-group", max_group, "--max-ext", "1"]) == 3
    err = capsys.readouterr().err
    assert err == f"error: InvalidTable: order {max_group} exceeds the cap 64\n"
    assert listed == []


@pytest.mark.parametrize("char,message", [
    ("0", "RationalsNotSupported: a hunt enumerates finite fields F_{p^m}"),
    ("1", "NonPrimeCharacteristic: 1 is not 0 or prime"),
    ("4", "NonPrimeCharacteristic: 4 is not 0 or prime"),
])
def test_hunt_over_no_prime_field_exits_3_before_sizing_the_degrees(char, message, capsys):
    # the characteristic is refused before the field sizes and the degree
    # tuple: characteristics 0 and 1 used to build range(1, 10^30 + 1) and
    # end in an OverflowError, and 4 was refused as SearchSpaceTooLarge
    argv = ["hunt", "--char", char, "--max-group", "2",
            "--max-ext", "1000000000000000000000000000000"]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def _spec_with_first_and_last_constants(a, first, last):
    """The raw spec of a with its first and last structure constants replaced."""
    spec = algebra_to_dict(a)
    spec["algebra"]["sc"][0][3] = first
    spec["algebra"]["sc"][-1][3] = last
    return spec


F9 = make_field(3, [1, 0, 1])


# A raw block decodes each distinct constant once.  A constant met again in a
# form that compares equal to one already decoded (1.0 == 1, True == 1,
# (1.0, 0.0) == (1, 0)) must still be refused, with the message it gets alone.
@pytest.mark.parametrize("a, first, last, message", [
    (group_algebra(F9, cyclic_group(2)), [1, 0], [1.0, 0.0],
     "bad F_3^2 scalar [1.0, 0.0]: not an integer or a list of integers"),
    (group_algebra(F9, cyclic_group(2)), [1, 1], [1, True],
     "bad F_3^2 scalar [1, True]: not an integer or a list of integers"),
    (group_algebra(make_field(3), cyclic_group(2)), 1, True,
     "bad F_3 scalar True: not an integer or a list of integers"),
    (group_algebra(rationals(), cyclic_group(2)), 1, 1.0,
     "bad Q scalar 1.0: not an integer or an 'n/d' string"),
    (group_algebra(F9, cyclic_group(2)), [1, 0], [[1]],
     "bad F_3^2 scalar [[1]]: not an integer or a list of integers"),
], ids=["float-list-after-int-list", "bool-in-a-list-after-int-list",
        "bool-after-int-over-F3", "float-after-int-over-Q", "nested-list-over-F9"])
def test_a_constant_equal_to_one_decoded_before_is_still_refused(
        a, first, last, message, tmp_path, capsys):
    spec = _write(tmp_path / "s.json", _spec_with_first_and_last_constants(a, first, last))
    assert main(["check", spec]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("a", ["1e1000000", "0.5", " 3/4", "3/4 ", "+3", "3/-4",
                               0.1, True, None, [1]])
def test_noncanonical_rational_exits_3(a, tmp_path, capsys):
    # a rational is a JSON int or an "n" / "n/d" string; "1e1000000" used to
    # decode to a 3.3-million-bit numerator, True to 1, 0.1 to a 55-bit fraction
    assert main(["check", _write(tmp_path / "s.json", _quaternion_spec(a))]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("a", ["-5/6", -1, "12", 10 ** 30])
def test_canonical_rational_is_decoded(a, tmp_path):
    assert main(["check", _write(tmp_path / "s.json", _quaternion_spec(a))]) == 0


def test_unmutated_inputs_are_accepted(tmp_path, capsys):
    # the property test below mutates these; unmutated they are all valid
    spec = _write(tmp_path / "s.json", _spec())
    assert main(["check", spec]) == 0
    assert main(["verify", spec, _write(tmp_path / "c.json", _certificate())]) == 0
    checkpoint = _write(tmp_path / "k.json", _checkpoint(tmp_path / "k0.json"))
    assert main(HUNT_ARGS + ["--resume", checkpoint]) == 0


# -- mutation property ------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


def _entries(node):
    """(container, key) for every value below node, node's own entries first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _entries(node[key])


@st.composite
def mutated(draw, doc):
    """doc after one to three mutations: drop a key, swap in a random JSON
    value, or truncate a list."""
    holder = [copy.deepcopy(doc)]
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_entries(holder))))
        value = container[key]
        op = draw(st.sampled_from(["drop", "swap", "truncate"]))
        if container is holder:
            op = "swap"
        if op == "drop":
            del container[key]
        elif op == "truncate" and isinstance(value, list) and value:
            container[key] = value[:draw(st.integers(0, len(value) - 1))]
        else:
            container[key] = draw(JSON_VALUES)
    return holder[0]


PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@pytest.fixture(scope="module")
def checkpoint(workdir):
    return _checkpoint(workdir / "checkpoint.json")


@PROPERTY
@given(doc=mutated(_spec()))
def test_mutated_spec_exit_code(workdir, doc):
    assert main(["check", _write(workdir / "spec.json", doc)]) in (0, 1, 2, 3)


@PROPERTY
@given(doc=mutated(_certificate()))
def test_mutated_certificate_exit_code(workdir, doc):
    spec = _write(workdir / "valid.json", _spec())
    assert main(["verify", spec, _write(workdir / "cert.json", doc)]) in (0, 1, 2, 3)


@PROPERTY
@given(data=st.data())
def test_mutated_checkpoint_exit_code(workdir, checkpoint, data):
    doc = data.draw(mutated(checkpoint))
    path = _write(workdir / "resume.json", doc)
    assert main(HUNT_ARGS + ["--resume", path]) in (0, 1, 2, 3)
