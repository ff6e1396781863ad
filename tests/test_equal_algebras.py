"""An algebra is its structure constants: equal algebras get equal answers.

Every verdict is a function of the algebra (field, group, degrees, table,
unit, labels), so an algebra and its round trip through a raw spec file,
which keeps exactly those, must get the same answer to every question, on
the library and on the command line.
"""

import inspect
import json
import re

import pytest

from grasym import (
    LinearFunctional,
    center,
    cyclic_algebra,
    cyclic_group,
    decide_form_existence,
    direct_product,
    field_as_algebra,
    good_matrix_algebra,
    group_algebra,
    is_graded_division,
    make_field,
    matrix_algebra,
    matrix_trace_functional,
    quaternion_algebra,
    rationals,
    subspace_algebra,
    sweedler_algebra,
    trivial_extension,
    ungrade,
)
from grasym import specfile
from grasym.algebras import frobenius_crossed_product
from grasym.cli import main
from grasym.errors import GrasymError
from grasym.replicate import dim4_f2_corpus
from grasym.specfile import algebra_from_dict, algebra_to_dict, canonical_json, certificate_to_dict
from grasym.symmetry import MODES

QUATERNION_PARAMETERS = ((-1, -1), (-1, -3), (-2, -5), (1, -1))


def _all_modes(corpus):
    return [(name, a, MODES) for name, a in corpus]


def _ungraded_quaternions():
    q = rationals()
    return _all_modes((f"ungrade(Q-quaternions{ab})", ungrade(quaternion_algebra(q, *ab)))
                      for ab in QUATERNION_PARAMETERS)


def _replication_algebras():
    """The algebras that the replication suite's criteria build, each with
    the modes they decide on it (the other modes take minutes on some)."""
    q, f2, f3, f5 = rationals(), make_field(2), make_field(3), make_field(5)
    gs = ("graded-symmetric",)
    out = [(f"ungrade(Q-quaternions(-1,{b}))", ungrade(quaternion_algebra(q, -1, b)), ())
           for b in (-1, -3)]
    out += [("M2(F5)", matrix_algebra(f5, 2), ()),
            ("M3(F7)", matrix_algebra(make_field(7), 3), ()),
            ("Q-quaternions", quaternion_algebra(q, -1, -1), gs)]
    out += [(f"F{p}[C{p}]", group_algebra(make_field(p), cyclic_group(p)), gs) for p in (2, 3, 5)]
    out += [(f"cyc{p}", cyclic_algebra(p), gs) for p in (2, 3, 5)]
    for f in (f2, q):
        for n, sigmas, group in ((2, (0, 1), cyclic_group(2)), (3, (0, 0, 1), cyclic_group(2)),
                                 (3, (0, 1, 2), cyclic_group(3))):
            out.append((f"M{n}({f}){sigmas}",
                        good_matrix_algebra(n, sigmas, field_as_algebra(f, f, group)), gs))
    delta = field_as_algebra(q, q, cyclic_group(2))
    m2, m3 = good_matrix_algebra(2, (0, 1), delta), good_matrix_algebra(3, (0, 0, 1), delta)
    out += [("M2xM2", direct_product(m2, m2), gs), ("M2xM3", direct_product(m2, m3), gs)]
    for f in (f3, f5, q):
        t = trivial_extension(sweedler_algebra(f))
        out.append((f"Z(TE(Sweedler-{f}))", subspace_algebra(t, center(t)), ("frobenius",)))
    t = trivial_extension(quaternion_algebra(q, -1, -1))
    out.append(("Z(TE(Q-quaternions))", subspace_algebra(t, center(t)), ("symmetric",)))
    out += [(f"F_{p ** 2}^Frob[C2]", frobenius_crossed_product(
        make_field(p, modulus), cyclic_group(2), [1]), gs)
        for p, modulus in ((3, [1, 0, 1]), (5, [2, 0, 1]))]
    return out


def _dim4_f2_corpus():
    return _all_modes(dim4_f2_corpus())


def _decision_oracle_corpus():
    from test_decision_oracle import CORPUS
    return _all_modes(CORPUS)


def _outcome(question, a) -> str:
    """The answer to question about a as canonical JSON, or the class of the
    error it raises."""
    try:
        return canonical_json(question(a))
    except GrasymError as exc:
        return type(exc).__name__


def _division(a):
    v = is_graded_division(a)
    return [v.status, v.certificate,
            None if v.witness is None else [c.to_json() for c in v.witness.coords]]


def _decision(mode):
    return lambda a: certificate_to_dict(a, decide_form_existence(a, mode))


def _matrix_trace(a):
    """The matrix trace of the functional 1 on the one-dimensional algebra of
    a's field and group: a result exactly when a is M_n of its field."""
    f = a.field
    lam = LinearFunctional(field_as_algebra(f, f, a.group), [f.one()])
    return [c.to_json() for c in matrix_trace_functional(a, lam).coords]


@pytest.mark.parametrize("corpus", [_dim4_f2_corpus, _decision_oracle_corpus,
                                    _replication_algebras, _ungraded_quaternions],
                         ids=["dim4-f2", "decision-oracle", "replication-suite",
                              "ungraded-Q-quaternions"])
def test_an_algebra_and_its_raw_spec_get_the_same_answers(corpus):
    for name, a, modes in corpus():
        b = algebra_from_dict(algebra_to_dict(a))
        assert b == a and b is not a, name
        questions = [("division", _division), ("matrix-trace", _matrix_trace)]
        questions += [(mode, _decision(mode)) for mode in modes]
        for question, ask in questions:
            assert _outcome(ask, b) == _outcome(ask, a), (name, question)


def test_ungraded_quaternions_are_read_off_the_table():
    answers = {}
    for ab, (_, a, _) in zip(QUATERNION_PARAMETERS, _ungraded_quaternions()):
        v = is_graded_division(algebra_from_dict(algebra_to_dict(a)))
        answers[ab] = (v.status, v.certificate["identity_component"])
    definite = {ab: ("yes", {"kind": "positive-definite-norm-form",
                             "a": str(ab[0]), "b": str(ab[1])})
                for ab in QUATERNION_PARAMETERS[:3]}
    assert answers == {**definite, (1, -1): ("unknown", {
        "kind": "rationals-uncertified", "reason": "norm form not definite by sign check"})}


# -- the command line ----------------------------------------------------------------------

def _quaternions(a, b):
    return {"field": {"char": 0}, "constructor": {"name": "quaternion_algebra", "a": a, "b": b}}


CYC2 = {"constructor": {"name": "cyclic_algebra", "p": 2}}
F3_C3 = {"field": {"char": 3}, "group": {"kind": "cyclic", "n": 3},
         "constructor": {"name": "group_algebra"}}

# one spec per constructor name, and the ungraded quaternions over Q
SPECS = {
    "group_algebra": F3_C3,
    "cyclic_algebra": {"constructor": {"name": "cyclic_algebra", "p": 3}},
    "quaternion_algebra": _quaternions(-1, -1),
    "sweedler_algebra": {"field": {"char": 0}, "constructor": {"name": "sweedler_algebra"}},
    "matrix_algebra": {"field": {"char": 0}, "constructor": {"name": "matrix_algebra", "n": 2}},
    "good_matrix_algebra": {"field": {"char": 2}, "group": {"kind": "cyclic", "n": 2},
                            "constructor": {"name": "good_matrix_algebra", "n": 2,
                                            "sigmas": [0, 1]}},
    "trivial_extension": {"constructor": {"name": "trivial_extension",
                                          "base": _quaternions(-1, -1)}},
    "scalar_extension": {"constructor": {"name": "scalar_extension", "base": CYC2, "m": 2}},
    "direct_product": {"constructor": {"name": "direct_product",
                                       "factors": [_quaternions(-1, -1), _quaternions(-1, -3)]}},
    "tensor_product": {"constructor": {"name": "tensor_product", "factors": [F3_C3, F3_C3]}},
    "frobenius_crossed_product": {
        "group": {"kind": "cyclic", "n": 2},
        "constructor": {"name": "frobenius_crossed_product", "char": 2,
                        "ext_modulus": [1, 1, 1], "sigma_powers": [0], "alpha_unit": [0, 1]}},
}
for _ab in QUATERNION_PARAMETERS:
    SPECS[f"ungrade{_ab}"] = {"constructor": {"name": "ungrade", "base": _quaternions(*_ab)}}


def test_every_constructor_name_has_a_spec():
    names = re.findall(r'name == "(\w+)"', inspect.getsource(specfile._build_constructor))
    assert {spec["constructor"]["name"] for spec in SPECS.values()} == set(names)


def _emit_argv(spec: dict, path) -> list:
    """`grasym emit` of spec's constructor block to path."""
    params = {k: v for k, v in spec["constructor"].items() if k != "name"}
    argv = ["emit", "--constructor", spec["constructor"]["name"], "-o", str(path)]
    if params:
        argv += ["--params", json.dumps(params)]
    for block in ("field", "group"):
        if block in spec:
            argv += [f"--{block}", json.dumps(spec[block])]
    return argv


def _invariants(path, capsys):
    code = main(["invariants", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_invariants_of_a_constructor_spec_and_of_its_emitted_spec_agree(name, tmp_path, capsys):
    constructor, raw = tmp_path / "constructor.json", tmp_path / "raw.json"
    constructor.write_text(json.dumps(SPECS[name]))
    assert main(_emit_argv(SPECS[name], raw)) == 0
    capsys.readouterr()
    assert "constructor" not in json.loads(raw.read_text())
    assert _invariants(raw, capsys) == _invariants(constructor, capsys)


def test_emitted_ungraded_quaternions_are_division(tmp_path, capsys):
    raw = tmp_path / "raw.json"
    assert main(_emit_argv(SPECS["ungrade(-1, -1)"], raw)) == 0
    capsys.readouterr()
    code, out = _invariants(raw, capsys)
    division = json.loads(out)["division"]
    assert (code, division["status"]) == (0, "yes")
    assert division["certificate"]["identity_component"] == {
        "a": "-1", "b": "-1", "kind": "positive-definite-norm-form"}
