import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grasym
from grasym import (
    center,
    cyclic_algebra,
    cyclic_group,
    group_algebra,
    make_field,
    subspace_algebra,
    sweedler_algebra,
    trivial_extension,
)
from grasym.cli import main
from grasym.specfile import (
    algebra_to_dict,
    canonical_json,
    parse_algebra_file,
    write_algebra_file,
)


@pytest.fixture
def cyc3_spec(tmp_path):
    path = tmp_path / "cyc3.json"
    path.write_text(json.dumps({"constructor": {"name": "cyclic_algebra", "p": 3}}))
    return str(path)


@pytest.fixture
def sweedler_center_spec(tmp_path):
    t = trivial_extension(sweedler_algebra(make_field(3)))
    e = subspace_algebra(t, center(t))
    path = tmp_path / "center.json"
    write_algebra_file(e, str(path))
    return str(path)


def test_check_yes_exit_zero(cyc3_spec, capsys):
    assert main(["check", cyc3_spec, "--mode", "graded-symmetric"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "yes" and out["gram_rank"] == 9


def test_check_no_exit_one(sweedler_center_spec, capsys):
    assert main(["check", sweedler_center_spec, "--mode", "frobenius"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["refutation"] == "gram-det-identically-zero"


def test_check_writes_certificate_and_verify(cyc3_spec, tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    assert main(["check", cyc3_spec, "--cert", cert]) == 0
    capsys.readouterr()
    assert main(["verify", cyc3_spec, cert]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verified"] is True


def test_verify_refutation_certificate(sweedler_center_spec, tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    main(["check", sweedler_center_spec, "--mode", "frobenius", "--cert", cert])
    capsys.readouterr()
    assert main(["verify", sweedler_center_spec, cert]) == 0


def test_verify_hash_mismatch(cyc3_spec, sweedler_center_spec, tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    main(["check", cyc3_spec, "--cert", cert])
    capsys.readouterr()
    assert main(["verify", sweedler_center_spec, cert]) == 1


def test_invariants_output(cyc3_spec, capsys):
    assert main(["invariants", cyc3_spec]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dim"] == 9
    assert out["center_dim"] == 1
    assert out["graded_commutator_dim"] == 2
    assert out["division"]["status"] == "yes"
    assert out["support"] == [0, 1, 2]


def test_invariants_unknown_exit_two(tmp_path, capsys):
    from grasym import quaternion_algebra, rationals, ungrade
    a = ungrade(quaternion_algebra(rationals(), 1, -1))
    path = tmp_path / "q.json"
    write_algebra_file(a, str(path))
    assert main(["invariants", str(path)]) == 2


def test_invariants_refutes_division_above_the_scan_bound(tmp_path, capsys):
    # TE(F_{2^10}) has 2^20 elements in A_e, too many to scan; its radical
    # gives the zero divisor, so the report is a decided No (it was exit 2)
    from grasym import canonical_extension_field, field_as_algebra
    a = trivial_extension(field_as_algebra(canonical_extension_field(2, 10), make_field(2)))
    path = tmp_path / "te.json"
    write_algebra_file(a, str(path))
    assert main(["invariants", str(path)]) == 0
    division = json.loads(capsys.readouterr().out)["division"]
    assert division["status"] == "no"
    assert division["certificate"] == {"identity_component": {"kind": "zero-divisor"}}
    assert division["witness"] == [0] * 10 + [1] + [0] * 9


def test_invariants_of_a_quadratic_field_with_a_huge_constant(tmp_path, capsys):
    # Q[s]/(s^2 - (10^30 + 1)): the rational roots of the minimal polynomial
    # are found without factoring 10^30 + 1
    import time

    n = 10 ** 30 + 1
    path = tmp_path / "quadratic.json"
    path.write_text(json.dumps({
        "field": {"char": 0}, "group": {"kind": "cyclic", "n": 1},
        "algebra": {"dim": 2, "degrees": [0, 0], "unit": ["1", "0"],
                    "sc": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
                           [1, 1, 0, str(n)]]}}))
    start = time.perf_counter()
    assert main(["invariants", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    division = json.loads(capsys.readouterr().out)["division"]
    assert division["status"] == "yes"
    assert division["certificate"]["identity_component"] == {
        "kind": "irreducible-minimal-polynomial", "element": ["0", "1"],
        "min_poly": [str(-n), "0", "1"]}


def test_replicate_single(capsys):
    assert main(["replicate", "--name", "matrix-commutator-dimension"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True


def test_replicate_unknown_name(capsys):
    assert main(["replicate", "--name", "nonsense"]) == 3


def test_replicate_all_and_name_exclude_each_other(capsys):
    # --all runs every criterion, so it cannot also run only one
    assert main(["replicate", "--all", "--name", "matrix-commutator-dimension"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_hunt_small(tmp_path, capsys):
    report_path = str(tmp_path / "hunt.json")
    code = main(["hunt", "--char", "2", "--max-group", "2", "--max-ext", "2",
                 "--report", report_path])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["non_symmetric_instances"] == []
    with open(report_path) as fh:
        assert json.load(fh) == data


def test_hunt_report_bytes_pinned(tmp_path, capsys):
    # sha256 of the report file as the hunt wrote it when each candidate was
    # still decoded from a spec dict
    report_path = tmp_path / "hunt.json"
    assert main(["hunt", "--char", "2", "--max-group", "4", "--max-ext", "2",
                 "--report", str(report_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == \
        "9ff3682023943a1588500aaab34e0232a8b7db2e5e8e5ed0c8ab072b7392358e"


def test_hunt_checkpoint_roundtrip(tmp_path, capsys):
    ck = str(tmp_path / "ck.json")
    assert main(["hunt", "--char", "2", "--max-group", "2", "--max-ext", "1",
                 "--checkpoint", ck]) == 0
    capsys.readouterr()
    assert main(["hunt", "--char", "2", "--max-group", "2", "--max-ext", "1",
                 "--resume", ck]) == 0


def test_emit_and_check(tmp_path, capsys):
    out_path = str(tmp_path / "m2.json")
    code = main(["emit", "--constructor", "good_matrix_algebra",
                 "--field", '{"char": 2}', "--group", '{"kind":"cyclic","n":2}',
                 "--params", '{"n": 2, "sigmas": [0, 1]}', "-o", out_path])
    assert code == 0
    capsys.readouterr()
    assert main(["check", out_path]) == 0


def test_emit_pretty_to_stdout(capsys):
    assert main(["emit", "--constructor", "cyclic_algebra", "--params", '{"p": 3}',
                 "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "\n  " in out
    assert json.loads(out) == algebra_to_dict(cyclic_algebra(3))


def test_check_hashes_the_algebra_once_and_writes_the_certificate_it_prints(
        cyc3_spec, tmp_path, capsys, monkeypatch):
    from grasym import decide_form_existence, specfile
    a = parse_algebra_file(cyc3_spec)
    want = canonical_json(specfile.certificate_to_dict(
        a, decide_form_existence(a, "graded-symmetric"))) + "\n"
    calls = []
    real = specfile.algebra_hash

    def counted(b):
        calls.append(b)
        return real(b)

    monkeypatch.setattr(specfile, "algebra_hash", counted)
    cert = tmp_path / "cert.json"
    assert main(["check", cyc3_spec, "--cert", str(cert)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == want
    assert cert.read_text() == want


def test_a_replaced_algebra_hash_is_the_one_certificates_and_verify_use(
        cyc3_spec, tmp_path, capsys, monkeypatch):
    # perfbench traces the digest by replacing specfile.algebra_hash, so every
    # caller must look it up there
    from grasym import decide_form_existence, specfile
    a = parse_algebra_file(cyc3_spec)
    verdict = decide_form_existence(a, "graded-symmetric")
    real_cert = tmp_path / "real.json"
    assert main(["check", cyc3_spec, "--cert", str(real_cert)]) == 0
    monkeypatch.setattr(specfile, "algebra_hash", lambda b: "0" * 64)
    assert specfile.certificate_to_dict(a, verdict)["algebra_sha256"] == "0" * 64
    capsys.readouterr()
    assert main(["verify", cyc3_spec, str(real_cert)]) == 1
    assert capsys.readouterr().err.startswith("hash mismatch")
    fake_cert = tmp_path / "fake.json"
    assert main(["check", cyc3_spec, "--cert", str(fake_cert)]) == 0
    assert main(["verify", cyc3_spec, str(fake_cert)]) == 0


def test_emit_stdout_is_the_spec_file(tmp_path, capsys):
    args = ["emit", "--constructor", "quaternion_algebra", "--field", '{"char": 0}',
            "--params", '{"a": "-1/2", "b": -3}']
    assert main(args) == 0
    out = capsys.readouterr().out
    path = tmp_path / "q.json"
    assert main(args + ["-o", str(path)]) == 0
    assert out.encode() == path.read_bytes()
    assert out == canonical_json(algebra_to_dict(parse_algebra_file(str(path)))) + "\n"


def test_replicate_single_pretty(capsys):
    assert main(["replicate", "--name", "matrix-commutator-dimension", "--pretty"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS  matrix-commutator-dimension  (")
    assert lines[-1] == "all passed"


def test_emit_unknown_constructor(capsys):
    assert main(["emit", "--constructor", "bogus"]) == 3


def test_parse_error_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 3


def test_check_incompatible_crossed_product_names_the_law(tmp_path, capsys):
    # F_9 = F_3(t), t^2 = -1, over C2 by Frobenius, twisted by t: sigma(t) = -t
    # breaks the cocycle law at g = h = k = the generator
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps({
        "group": {"kind": "cyclic", "n": 2},
        "constructor": {"name": "frobenius_crossed_product", "char": 3,
                        "ext_modulus": [1, 0, 1], "sigma_powers": [1],
                        "alpha_unit": [0, 1]}}))
    assert main(["check", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: IncompatibleCocycleData: the twisted 2-cocycle law")
    assert "fails at g=1, h=1, k=1" in err


def test_usage_error_exit_three():
    assert main(["check"]) == 3
    assert main(["no-such-command"]) == 3


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_check_undecidable_exit_two(tmp_path, capsys):
    # frobenius mode on a dim-9 algebra has a 9-dimensional trace space,
    # beyond the pencil unknown cap
    from grasym import matrix_algebra, ungrade
    a = ungrade(matrix_algebra(make_field(2), 3))
    path = tmp_path / "m3.json"
    write_algebra_file(a, str(path))
    assert main(["check", str(path), "--mode", "frobenius"]) == 2


def test_verify_undecidable_no_certificate_exit_two(cyc3_spec, tmp_path, capsys):
    # re-deciding a No in frobenius mode on cyc3 meets the same 9-dimensional
    # trace space that check reports as undecided
    from grasym.specfile import algebra_hash, parse_algebra_file
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "mode": "frobenius", "status": "no", "refutation": "gram-det-identically-zero",
        "algebra_sha256": algebra_hash(parse_algebra_file(cyc3_spec))}))
    assert main(["verify", cyc3_spec, str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("undecided: ")
    assert main(["check", cyc3_spec, "--mode", "frobenius"]) == 2
    assert capsys.readouterr().err == captured.err


@pytest.mark.parametrize("labels", ["ab", {"x": 1, "y": 2}, None],
                         ids=["string", "object", "null"])
def test_labels_that_are_not_a_list_exit_three(labels, tmp_path, capsys):
    # a string or an object used to load as its characters or keys and write
    # back as a list, and null as no labels, written back with no labels
    # key, so the loaded algebra's hash differed from the file's
    spec = algebra_to_dict(group_algebra(make_field(2), cyclic_group(2)))
    spec["algebra"]["labels"] = labels
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: labels must be a JSON list")


@pytest.mark.parametrize("labels", [[1, 2], ["e", None], [[0], {"g": 1}]],
                         ids=["ints", "null", "nested"])
def test_labels_of_any_json_values_round_trip(labels, tmp_path):
    spec = algebra_to_dict(group_algebra(make_field(2), cyclic_group(2)))
    spec["algebra"]["labels"] = labels
    path = tmp_path / "s.json"
    path.write_text(canonical_json(spec) + "\n")
    a = parse_algebra_file(str(path))
    assert canonical_json(algebra_to_dict(a)) == canonical_json(spec)
    assert main(["check", str(path)]) == 0


def test_an_invalid_raw_spec_exits_three_with_the_full_report(tmp_path, capsys):
    # i j = 2k in the rational quaternions: the message lists the first ten of
    # the ten violating triples of the full scan
    from grasym import quaternion_algebra, rationals

    spec = algebra_to_dict(quaternion_algebra(rationals(), -1, -1))
    rows = spec["algebra"]["sc"]
    rows[rows.index([1, 2, 3, "1"])] = [1, 2, 3, "2"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == (
        "error: ValidationError: associativity fails at (i,j,l) [(1, 1, 2), (1, 1, 3), "
        "(1, 2, 1), (1, 2, 2), (1, 2, 3), (1, 3, 1), (2, 1, 2), (2, 3, 2), (3, 1, 2), "
        "(3, 2, 2)]\n")


@pytest.mark.parametrize("constructor, stderr", [
    ({"ext_modulus": [1, 1, 0, 1], "sigma_powers": [1]},
     "error: IncompatibleCocycleData: sigma(g) sigma(h) = Inn(alpha(g,h)) sigma(gh) "
     "fails at g=1, h=1, D-basis vector 1\n"),
    ({"ext_modulus": [1, 1, 1], "sigma_powers": [1], "alpha_unit": [0, 1]},
     "error: IncompatibleCocycleData: the twisted 2-cocycle law (alpha(g,h) alpha(gh,k) "
     "= sigma(g)(alpha(h,k)) alpha(g,hk)) fails at g=1, h=1, k=1\n"),
    ({"ext_modulus": [1, 1, 1], "sigma_powers": [0], "alpha_unit": [0, 0]},
     "error: NonInvertibleAlpha: alpha(1,1) is not invertible in D\n"),
], ids=["conjugation-law", "cocycle-law", "zero-twist"])
def test_incompatible_frobenius_crossed_spec_exits_three(constructor, stderr, tmp_path, capsys):
    # the bytes crossed_product wrote when it decided these laws in D
    spec = {"group": {"kind": "cyclic", "n": 2},
            "constructor": {"name": "frobenius_crossed_product", "char": 2, **constructor}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == stderr


def test_check_runs_with_the_test_only_packages_blocked(cyc3_spec):
    # the runtime is stdlib-only: sympy and hypothesis are test dependencies,
    # and a module set to None in sys.modules makes importing it fail
    code = ("import sys\n"
            "sys.modules['sympy'] = sys.modules['hypothesis'] = None\n"
            "import grasym\n"
            "from grasym.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(grasym.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code, "check", cyc3_spec],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["status"] == "yes"
