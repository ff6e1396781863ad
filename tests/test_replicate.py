import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from grasym import (
    canonical_extension_field,
    cyclic_algebra,
    cyclic_group,
    group_algebra,
    hunt_counterexample,
    matrix_algebra,
    quaternion_algebra,
    replicate_center_symmetry,
    replicate_commutator_dim,
    replicate_scalar_extension,
    run_replication_suite,
    ungrade,
    validate_algebra,
)
from grasym.algebras import frobenius_crossed_product
from grasym.errors import NotDivision, ParseError, RationalsNotSupported
from grasym.replicate import (
    HuntParams,
    default_hunt_params,
    dim4_f2_corpus,
    hunt_candidates,
    hunt_char2_params,
    random_graded_basis_change,
    random_small_algebra,
    scalar_extension_corpus_check,
)
from grasym.specfile import algebra_from_dict, canonical_json
from grasym.symmetry import check_division_criterion

from conftest import candidate_spec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


# -- scalar extension ------------------------------------------------------------

def test_scalar_extension_commutative_trivial(f3):
    a = group_algebra(f3, cyclic_group(3))
    assert replicate_scalar_extension(a, 2)


def test_scalar_extension_matrix_f2_to_f4(f2):
    m = matrix_algebra(f2, 2)
    assert replicate_scalar_extension(m, 2)


def test_scalar_extension_random_instance(f3):
    rng = random.Random(99)
    a = random_small_algebra(f3, rng)
    assert replicate_scalar_extension(a, 2)
    assert replicate_scalar_extension(a, 3)


def test_scalar_extension_corpus():
    ok, checked = scalar_extension_corpus_check(count=10, seed=4)
    assert ok and checked == 10


# -- commutator dimension ---------------------------------------------------------

def test_commutator_dim_field(f5):
    from grasym import field_as_algebra
    d = field_as_algebra(f5, f5)
    assert replicate_commutator_dim(d) is True  # 0 = 1 - 1


def test_commutator_dim_quaternions(q):
    for b in (-1, -3):
        assert replicate_commutator_dim(ungrade(quaternion_algebra(q, -1, b))) is True


def test_commutator_dim_rejects_non_division(f3):
    with pytest.raises(NotDivision):
        replicate_commutator_dim(ungrade(quaternion_algebra(f3, -1, -1)))


def test_commutator_dim_skips_unknown(q):
    assert replicate_commutator_dim(ungrade(quaternion_algebra(q, 1, -1))) is None


# -- center symmetry ----------------------------------------------------------------

def test_center_symmetry_quaternions(q):
    assert replicate_center_symmetry(quaternion_algebra(q, -1, -1)) is True


def test_center_symmetry_skips_bad_characteristic():
    # characteristic 3 divides |C_3|: hypothesis gate
    assert replicate_center_symmetry(cyclic_algebra(3)) is None


def test_center_symmetry_rejects_non_division(f2):
    m = matrix_algebra(f2, 2)
    from grasym import good_matrix_algebra, field_as_algebra
    g = good_matrix_algebra(2, [0, 1], field_as_algebra(f2, f2, cyclic_group(2)))
    with pytest.raises(NotDivision):
        replicate_center_symmetry(g)


# -- corpus -----------------------------------------------------------------------------

def test_dim4_corpus_validates():
    for name, a in dim4_f2_corpus():
        assert a.dim <= 4, name
        assert validate_algebra(a).ok, name


def test_random_small_algebra_deterministic(f3):
    a = random_small_algebra(f3, random.Random(5))
    b = random_small_algebra(f3, random.Random(5))
    assert a == b


def test_random_basis_change_preserves_structure(f3):
    from grasym import commutator_subspace
    rng = random.Random(17)
    a = group_algebra(f3, cyclic_group(4))
    b = random_graded_basis_change(a, rng)
    assert validate_algebra(b).ok
    assert b.degree == a.degree
    assert commutator_subspace(b).dim == commutator_subspace(a).dim


def test_random_basis_change_over_the_rationals_is_refused(q):
    # entries are drawn by element index, which Q does not have; the refusal
    # comes before the generator is touched
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(RationalsNotSupported):
        random_graded_basis_change(group_algebra(q, cyclic_group(2)), rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("seed", range(4))
def test_random_small_algebra_over_the_rationals_is_refused(q, seed):
    # some menu entries need F_{p^n}, so the refusal comes first, on every draw
    rng = random.Random(seed)
    with pytest.raises(RationalsNotSupported):
        random_small_algebra(q, rng)
    assert rng.getstate() == random.Random(seed).getstate()


@pytest.mark.parametrize("seed", range(8))
def test_random_small_algebra_over_a_non_prime_field_is_refused(seed):
    # over F_4 the menu used to build F_2 algebras (seeds 5 and 6) or raise
    # FieldMismatch; the refusal now comes first, on every draw
    rng = random.Random(seed)
    with pytest.raises(ValueError, match="prime field"):
        random_small_algebra(canonical_extension_field(2, 2), rng)
    assert rng.getstate() == random.Random(seed).getstate()


# -- hunt --------------------------------------------------------------------------------

def test_hunt_candidate_stream_deterministic():
    p = hunt_char2_params()
    first = [(i, d) for i, d in hunt_candidates(p)]
    second = [(i, d) for i, d in hunt_candidates(p)]
    assert first == second
    assert [i for i, _ in first] == list(range(len(first)))


def test_hunt_is_deterministic():
    p = hunt_char2_params()
    r1 = hunt_counterexample(p)
    r2 = hunt_counterexample(p)
    assert canonical_json(r1.to_dict()) == canonical_json(r2.to_dict())


def test_hunt_char2_counts():
    report = hunt_counterexample(hunt_char2_params())
    assert report.candidates_enumerated == 57
    assert report.instances_tested == 13
    assert report.division_count == 13
    assert report.non_symmetric_instances == []
    assert report.no_base_field_point_instances == []


def test_the_default_char2_hunt_counts():
    # grasym hunt --char 2: groups of order <= 8, extension degrees <= 3
    report = hunt_counterexample(default_hunt_params(2))
    assert (report.candidates_enumerated, report.incompatible_count,
            report.instances_tested, report.division_count) == (74614, 74539, 75, 75)
    assert report.non_symmetric_instances == []
    assert report.no_base_field_point_instances == []


def test_the_pinned_char2_hunt_builds_each_group_once(built_groups):
    report = hunt_counterexample(hunt_char2_params())
    assert report.candidates_enumerated == 57
    # at most C_1, C_2, C_2 x C_2 and C_4, once each
    assert len(built_groups) <= 4


def test_hunt_includes_group_algebra_and_twisted_points():
    # the F_2 group-algebra candidates and the F_4 Frobenius candidates both
    # appear in the enumeration
    candidates = [args for _, args in hunt_candidates(hunt_char2_params())]
    assert any(ext.degree == 1 for ext, *_ in candidates)
    assert any(ext.modulus == (1, 1, 1) and powers == (1,) for ext, _, powers, _ in candidates)


def test_the_hunt_decodes_no_spec(monkeypatch):
    # each candidate goes straight to the builder: no constructor block is
    # dispatched and no JSON scalar is read
    from grasym import fields, specfile

    calls = []
    for module, name in [(specfile, "_build_constructor"), (fields, "scalar_from_json"),
                         (specfile, "scalar_from_json")]:
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    report = hunt_counterexample(hunt_char2_params())
    assert (report.candidates_enumerated, report.division_count) == (57, 13)
    assert calls == []


def test_hunt_checkpoint_bytes_pinned(tmp_path, monkeypatch):
    # sha256 of the final checkpoint as the hunt wrote it when each candidate
    # was still decoded from a spec dict
    from grasym import replicate
    ck = tmp_path / "hunt.ckpt"
    monkeypatch.setattr(replicate, "CHECKPOINT_EVERY", 10)
    hunt_counterexample(hunt_char2_params(), checkpoint_path=str(ck))
    assert hashlib.sha256(ck.read_bytes()).hexdigest() == \
        "f044e05fbbdeb9fa5d742db32896ad3251ae9723008e934f40435d4e8a6db067"


def test_hunt_checkpoint_resume(tmp_path, monkeypatch):
    from grasym import replicate
    p = hunt_char2_params()
    full = hunt_counterexample(p)
    ck = tmp_path / "hunt.ckpt"
    monkeypatch.setattr(replicate, "CHECKPOINT_EVERY", 10)
    partial = hunt_counterexample(p, checkpoint_path=str(ck))
    assert sorted(x.name for x in tmp_path.iterdir()) == ["hunt.ckpt"]  # no temp file left
    resumed = hunt_counterexample(p, resume=str(ck))
    # the checkpoint was written at the end, so resuming adds nothing
    assert resumed.to_dict() == full.to_dict()


def test_hunt_checkpoint_survives_a_killed_write(tmp_path, monkeypatch):
    from grasym import replicate
    p = hunt_char2_params()
    ck = tmp_path / "hunt.ckpt"
    hunt_counterexample(p, checkpoint_path=str(ck))
    saved = ck.read_bytes()

    def killed(fd):
        raise KeyboardInterrupt

    # killed before the new checkpoint replaces the old one
    monkeypatch.setattr(replicate.os, "fsync", killed)
    with pytest.raises(KeyboardInterrupt):
        hunt_counterexample(HuntParams(2, (1,), (("cyclic", 2),)), checkpoint_path=str(ck))
    monkeypatch.undo()
    assert ck.read_bytes() == saved
    assert hunt_counterexample(p, resume=str(ck)).to_dict() == hunt_counterexample(p).to_dict()


def test_hunt_checkpoint_rejects_other_params(tmp_path):
    p = hunt_char2_params()
    ck = tmp_path / "hunt.ckpt"
    hunt_counterexample(p, checkpoint_path=str(ck))
    other = HuntParams(3, (1,), (("cyclic", 2),))
    with pytest.raises(ParseError):
        hunt_counterexample(other, resume=str(ck))


@pytest.mark.parametrize("edit", [
    {"next_index": -3},
    {"candidates_enumerated": 99},
    {"next_index": 0, "candidates_enumerated": 0, "instances_tested": 0},
    {"incompatible_count": -1, "instances_tested": 2},
    {"division_count": 2},
    {"division_count": 0, "no_base_field_point_instances": [{}]},
    {"non_symmetric_instances": [{}], "no_base_field_point_instances": [{}]},
    {"next_index": 5, "candidates_enumerated": 5, "incompatible_count": 4},
], ids=["negative-next-index", "inflated-enumeration", "tests-uncounted",
        "negative-count", "division-beyond-tested", "finding-beyond-division",
        "findings-beyond-division", "past-the-stream"])
def test_hunt_refuses_an_inconsistent_checkpoint(tmp_path, edit):
    p = HuntParams(2, (1,), (("cyclic", 2),))  # one candidate, a graded division algebra
    ck = tmp_path / "hunt.ckpt"
    hunt_counterexample(p, checkpoint_path=str(ck))
    honest = json.loads(ck.read_text())
    assert hunt_counterexample(p, resume=str(ck)).to_dict() == hunt_counterexample(p).to_dict()
    ck.write_text(json.dumps({**honest, **edit}))
    with pytest.raises(ParseError):
        hunt_counterexample(p, resume=str(ck))


def test_hunt_resume_refuses_every_finding(tmp_path):
    # a failing witness raises instead of being recorded, so a checkpoint
    # that lists a finding, even a real candidate before next_index, was not
    # written by this hunt
    p = HuntParams(3, (1,), (("cyclic", 2),))  # two candidates, both graded division
    first, second = [candidate_spec(*args) for _, args in hunt_candidates(p)]
    mid = {"params_sha256": p.digest(), "next_index": 1, "candidates_enumerated": 1,
           "incompatible_count": 0, "instances_tested": 1, "division_count": 1,
           "non_symmetric_instances": [], "no_base_field_point_instances": []}
    ck = tmp_path / "hunt.ckpt"
    ck.write_text(canonical_json(mid))
    assert hunt_counterexample(p, resume=str(ck)).to_dict() == hunt_counterexample(p).to_dict()
    both = {"next_index": 2, "candidates_enumerated": 2, "instances_tested": 2,
            "division_count": 2}
    for edit in [
        {"non_symmetric_instances": [first]},
        {"no_base_field_point_instances": [first]},
        {"non_symmetric_instances": [{"bogus": 1}]},
        {"no_base_field_point_instances": [second]},
        {**both, "non_symmetric_instances": [first, second]},
    ]:
        ck.write_text(json.dumps({**mid, **edit}))
        with pytest.raises(ParseError, match="finding"):
            hunt_counterexample(p, resume=str(ck))


def test_hunt_finding_reverifies():
    # a finding would be the spec written from the candidate's builder
    # arguments; it round-trips through JSON to the algebra the hunt built
    args = next(args for _, args in hunt_candidates(HuntParams(2, (2,), (("cyclic", 2),)))
                if args[2:] == ((1,), (1, 0)))
    spec_dict = candidate_spec(*args)
    assert spec_dict["constructor"]["ext_modulus"] == [1, 1, 1]
    a = algebra_from_dict(json.loads(canonical_json(spec_dict)))
    assert a.dim == 4 and validate_algebra(a).ok
    assert a == frobenius_crossed_product(*args)


def _accepted(params):
    """The graded division candidates of a hunt, with their division verdicts."""
    from grasym.errors import IncompatibleCocycleData
    from grasym.invariants import is_graded_division
    for _, args in hunt_candidates(params):
        try:
            a = frobenius_crossed_product(*args)
        except IncompatibleCocycleData:
            continue
        verdict = is_graded_division(a)
        if verdict.is_yes:
            yield a, verdict


@pytest.mark.parametrize("params, accepted", [
    (hunt_char2_params(), 13),
    (HuntParams(3, (1, 3), (("cyclic", 3),)), 4),
    (HuntParams(2, (4,), (("cyclic", 2),)), 18),
    (HuntParams(7, (2,), (("cyclic", 2),)), 54),
    (HuntParams(11, (2,), (("cyclic", 2),)), 130),
    (HuntParams(3, (3,), (("cyclic", 2),)), 26),
], ids=["char2-pinned", "char3-C3", "F16-C2", "F49-C2", "F121-C2", "F27-C2"])
def test_trace_witness_and_engine_agree_on_every_accepted_candidate(params, accepted):
    # the engine stays the oracle of the hunt's certificate
    from grasym import decide_form_existence, graded_trace_witness, verify_certificate
    count = 0
    for a, verdict in _accepted(params):
        assert verify_certificate(a, graded_trace_witness(a), "graded-symmetric").ok
        decision = decide_form_existence(a, "graded-symmetric")
        check_division_criterion(a, decision.status)
        assert decision.is_yes
        count += 1
    assert count == accepted


def test_the_hunt_proof_of_graded_division_agrees_with_the_engine():
    # the hunt proves graded division by a division A_e and a verified
    # regular-trace witness; is_graded_division, which inverts one element
    # per component, stays the reference
    from grasym import graded_trace_witness, is_graded_division, verify_certificate
    from grasym.invariants import _identity_component_algebra, _identity_verdict
    from test_invariants import _shared_verdict_corpus

    statuses = []
    for name, a in [*_shared_verdict_corpus(), *dim4_f2_corpus()]:
        e_alg = _identity_component_algebra(a)
        proof = (_identity_verdict(e_alg).is_yes and verify_certificate(
            a, graded_trace_witness(a), "graded-symmetric").ok)
        verdict = is_graded_division(a)
        assert proof == verdict.is_yes, name
        statuses.append(verdict.status)
    assert (len(statuses), statuses.count("yes"), statuses.count("no")) == (110, 56, 54)


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_hunt_certifies_without_the_engine_and_cross_checks_every_candidate(monkeypatch):
    from grasym import replicate, symmetry
    decided = _count_calls(monkeypatch, replicate, "decide_form_existence")
    checked = _count_calls(monkeypatch, symmetry, "graded_division_criterion")
    report = hunt_counterexample(hunt_char2_params())
    assert report.division_count == 13
    assert decided == [] and len(checked) == 13


def test_a_hunt_scans_each_identity_component_once_per_call(monkeypatch):
    # every candidate of the F_121 cell has D = F_121 as A_e: one decision for
    # its 130 tested candidates, and a second call decides again, so no
    # verdict outlives the call that made it
    from grasym import invariants
    decisions = _count_calls(monkeypatch, invariants, "_identity_verdict")
    params = HuntParams(11, (2,), (("cyclic", 2),))
    report = hunt_counterexample(params)
    assert (report.instances_tested, report.division_count, len(decisions)) == (130, 130, 1)
    assert hunt_counterexample(params) == report
    assert len(decisions) == 2


def _tested_candidates(params):
    """(index, ext, algebra) for each candidate of a hunt that the builder
    accepts."""
    from grasym.errors import IncompatibleCocycleData
    for index, args in hunt_candidates(params):
        try:
            yield index, args[0], frobenius_crossed_product(*args)
        except IncompatibleCocycleData:
            pass


def test_every_tested_candidate_has_the_builders_field_as_identity_component():
    # the hunt decides the builder's D once per field in place of each
    # candidate's A_e, and adds no check that they agree: this pins that
    # they do, on the benchmark's fixed and pool cells and the default hunt
    from grasym.algebras import _frobenius_coefficients
    from grasym.invariants import _identity_component_algebra

    pool = [cell for draw in workloads.POOL for cell in draw]
    cells = {cell.name: cell for cell in [*workloads.FIXED_CELLS, *pool]}
    params = [cell.params() for cell in cells.values()] + [default_hunt_params(2)]
    tested = 0
    for _, ext, a in (c for p in params for c in _tested_candidates(p)):
        e_alg, d = _identity_component_algebra(a), _frobenius_coefficients(ext).d
        assert (e_alg.field, e_alg.table, e_alg.unit) == (d.field, d.table, d.unit)
        tested += 1
    assert (len(cells), tested) == (12, 320)


def _char2_hunt_fields():
    """The builder's D of each field of hunt_char2_params: F_2, then F_4."""
    from grasym.algebras import _frobenius_coefficients
    return [_frobenius_coefficients(canonical_extension_field(2, m)).d for m in (1, 2)]


def test_the_hunt_builds_no_candidates_identity_component(monkeypatch):
    # the only A_e the pinned hunt re-indexes are its two fields' D, inside
    # their is_graded_division decisions: none is a candidate's
    from grasym import invariants
    built = _count_calls(monkeypatch, invariants, "_identity_component_algebra")
    report = hunt_counterexample(hunt_char2_params())
    assert report.instances_tested == 13
    assert len(built) == 2 and all(x is d for x, d in zip(built, _char2_hunt_fields()))


def test_every_resume_decides_each_field_it_reaches_once(tmp_path, monkeypatch):
    # the per-call field verdicts start empty on a resume: from every
    # checkpoint the hunt writes, across the F_2 -> F_4 boundary at index 3
    # too, the report equals the uninterrupted one and each field with a
    # tested candidate at or after the resume index is decided once
    from grasym import invariants, replicate
    p = hunt_char2_params()
    full = hunt_counterexample(p).to_dict()
    ck = tmp_path / "hunt.ckpt"
    written, replace = [], replicate.os.replace

    def kept(src, dst):
        replace(src, dst)
        written.append(ck.read_bytes())
    monkeypatch.setattr(replicate, "CHECKPOINT_EVERY", 1)
    monkeypatch.setattr(replicate.os, "replace", kept)
    hunt_counterexample(p, checkpoint_path=str(ck))
    monkeypatch.undo()
    tested = {index: ext for index, ext, _ in _tested_candidates(p)}
    decisions = _count_calls(monkeypatch, invariants, "_identity_verdict")
    starts, counts = [], []
    for saved in written:
        ck.write_bytes(saved)
        start = json.loads(saved)["next_index"]
        decisions.clear()
        assert hunt_counterexample(p, resume=str(ck)).to_dict() == full, start
        reached = {ext for index, ext in tested.items() if index >= start}
        assert len(decisions) == len(reached), start
        starts.append(start)
        counts.append(len(decisions))
    # one checkpoint per candidate, and the final one again
    assert starts == [*range(1, 58), 57]
    assert counts[:4] == [2, 2, 1, 1] and counts[-2:] == [0, 0]


def test_every_resume_inside_an_action_gives_the_uninterrupted_bytes(tmp_path, monkeypatch):
    # F_27 over C_3: 9 actions of 26 twists each, and a checkpoint every 7
    # candidates, so most checkpoints fall inside an action.  From every one
    # the resumed hunt writes the uninterrupted hunt's later checkpoints and
    # report, byte for byte.  Each call builds an action's shared rows at
    # most once, at its first accepted twist: never for an action with no
    # accepted twist from the resume on, so never for one that fails (C),
    # and once for an action with many
    from grasym import algebras, replicate

    p = HuntParams(3, (3,), (("cyclic", 3),))
    written, replace = [], replicate.os.replace

    def kept(src, dst):
        replace(src, dst)
        written.append(Path(dst).read_bytes())
    built, untwisted = [], algebras.FrobeniusCrossedProducts._untwisted_part

    def counted(self):
        built.append(tuple(self.powers[1:]))
        return untwisted(self)
    monkeypatch.setattr(replicate, "CHECKPOINT_EVERY", 7)
    monkeypatch.setattr(replicate.os, "replace", kept)
    monkeypatch.setattr(algebras.FrobeniusCrossedProducts, "_untwisted_part", counted)
    ck, start_file = tmp_path / "hunt.ckpt", tmp_path / "start.ckpt"
    full = hunt_counterexample(p, checkpoint_path=str(ck)).to_dict()
    uninterrupted = list(written)
    assert len(uninterrupted) == 234 // 7 + 1
    tested = {index for index, _, _ in _tested_candidates(p)}
    accepted = {index: tuple(args[2]) for index, args in hunt_candidates(p) if index in tested}
    # k_1 + k_1 = k_2, k_1 + k_2 = 0, k_2 + k_2 = k_1 (mod 3)
    conjugate = {(0, 0), (1, 2), (2, 1)}
    assert set(accepted.values()) <= conjugate and len(accepted) == 3
    for n, saved in enumerate([b"", *uninterrupted]):
        start = json.loads(saved)["next_index"] if saved else 0
        start_file.write_bytes(saved)
        written.clear()
        built.clear()
        report = hunt_counterexample(p, checkpoint_path=str(ck),
                                     resume=str(start_file) if saved else None)
        assert report.to_dict() == full, start
        # the final checkpoint is written again by a resume from itself
        assert written == (uninterrupted[n:] or uninterrupted[-1:]), start
        reached = [sigma for index, sigma in sorted(accepted.items()) if index >= start]
        assert built == list(dict.fromkeys(reached)), start
        assert set(built) <= conjugate
    # F_121 over C_2: 130 accepted twists, over both actions
    built.clear()
    assert hunt_counterexample(HuntParams(11, (2,), (("cyclic", 2),))).instances_tested == 130
    assert built == [(0,), (1,)]


def test_hunt_refuses_a_field_above_the_scan_bound_before_building_it(monkeypatch):
    # is_graded_division of a field above SCAN_BOUND is unknown, and the hunt
    # would count every candidate over it as tested and not division
    from grasym import replicate
    from grasym.errors import SearchSpaceTooLarge
    from grasym.invariants import SCAN_BOUND

    fields_built = _count_calls(monkeypatch, replicate, "canonical_extension_field")
    for p, degrees in [(1000003, (1,)), (2, (1, 20)), (2, (40,)), (3, (10 ** 100,)),
                       (1009, (2,))]:
        assert p ** min(max(degrees), 64) > SCAN_BOUND
        with pytest.raises(SearchSpaceTooLarge):
            HuntParams(p, degrees, (("cyclic", 2),))
    with pytest.raises(SearchSpaceTooLarge):
        default_hunt_params(2, 2, 10 ** 100)
    assert fields_built == []
    # at the bound and below, the hunt runs
    for p, degrees in [(999983, (1,)), (2, (19,)), (1000, (2,))]:
        HuntParams(p, degrees, (("cyclic", 2),))


def test_the_frobenius_builder_makes_no_generic_table(monkeypatch):
    # the hunt's builder puts its tables together from the per-field
    # products; the generic crossed_product path still builds its own
    from grasym import algebras
    from grasym.algebras import crossed_product, cyclic_algebra_spec
    tables = _count_calls(monkeypatch, algebras, "_crossed_product_table")
    report = hunt_counterexample(hunt_char2_params())
    assert (report.instances_tested, len(tables)) == (13, 0)
    crossed_product(cyclic_algebra_spec(2))
    assert len(tables) == 1


def test_hunt_raises_when_the_witness_fails(monkeypatch):
    # over a finite field the witness always verifies, so a failure is a bug
    # and must stop the hunt, not be decided into a clean report
    from grasym import replicate, symmetry
    from grasym.symmetry import LinearFunctional
    monkeypatch.setattr(replicate, "graded_trace_witness",
                        lambda a: LinearFunctional(a, [a.field.zero()] * a.dim))
    decided = _count_calls(monkeypatch, replicate, "decide_form_existence")
    checked = _count_calls(monkeypatch, symmetry, "graded_division_criterion")
    with pytest.raises(AssertionError, match="regular-trace witness failed"):
        hunt_counterexample(hunt_char2_params())
    assert decided == [] and checked == []


def test_a_failed_witness_over_a_division_identity_component_falls_back_to_the_engine(
        monkeypatch):
    # F_2 + F_2 v with v^2 = 0 and v of degree g in C_2: A_e = F_2 is
    # division, but the witness has Gram rank 1 of 2 and v is no unit, so
    # is_graded_division says No and the candidate is tested, not division.
    # The hunt decides its two fields, F_2 and F_4, once each, on the D of
    # the builder.  The algebra goes in through the hunt's per-action
    # builder, which then accepts every unit of every action as a
    from grasym import GradedAlgebra, make_field, replicate, symmetry
    f2 = make_field(2)
    one = f2.one()
    a = GradedAlgebra(f2, cyclic_group(2), [0, 1], {
        (0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {}}, [one, f2.zero()])
    assert validate_algebra(a).ok

    class EveryUnitGivesA:
        def __init__(self, ext, group, sigma_powers):
            pass

        def product_if_compatible(self, alpha_unit):
            return a
    monkeypatch.setattr(replicate, "FrobeniusCrossedProducts", EveryUnitGivesA)
    decided = _count_calls(monkeypatch, replicate, "is_graded_division")
    checked = _count_calls(monkeypatch, symmetry, "graded_division_criterion")
    report = hunt_counterexample(hunt_char2_params())
    assert (report.candidates_enumerated, report.instances_tested,
            report.incompatible_count, report.division_count) == (57, 57, 0, 0)
    on_d = [x for x in decided if x is not a]
    assert len(on_d) == 2 and all(x is d for x, d in zip(on_d, _char2_hunt_fields()))
    assert sum(1 for x in decided if x is a) == 57 and checked == []


def test_hunt_cross_check_catches_a_disagreeing_criterion(monkeypatch):
    from grasym import symmetry
    monkeypatch.setattr(symmetry, "graded_division_criterion", lambda a: False)
    with pytest.raises(AssertionError, match="disagrees"):
        hunt_counterexample(hunt_char2_params())


def test_hunt_char3_small():
    p = HuntParams(3, (1,), (("cyclic", 2),))
    report = hunt_counterexample(p)
    # twisted group algebras of C_2 over F_3: both units give valid algebras
    assert report.instances_tested == 2
    assert report.non_symmetric_instances == []


# -- suite ---------------------------------------------------------------------------------

def test_suite_subset_runs():
    report = run_replication_suite({"matrix-commutator-dimension"})
    assert len(report.results) == 1 and report.passed


def test_suite_report_is_canonical():
    r1 = run_replication_suite({"matrix-commutator-dimension",
                          "division-commutator-dimension"})
    r2 = run_replication_suite({"matrix-commutator-dimension",
                          "division-commutator-dimension"})
    assert canonical_json(r1.to_dict()) == canonical_json(r2.to_dict())


def test_hunt_division_instances_posterior_scan():
    # every candidate marked graded-division re-verifies by scanning all
    # nonzero homogeneous elements for invertibility
    from grasym.errors import IncompatibleCocycleData
    from grasym.invariants import is_graded_division
    import itertools
    for _, args in hunt_candidates(hunt_char2_params()):
        try:
            a = frobenius_crossed_product(*args)
        except IncompatibleCocycleData:
            continue
        if not is_graded_division(a).is_yes:
            continue
        f = a.field
        for g in set(a.degree):
            idx = a.component_indices(g)
            for values in itertools.product(range(f.size()), repeat=len(idx)):
                if not any(values):
                    continue
                coords = [f.zero()] * a.dim
                for pos, i in enumerate(idx):
                    coords[i] = f.element_at(values[pos])
                assert a.element(coords).inverse() is not None


def test_hunt_resume_mid_stream(tmp_path):
    from grasym.errors import IncompatibleCocycleData
    from grasym.invariants import is_graded_division

    p = hunt_char2_params()
    full = hunt_counterexample(p)
    # honest mid-stream checkpoint: replay the hunt's own logic for the first
    # 20 candidates, freeze the counters, then resume from there
    counts = {"candidates_enumerated": 0, "incompatible_count": 0,
              "instances_tested": 0, "division_count": 0}
    for index, args in hunt_candidates(p):
        if index >= 20:
            break
        counts["candidates_enumerated"] += 1
        try:
            a = frobenius_crossed_product(*args)
        except IncompatibleCocycleData:
            counts["incompatible_count"] += 1
            continue
        counts["instances_tested"] += 1
        if is_graded_division(a).is_yes:
            counts["division_count"] += 1
    ck = dict(params_sha256=p.digest(), next_index=20,
              non_symmetric_instances=[], no_base_field_point_instances=[],
              **counts)
    path = tmp_path / "mid.ckpt"
    path.write_text(canonical_json(ck))
    resumed = hunt_counterexample(p, resume=str(path))
    assert resumed.to_dict() == full.to_dict()


def test_corpus_division_instances_confirm_graded_symmetry():
    # instances meeting the char-does-not-divide-dim hypothesis must be yes;
    # the modular instances also come out yes, as confirmations beyond the
    # hypothesis, never refutations
    from grasym import decide_form_existence, is_graded_division
    hypothesis_cases = 0
    beyond_cases = 0
    for name, a in dim4_f2_corpus():
        verdict = is_graded_division(a)
        if not verdict.is_yes:
            continue
        decision = decide_form_existence(a, "graded-symmetric")
        check_division_criterion(a, decision.status)
        assert decision.is_yes, name
        if a.dim % a.field.char == 0:
            beyond_cases += 1
        else:
            hypothesis_cases += 1
    assert hypothesis_cases >= 2 and beyond_cases >= 3


def test_hunt_char3_includes_skew_group_algebra_point():
    # the C_3 hunt over F_3 and F_27 contains the group-algebra point and the
    # Frobenius skew group algebra point; counts pinned at first verified run
    from grasym.errors import IncompatibleCocycleData
    from grasym import decide_form_existence, is_graded_division

    p = HuntParams(3, (1, 3), (("cyclic", 3),))
    report = hunt_counterexample(p)
    assert report.candidates_enumerated == 236
    assert report.instances_tested == 4
    assert report.division_count == 4
    assert report.non_symmetric_instances == []
    assert report.no_base_field_point_instances == []
    # (extension degree, Frobenius powers, coefficients of the twisting unit)
    survivors = []
    for _, (ext, group, powers, unit) in hunt_candidates(p):
        try:
            frobenius_crossed_product(ext, group, powers, unit)
        except IncompatibleCocycleData:
            continue
        survivors.append((ext.degree, powers, unit))
    assert (1, (0, 0), (1,)) in survivors           # the modular group algebra
    assert (3, (1, 2), (1, 0, 0)) in survivors      # the degree-3 skew group algebra
    skew = next(args for _, args in hunt_candidates(p)
                if args[0].degree == 3 and args[2:] == ((1, 2), (1, 0, 0)))
    a = frobenius_crossed_product(*skew)
    assert a.dim == 9
    verdict = is_graded_division(a)
    assert verdict.is_yes
    decision = decide_form_existence(a, "graded-symmetric")
    check_division_criterion(a, decision.status)
    assert decision.is_yes


def test_full_suite_report_byte_identical():
    r1 = run_replication_suite()
    r2 = run_replication_suite()
    assert r1.passed and r2.passed
    assert canonical_json(r1.to_dict()) == canonical_json(r2.to_dict())
