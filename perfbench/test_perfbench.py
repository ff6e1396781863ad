"""Tests of the benchmark itself: its known answers, its tracer and its contract."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import micro  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from grasym import invariants, multipoly, specfile, symmetry  # noqa: E402
from grasym.errors import DimensionTooLarge  # noqa: E402


def _enumerable(q):
    """Form questions over F_2/F_3 small enough for the enumeration oracle."""
    if q.mode is None:
        return False
    a = q.build()
    if a.field.size() not in (2, 3) or a.dim > 36:
        return False
    return a.field.size() ** symmetry.graded_trace_space(a, q.mode).dim \
        <= symmetry.ENUMERATION_BOUND


SMALL = [q for q in workloads.DECIDE + workloads.REFUTE if _enumerable(q)]


@pytest.mark.parametrize("question", SMALL, ids=[q.name for q in SMALL])
def test_expected_answer_matches_enumeration(question):
    status, _ = symmetry.decide_by_enumeration(question.build(), question.mode)
    assert status == question.expect


def test_enumeration_covers_the_small_questions():
    names = {q.name for q in SMALL}
    assert {"M3(F2)-frobenius", "F3-Sweedler(x)C3-symmetric", "cyc3-graded-frobenius"} <= names
    assert len(SMALL) >= 15


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.METRICS + micro.METRICS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_pins_name_real_ops():
    cells = workloads.FIXED_CELLS + tuple(c for draw in workloads.POOL for c in draw)
    assert set(workloads.PINNED["hunt"]) == {c.name for c in cells}
    for name, questions in (("decide", workloads.DECIDE), ("refute", workloads.REFUTE)):
        assert set(workloads.PINNED[name]) <= {q.name for q in questions}


def test_pins_apply_at_every_seed_to_inputs_without_a_basis_change():
    assert workloads.pins("decide", workloads.DEFAULT_SEED) == workloads.PINNED["decide"]
    assert workloads.pins("hunt", 7) == workloads.PINNED["hunt"]
    other = workloads.pins("decide", 7)
    assert "M4(F3)-C2-graded-frobenius" in other and "Q[S3]-symmetric" in other
    assert "cyc5-graded-frobenius" not in other
    assert "TE(F3^6)-division" in workloads.pins("refute", 7)


def test_inputs_without_a_basis_change_do_not_depend_on_the_seed():
    fixed = [q for q in workloads.DECIDE + workloads.REFUTE
             if not q.basis_change and "Sweedler^3" not in q.name]
    for a, b in zip(workloads.question_setup(fixed, 1), workloads.question_setup(fixed, 2)):
        assert specfile.algebra_to_dict(a.algebra) == specfile.algebra_to_dict(b.algebra)


def test_a_yes_without_a_verified_witness_is_a_failed_op(capsys):
    item = workloads.question_setup(workloads.DECIDE[1:2], 1)[0]
    checker = run.Checker(workloads, "decide", 7)
    verdict = SimpleNamespace(status="yes", refutation=None, witness=None)
    checker.check(item, (verdict, {}, None), None)
    checker.check(item, "not a result", None)
    assert (checker.attempted, checker.failed) == (2, 2)
    assert capsys.readouterr().err.count("FAIL cyc3-graded-symmetric") == 2


def test_a_cheap_setup_is_repeated_and_timed_per_setup():
    calls = []
    items, each, (start, end) = run.timed_setup(lambda seed: calls.append(seed) or [seed], 5)
    assert items == [5] and len(calls) > 1000
    assert each * len(calls) == pytest.approx(end - start) and end - start >= run.MIN_SETUP_S


def test_speed_clock_leaves_out_the_sampler_and_scales_by_the_loop():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedLog() as log:
        start, stolen, wall = log.clock(), log.stolen, time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            pass
        end, wall = log.clock(), time.perf_counter() - wall
        stolen = log.stolen - stolen
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(log.when) >= 5 and log.when == sorted(log.when)
    assert stolen > 0 and end - start == pytest.approx(wall - stolen, abs=1e-4)
    speeds = [speed.REF_LOOP_S / x for x in log.loop_s]
    assert min(speeds) <= log.scale(start, end) <= max(speeds)
    with pytest.raises(ValueError):
        log.scale(end + 10, end + 11)


def test_hunt_cells_sum_to_the_pinned_hunts():
    char2 = [c for c in workloads.FIXED_CELLS if c.char == 2]
    char3 = [c for c in workloads.FIXED_CELLS if c.char == 3]
    assert sum(c.enumerated for c in char2) == 57
    assert sum(c.tested for c in char2) == 13
    assert sum(c.enumerated for c in char3) == 236
    assert sum(c.tested for c in char3) == 4


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.active = True
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", body)()
    own = tracer.self_times_ns()
    outer, child = tracer.spans
    assert child[tracing.PARENT] == 0
    assert own[0] + own[1] == outer[tracing.END] - outer[tracing.START]
    assert 0.005e9 < own[0] < 0.02e9


def test_install_patches_every_namespace_and_uninstall_restores():
    original = multipoly.structured_det
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert symmetry.structured_det is invariants.structured_det is multipoly.structured_det
        assert multipoly.structured_det.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert symmetry.structured_det is original and invariants.structured_det is original


def test_traced_calls_are_counted_with_results():
    a = workloads.DECIDE[1].build()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        symmetry.decide_form_existence(a, "graded-symmetric")
        with pytest.raises(DimensionTooLarge):
            symmetry.decide_form_existence(a, "frobenius")
    finally:
        tracer.active = False
        tracer.uninstall()
    values = tracer.layer_metrics()
    assert values["symmetry.decide_form_existence.calls"] == 2
    assert values["symmetry.graded_trace_space.calls"] == 2
    assert values["multipoly.structured_det.calls"] == 1
    assert values["symmetry.trace_space_dim_sum"] == 1 + 9


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hunt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
