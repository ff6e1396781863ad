"""The three workloads: inputs built from a seed, the ops, and their known answers.

An op is one call into grasym's public API, timed, followed by an untimed
check against a hand-written expected answer.  The seed drives only the
grading-preserving basis changes and the draw of the extra hunt cells, so the
expected verdicts hold for every seed.  Hunt reports and the certificates of
inputs that keep their constructed basis are pinned for every seed; the other
certificates depend on the basis change and are pinned for DEFAULT_SEED only.

The program is reached through module attributes (``symmetry.decide_...``),
never through names bound here, so the wrappers of a traced run see every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from grasym import algebras, fields, groups, invariants, replicate, specfile, symmetry
from grasym.errors import DimensionTooLarge, SearchSpaceTooLarge

DEFAULT_SEED = 1

F2, F3, F5 = (fields.make_field(p) for p in (2, 3, 5))
Q = fields.rationals()


class Failure(Exception):
    """An op whose output differs from the known answer."""


@dataclass(frozen=True)
class Outcome:
    decided: bool
    record: str  # canonical bytes of the output, pinned or compared across passes


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- hunt ------------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One (extension degree, group) cell of a hunt, with its pinned counts."""

    char: int
    ext_degree: int
    group: tuple
    enumerated: int
    tested: int

    @property
    def name(self) -> str:
        kind, arg = self.group
        order = "x".join(map(str, arg)) if isinstance(arg, tuple) else arg
        return f"hunt-p{self.char}-m{self.ext_degree}-{kind}{order}"

    def params(self) -> replicate.HuntParams:
        return replicate.HuntParams(self.char, (self.ext_degree,), (self.group,))

    def run(self):
        return replicate.hunt_counterexample(self.params())

    def check(self, report) -> Outcome:
        got = (report.candidates_enumerated, report.instances_tested,
               report.incompatible_count, report.division_count)
        want = (self.enumerated, self.tested, self.enumerated - self.tested, self.tested)
        if got != want:
            raise Failure(f"counts {got}, pinned {want}")
        if report.non_symmetric_instances or report.no_base_field_point_instances:
            raise Failure("the hunt reported a finding")
        return Outcome(True, specfile.canonical_json(report.to_dict()))


# The pinned char-2 hunt (57 enumerated / 13 tested / 44 incompatible) and the
# pinned char-3 C3 hunt (236 / 4), one cell per (extension degree, group).
FIXED_CELLS = (
    Cell(2, 1, ("cyclic", 2), 1, 1),
    Cell(2, 1, ("product", (2, 2)), 1, 1),
    Cell(2, 1, ("cyclic", 4), 1, 1),
    Cell(2, 2, ("cyclic", 2), 6, 4),
    Cell(2, 2, ("product", (2, 2)), 24, 4),
    Cell(2, 2, ("cyclic", 4), 24, 2),
    Cell(3, 1, ("cyclic", 3), 2, 1),
    Cell(3, 3, ("cyclic", 3), 234, 3),
)

# Accept-heavy cells (30% or more of the candidates pass the scan), drawn by
# the seed as a triple.  The triples differ in one cell, F_49 or F_27 over C2,
# whose costs differ by about 0.1 s, 3% of a pass, so the draw barely moves
# wall_s.  Every cell in them costs more than the median fixed cell, so with
# 11 ops the median op is always the same reject-heavy fixed cell and the
# draw does not move op_p50_ms.  The cheaper accept-heavy cell of F_25 over C2
# (about 70 ms) would move the median, so it is not in the pool.
POOL = (
    (Cell(2, 4, ("cyclic", 2), 60, 18), Cell(11, 2, ("cyclic", 2), 240, 130),
     Cell(7, 2, ("cyclic", 2), 96, 54)),
    (Cell(2, 4, ("cyclic", 2), 60, 18), Cell(11, 2, ("cyclic", 2), 240, 130),
     Cell(3, 3, ("cyclic", 2), 78, 26)),
)


def hunt_setup(seed: int) -> list:
    """The cells of one pass; each candidate stream is enumerated once and
    checked against the pinned count."""
    cells = list(FIXED_CELLS) + list(random.Random(seed).choice(POOL))
    for cell in cells:
        count = sum(1 for _ in replicate.hunt_candidates(cell.params()))
        if count != cell.enumerated:
            raise Failure(f"{cell.name}: {count} candidates, pinned {cell.enumerated}")
    return cells


# -- decide and refute -------------------------------------------------------------------

@dataclass(frozen=True)
class Question:
    """A yes/no question with its known answer.

    mode None asks is_graded_division; otherwise decide_form_existence in that
    mode.  A form No must carry the expected refutation tag.  basis_change says
    whether the input gets a seeded basis change, so whether its output bytes
    depend on the seed; it must be False over Q (see question_setup).
    """

    name: str
    build: Callable[[], algebras.GradedAlgebra]
    mode: str | None
    expect: str
    refutation: str | None = None
    basis_change: bool = True


@dataclass(frozen=True)
class Asked:
    """A question bound to its prepared input: one op of a pass."""

    question: Question
    algebra: algebras.GradedAlgebra

    @property
    def name(self) -> str:
        return self.question.name

    def run(self):
        """The timed op; None when the program cannot decide the question."""
        a, mode = self.algebra, self.question.mode
        try:
            if mode is None:
                verdict = invariants.is_graded_division(a)
                return None if verdict.status == "unknown" else verdict
            verdict = symmetry.decide_form_existence(a, mode)
        except (DimensionTooLarge, SearchSpaceTooLarge):
            return None
        cert = specfile.certificate_to_dict(a, verdict)
        report = None if verdict.witness is None else \
            symmetry.verify_certificate(a, verdict.witness, mode)
        return verdict, cert, report

    def check(self, result) -> Outcome:
        if result is None:
            return Outcome(False, "undecided")
        q = self.question
        if q.mode is None:
            return self._check_division(result)
        verdict, cert, report = result
        if q.expect == "yes":
            if verdict.status != "yes" or report is None or not report.ok:
                raise Failure(f"expected a verified yes, got {verdict.status} ({report})")
        elif (verdict.status, verdict.refutation) != ("no", q.refutation):
            raise Failure(f"expected no/{q.refutation}, "
                          f"got {verdict.status}/{verdict.refutation}")
        return Outcome(True, specfile.canonical_json(cert))

    def _check_division(self, verdict) -> Outcome:
        a = self.algebra
        if verdict.status != self.question.expect:
            raise Failure(f"expected division {self.question.expect}, got {verdict.status}")
        if verdict.is_yes:
            # the exhaustive scan covers every nonzero element of A_e, and every
            # component witness really is invertible
            e_dim = len(a.component_indices(a.group.identity))
            ident = verdict.certificate["identity_component"]
            if ident != {"kind": "exhaustive", "scan_size": a.field.size() ** e_dim - 1}:
                raise Failure(f"identity-component certificate {ident}")
            for coords in verdict.certificate["component_witnesses"].values():
                el = a.element([fields.scalar_from_json(a.field, c) for c in coords])
                if el.homogeneous_degree() is None or el.inverse() is None:
                    raise Failure("a component witness is not an invertible homogeneous element")
            witness = None
        else:
            w = verdict.witness
            if w is None or w.is_zero or w.homogeneous_degree() is None \
                    or w.inverse() is not None:
                raise Failure("the No witness is not a homogeneous zero divisor")
            witness = [c.to_json() for c in w.coords]
        return Outcome(True, specfile.canonical_json(
            {"status": verdict.status, "certificate": verdict.certificate,
             "witness": witness}))


def question_setup(questions, seed: int) -> list:
    """Build every input, give it a seeded basis change, and round-trip it
    through the spec-dict format the CLI reads.

    Inputs over Q are marked basis_change=False: random_graded_basis_change
    draws field elements by index, which Q does not have.
    """
    out = []
    for q in questions:
        # one stream per question, so adding a question leaves the others' bytes alone
        rng = random.Random(f"{seed}:{q.name}")
        a = q.build()
        if q.basis_change:
            a = replicate.random_graded_basis_change(a, rng)
        b = specfile.algebra_from_dict(specfile.algebra_to_dict(a))
        if b != a:
            raise Failure(f"{q.name}: the spec-dict round trip changed the algebra")
        out.append(Asked(q, b))
    return out


def _cyc(p):
    return lambda: algebras.cyclic_algebra(p)


def _field(p, n):
    return lambda: algebras.field_as_algebra(fields.canonical_extension_field(p, n),
                                             fields.make_field(p))


def _good_matrix(field, sigmas, group):
    return lambda: algebras.good_matrix_algebra(
        len(sigmas), sigmas, algebras.field_as_algebra(field, field, group))


def _group_algebra(field, group):
    return lambda: algebras.group_algebra(field, group)


def _ungraded_group_algebra(field, group):
    return lambda: algebras.ungrade(algebras.group_algebra(field, group))


def _quaternions():
    return algebras.quaternion_algebra(Q, -1, -1)


GF, GS, SYM, FROB = "graded-frobenius", "graded-symmetric", "symmetric", "frobenius"

# Answer Yes.  cyc3 and M_3(F_2) in frobenius mode are undecided today (trace
# space dim 9 > MAX_TRACE_SPACE_DIM); their known answer is Yes because both
# are matrix algebras.  M_4(F_3) keeps its constructed basis: after a basis
# change its two dense 8x8 Gram blocks take about 100 s.  The division scans
# use F_{2^9} and F_{3^6} (511 and 728 elements, about 0.4 and 0.25 s) rather
# than F_{2^10} and F_{3^7} (1 s each), so that three cycles of set-up and
# pass fit in one run.  Nine ops cost under 25 ms and eight over 100 ms, so
# the median op is one of the two F_2[C_2^3] questions (about 60 ms on an
# idle machine).  Their cost does not depend on the seed: run side by side in
# one process, the inputs of every seed tried took the same time.  The cheap
# ops sit between the heavy ones, so that a pass spreads them over its whole
# length rather than bunching them in one second of it.
DECIDE = (
    Question("cyc5-graded-frobenius", _cyc(5), GF, "yes"),
    Question("cyc3-graded-symmetric", _cyc(3), GS, "yes"),
    Question("F3[D4]-symmetric", _group_algebra(F3, groups.dihedral_group(4)), SYM, "yes"),
    Question("Q-quaternions-graded-symmetric", _quaternions, GS, "yes", basis_change=False),
    Question("F2^9-division", _field(2, 9), None, "yes"),
    Question("cyc3-graded-frobenius", _cyc(3), GF, "yes"),
    Question("F2[C2^3]-symmetric",
             _group_algebra(F2, groups.cyclic_product_group([2, 2, 2])), SYM, "yes"),
    Question("Q-TE(quaternions)-symmetric",
             lambda: algebras.trivial_extension(_quaternions()), SYM, "yes", basis_change=False),
    Question("F3^6-division", _field(3, 6), None, "yes"),
    Question("cyc3-frobenius", _cyc(3), FROB, "yes"),
    Question("M4(F3)-C2-graded-frobenius", _good_matrix(F3, (0, 0, 1, 1), groups.cyclic_group(2)),
             GF, "yes", basis_change=False),
    Question("F5^5-division", _field(5, 5), None, "yes"),
    Question("M3(F2)-frobenius", lambda: algebras.matrix_algebra(F2, 3), FROB, "yes"),
    Question("F2[C2^3]-frobenius",
             _group_algebra(F2, groups.cyclic_product_group([2, 2, 2])), FROB, "yes"),
    Question("Q[S3]-symmetric", lambda: algebras.group_algebra(Q, groups.symmetric_group_3()),
             SYM, "yes", basis_change=False),
    Question("F7^4-division", _field(7, 4), None, "yes"),
    Question("F3[D4]-frobenius", _group_algebra(F3, groups.dihedral_group(4)), FROB, "yes"),
    Question("M3(Q)-C3-graded-symmetric", _good_matrix(Q, (0, 1, 2), groups.cyclic_group(3)),
             GS, "yes", basis_change=False),
    Question("cyc3(x)F9-division",
             lambda: algebras.scalar_extension(algebras.cyclic_algebra(3), 2), None, "yes"),
)


def _sweedler(field):
    return lambda: algebras.sweedler_algebra(field)


def _sweedler_times(field, other):
    return lambda: algebras.tensor_product(algebras.sweedler_algebra(field), other())


def _sweedler_te_center(field):
    def build():
        te = algebras.trivial_extension(algebras.sweedler_algebra(field))
        return algebras.subspace_algebra(te, invariants.center(te))
    return build


def _te_field(p, n):
    return lambda: algebras.trivial_extension(_field(p, n)())


def _gram_zero_questions(field, tag):
    """Questions whose Gram determinant vanishes identically over this field.

    Only the inputs of dim <= 4 over F_3 and F_5 get a basis change.  These are
    trivially graded, so a basis change makes the Gram pencil one dense block:
    above dim 12 that exceeds PENCIL_DET_MAX_DIM (the question turns
    undecided), and at dim 12 its cofactor expansion took 15 s over F_3 and
    74 s over F_5.
    """
    no = "gram-det-identically-zero"
    finite = field.is_finite  # inputs over Q get no basis change
    return (
        Question(f"{tag}-Sweedler-symmetric", _sweedler(field), SYM, "no", no,
                 basis_change=finite),
        Question(f"{tag}-Sweedler(x)Sweedler-symmetric",
                 _sweedler_times(field, _sweedler(field)), SYM, "no", no, basis_change=False),
        Question(f"{tag}-Sweedler(x)M2-symmetric",
                 _sweedler_times(field, lambda: algebras.matrix_algebra(field, 2)),
                 SYM, "no", no, basis_change=False),
        Question(f"{tag}-Sweedler(x)M3-symmetric",
                 _sweedler_times(field, lambda: algebras.matrix_algebra(field, 3)),
                 SYM, "no", no, basis_change=False),
        Question(f"{tag}-Sweedler(x)C3-symmetric",
                 _sweedler_times(field, _ungraded_group_algebra(field, groups.cyclic_group(3))),
                 SYM, "no", no, basis_change=False),
        Question(f"{tag}-Z(TE(Sweedler))-symmetric", _sweedler_te_center(field), SYM, "no", no,
                 basis_change=finite),
        Question(f"{tag}-Z(TE(Sweedler))-frobenius", _sweedler_te_center(field), FROB, "no", no,
                 basis_change=finite),
    )


# Answer No.  The division inputs keep their constructed basis: their cost is
# the position of the first zero divisor in scan order, which a random basis
# turns into a heavy-tailed draw (0.1 s to 3.7 s measured for TE(F_{2^8}) and
# TE(F_{3^6})).  TE(F_{2^10}) is undecided today (2^20 elements exceed
# SCAN_BOUND); its dual half is nilpotent, so the known answer is No.
REFUTE = (
    _gram_zero_questions(F3, "F3") + _gram_zero_questions(F5, "F5")
    + _gram_zero_questions(Q, "Q")
    + (
        Question("F3-Sweedler^3-symmetric",
                 _sweedler_times(F3, _sweedler_times(F3, _sweedler(F3))),
                 SYM, "no", "gram-det-identically-zero", basis_change=False),
        Question("TE(F2^8)-division", _te_field(2, 8), None, "no", basis_change=False),
        Question("TE(F3^6)-division", _te_field(3, 6), None, "no", basis_change=False),
        Question("TE(F5^4)-division", _te_field(5, 4), None, "no", basis_change=False),
        Question("TE(F7^3)-division", _te_field(7, 3), None, "no", basis_change=False),
        Question("TE(F2^10)-division", _te_field(2, 10), None, "no", basis_change=False),
    )
)


def pins(workload: str, seed: int) -> dict:
    """The pinned digests that apply to a run at this seed: hunt reports and
    the outputs of inputs without a basis change at every seed, the rest at
    DEFAULT_SEED only."""
    pinned = PINNED[workload]
    if workload == "hunt" or seed == DEFAULT_SEED:
        return pinned
    fixed = {q.name for q in DECIDE + REFUTE if not q.basis_change}
    return {name: digest for name, digest in pinned.items() if name in fixed}


# workload name -> set-up: seed -> the ops of one pass
WORKLOADS = {
    "hunt": hunt_setup,
    "decide": lambda seed: question_setup(DECIDE, seed),
    "refute": lambda seed: question_setup(REFUTE, seed),
}

# sha256 of each op's canonical output bytes, taken at the commit that added
# this benchmark.  Undecided questions have no pin, so deciding them later is
# not a failure.  pins() says which apply at a seed.
PINNED = {
    "hunt": {
        "hunt-p2-m1-cyclic2":
            "76a71dd84c1e74f86a10887f6c2955736b909f647562dcfd88acc01adbe1ab38",
        "hunt-p2-m1-product2x2":
            "e850a46cf3f724a9350763b2d7eafc82f6c6e9548572d5ead9a47c777d3c747f",
        "hunt-p2-m1-cyclic4":
            "810a5eeb3b4c8f50f136011dde5535add9a6ce61dd54cfaa034bc1216e508d84",
        "hunt-p2-m2-cyclic2":
            "99b27e896cbe4f04bc1e9105992363d41befd61ba4794a00abcec6d37d4be1b9",
        "hunt-p2-m2-product2x2":
            "8db1a6fc1d0751b8cf597dddebbe62242af2ecc629ea139e11c889c3dc916f2c",
        "hunt-p2-m2-cyclic4":
            "711b327b7f45304abd72ddb067464e5240afb4a2af7b7bad3942cb70a640e6e6",
        "hunt-p3-m1-cyclic3":
            "0bb71ac9a7389b63d2b302dc48709c237cbeff4db3df786e33d95e149ed5944b",
        "hunt-p3-m3-cyclic3":
            "9bbb3aeac8bbe6fdacb910b30938c52eec1f3d89dad5242d08824c243bcd7691",
        "hunt-p11-m2-cyclic2":
            "d9c563915dc19b0f4949f32af29b29fae0a8e6d294e3e34f87dada4ceec5bacc",
        "hunt-p7-m2-cyclic2":
            "cf429b1c2aa7ad59dc1667778a478ff2e160bbec713eb6a9dcad0592ae1e12ba",
        "hunt-p3-m3-cyclic2":
            "c1144f2777c82bafc4c26d190f613fac6acf5308f37c386c08e60b4818a1b264",
        "hunt-p2-m4-cyclic2":
            "ce0e75f56a2e79b3455d91cafe4034439b9e5bc1f3a5973a35d05e1725a4b89b",
    },
    "decide": {
        "cyc5-graded-frobenius":
            "1d54ce363876325dc2e23ced8d6c472930e49cda5acaf008925703597dc9f84e",
        "cyc3-graded-symmetric":
            "61630668c0449d5b937d600de9b952e36e2c053c70498b3592b20b7e1a729c3d",
        "cyc3-graded-frobenius":
            "c103f9317bb30721b25abaaa286e716426bd2f6c73c847cb071be0f3d48d3a47",
        "M4(F3)-C2-graded-frobenius":
            "1284705d9a133bd156e1d70bd8db26970677be00897de145105d378ae614bd4b",
        "F3[D4]-symmetric":
            "ef7d4ccabae6bf848127769581fa30bc8a047fb7aa15ed73f83a5bd7ba281d32",
        "F3[D4]-frobenius":
            "5f07fc90b050c59ee15054715269c4d810fa50a5dd87010c6b6ada79e3d0c66d",
        "F2[C2^3]-symmetric":
            "42d6869c1c1e40e9c1f2f36dbe1878d4e2a885b41c2482697458d1f66b6f9b68",
        "F2[C2^3]-frobenius":
            "a744edd7837fbe97b5999b8304423aa6a61baba1d620208f831caa351f3f0140",
        "Q-quaternions-graded-symmetric":
            "62d7e1bb90373cfaeff7a9a8c5da67a15090c312f88efb840fe37e24f3d40133",
        "Q-TE(quaternions)-symmetric":
            "0c3d4c47383145b8863324dc82c39d1f62887f24c91a34ce8222eca9bed3a8d7",
        "Q[S3]-symmetric":
            "e70ba6862e60ced03f36ae62335e68fa02e0f316701c00bdc7a1f05f6dced8b2",
        "M3(Q)-C3-graded-symmetric":
            "f35b9f490f9a3a02b117cb38d666ff6d7cdd28431efd27454a11e343c00db3a7",
        "F2^9-division":
            "76059770f5f90b7c1b790483bbba3e4b7f0334936e0cb2e927348b4900b38cf8",
        "F3^6-division":
            "b39dfc4c2af72b2b6660941fcad18d5c7d3cac74a976725cff8cb603c9a0b0a2",
        "F5^5-division":
            "e137922b4ce5fc72cb8d50617d96fb1b2a5d1c6f530567faa389dfee5ee5a546",
        "F7^4-division":
            "f8fec5376b623a96c66627357158453859f13a77fd49e92a7e957e40d9037817",
        "cyc3(x)F9-division":
            "6435e71a951cff23f30a5b8e26fa1d2830b18882a4f6c093147d1d2476f21a06",
    },
    "refute": {
        "F3-Sweedler-symmetric":
            "ef7f4e197f7adf2053c02c14c2ebeca44b1144948e8338cadeaad8f3031aeca5",
        "F3-Sweedler(x)Sweedler-symmetric":
            "649d38f3d0048c6c8fdbeb83c65bc56197aec4da42b25be6400efc9362d7eedb",
        "F3-Sweedler(x)M2-symmetric":
            "0d65fddabfc1ad0f09d938fb77c9359c5e05273016869650d723de6f60b82c2f",
        "F3-Sweedler(x)M3-symmetric":
            "43af7a8c8fa6105fd84b6b8fff8c5ed6c9c6696d81c0cbe407520e989a0b58b7",
        "F3-Sweedler(x)C3-symmetric":
            "d322a6e1c4bbcb80daa91b5cee5e0d9eadccd333363ea8bfd7ed7bd13990a3c4",
        "F3-Z(TE(Sweedler))-symmetric":
            "6263ceed896c3fd6dcc4f339452ae4f486644fc0c3bad44a42d7820f0e65d842",
        "F3-Z(TE(Sweedler))-frobenius":
            "40f349e540789cfb6ef60c1ac7a8ae47881f700ef5d8b9c415baef123bfa1742",
        "F5-Sweedler-symmetric":
            "a0513eb8af3974d3ce45f530d2816cc0e5b676af138744f8d6e4e240a57900ee",
        "F5-Sweedler(x)Sweedler-symmetric":
            "cd051ea31f73f8f2f7354ce27fe0243ab9a065ee01083d52de1c4e544822ddcd",
        "F5-Sweedler(x)M2-symmetric":
            "9c96bf7d96f38d5a6e42a0882eb03b9c103ff4934ae7816ab9c6575c01ebc1d1",
        "F5-Sweedler(x)M3-symmetric":
            "50bcee772efeb068168b940a737a1b071929ff28b0533934864819d9f96bb380",
        "F5-Sweedler(x)C3-symmetric":
            "2acd88120563acdee1bdcf7719249126694b642c1fdce21bb754881a44580c31",
        "F5-Z(TE(Sweedler))-symmetric":
            "2608457e1f42da0e3d54db5b4666841e5d030f2a5ba726eeec8589734f4880b3",
        "F5-Z(TE(Sweedler))-frobenius":
            "53a08391c092da1f892b73d844c054800b5176d0999e7da26853f03e226dbe2b",
        "Q-Sweedler-symmetric":
            "3c022edd1ba9d00b18f278d40bea05b016258e2e49655cc1d73015c5d15b8a63",
        "Q-Sweedler(x)Sweedler-symmetric":
            "98845952c40440f245d200ad7aaf193fe39bd719d2b45a8298a1d9c7ec6eb2f8",
        "Q-Sweedler(x)M2-symmetric":
            "5bda37fd0c92fa207831d82b5322eab8919c24686cea78f9ca1945921ad2aaf6",
        "Q-Sweedler(x)M3-symmetric":
            "9b076d88438d97136f8ad76ce45b86efb15b7710f6c3389bdb40edcd4a68f359",
        "Q-Sweedler(x)C3-symmetric":
            "0166f007305a6d35142bb61339ebccb49f8e393f869a39e401825d4456f012c1",
        "Q-Z(TE(Sweedler))-symmetric":
            "dc200ab023e85fb11876e554c14a1b6f14fc71f76b7d1b9dd3faa6b858d6679a",
        "Q-Z(TE(Sweedler))-frobenius":
            "11f9420073dceabfa9ac31a109ff874562e4140a5226dba123a05b10e8053970",
        "F3-Sweedler^3-symmetric":
            "68ccfa9838937dcc883dfd8f187df031ed245dce043fb29caf907bd4dbbdab02",
        "TE(F2^8)-division":
            "05b1be3ca7212f7fffd9948aecb8326558958ea6c6923f9a54edd1bc0c93e998",
        "TE(F3^6)-division":
            "5f2427ac46c7b3f5a825fbab078eb7b421db73d34801cbaf4dc50f42011e4b66",
        "TE(F5^4)-division":
            "ad6265de417b534b60dab5c24c6b78d8b082e79824a7540a3cc50fda1af1efd5",
        "TE(F7^3)-division":
            "9b9d47d1fd7fe96cd075699d7b99c483a830cd66768b0a167e20b745e7ad4e1f",
    },
}
