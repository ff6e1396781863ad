"""Replication harness: parameterized checks for every headline statement,
a deterministic pseudo-random algebra corpus, and the counterexample hunt
over small crossed products of finite fields.

Every check is exact and deterministic; the hunt enumerates candidates in a
fixed order, counts incompatible (non-associative) data separately, and can
checkpoint/resume by candidate index, re-verifying a parameter hash.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import operator
import os
import random
import time
from dataclasses import dataclass, field as dc_field

from . import algebras
from .algebras import (
    FrobeniusCrossedProducts,
    GradedAlgebra,
    cyclic_algebra,
    direct_product,
    field_as_algebra,
    frobenius_crossed_product,
    frobenius_crossed_spec,
    good_matrix_algebra,
    group_algebra,
    matrix_algebra,
    quaternion_algebra,
    scalar_extension,
    subspace_algebra,
    sweedler_algebra,
    tensor_product,
    trivial_extension,
    ungrade,
)
from .errors import (
    EmptySearch,
    InvalidTable,
    NotDivision,
    ParseError,
    RationalsNotSupported,
    SearchSpaceTooLarge,
)
from .fields import _ext_reduce, canonical_extension_field, make_field, rationals
from .groups import _check_order, cyclic_group, group_from_kind, klein_group
from .invariants import (
    SCAN_BOUND,
    center,
    commutator_subspace,
    graded_commutator_space,
    is_graded_division,
)
from .linalg import Subspace, eliminate_raw
from .specfile import canonical_json, load_json
from .symmetry import (
    LinearFunctional,
    _pullback,
    average_functional,
    check_division_criterion,
    decide_by_enumeration,
    decide_form_existence,
    graded_trace_space,
    graded_trace_witness,
    lift_functional,
    matrix_trace_functional,
    verify_certificate,
)


# -- point replication checks --------------------------------------------------------

def replicate_scalar_extension(a: GradedAlgebra, m: int) -> bool:
    """Commutators commute with scalar extension: the commutator space of the
    extended algebra equals the extension of the commutator space."""
    big = scalar_extension(a, m)
    left = commutator_subspace(big)
    right = commutator_subspace(a).change_field(big.field)
    return left == right


def replicate_commutator_dim(d: GradedAlgebra):
    """Over the center l of a division algebra, dim_l [D,D] = dim_l D - 1.

    Returns True/False for a certified division algebra, None (skipped) when
    the division verdict is Unknown; raises NotDivision on a No verdict.
    """
    if any(deg != d.group.identity for deg in d.degree):
        raise NotDivision("the check applies to trivially graded algebras")
    verdict = is_graded_division(d)
    if verdict.status == "unknown":
        return None
    if verdict.status == "no":
        raise NotDivision(f"not a division algebra: witness {verdict.witness!r}")
    ell_dim = center(d).dim
    comm_dim = commutator_subspace(d).dim
    if d.dim % ell_dim or comm_dim % ell_dim:
        return False
    return comm_dim // ell_dim == d.dim // ell_dim - 1


def replicate_center_symmetry(a: GradedAlgebra):
    """The center of a graded division algebra is symmetric when the
    characteristic does not divide the group order.

    Returns True/False under the hypothesis, None (skipped) when the
    characteristic divides |G|; raises NotDivision off a division algebra.
    """
    verdict = is_graded_division(a)
    if not verdict.is_yes:
        raise NotDivision("the center check needs a graded division algebra")
    if a.field.char != 0 and a.group.order % a.field.char == 0:
        return None
    z = subspace_algebra(a, center(a))
    return decide_form_existence(z, "symmetric").status == "yes"


# -- deterministic pseudo-random corpus ------------------------------------------------

def _lane_packing(field, bound: int):
    """(pack, stride, decode) for ints Kronecker-packed in lanes of w bits,
    w the bit length of bound, which bounds every lane that is decoded.

    pack(v) is the int sum_t v_t 2^(wt) of the coefficients v_t in [0, p)
    of a raw value v, v itself over F_p.  An entry of a packed vector takes
    4n - 3 lanes, stride bits, for n the degree of the field over F_p: room
    for a product of four packed values.  decode(x, indices) reads the
    entries of x, whose lanes must lie in [0, bound], reduces each once, mod
    p over F_p and by _ext_reduce over F_{p^n}, and returns the (index, raw
    value) pairs of its nonzero entries, entry s at indices[s]."""
    p, n, zero = field.char, field.degree, field.ops.zero
    w = bound.bit_length()
    lanes, mask = 4 * n - 3, (1 << w) - 1
    if n == 1:
        def pack(v):
            return v

        def decode(x, indices):
            cell = []
            for s in indices:
                c = (x & mask) % p
                if c:
                    cell.append((s, c))
                x >>= w
            return tuple(cell)
    else:
        def pack(v):
            return sum(c << (w * t) for t, c in enumerate(v))

        def decode(x, indices):
            cell = []
            for s in indices:
                acc = []
                for _ in range(lanes):
                    acc.append(x & mask)
                    x >>= w
                v = _ext_reduce(acc, field)
                if v != zero:
                    cell.append((s, v))
            return tuple(cell)
    return pack, lanes * w, decode


def random_graded_basis_change(a: GradedAlgebra, rng: random.Random) -> GradedAlgebra:
    """Conjugate by a random block-diagonal invertible matrix (grading kept);
    a basis change is an isomorphism, so the result is valid when a is.

    Entries are drawn by element index (Field.raw_at), so the field must be
    finite; each component A_g draws its block B_g row by row, in the order
    of set(a.degree), until the block is invertible.  The new basis vector
    b_i is row i of B, so for i in A_g and j in A_h

        b_i b_j = sum_{l, m, k} B_il B_jm c_lm^k e_k,  e_k = sum_s (B^-1)_ks b_s,

    with l in A_g, m in A_h and k, s in A_gh.  Each pair (g, h) of
    components is one dense block: its terms c_lm^k are contracted with
    B_gh^-1 first, then with B_h, then with B_g, all on unreduced ints, and
    each coefficient of the result is reduced once.  A term c_lm^k with
    deg k != gh breaks the grading and raises InvalidTable.

    The ints are Kronecker-packed (_lane_packing): a raw value is one int,
    a row of B_gh^-1 is one int with 4n - 3 lanes per entry, for n the
    degree of the field over F_p, and a sum of products value * row is one
    int operation per product.  An output coefficient is a sum of at most
    n_g n_h n_gh products of four polynomials of degree < n, and each
    coefficient of such a product is a sum of at most n^3 products of four
    coefficients in [0, p).  So every lane holds a nonnegative int of at
    most n_g n_h n_gh n^3 (p - 1)^4 <= N^3 n^3 (p - 1)^4, for N the largest
    component dim, and lanes as wide as that last bound never carry into
    each other.  The 4n - 3 lanes of an entry are its unreduced product
    polynomial, which is reduced once.  No Scalar is built.
    """
    if not a.field.is_finite:
        raise RationalsNotSupported("random basis changes draw from a finite field")
    field, d, degree = a.field, a.dim, a.degree
    q, ops, raw_at = field.size(), field.ops, field.raw_at
    zero, one = ops.zero, ops.one
    big = max(collections.Counter(degree).values())
    pack, stride, decode = _lane_packing(
        field, big ** 3 * field.degree ** 3 * (field.char - 1) ** 4)
    blocks = {}  # g -> (indices of A_g, their positions, packed B_g, packed rows of B_g^-1)
    unit = [zero] * d
    for g in set(degree):
        idx = a.component_indices(g)
        n = len(idx)
        while True:
            block = [[raw_at(rng.randrange(q)) for _ in range(n)] for _ in range(n)]
            # [block | I] reduces to [I | block^-1] when block is invertible
            aug = [row + [one if c == r else zero for c in range(n)]
                   for r, row in enumerate(block)]
            if eliminate_raw(ops, aug, 2 * n)[:n] == list(range(n)):
                break
        inverse = [row[n:] for row in aug]
        for s, c in zip(idx, ops.forms_at(list(zip(*inverse)), [a.unit[k] for k in idx])):
            unit[s] = c
        blocks[g] = (idx, {k: s for s, k in enumerate(idx)},
                     [[pack(c) for c in row] for row in block],
                     [sum(pack(c) << (stride * s) for s, c in enumerate(row))
                      for row in inverse])

    image = {}
    mul, gtab, old = operator.mul, a.group.table, a.table
    table = [[()] * d for _ in range(d)]
    for g, (gi, _, gb, _) in blocks.items():
        for h, (hi, _, hb, _) in blocks.items():
            out, pos, _, inv = blocks.get(gtab[g][h], ((), {}, (), ()))
            # the packed rows c_lm B_gh^-1, l in A_g, m in A_h
            u = []
            for l in gi:
                row, ul = old[l], []
                for m in hi:
                    x = 0
                    for k, c in row[m]:
                        s = pos.get(k)
                        if s is None:
                            raise InvalidTable(
                                f"structure constant ({l},{m},{k}) breaks the grading")
                        y = image.get(c)
                        if y is None:
                            y = image[c] = pack(c)
                        x += y * inv[s]
                    ul.append(x)
                u.append(ul)
            if not out:
                continue
            # v[l][j] = sum_m B_jm u[l][m], then sum_l B_il v[l][j]
            v = [[sum(map(mul, bj, ul)) for bj in hb] for ul in u]
            cols = list(zip(*v))
            for i, bi in zip(gi, gb):
                row = table[i]
                for j, col in zip(hi, cols):
                    x = sum(map(mul, bi, col))
                    if x:
                        row[j] = decode(x, out)
    return GradedAlgebra._from_raw(field, a.group, degree, table, unit)


def random_small_algebra(field, rng: random.Random) -> GradedAlgebra:
    """A pseudo-random valid graded algebra of dimension <= 5 over a prime field."""
    p = field.char
    if p == 0:
        raise RationalsNotSupported("random_small_algebra needs a finite field")
    if field.degree != 1:
        raise ValueError(f"random_small_algebra needs a prime field, not {field}")
    menu = [
        lambda: group_algebra(field, cyclic_group(rng.choice([2, 3, 4, 5]))),
        lambda: group_algebra(field, klein_group()),
        lambda: field_as_algebra(canonical_extension_field(p, rng.choice([2, 3, 4, 5])), field),
        lambda: trivial_extension(group_algebra(field, cyclic_group(2))),
        lambda: matrix_algebra(field, 2),
        lambda: good_matrix_algebra(2, [0, 1],
                                    field_as_algebra(field, field, cyclic_group(2))),
        lambda: direct_product(group_algebra(field, cyclic_group(2)),
                               group_algebra(field, cyclic_group(2))),
        lambda: tensor_product(group_algebra(field, cyclic_group(2)),
                               group_algebra(field, cyclic_group(2))),
        lambda: frobenius_crossed_product(canonical_extension_field(p, 2), cyclic_group(2), [1]),
    ]
    if p == 2:
        menu.append(lambda: cyclic_algebra(2))
    else:
        menu.append(lambda: quaternion_algebra(field, -1, -1))
        menu.append(lambda: sweedler_algebra(field))
    a = rng.choice(menu)()
    if rng.random() < 0.5:
        a = random_graded_basis_change(a, rng)
    return a


def scalar_extension_corpus_check(count: int = 50, seed: int = 20250808) -> tuple:
    """Run the commutator/extension equality over a deterministic corpus.

    Returns (all_ok, instances_checked).
    """
    rng = random.Random(seed)
    checked = 0
    for field in (make_field(2), make_field(3)):
        for _ in range(count // 2):
            a = random_small_algebra(field, rng)
            for m in (2, 3):
                if not replicate_scalar_extension(a, m):
                    return False, checked
            checked += 1
    return True, checked


def dim4_f2_corpus() -> list:
    """Every constructor-combination graded algebra of dim <= 4 over F_2 used
    by the decision-vs-enumeration agreement check; deterministic order."""
    f2 = make_field(2)
    f4 = canonical_extension_field(2, 2)
    c2 = cyclic_group(2)
    out = [
        ("unit-field", field_as_algebra(f2, f2)),
        ("group-C2", group_algebra(f2, cyclic_group(2))),
        ("group-C3", group_algebra(f2, cyclic_group(3))),
        ("group-C4", group_algebra(f2, cyclic_group(4))),
        ("group-klein", group_algebra(f2, klein_group())),
        ("cyclic-skew-2", cyclic_algebra(2)),
        ("matrix-2-trivial", matrix_algebra(f2, 2)),
        ("matrix-2-good", good_matrix_algebra(2, [0, 1],
                                              field_as_algebra(f2, f2, c2))),
        ("te-field", trivial_extension(field_as_algebra(f2, f2))),
        ("te-group-C2", trivial_extension(group_algebra(f2, cyclic_group(2)))),
        ("tensor-C2-C2", tensor_product(group_algebra(f2, cyclic_group(2)),
                                        group_algebra(f2, cyclic_group(2)))),
        ("product-C2-C2", direct_product(group_algebra(f2, cyclic_group(2)),
                                         group_algebra(f2, cyclic_group(2)))),
        ("ext-field-F4", field_as_algebra(f4, f2)),
        ("crossed-F4-frob", frobenius_crossed_product(f4, c2, [1])),
        ("crossed-F4-trivial", frobenius_crossed_product(f4, c2, [0])),
        # alpha(g, g) is the generator x of F_4
        ("crossed-F4-twisted", frobenius_crossed_product(f4, c2, [0], [0, 1])),
        ("ungraded-cyclic-2", ungrade(cyclic_algebra(2))),
        ("te-ungraded-C2", trivial_extension(ungrade(group_algebra(f2, cyclic_group(2))))),
        ("matrix-2-klein", good_matrix_algebra(2, [0, 1],
                                               field_as_algebra(f2, f2, klein_group()))),
        ("te-ext-field", trivial_extension(field_as_algebra(f4, f2))),
    ]
    return out


# -- the hunt ------------------------------------------------------------------------------

CHECKPOINT_EVERY = 200  # candidates between two checkpoint writes of a hunt


@dataclass(frozen=True)
class HuntParams:
    characteristic: int
    extension_degrees: tuple
    group_kinds: tuple  # GroupTable.kind tuples, built by groups.group_from_kind

    def __post_init__(self):
        _check_characteristic(self.characteristic)
        if not self.extension_degrees or not self.group_kinds:
            raise EmptySearch("a hunt needs at least one extension degree and one group")
        _check_field_sizes(self.characteristic, max(self.extension_degrees))

    def to_dict(self) -> dict:
        return {
            "characteristic": self.characteristic,
            "extension_degrees": list(self.extension_degrees),
            "groups": [[k[0]] + [list(x) if isinstance(x, tuple) else x
                                 for x in k[1:]] for k in self.group_kinds],
        }

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()


def _check_characteristic(p: int):
    """Refuse a characteristic that is not prime before anything is sized:
    make_field refuses 1, 4, ..., and 0 is refused as the rationals."""
    make_field(p)
    if p == 0:
        raise RationalsNotSupported("a hunt enumerates finite fields F_{p^m}")


def _check_field_sizes(p: int, max_degree: int):
    """Refuse a hunt whose largest field F_{p^max_degree} has more than
    SCAN_BOUND elements: is_graded_division of its D would be unknown, and
    the hunt would count its candidates as tested but not division.  The
    power is built one factor at a time, so a huge degree stops at the
    bound."""
    size = 1
    for _ in range(max_degree if p >= 2 else 0):
        size *= p
        if size > SCAN_BOUND:
            raise SearchSpaceTooLarge(f"F_{{{p}^{max_degree}}} has more than {SCAN_BOUND} "
                                      f"elements, beyond the division scan")


def default_hunt_params(characteristic: int, max_group: int = 8,
                        max_ext: int = 3) -> HuntParams:
    _check_characteristic(characteristic)
    _check_order(max_group)  # C_max_group is in the stream: refuse it before any kind
    _check_field_sizes(characteristic, max_ext)  # and F_{p^max_ext} before any degree
    kinds = [("cyclic", n) for n in range(2, max_group + 1)]
    kinds += [("product", tuple(f)) for f in _cyclic_factorizations(max_group)]
    kinds += [("dihedral", n) for n in range(3, max_group // 2 + 1)]
    return HuntParams(characteristic, tuple(range(1, max_ext + 1)), tuple(kinds))


def _cyclic_factorizations(max_order: int) -> list:
    """Every non-decreasing list of >= 2 factors >= 2 with product <= max_order,
    once each."""
    out = []
    def rec(prefix, remaining_min, product):
        for n in range(remaining_min, max_order + 1):
            if product * n > max_order:
                break
            out.append(prefix + [n])
            rec(prefix + [n], n, product * n)
    rec([], 2, 1)
    return [f for f in out if len(f) >= 2]


def hunt_candidates(params: HuntParams):
    """Deterministic candidate stream: (index, (ext, group, sigma_powers,
    alpha_unit)), the arguments of algebras.frobenius_crossed_product.

    A candidate is a coefficient field F_{p^m}, a group, one Frobenius power
    per non-identity element, and a single unit u twisting alpha(g,h) = u for
    g,h both non-identity, as its coefficient tuple over F_p.  The stream
    runs through every unit of one action (field, group, powers) before the
    next action, which hunt_counterexample relies on to keep one
    algebras.FrobeniusCrossedProducts at a time.  Non-cocycle data is not
    filtered here: the builder refuses it before any table is built.
    """
    p = params.characteristic
    index = 0
    for m in params.extension_degrees:
        ext = canonical_extension_field(p, m)
        units = [ext.element_at(u).coefficients() for u in range(1, p ** m)]
        for kind in params.group_kinds:
            group = group_from_kind(kind)
            for sigma_powers in itertools.product(range(m), repeat=group.order - 1):
                for unit in units:
                    yield index, (ext, group, sigma_powers, unit)
                    index += 1


@dataclass
class HuntReport:
    parameters: dict
    candidates_enumerated: int = 0
    incompatible_count: int = 0
    instances_tested: int = 0
    division_count: int = 0
    non_symmetric_instances: list = dc_field(default_factory=list)
    no_base_field_point_instances: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "parameters": self.parameters,
            "candidates_enumerated": self.candidates_enumerated,
            "incompatible_count": self.incompatible_count,
            "instances_tested": self.instances_tested,
            "division_count": self.division_count,
            "non_symmetric_instances": self.non_symmetric_instances,
            "no_base_field_point_instances": self.no_base_field_point_instances,
        }


def hunt_counterexample(params: HuntParams, checkpoint_path: str | None = None,
                        resume: str | None = None) -> HuntReport:
    """Search small crossed products for a graded division algebra that is not
    graded symmetric; expected (and so far observed) to come back empty.

    A candidate's identity component A_e is its coefficient field D =
    F_{p^m}: the builder lays D out as block e, from the D that
    algebras._frobenius_coefficients caches per field.  So the call decides
    is_graded_division of that D on the first tested candidate of each
    field, and every later candidate over the field reads the answer from a
    dict made afresh for the call; no candidate's A_e is built.

    A candidate whose A_e is division is proved graded division by its
    certificate alone: the hunt builds symmetry.graded_trace_witness, the
    regular trace of A_e composed with the projection onto it, and checks
    it with verify_certificate.  A verified witness vanishes off A_e and has
    a nondegenerate form, which with a division A_e makes the candidate
    graded division (the lemma in graded_trace_witness), and it proves the
    candidate graded symmetric, so it is no finding; the division criterion
    is cross-checked against that "yes" (symmetry.check_division_criterion).
    Only a failed witness sends the candidate to is_graded_division.  Over
    a finite field the witness of a graded division algebra always
    verifies: A_e is a field and the witness its nonzero trace form.  So a
    Yes there raises AssertionError as a bug rather than being decided, and
    a No leaves the candidate out of division_count; decide_form_existence
    is not run.  The report's finding lists therefore stay empty over
    finite fields; they remain in the report and checkpoint layout.
    Whether a finding can exist over other fields is the open note of
    symmetry.graded_division_criterion.

    Each candidate is built by the algebras.FrobeniusCrossedProducts of its
    action, made at the first candidate of the action and kept until the
    stream moves on: the exponents and the conjugation law are decided once
    per action, its untwisted rows built once at its first accepted twist,
    and each candidate adds only its cocycle law and twisted blocks.
    Candidates whose data fails the crossed-product laws, so that
    frobenius_crossed_product would refuse them, are counted separately,
    never treated as errors, and nothing is raised or formatted for them.
    With checkpoint_path set, progress is written every CHECKPOINT_EVERY
    candidates to a sibling temp file that then replaces the checkpoint, so
    a hunt killed mid-write leaves the previous checkpoint whole.  resume
    re-verifies the parameter hash and the consistency of the counters; a
    checkpoint past the end of the candidate stream, or with any finding
    (this hunt never records one), raises ParseError.
    """
    report = HuntReport(parameters=params.to_dict())
    start_index = 0
    if resume is not None:
        start_index = _load_checkpoint(resume, params, report)

    def save_checkpoint(next_index: int):
        if checkpoint_path is None:
            return
        ck = {"params_sha256": params.digest(), "next_index": next_index}
        ck.update(report.to_dict())
        del ck["parameters"]
        tmp = checkpoint_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(ck) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, checkpoint_path)

    candidates = hunt_candidates(params)
    skipped = sum(1 for _ in itertools.islice(candidates, start_index))
    if skipped < start_index:
        raise ParseError(f"checkpoint resumes at candidate {start_index}, "
                         f"but the hunt has only {skipped}")
    division_fields = {}  # ext -> whether D = ext is division, for this call only
    sigma = products = None  # the current action (ext, group, sigma_powers) and its builder
    for index, (ext, group, sigma_powers, unit) in candidates:
        report.candidates_enumerated += 1
        if (ext, group, sigma_powers) != sigma:
            sigma = (ext, group, sigma_powers)
            products = FrobeniusCrossedProducts(*sigma)
        a = products.product_if_compatible(unit)
        if a is None:
            report.incompatible_count += 1
        else:
            report.instances_tested += 1
            if ext not in division_fields:
                # looked up on algebras, as the builder does, so that both read one D
                d = algebras._frobenius_coefficients(ext).d
                division_fields[ext] = is_graded_division(d).is_yes
            if division_fields[ext]:
                check = verify_certificate(a, graded_trace_witness(a), "graded-symmetric")
                if check.ok:
                    report.division_count += 1
                    check_division_criterion(a, "yes")
                elif is_graded_division(a).is_yes:
                    raise AssertionError(f"regular-trace witness failed on a graded "
                                         f"division candidate: {check}; this is a bug")
        if (index + 1) % CHECKPOINT_EVERY == 0:
            save_checkpoint(index + 1)
    save_checkpoint(report.candidates_enumerated)
    return report


def _load_checkpoint(path: str, params: HuntParams, report: HuntReport) -> int:
    """Restore the report counters from a checkpoint; return the next index.

    The counters must be those of a hunt stopped at next_index: every
    candidate before it enumerated, each either incompatible or tested, and
    at most the tested ones graded division.  The finding lists must be
    empty: a failing witness raises instead of being recorded, so a
    checkpoint that lists a finding was not written by this hunt.
    """
    ck = load_json(path)
    if not isinstance(ck, dict) or "params_sha256" not in ck:
        raise ParseError(f"{path} is not a hunt checkpoint")
    if ck["params_sha256"] != params.digest():
        raise ParseError("checkpoint was written for different hunt parameters")
    saved = report.to_dict()  # the layout save_checkpoint writes
    del saved["parameters"]
    for key, value in [("next_index", 0), *saved.items()]:
        if type(ck.get(key)) is not type(value):
            raise ParseError(f"checkpoint key {key!r} must hold a {type(value).__name__}")
    if ck["non_symmetric_instances"] or ck["no_base_field_point_instances"]:
        raise ParseError("checkpoint lists a finding, which this hunt never records")
    bad, tested, division = ck["incompatible_count"], ck["instances_tested"], ck["division_count"]
    if not (ck["next_index"] == ck["candidates_enumerated"] == bad + tested
            and min(bad, tested) >= 0 and 0 <= division <= tested):
        raise ParseError("checkpoint counters are inconsistent")
    for key in saved:
        setattr(report, key, ck[key])
    return ck["next_index"]


# -- the full replication suite ---------------------------------------------------------------

@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass
class SuiteReport:
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {"results": [r.to_dict() for r in self.results],
                "passed": self.passed}


def check_division_commutator_dimension():
    q = rationals()
    details = []
    ok = True
    for b in (-1, -3):
        d = ungrade(quaternion_algebra(q, -1, b))
        res = replicate_commutator_dim(d)
        comm = commutator_subspace(d).dim
        ok = ok and res is True and comm == 3 and d.dim == 4
        details.append(f"(-1,{b}): dim[D,D]={comm}, dim D={d.dim}, identity={res}")
    return ok, "; ".join(details)


def check_matrix_commutator_dimension():
    d2 = commutator_subspace(matrix_algebra(make_field(5), 2)).dim
    d3 = commutator_subspace(matrix_algebra(make_field(7), 3)).dim
    return (d2 == 3 and d3 == 8), f"M_2(F_5): {d2} (want 3); M_3(F_7): {d3} (want 8)"


def check_scalar_extension_corpus():
    ok, checked = scalar_extension_corpus_check()
    return ok and checked == 50, f"{checked} algebras x extensions of degree 2 and 3"


def check_char0_division_graded_symmetric():
    a = quaternion_algebra(rationals(), -1, -1)
    verdict = is_graded_division(a)
    decision = decide_form_existence(a, "graded-symmetric")
    if verdict.is_yes:
        check_division_criterion(a, decision.status)
    cert_ok = decision.is_yes and verify_certificate(a, decision.witness,
                                                     "graded-symmetric").ok
    return (verdict.is_yes and cert_ok), \
        f"division={verdict.status}, decision={decision.status}, certificate={cert_ok}"


def check_modular_group_algebra_symmetric():
    ok = True
    details = []
    for p in (2, 3, 5):
        a = group_algebra(make_field(p), cyclic_group(p))
        decision = decide_form_existence(a, "graded-symmetric")
        good = decision.is_yes and verify_certificate(a, decision.witness,
                                                      "graded-symmetric").ok
        ok = ok and good
        details.append(f"p={p}: {decision.status}")
    return ok, "; ".join(details)


def check_cyclic_skew_group_algebra():
    ok = True
    details = []
    for p in (2, 3, 5):
        a = cyclic_algebra(p)
        f = a.field
        space = graded_commutator_space(a)
        rows = []
        for i in range(p - 1):
            row = [f.zero()] * a.dim
            row[i] = f.one()
            rows.append(row)
        expected = Subspace.from_vectors(f, a.dim, rows)
        decision = decide_form_existence(a, "graded-symmetric")
        good = (space == expected and space.dim == p - 1 and decision.is_yes
                and verify_certificate(a, decision.witness, "graded-symmetric").ok)
        ok = ok and good
        details.append(f"p={p}: commutator span dim {space.dim}, {decision.status}")
    return ok, "; ".join(details)


def _good_matrix_instances():
    f2, q = make_field(2), rationals()
    c2, c3 = cyclic_group(2), cyclic_group(3)
    return [
        ("M2(F2)(e,g)", 2, (0, 1), c2, f2),
        ("M2(Q)(e,g)", 2, (0, 1), c2, q),
        ("M3(F2)(e,e,g)", 3, (0, 0, 1), c2, f2),
        ("M3(Q)(e,g,g2)", 3, (0, 1, 2), c3, q),
    ]


def check_good_matrix_trace_certificates():
    ok = True
    details = []
    for name, n, sigmas, group, f in _good_matrix_instances():
        delta = field_as_algebra(f, f, group)
        m = good_matrix_algebra(n, sigmas, delta)
        lam = LinearFunctional(delta, [f.one()])
        trace_fn = matrix_trace_functional(m, lam)
        trace_ok = verify_certificate(m, trace_fn, "graded-symmetric").ok
        decision = decide_form_existence(m, "graded-symmetric")
        generic_ok = decision.is_yes and verify_certificate(
            m, decision.witness, "graded-symmetric").ok
        agree = trace_ok and generic_ok
        ok = ok and agree
        details.append(f"{name}: trace={trace_ok}, generic={decision.status}")
    return ok, "; ".join(details)


def check_semisimple_direct_products():
    q = rationals()
    c2 = cyclic_group(2)
    delta = field_as_algebra(q, q, c2)
    m2 = good_matrix_algebra(2, (0, 1), delta)
    m3 = good_matrix_algebra(3, (0, 0, 1), delta)
    ok = True
    details = []
    for name, prod in (("M2xM2", direct_product(m2, m2)),
                       ("M2xM3", direct_product(m2, m3))):
        decision = decide_form_existence(prod, "graded-symmetric")
        good = decision.is_yes and verify_certificate(
            prod, decision.witness, "graded-symmetric").ok
        ok = ok and good
        details.append(f"{name}: {decision.status}")
    return ok, "; ".join(details)


def check_sweedler_center_not_frobenius():
    ok = True
    details = []
    for f, name in ((make_field(3), "F3"), (make_field(5), "F5"), (rationals(), "Q")):
        t = trivial_extension(sweedler_algebra(f))
        z = center(t)
        e = subspace_algebra(t, z)
        u, v = e.basis_element(1), e.basis_element(2)
        radical_ok = (u * u).is_zero and (u * v).is_zero and (v * u).is_zero \
            and (v * v).is_zero
        decision = decide_form_existence(e, "frobenius")
        refuted = decision.status == "no" and \
            decision.refutation == "gram-det-identically-zero"
        brute_ok = True
        if f.is_finite:
            status, _ = decide_by_enumeration(e, "frobenius")
            brute_ok = status == "no"
        good = z.dim == 3 and radical_ok and refuted and brute_ok
        ok = ok and good
        details.append(f"{name}: center dim {z.dim}, {decision.refutation}")
    return ok, "; ".join(details)


def check_division_trivial_extension_center():
    q = rationals()
    t = trivial_extension(quaternion_algebra(q, -1, -1))
    z = center(t)
    e = subspace_algebra(t, z)
    decision = decide_form_existence(e, "symmetric")
    cert_ok = decision.is_yes and verify_certificate(e, decision.witness,
                                                     "symmetric").ok
    return (z.dim == 2 and cert_ok), \
        f"center dim {z.dim} (want 2), symmetric={decision.status}"


def _frobenius_actions():
    """F_9 and F_25 acted on by Frobenius over C2: (name, builder arguments)."""
    return [(f"F_{p ** 2}^Frob[C2]/F_{p}", (make_field(p, modulus), cyclic_group(2), [1]))
            for p, modulus in ((3, [1, 0, 1]), (5, [2, 0, 1]))]


def check_crossed_center_symmetric():
    ok = True
    details = []
    for name, args in _frobenius_actions():
        a = frobenius_crossed_product(*args)
        res = replicate_center_symmetry(a)
        ok = ok and res is True
        details.append(f"{name}: center symmetric={res}")
    return ok, "; ".join(details)


def check_averaging_and_lifting():
    ok = True
    details = []
    for name, args in _frobenius_actions():
        spec = frobenius_crossed_spec(*args)
        d = spec.coeff
        f = d.field
        mu = LinearFunctional(d, [f.one()] + [f.zero()] * (d.dim - 1))
        lam = average_functional(spec, mu)
        invariant = all(_pullback(lam, s) == lam.coords for s in spec.sigma.values())
        value_ok = lam(d.one()) == f.from_int(spec.group.order) * mu(d.one())
        lifted = lift_functional(spec, lam)
        cert_ok = verify_certificate(lifted.owner, lifted, "graded-symmetric").ok
        good = invariant and value_ok and cert_ok
        ok = ok and good
        details.append(f"{name}: invariant={invariant}, lam(1)={lam(d.one())!r}, "
                       f"lifted certificate={cert_ok}")
    return ok, "; ".join(details)


def check_decision_matches_enumeration():
    ok = True
    mismatches = []
    count = 0
    for name, a in dim4_f2_corpus():
        if graded_trace_space(a, "graded-symmetric").dim > 4:
            continue
        count += 1
        decision = decide_form_existence(a, "graded-symmetric")
        brute, _ = decide_by_enumeration(a, "graded-symmetric")
        if (decision.status == "yes") != (brute == "yes"):
            ok = False
            mismatches.append(name)
    detail = f"{count} corpus instances agree" if ok \
        else f"mismatch at {mismatches}"
    return ok, detail


# Regression values frozen from the first verified run of the char-2 hunt
# (57 candidates enumerated, 44 fail the crossed-product laws).
HUNT_CHAR2_INSTANCES_TESTED = 13
HUNT_CHAR2_DIVISION_COUNT = 13


def hunt_char2_params() -> HuntParams:
    return HuntParams(2, (1, 2), (("cyclic", 2), ("product", (2, 2)), ("cyclic", 4)))


def check_hunt_char2_regression():
    report = hunt_counterexample(hunt_char2_params())
    empty = not report.non_symmetric_instances and \
        not report.no_base_field_point_instances
    counts_ok = (report.instances_tested == HUNT_CHAR2_INSTANCES_TESTED
                 and report.division_count == HUNT_CHAR2_DIVISION_COUNT)
    detail = (f"enumerated {report.candidates_enumerated}, "
              f"tested {report.instances_tested}, "
              f"division {report.division_count}, "
              f"incompatible {report.incompatible_count}, "
              f"non-symmetric {len(report.non_symmetric_instances)}")
    return empty and counts_ok, detail


CRITERIA = (
    ("division-commutator-dimension", check_division_commutator_dimension),
    ("matrix-commutator-dimension", check_matrix_commutator_dimension),
    ("scalar-extension-commutators", check_scalar_extension_corpus),
    ("char0-division-graded-symmetric", check_char0_division_graded_symmetric),
    ("modular-group-algebra-symmetric", check_modular_group_algebra_symmetric),
    ("cyclic-skew-group-algebra", check_cyclic_skew_group_algebra),
    ("good-matrix-trace-certificates", check_good_matrix_trace_certificates),
    ("semisimple-direct-products", check_semisimple_direct_products),
    ("sweedler-center-not-frobenius", check_sweedler_center_not_frobenius),
    ("division-trivial-extension-center", check_division_trivial_extension_center),
    ("crossed-product-center-symmetric", check_crossed_center_symmetric),
    ("averaging-and-lifting", check_averaging_and_lifting),
    ("decision-matches-enumeration", check_decision_matches_enumeration),
    ("hunt-char2-regression", check_hunt_char2_regression),
)


def run_replication_suite(names=None) -> SuiteReport:
    """Run every replication criterion (or the named subset), collecting
    pass/fail lines; the canonical report is timing-free and byte-stable."""
    results = []
    for name, fn in CRITERIA:
        if names is not None and name not in names:
            continue
        start = time.time()
        try:
            passed, details = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(name, passed, details, time.time() - start))
    return SuiteReport(results)
