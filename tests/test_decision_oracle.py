"""The walk-first decision against the expand-first decision it replaced.

The reference keeps the older path: structured_det multiplied out every
block determinant with pencil_det, a vanishing block refuted, and only then
was the grid walked on the factored product.  The decision now walks first,
proves a vanishing block by a shrunk subspace, and expands a block only when
none turns up, so both must give the same certificate bytes (or raise the
same exception type) on every input.

The Gram pencil is a grid of linear forms; the symbolic pencil it replaced,
a grid of MultiPoly entries built term by term, is kept here as the oracle
for its entries and its determinant.
"""

import itertools
import json
import random

import pytest

from grasym import (
    CrossedProductSpec,
    center,
    component_has_invertible,
    cyclic_algebra,
    cyclic_group,
    decide_form_existence,
    field_as_algebra,
    good_matrix_algebra,
    group_algebra,
    make_field,
    matrix_algebra,
    quaternion_algebra,
    rationals,
    subspace_algebra,
    sweedler_algebra,
    trivial_extension,
)
from grasym.algebras import frobenius_crossed_product
from grasym.errors import (
    AsymmetricMu,
    DimensionTooLarge,
    GrasymError,
    IncompatibleCocycleData,
    SearchSpaceTooLarge,
)
from grasym.groups import symmetric_group_3, trivial_group
from grasym import invariants, multipoly, symmetry
from grasym.linalg import Matrix
from grasym.multipoly import (
    SEARCH_BUDGET,
    FactoredPoly,
    GramPencil,
    MultiPoly,
    _support_components,
    nonvanishing_point,
    pencil_det,
    structured_det,
)
from grasym.replicate import (
    HuntParams,
    dim4_f2_corpus,
    hunt_candidates,
    hunt_char2_params,
    random_small_algebra,
)
from grasym.specfile import canonical_json, certificate_to_dict
from grasym.symmetry import (
    ENUMERATION_BOUND,
    MAX_TRACE_SPACE_DIM,
    MODES,
    LinearFunctional,
    SymmetryVerdict,
    average_functional,
    decide_by_enumeration,
    gram_matrix,
    gram_pencil,
    graded_trace_space,
    lift_functional,
    verify_certificate,
)
from conftest import constant_alpha, scalar_table, trivial_sigma
from test_multipoly import _grid, pencil as forms_pencil, unsplit_point


# -- the reference: expand every block, test zero, then walk ----------------------

def eager_structured_det(pencil: GramPencil) -> FactoredPoly:
    d, field, m = pencil.dim, pencil.field, pencil.num_vars
    zero = FactoredPoly(field, m, 1, (MultiPoly.zero(field, m),))
    components = _support_components(pencil)
    if any(len(rows) != len(cols) for rows, cols in components):
        return zero
    col_of_row = [0] * d
    factors = []
    for rows, cols in components:
        for r, c in zip(rows, cols):
            col_of_row[r] = c
        f = pencil_det(GramPencil(field, len(rows), m, tuple(
            tuple(pencil.entries[i][j] for j in cols) for i in rows)))
        if f.is_zero:
            return zero
        factors.append(f)
    inversions = sum(1 for a in range(d) for b in range(a + 1, d)
                     if col_of_row[a] > col_of_row[b])
    return FactoredPoly(field, m, -1 if inversions % 2 else 1, factors)


def _first_nonzero_on_grid(det, field, deg):
    for point in itertools.product(_grid(field, deg + 1), repeat=det.num_vars):
        if not det.evaluate(point).is_zero:
            return point
    return None


def eager_point(det: FactoredPoly, field):
    """The first grid point where a nonzero det is nonzero, or None."""
    m, deg, size = det.num_vars, det.total_degree(), field.size()
    if size is not None and size <= deg and size ** m > SEARCH_BUDGET:
        raise SearchSpaceTooLarge(f"{size}^{m} points exceed the exhaustive budget")
    return _first_nonzero_on_grid(det, field, deg)


def eager_decide(a, mode) -> SymmetryVerdict:
    space = graded_trace_space(a, mode)
    if space.dim == 0:
        return SymmetryVerdict(mode, "no", refutation="trace-space-zero")
    if space.dim > MAX_TRACE_SPACE_DIM:
        raise DimensionTooLarge("trace space too large")
    det = eager_structured_det(gram_pencil(a, [LinearFunctional(a, r) for r in space.basis]))
    if det.is_zero:
        return SymmetryVerdict(mode, "no", refutation="gram-det-identically-zero",
                               trace_space_dim=space.dim)
    point = eager_point(det, a.field)
    if point is None:
        raise AssertionError("no point over the base field on a nonzero det")
    witness = LinearFunctional(a, Matrix(a.field, space.basis).transpose().mulvec(point))
    return SymmetryVerdict(mode, "yes", witness=witness,
                           gram_rank=gram_matrix(a, witness).rank(),
                           trace_space_dim=space.dim)


# -- the corpus --------------------------------------------------------------------

def _rationals_corpus():
    q = rationals()
    quaternions = quaternion_algebra(q, -1, -1)
    return [("Q-quaternions", quaternions),
            ("Q-TE(quaternions)", trivial_extension(quaternions)),
            ("Q[C2]", group_algebra(q, cyclic_group(2))),
            ("Q[S3]", group_algebra(q, symmetric_group_3())),
            ("M2(Q)", matrix_algebra(q, 2)),
            ("Q-Sweedler", sweedler_algebra(q))]


def _hunt_accepted():
    out = []
    for params in (hunt_char2_params(), HuntParams(3, (1, 3), (("cyclic", 3),))):
        for index, args in hunt_candidates(params):
            try:
                out.append((f"hunt-p{params.characteristic}-{index}",
                            frobenius_crossed_product(*args)))
            except IncompatibleCocycleData:
                continue
    return out


def _corpus():
    out = list(dim4_f2_corpus())
    for p in (2, 3, 5):
        rng = random.Random(9000 + p)
        out += [(f"random-F{p}-{k}", random_small_algebra(make_field(p), rng))
                for k in range(20)]
    out += _rationals_corpus()
    out.append(("cyc3", cyclic_algebra(3)))
    out += _hunt_accepted()
    return out


CORPUS = _corpus()


def _outcome(decide, a, mode) -> str:
    try:
        return canonical_json(certificate_to_dict(a, decide(a, mode)))
    except GrasymError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("mode", MODES)
def test_walk_first_decisions_match_the_expand_first_reference(mode):
    statuses = set()
    enumerated = 0
    for name, a in CORPUS:
        got = _outcome(decide_form_existence, a, mode)
        assert got == _outcome(eager_decide, a, mode), (name, mode)
        status = json.loads(got)["status"] if got.startswith("{") else got
        statuses.add(status)
        # descent: a witness over an extension means one over the base field,
        # so trying every trace functional over it agrees with the engine
        q = a.field.size()
        if status in ("yes", "no") and q is not None \
                and q ** graded_trace_space(a, mode).dim <= ENUMERATION_BOUND:
            assert decide_by_enumeration(a, mode)[0] == status, (name, mode)
            enumerated += 1
    assert "yes" in statuses and enumerated > 0


def _m4_f3_c2():
    f3 = make_field(3)
    return good_matrix_algebra(4, [0, 0, 1, 1], field_as_algebra(f3, f3, cyclic_group(2)))


@pytest.mark.parametrize("build,mode,status", [
    # two groups of four 2x2 blocks on t_1..t_4 and t_5..t_8: each group
    # finds its first witness within the walk, so no block is expanded
    (_m4_f3_c2, "graded-frobenius", "yes"),
    # one group, two 2x2 blocks on all four unknowns, whose first witness is
    # grid point 30: the walk fails, the zero test expands both blocks, and
    # the walk goes on
    (lambda: matrix_algebra(rationals(), 2), "frobenius", "yes"),
    # a pencil with a non-square block: the determinant is zero outright
    (lambda: sweedler_algebra(make_field(3)), "symmetric", "no"),
    (lambda: sweedler_algebra(rationals()), "symmetric", "no"),
])
def test_both_fallbacks_of_the_walk_match_the_reference(build, mode, status):
    a = build()
    got = _outcome(decide_form_existence, a, mode)
    assert got == _outcome(eager_decide, a, mode)
    assert f'"status":"{status}"' in got


@pytest.mark.parametrize("build,mode,expanded", [
    (_m4_f3_c2, "graded-frobenius", 0),
    (lambda: matrix_algebra(rationals(), 2), "frobenius", 2),
])
def test_only_a_group_without_a_witness_in_the_walk_is_expanded(monkeypatch, build, mode,
                                                                 expanded):
    a = build()
    calls = []
    monkeypatch.setattr(multipoly, "pencil_det",
                        lambda pencil: calls.append(pencil) or pencil_det(pencil))
    assert decide_form_existence(a, mode).is_yes
    assert len(calls) == expanded


@pytest.mark.parametrize("mode", MODES)
def test_split_search_decides_as_the_unsplit_walk(monkeypatch, mode):
    algebras = [a for _, a in CORPUS] + [_m4_f3_c2()]
    split = 0
    for a in algebras:
        space = graded_trace_space(a, mode)
        if 0 < space.dim <= MAX_TRACE_SPACE_DIM:
            det = structured_det(gram_pencil(a, [LinearFunctional(a, r) for r in space.basis]))
            split += len(multipoly._unknown_groups(det)) > 1
    decisions = [_outcome(decide_form_existence, a, mode) for a in algebras]
    units = [_units(a) for a in algebras]
    monkeypatch.setattr(symmetry, "nonvanishing_point", unsplit_point)
    monkeypatch.setattr(invariants, "nonvanishing_point", unsplit_point)
    assert [_outcome(decide_form_existence, a, mode) for a in algebras] == decisions
    assert [_units(a) for a in algebras] == units
    assert split >= 4


def _units(a) -> list:
    """The unit found in each homogeneous component, or None."""
    out = []
    for g in sorted(set(a.degree)):
        ok, witness, _ = component_has_invertible(a, g)
        out.append(witness.coords if ok else None)
    return out


def test_lazy_block_values_match_the_expanded_blocks():
    # evaluate() must give the determinant's value, not only its zero test,
    # so the sign of every row swap counts
    checked = 0
    for name, a in CORPUS:
        for mode in ("graded-frobenius", "symmetric"):
            space = graded_trace_space(a, mode)
            if not 0 < space.dim <= MAX_TRACE_SPACE_DIM or a.dim > 8:
                continue
            pencil = gram_pencil(a, [LinearFunctional(a, r) for r in space.basis])
            lazy, eager = structured_det(pencil), eager_structured_det(pencil)
            rng = random.Random(name)
            for _ in range(3):
                if a.field.char == 0:
                    point = tuple(a.field.from_int(rng.randrange(-3, 4))
                                  for _ in range(space.dim))
                else:
                    point = tuple(a.field.element_at(rng.randrange(a.field.size()))
                                  for _ in range(space.dim))
                assert lazy.evaluate(point) == eager.evaluate(point), (name, mode)
                checked += 1
    assert checked > 300


# -- the forms pencil against the symbolic pencil ---------------------------------

def symbolic_gram_pencil(a, functionals) -> GramPencil:
    """The Gram pencil built as MultiPoly entries, then read back as forms
    (which checks that every entry is linear homogeneous)."""
    m = len(functionals)
    field = a.field
    sc = scalar_table(a)
    entries = []
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            terms = {}
            for k, c in sc.get((i, j), ()):
                for r, lam in enumerate(functionals):
                    lk = lam.coords[k]
                    if lk.is_zero:
                        continue
                    exp = tuple(1 if t == r else 0 for t in range(m))
                    cur = terms.get(exp)
                    v = c * lk if cur is None else cur + c * lk
                    if v.is_zero:
                        terms.pop(exp, None)
                    else:
                        terms[exp] = v
            row.append(MultiPoly(field, m, terms))
        entries.append(row)
    return forms_pencil(field, m, entries)


def _pencil_corpus():
    out = list(dim4_f2_corpus())
    for f in (make_field(3), rationals()):
        te = trivial_extension(sweedler_algebra(f))
        out += [(f"Sweedler-{f}", sweedler_algebra(f)),
                (f"Z(TE(Sweedler))-{f}", subspace_algebra(te, center(te)))]
    return out


@pytest.mark.parametrize("mode", MODES)
def test_forms_pencil_matches_the_symbolic_pencil(mode):
    checked = 0
    for name, a in _pencil_corpus():
        space = graded_trace_space(a, mode)
        if not 0 < space.dim <= MAX_TRACE_SPACE_DIM:
            continue
        functionals = [LinearFunctional(a, r) for r in space.basis]
        new, old = gram_pencil(a, functionals), symbolic_gram_pencil(a, functionals)
        assert new == old, (name, mode)
        assert structured_det(new).expand() == pencil_det(old), (name, mode)
        checked += 1
    assert checked == len(dim4_f2_corpus()) + 4


# -- the sparse raw pencil against its Scalar grid ---------------------------------

# (pencils checked, blocks of at most 8 rows expanded) per mode
_RAW_PENCIL_COUNTS = {"graded-symmetric": (128, 373), "graded-frobenius": (128, 329),
                      "symmetric": (127, 253), "frobenius": (124, 140)}


def _blocks(det):
    """The block pencils of a structured det, or its factors when it is zero."""
    return [getattr(f, "pencil", f) for f in det.factors]


@pytest.mark.parametrize("mode", MODES)
def test_the_raw_pencil_matches_its_rebuilt_scalar_grid(mode):
    # a pencil rebuilt through the public constructor from its Scalar grid
    # equals the one built raw, and everything read from either agrees: the
    # blocks, their values, the point found, and each block's expansion
    # along the route of perfbench/micro.py (a block cut from entries)
    checked = expanded = 0
    for name, a in CORPUS + _pencil_corpus():
        space = graded_trace_space(a, mode)
        if not 0 < space.dim <= MAX_TRACE_SPACE_DIM:
            continue
        raw = gram_pencil(a, [LinearFunctional(a, r) for r in space.basis])
        rebuilt = GramPencil(raw.field, raw.dim, raw.num_vars, raw.entries)
        assert rebuilt == raw, (name, mode)
        det, again = structured_det(raw), structured_det(rebuilt)
        assert det.sign == again.sign and _blocks(det) == _blocks(again), (name, mode)
        rng = random.Random(f"{name}-{mode}")
        for _ in range(3):
            point = tuple(_grid(a.field, 5)[rng.randrange(min(5, a.field.size() or 5))]
                          for _ in range(space.dim))
            assert [f.evaluate(point) for f in det.factors] \
                == [f.evaluate(point) for f in again.factors], (name, mode)
        assert nonvanishing_point(det, a.field) == nonvanishing_point(again, a.field), \
            (name, mode)
        checked += 1
        if not isinstance(det.factors[0], multipoly.BlockDet):
            continue  # a non-square block: the zero det has no blocks
        for (rows, cols), factor in zip(_support_components(raw), det.factors):
            if len(rows) > 8:
                continue
            block = GramPencil(raw.field, len(rows), raw.num_vars,
                               tuple(tuple(raw.entries[i][j] for j in cols) for i in rows))
            assert block == factor.pencil, (name, mode)
            assert pencil_det(block) == factor.expand(), (name, mode)
            expanded += 1
    assert (checked, expanded) == _RAW_PENCIL_COUNTS[mode]


# -- the Gram pass against the table walk it replaced -----------------------------

def table_walk_pairs(a, coords):
    """Basis pairs i < j, in order, where the functional with these
    coordinates does not vanish on the commutator [e_i, e_j], read off
    table[i][j] and table[j][i]: the walk that the Gram rows replaced."""
    ops, table = a.field.ops, a.table
    x = ops.unwrap(coords)
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            v = ops.zero
            for k, c in table[i][j]:
                v = ops.add(v, ops.mul(c, x[k]))
            for k, c in table[j][i]:
                v = ops.sub(v, ops.mul(c, x[k]))
            if not ops.is_zero(v):
                yield i, j


def table_walk_checks(a, lam, mode) -> tuple:
    """The checks of verify_certificate, with symmetry from the table walk
    and the rank from Matrix.rank of the public gram_matrix."""
    checks = []
    e = a.group.identity
    if mode.startswith("graded-"):
        bad = [i for i in range(a.dim)
               if a.degree[i] != e and not lam.coords[i].is_zero]
        checks.append(("vanishing-off-identity-component", not bad,
                       f"nonzero at indices {bad[:5]}" if bad else ""))
    if mode in ("graded-symmetric", "symmetric"):
        bad_pairs = list(table_walk_pairs(a, lam.coords))
        checks.append(("symmetry-on-all-pairs", not bad_pairs,
                       f"asymmetric at pairs {bad_pairs[:5]}" if bad_pairs else ""))
    rank = gram_matrix(a, lam).rank()
    checks.append(("gram-full-rank", rank == a.dim, f"rank {rank} of {a.dim}"))
    return tuple(checks)


def _perturbed(a, lam) -> list:
    """lam + f_k for the first and the last commutator [e_i, e_j] != 0 of
    the table, with k its first nonzero coordinate; for a symmetric lam each
    fails symmetry at (i, j)."""
    ops = a.field.ops
    out = []
    commutators = []
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            diff = dict(a.table[i][j])
            for k, c in a.table[j][i]:
                diff[k] = ops.sub(diff.get(k, ops.zero), c)
            support = [k for k, v in diff.items() if not ops.is_zero(v)]
            if support:
                commutators.append(min(support))
    for k in commutators[:1] + commutators[-1:]:
        coords = list(lam.coords)
        coords[k] = coords[k] + a.field.one()
        out.append(LinearFunctional(a, coords))
    return out


def _gram_oracle_functionals():
    """Every decided Yes witness of the decision corpus, each followed by
    its perturbations."""
    for name, a in CORPUS:
        for mode in MODES:
            try:
                verdict = decide_form_existence(a, mode)
            except GrasymError:
                continue
            if verdict.is_yes:
                for lam in [verdict.witness] + _perturbed(a, verdict.witness):
                    yield name, a, lam


def test_gram_pass_matches_the_table_walk():
    tg = trivial_group()
    asymmetric = 0
    for name, a, lam in _gram_oracle_functionals():
        pairs = list(table_walk_pairs(a, lam.coords))
        asymmetric += bool(pairs)
        for mode in MODES:
            assert verify_certificate(a, lam, mode).checks == table_walk_checks(a, lam, mode), \
                (name, mode)
        spec = CrossedProductSpec(a, tg, trivial_sigma(a, tg), constant_alpha(a, tg))
        if not lam(a.one()).is_zero:
            want = "mu is not symmetric at basis pair ({},{})".format(*pairs[0]) if pairs else None
            try:
                average_functional(spec, lam)
                got = None
            except AsymmetricMu as exc:
                got = str(exc)
            assert got == want, name
        try:
            lift_functional(spec, lam)
            lifted = True
        except AsymmetricMu:
            lifted = False
        except GrasymError:
            lifted = True  # a later check refused it: symmetry passed
        assert lifted == (not pairs), name
    assert asymmetric > 100
