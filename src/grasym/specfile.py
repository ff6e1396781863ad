"""Canonical file formats: algebra spec files and certificate files.

Serialization is canonical JSON (sorted keys, no whitespace variance, scalars
in canonical form, structure constants sorted by (i,j,k)), so equal algebras
produce byte-identical files and a content hash identifies an algebra.  One
writer, algebra_text, makes the canonical text of an algebra: the spec file,
the algebra_hash digest that names it in a certificate, and the stdout of
`grasym emit` are all its bytes.  algebra_to_dict is the same form as a dict,
for --pretty output and for tests to check the writer against.  A spec
file carries a field block, a group block, and either a raw structure-constant
block or a named constructor block that re-runs the corresponding builder.
Every malformed file raises a GrasymError (ParseError for a missing key or a
value of the wrong type), never a bare Python exception.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager

from . import algebras
from .algebras import GradedAlgebra
from .errors import ParseError, ValidationError
from .fields import Field, make_field, raw_from_json, scalar_from_json
from .groups import GroupTable, group_from_kind, group_from_table
from .symmetry import MODES, REFUTATIONS, LinearFunctional, SymmetryVerdict


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


def load_json(path: str, text: str | None = None):
    """Parse the JSON file at path, or text when it is given (path then only
    names the source in the error).

    An unreadable file and malformed JSON raise ParseError.  That includes an
    integer literal beyond CPython's int-string limit, which json reports as
    a plain ValueError (the base class of JSONDecodeError).
    """
    try:
        if text is None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# -- decoding errors -------------------------------------------------------------------

@contextmanager
def _decoding(what: str):
    """Turn a missing key or a value of the wrong type inside `what` into a
    ParseError that names it."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{what} is missing key {exc}") from exc
    except (IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad {what}: {exc}") from exc


def _int(value) -> int:
    """A JSON integer, as every integer field of a spec must be: a float, a
    bool or a string raises TypeError (a ParseError inside _decoding)."""
    if type(value) is not int:
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def _ints(values) -> list:
    return [_int(v) for v in values]


def _labels(block: dict):
    """A block's optional "labels", which must be a JSON list: a string or an
    object would load as its characters or keys, and null as no labels, and
    write back otherwise, so the file and its algebra_hash would differ."""
    labels = block.get("labels")
    if "labels" in block and not isinstance(labels, list):
        raise ParseError(f"labels must be a JSON list, not {labels!r}")
    return labels


# -- field and group blocks ---------------------------------------------------------

def field_from_dict(d: dict) -> Field:
    """The field of a field block, whose optional "degree" must be its degree."""
    with _decoding("field block"):
        char, modulus = _int(d["char"]), d.get("modulus")
        field = make_field(char, None if modulus is None else _ints(modulus))
        if "degree" in d and _int(d["degree"]) != field.degree:
            raise ParseError(f"{field} has degree {field.degree}, not {d['degree']}")
        return field


def group_to_dict(g: GroupTable) -> dict:
    """The group block of a named kind, as group_from_dict reads it, or a table."""
    if g.kind is None:
        return g.to_dict()
    name = g.kind[0]
    if name == "product":
        return {"kind": name, "orders": list(g.kind[1])}
    if name in ("cyclic", "dihedral"):
        return {"kind": name, "n": g.kind[1]}
    return {"kind": name}


def group_from_dict(d: dict) -> GroupTable:
    """The group of a group block: a named kind, built by groups.group_from_kind
    from its GroupTable.kind tuple, or a Cayley table."""
    with _decoding("group block"):
        if "kind" not in d:
            return group_from_table([_ints(row) for row in d["table"]], _labels(d))
        name = d["kind"]
        if name == "product":
            return group_from_kind((name, tuple(_ints(d["orders"]))))
        if name in ("cyclic", "dihedral"):
            return group_from_kind((name, _int(d["n"])))
        return group_from_kind((name,))


# -- algebra spec files -----------------------------------------------------------------

def algebra_to_dict(a: GradedAlgebra) -> dict:
    """Raw canonical form; round-trips every constructor output bit-exactly.
    canonical_json of it is algebra_text(a).

    The table is read in row-major order, so the rows come sorted by (i, j, k)."""
    to_json = a.field.ops.to_json
    block = {
        "dim": a.dim,
        "degrees": list(a.degree),
        "unit": [to_json(c) for c in a.unit],
        "sc": [[i, j, k, to_json(c)] for i, row in enumerate(a.table)
               for j, terms in enumerate(row) for k, c in terms],
    }
    if a.labels is not None:
        block["labels"] = list(a.labels)
    return {"field": a.field.to_dict(), "group": group_to_dict(a.group),
            "algebra": block}


def _raw_decoder(field: Field):
    """raw_from_json for field, run once per distinct constant.

    A table holds few distinct constants, so each decoded value is kept,
    keyed by the JSON value itself.  Only exactly typed values are keyed: a
    plain int, a string, or a list of plain ints.  A key must not be met
    again in another form that compares equal: 1.0 and True equal 1, and
    [1.0, 0.0] and [1, True] equal [1, 0] as tuples, but each must raise as
    it would alone.  Any other value is decoded each time it is met, which
    for a malformed one means at once."""
    memo = {}

    def decode(value):
        kind = type(value)
        if kind is int or kind is str:
            key = value
        elif kind is list and all(type(c) is int for c in value):
            key = tuple(value)
        else:
            return raw_from_json(field, value)
        raw = memo.get(key, memo)
        if raw is memo:
            raw = memo[key] = raw_from_json(field, value)
        return raw
    return decode


def _raw_algebra_from_dict(d: dict) -> GradedAlgebra:
    """Decode and validate a raw block, where structure constants enter from
    outside; constructor blocks build valid algebras and are not scanned.

    The block is decoded straight to raw values, with each distinct constant
    decoded once (_raw_decoder), and GradedAlgebra._from_terms checks and
    stores the table the public constructor would.  Each row is read as
    i, j, k, c in that order, so a malformed row raises what a Scalar-built
    table would; every message is the one raw_from_json or the constructor
    gives."""
    with _decoding("spec"):
        field = field_from_dict(d["field"])
        group = group_from_dict(d["group"])
        block = d["algebra"]
    with _decoding("algebra block"):
        dim = _int(block["dim"])
        degrees = _ints(block["degrees"])
        decode = _raw_decoder(field)
        unit = [decode(v) for v in block["unit"]]
        cells: dict = {}
        for row in block["sc"]:
            i, j, k, c = row
            if not (type(i) is int and type(j) is int and type(k) is int):
                _ints((i, j, k))  # raises for the first index that is no JSON integer
            cells.setdefault((i, j), []).append((k, decode(c)))
        if len(degrees) != dim:
            raise ParseError("degree list length does not match dim")
        a = GradedAlgebra._from_terms(field, group, degrees, cells, unit, labels=_labels(block))
    report = algebras.validate_algebra(a)
    if not report.ok:
        raise ValidationError(report)
    return a


def _build_constructor(d: dict) -> GradedAlgebra:
    block = d["constructor"]
    if not isinstance(block, dict):
        raise ParseError("constructor block must be a JSON object")
    name = block.get("name")
    if name == "group_algebra":
        return algebras.group_algebra(field_from_dict(d["field"]),
                                      group_from_dict(d["group"]))
    if name == "cyclic_algebra":
        return algebras.cyclic_algebra(_int(block["p"]))
    if name == "quaternion_algebra":
        field = field_from_dict(d["field"])
        return algebras.quaternion_algebra(field,
                                           scalar_from_json(field, block["a"]),
                                           scalar_from_json(field, block["b"]))
    if name == "sweedler_algebra":
        return algebras.sweedler_algebra(field_from_dict(d["field"]))
    if name == "matrix_algebra":
        return algebras.matrix_algebra(field_from_dict(d["field"]), _int(block["n"]))
    if name == "good_matrix_algebra":
        field = field_from_dict(d["field"])
        group = group_from_dict(d["group"])
        delta = algebras.field_as_algebra(field, field, group)
        return algebras.good_matrix_algebra(_int(block["n"]), _ints(block["sigmas"]), delta)
    if name == "trivial_extension":
        return algebras.trivial_extension(algebra_from_dict(block["base"]))
    if name == "ungrade":
        return algebras.ungrade(algebra_from_dict(block["base"]))
    if name == "scalar_extension":
        return algebras.scalar_extension(algebra_from_dict(block["base"]),
                                         _int(block["m"]))
    if name == "direct_product":
        factors = [algebra_from_dict(f) for f in block["factors"]]
        out = factors[0]
        for f in factors[1:]:
            out = algebras.direct_product(out, f)
        return out
    if name == "tensor_product":
        factors = [algebra_from_dict(f) for f in block["factors"]]
        out = factors[0]
        for f in factors[1:]:
            out = algebras.tensor_product(out, f)
        return out
    if name == "frobenius_crossed_product":
        base = make_field(_int(block["char"]))
        modulus = block.get("ext_modulus")
        ext = make_field(base.char, _ints(modulus)) if modulus else base
        alpha_unit = block.get("alpha_unit")
        if alpha_unit is not None:
            alpha_unit = [scalar_from_json(base, c) for c in alpha_unit]
        return algebras.frobenius_crossed_product(
            ext, group_from_dict(d["group"]),
            _ints(block["sigma_powers"]), alpha_unit)
    raise ParseError(f"unknown constructor {name!r}")


def algebra_from_dict(d: dict) -> GradedAlgebra:
    """Build the algebra of a spec: a raw "algebra" block, or a "constructor"
    block naming one of the builders dispatched in _build_constructor."""
    if not isinstance(d, dict):
        raise ParseError("algebra spec must be a JSON object")
    if "constructor" in d:
        with _decoding("constructor block"):
            return _build_constructor(d)
    if "algebra" in d:
        return _raw_algebra_from_dict(d)
    raise ParseError("spec needs an 'algebra' or 'constructor' block")


def parse_algebra_file(path: str) -> GradedAlgebra:
    return algebra_from_dict(load_json(path))


class _ValueTexts(dict):
    """The text of each raw value met, made by `form` on its first lookup."""

    __slots__ = ("form",)

    def __init__(self, form):
        super().__init__()
        self.form = form

    def __missing__(self, value):
        text = self[value] = self.form(value)
        return text


def _sc_text(a: GradedAlgebra) -> str:
    """The items of the "sc" array, each [i, j, k, c] as canonical_json writes
    it, in one pass over the table.

    The form of c is the one RawOps.to_json gives, picked once by field kind.
    A table holds few distinct indices and coefficients, so each one's text
    (with the separator after it) is made once and looked up per term."""
    field = a.field
    if field.char == 0:  # Q: the str of an int or a Fraction, as a JSON string
        value = _ValueTexts(lambda c: f'"{c!s}"]')
    elif field.degree == 1:  # F_p: an int
        value = _ValueTexts(lambda c: f"{c}]")
    else:  # F_{p^n}: the coefficient tuple as an int list
        value = _ValueTexts(lambda c: f"[{','.join(map(str, c))}]]")
    index = [f"{i}," for i in range(a.dim)]
    return ",".join([f"[{i}{j}{index[k]}{value[c]}" for i, row in zip(index, a.table)
                     for j, terms in zip(index, row) for k, c in terms])


def algebra_text(a: GradedAlgebra) -> str:
    """The canonical spec text of a, canonical_json(algebra_to_dict(a)),
    written with its keys in sorted order.  The "sc" array is formatted
    straight from the table.  The other keys are small and go through
    canonical_json, which also escapes the labels, as they may be any JSON
    values."""
    to_json = a.field.ops.to_json
    labels = "" if a.labels is None else f',"labels":{canonical_json(a.labels)}'
    return (f'{{"algebra":{{"degrees":{canonical_json(a.degree)},"dim":{a.dim}{labels},'
            f'"sc":[{_sc_text(a)}],"unit":{canonical_json([to_json(c) for c in a.unit])}}},'
            f'"field":{canonical_json(a.field.to_dict())},'
            f'"group":{canonical_json(group_to_dict(a.group))}}}')


def write_algebra_file(a: GradedAlgebra, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(algebra_text(a) + "\n")


def algebra_hash(a: GradedAlgebra) -> str:
    """The sha256 of a's canonical spec text, which names a in a certificate."""
    return hashlib.sha256(algebra_text(a).encode()).hexdigest()


# -- certificates -----------------------------------------------------------------------

def certificate_to_dict(a: GradedAlgebra, verdict: SymmetryVerdict) -> dict:
    return {
        "algebra_sha256": algebra_hash(a),
        "mode": verdict.mode,
        "status": verdict.status,
        "witness": None if verdict.witness is None
        else [c.to_json() for c in verdict.witness.coords],
        "refutation": verdict.refutation,
        "extension_degree": None,  # every verdict is over F; kept for the format's bytes
        "gram_rank": verdict.gram_rank,
        "trace_space_dim": verdict.trace_space_dim,
    }


def write_certificate_file(cert: dict, path: str):
    """Write a certificate built by certificate_to_dict, as load_certificate_file reads it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(cert) + "\n")


def load_certificate_file(path: str) -> dict:
    """The certificate at path, checked to hold a string algebra_sha256, a
    mode of MODES, and a status of yes with a witness list or of no with one
    of the REFUTATIONS."""
    cert = load_json(path)
    if not isinstance(cert, dict):
        raise ParseError("certificate must be a JSON object")
    with _decoding("certificate"):
        if cert["status"] == "yes":
            last = ("witness", lambda v: isinstance(v, list))
        else:
            last = ("refutation", lambda v: v in REFUTATIONS)
        for key, good in (("algebra_sha256", lambda v: isinstance(v, str)),
                          ("mode", lambda v: v in MODES),
                          ("status", lambda v: v in ("yes", "no")), last):
            if not good(cert[key]):
                raise ParseError(f"certificate has a bad {key}: {cert[key]!r}")
    return cert


def functional_from_certificate(a: GradedAlgebra, cert: dict) -> LinearFunctional:
    with _decoding("certificate"):
        return LinearFunctional(a, [scalar_from_json(a.field, v) for v in cert["witness"]])
