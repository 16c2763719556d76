"""JSON file formats: algebra descriptions, kernels, cochains, twist families.

All scalars travel as exact strings ("p" or "p/q"); structured output is
sorted so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import CyclicStructure
from .signs import GradedBasis, format_scalar, scalar
from .words import CochainTensor


class InputError(Exception):
    """Malformed input file; carries a line/field diagnostic."""


def _scalar(x, where) -> Fraction:
    """An exact scalar from a file; a malformed one (``"1/0"``, ``"x"``, a
    float) is an input error."""
    try:
        return scalar(x)
    except ZeroDivisionError:
        raise InputError(f"{where}: zero denominator in {x!r}")
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: bad scalar {x!r} ({exc})")


def _int(x, where) -> int:
    """A JSON integer; a float, a string or a boolean is an input error."""
    if x.__class__ is not int:
        raise InputError(f"{where}: not an integer: {x!r}")
    return x


def _unique(table: dict, key, where):
    """``key`` if ``table`` does not hold it yet: a repeated row or entry
    would silently overwrite the earlier one."""
    if key in table:
        raise InputError(f"{where}: duplicates an earlier entry")
    return key


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _typed(x, kind, where):
    """``x`` if it is a JSON value of the given kind (``dict``, ``list`` or
    ``str``); a value of any other JSON type is an input error."""
    if not isinstance(x, kind):
        got = "null" if x is None else _JSON_TYPES.get(type(x), "a number")
        raise InputError(f"{where}: expected {_JSON_TYPES[kind]}, got {got}")
    return x


def _need(obj, key, where):
    if key not in obj:
        raise InputError(f"{where}: missing field '{key}'")
    return obj[key]


def _optional(doc, key, kind, where):
    """An optional field of the given kind; absent or ``null`` is None."""
    x = doc.get(key)
    return None if x is None else _typed(x, kind, f"{where}: {key}")


def _label(index, lab, where) -> int:
    if _typed(lab, str, where) not in index:
        raise InputError(f"{where}: unknown label {lab!r}")
    return index[lab]


def structure_to_dict(s: CyclicStructure) -> dict:
    out = {
        "name": s.name,
        "manifold_dimension": s.manifold_dim,
        "basis": [{"label": lab, "shifted_degree": d}
                  for lab, d in zip(s.basis.labels, s.basis.degrees)],
        "mu": {},
    }
    if s.pairing is not None:
        out["pairing"] = [[format_scalar(x) for x in row] for row in s.pairing]
    for k in sorted(s.mu):
        table = []
        for inputs in sorted(s.mu[k]):
            vec = s.mu[k][inputs]
            if not vec:
                continue
            table.append({
                "inputs": [s.basis.labels[i] for i in inputs],
                "output": {s.basis.labels[o]: format_scalar(c)
                           for o, c in sorted(vec.items())},
            })
        if table:
            out["mu"][str(k)] = table
    if s.unit is not None:
        out["unit"] = s.basis.labels[s.unit]
    if s.augmentation is not None:
        out["augmentation"] = {s.basis.labels[i]: format_scalar(c)
                               for i, c in sorted(s.augmentation.items())}
    return out


def structure_from_dict(doc: dict) -> CyclicStructure:
    where = "algebra file"
    _typed(doc, dict, where)
    basis_doc = _typed(_need(doc, "basis", where), list, f"{where}: basis")
    if not basis_doc:
        raise InputError(f"{where}: empty basis")
    labels, degrees = [], []
    for i, b in enumerate(basis_doc):
        at = f"{where}: basis[{i}]"
        _typed(b, dict, at)
        labels.append(_typed(_need(b, "label", at), str, f"{at}.label"))
        degrees.append(_int(_need(b, "shifted_degree", at), f"{at}.shifted_degree"))
    try:
        basis = GradedBasis(tuple(labels), tuple(degrees))
    except ValueError as exc:
        raise InputError(f"{where}: {exc}")
    index = {lab: i for i, lab in enumerate(labels)}

    pairing = None
    rows = _optional(doc, "pairing", list, where)
    if rows is not None:
        if len(rows) != len(labels) or any(
                not isinstance(r, list) or len(r) != len(labels) for r in rows):
            raise InputError(f"{where}: pairing must be {len(labels)}x{len(labels)}")
        pairing = [[_scalar(x, f"{where}: pairing[{i}][{j}]")
                    for j, x in enumerate(row)] for i, row in enumerate(rows)]

    mu = {}
    for key, table in (_optional(doc, "mu", dict, where) or {}).items():
        try:
            k = int(key)
        except ValueError:
            k = 0
        if k < 1:
            raise InputError(f"{where}: bad arity '{key}'")
        _unique(mu, k, f"{where}: mu[{key}]")
        tbl = {}
        for row_no, row in enumerate(_typed(table, list, f"{where}: mu[{key}]")):
            at = f"{where}: mu[{key}][{row_no}]"
            _typed(row, dict, at)
            ins = _typed(_need(row, "inputs", at), list, f"{at}.inputs")
            outs = _typed(_need(row, "output", at), dict, f"{at}.output")
            if len(ins) != k:
                raise InputError(f"{at} arity mismatch")
            inputs = tuple(_label(index, i, f"{at}.inputs") for i in ins)
            tbl[_unique(tbl, inputs, at)] = {
                _label(index, o, f"{at}.output"): _scalar(c, at)
                for o, c in outs.items()}
        mu[k] = tbl

    unit = doc.get("unit")
    unit = None if unit is None else _label(index, unit, f"{where}: unit")
    augmentation = _optional(doc, "augmentation", dict, where)
    if augmentation is not None:
        augmentation = {_label(index, lab, f"{where}: augmentation"):
                        _scalar(c, f"{where}: augmentation")
                        for lab, c in augmentation.items()}

    name = _optional(doc, "name", str, where)
    return CyclicStructure(
        name="algebra" if name is None else name,
        basis=basis,
        manifold_dim=_int(_need(doc, "manifold_dimension", where), where),
        pairing=pairing,
        mu=mu,
        unit=unit,
        augmentation=augmentation,
    )


def kernel_to_dict(s: CyclicStructure, entries: dict, degree: int | None = None) -> dict:
    rows = [{"i": s.basis.labels[i], "j": s.basis.labels[j],
             "value": format_scalar(v)}
            for (i, j), v in sorted(entries.items())]
    out = {"entries": rows}
    if degree is not None:
        out["degree"] = degree
    return out


def kernel_from_dict(s: CyclicStructure, doc: dict) -> dict:
    """A propagator file: one degree, and the twist symmetry."""
    from .green import check_propagator

    index = {lab: i for i, lab in enumerate(s.basis.labels)}
    out = {}
    _typed(doc, dict, "kernel file")
    for row_no, row in enumerate(_typed(_need(doc, "entries", "kernel file"),
                                        list, "kernel file: entries")):
        where = f"kernel entry {row_no}"
        _typed(row, dict, where)
        i, j = (_label(index, _need(row, x, where), f"{where}.{x}") for x in "ij")
        value = _scalar(_need(row, "value", where), where)
        out[_unique(out, (i, j), where)] = value
    out = {k: v for k, v in out.items() if v}
    try:
        check_propagator(s.basis, out)
    except ValueError as exc:
        raise InputError(f"kernel file: {exc}") from None
    return out


def cochain_to_dict(s: CyclicStructure, ten: CochainTensor) -> dict:
    records = []
    for key in sorted(ten.values, key=lambda key: (sum(len(w) for w in key), key)):
        records.append({
            "tuple": [[s.basis.labels[i] for i in w] for w in key],
            "coefficient": format_scalar(ten.values[key]),
        })
    out = {"arity": ten.arity, "values": records}
    if ten.weight_bound is not None:
        out["weight_bound"] = ten.weight_bound
    return out


def cochain_from_dict(s: CyclicStructure, doc: dict) -> CochainTensor:
    index = {lab: i for i, lab in enumerate(s.basis.labels)}
    _typed(doc, dict, "cochain")
    arity = _int(doc.get("arity", 1), "cochain arity")
    if arity < 1:
        raise InputError(f"cochain arity: must be positive, got {arity}")
    bound = doc.get("weight_bound")
    if bound is not None:
        bound = _int(bound, "cochain weight_bound")
    ten = CochainTensor(s.basis, arity, s.slot_shift, bound)
    for row_no, row in enumerate(_typed(_need(doc, "values", "cochain"), list,
                                        "cochain values")):
        where = f"cochain record {row_no}"
        _typed(row, dict, where)
        words = _typed(_need(row, "tuple", where), list, f"{where}.tuple")
        if len(words) != arity:
            raise InputError(f"{where}: {len(words)} words for arity {arity}")
        if not all(_typed(w, list, f"{where}.tuple") for w in words):
            raise InputError(f"{where}: empty word")
        words = tuple(tuple(_label(index, lab, f"{where}.tuple") for lab in w)
                      for w in words)
        weight = sum(map(len, words))
        if bound is not None and weight > bound:
            raise InputError(
                f"{where}: weight {weight} exceeds the weight_bound {bound}")
        ten.add(words, _scalar(_need(row, "coefficient", where), where))
    return ten


def family_to_dict(fam) -> dict:
    s = fam.structure
    entries = []
    for (l, g) in sorted(fam.entries):
        entries.append({"l": l, "g": g,
                        "cochain": cochain_to_dict(s, fam.entries[(l, g)])})
    return {"algebra": s.name, "entries": entries}


def family_from_dict(s: CyclicStructure, doc: dict):
    from .dibl import MaurerCartanFamily

    entries = {}
    _typed(doc, dict, "twist file")
    for row_no, row in enumerate(_typed(_need(doc, "entries", "twist file"),
                                        list, "twist file: entries")):
        where = f"twist entry {row_no}"
        _typed(row, dict, where)
        l, g = (_int(_need(row, x, where), where) for x in "lg")
        if l < 1 or g < 0:
            raise InputError(f"{where}: needs l >= 1 and g >= 0, got ({l}, {g})")
        entry = cochain_from_dict(s, _need(row, "cochain", where))
        if entry.arity != l:
            raise InputError(
                f"{where}: an arity-{entry.arity} cochain as entry ({l}, {g})")
        entries[_unique(entries, (l, g), where)] = entry
    try:
        return MaurerCartanFamily(s, entries)
    except ValueError as exc:
        raise InputError(f"twist file: {exc}") from None


def operator_to_dict(s: CyclicStructure, op) -> dict:
    rows = []
    for (i, j), v in sorted(op.entries()):
        rows.append({"row": s.basis.labels[i], "col": s.basis.labels[j],
                     "value": format_scalar(v)})
    return {"degree": op.degree, "entries": rows}


def dump_json(doc, path=None) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except OSError as exc:
        raise InputError(f"{path}: {exc}")
