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
    try:
        return int(x)
    except (TypeError, ValueError):
        raise InputError(f"{where}: not an integer: {x!r}") from None


def _need(obj, key, where):
    if key not in obj:
        raise InputError(f"{where}: missing field '{key}'")
    return obj[key]


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
    basis_doc = _need(doc, "basis", where)
    if not basis_doc:
        raise InputError(f"{where}: empty basis")
    try:
        labels = tuple(str(_need(b, "label", f"basis[{i}]")) for i, b in enumerate(basis_doc))
        degrees = tuple(int(_need(b, "shifted_degree", f"basis[{i}]"))
                        for i, b in enumerate(basis_doc))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: bad basis entry ({exc})")
    try:
        basis = GradedBasis(labels, degrees)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}")
    index = {lab: i for i, lab in enumerate(labels)}

    pairing = None
    if doc.get("pairing") is not None:
        rows = doc["pairing"]
        if len(rows) != len(labels) or any(len(r) != len(labels) for r in rows):
            raise InputError(f"{where}: pairing must be {len(labels)}x{len(labels)}")
        pairing = [[_scalar(x, f"{where}: pairing[{i}][{j}]")
                    for j, x in enumerate(row)] for i, row in enumerate(rows)]

    mu = {}
    for key, table in (doc.get("mu") or {}).items():
        try:
            k = int(key)
        except ValueError:
            raise InputError(f"{where}: bad arity '{key}'")
        tbl = {}
        for row_no, row in enumerate(table):
            ins = _need(row, "inputs", f"mu[{key}][{row_no}]")
            outs = _need(row, "output", f"mu[{key}][{row_no}]")
            if len(ins) != k:
                raise InputError(f"{where}: mu[{key}][{row_no}] arity mismatch")
            for lab in list(ins) + list(outs):
                if lab not in index:
                    raise InputError(f"{where}: unknown label '{lab}'")
            tbl[tuple(index[i] for i in ins)] = {
                index[o]: _scalar(c, f"{where}: mu[{key}][{row_no}]")
                for o, c in outs.items()}
        mu[k] = tbl

    unit = None
    if doc.get("unit") is not None:
        if doc["unit"] not in index:
            raise InputError(f"{where}: unknown unit label '{doc['unit']}'")
        unit = index[doc["unit"]]
    augmentation = None
    if doc.get("augmentation") is not None:
        try:
            augmentation = {index[lab]: _scalar(c, f"{where}: augmentation")
                            for lab, c in doc["augmentation"].items()}
        except KeyError as exc:
            raise InputError(f"{where}: unknown label in augmentation ({exc})")

    return CyclicStructure(
        name=str(doc.get("name", "algebra")),
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
    from .green import KernelTensor

    index = {lab: i for i, lab in enumerate(s.basis.labels)}
    out = {}
    for row_no, row in enumerate(doc.get("entries", [])):
        try:
            i = index[row["i"]]
            j = index[row["j"]]
            out[(i, j)] = _scalar(row["value"], f"kernel entry {row_no}")
        except KeyError as exc:
            raise InputError(f"kernel entry {row_no}: unknown label {exc}")
    out = {k: v for k, v in out.items() if v}
    degs = {s.basis.degrees[i] + s.basis.degrees[j] for i, j in out}
    if len(degs) > 1 or (degs and not KernelTensor(
            s.basis, degs.pop(), out).is_symmetric_propagator()):
        raise InputError("kernel file: not a degree-homogeneous symmetric propagator")
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


def cochain_from_dict(s: CyclicStructure, doc: dict,
                      slot_shift: int | None = None) -> CochainTensor:
    index = {lab: i for i, lab in enumerate(s.basis.labels)}
    shift = s.slot_shift if slot_shift is None else slot_shift
    ten = CochainTensor(s.basis, _int(doc.get("arity", 1), "cochain arity"), shift,
                        doc.get("weight_bound"))
    for row_no, row in enumerate(doc.get("values", [])):
        try:
            words = tuple(tuple(index[lab] for lab in w) for w in row["tuple"])
        except KeyError as exc:
            raise InputError(f"cochain record {row_no}: unknown label {exc}")
        ten.add(words, _scalar(row["coefficient"], f"cochain record {row_no}"))
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
    for row_no, row in enumerate(doc.get("entries", [])):
        where = f"twist entry {row_no}"
        l, g = (_int(_need(row, x, where), where) for x in "lg")
        entries[(l, g)] = cochain_from_dict(s, _need(row, "cochain", where))
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
