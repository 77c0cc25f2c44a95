"""One serialization route for every value object and every CLI report.

JSON is the one round-trip format: `dumps` writes any dataclass, dict,
sequence or scalar with sorted keys, and `loads(cls, text)` rebuilds a
dataclass from its resolved field types.  CSV (`csv_text`) and the
`key = value` text of the CLI are views built on `flatten` (which flat
rows of int or str cells skip); they are written, never read back.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import typing
from fractions import Fraction

__all__ = ["plain", "dumps", "loads", "flatten", "csv_text"]


def plain(obj):
    """JSON-ready copy: dataclass -> dict of its fields, complex -> {re, im},
    Fraction -> string, tuples -> lists, NaN -> "nan", recursively."""
    if isinstance(obj, (str, int)) or obj is None:
        return obj
    if isinstance(obj, float):
        return "nan" if obj != obj else obj
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def dumps(obj) -> str:
    return json.dumps(plain(obj), sort_keys=True)


def loads(cls, text: str):
    """Rebuild a `cls` instance from `dumps` output.  Absent fields take
    their defaults and unknown keys are ignored; the constructor's own
    checks run as usual."""
    return _build(cls, json.loads(text))


def _build(tp, doc):
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return tp(**{
            f.name: _build(hints[f.name], doc[f.name])
            for f in dataclasses.fields(tp) if f.init and f.name in doc
        })
    if tp is complex:
        return complex(doc["re"], doc["im"])
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_build(args[0], v) for v in doc)
        if len(args) != len(doc):
            raise ValueError(f"expected {len(args)} items, got {len(doc)}")
        return tuple(_build(a, v) for a, v in zip(args, doc))
    if tp is int and not isinstance(doc, int):
        raise ValueError(f"expected an integer, got {doc!r}")
    if tp in (int, float, str, Fraction):
        return tp(doc)
    return doc


def flatten(obj: dict, prefix: str = "") -> dict:
    """Plain nested dicts -> one level with dotted keys, sorted at each
    level; a list becomes one cell of its items joined by ";"."""
    flat = {}
    for k in sorted(obj):
        value, key = obj[k], prefix + k
        if isinstance(value, dict):
            flat.update(flatten(value, key + "."))
        elif isinstance(value, list):
            flat[key] = ";".join(str(v) for v in value)
        else:
            flat[key] = value
    return flat


def csv_text(rows) -> str:
    """CSV view of a sequence of records (dicts or dataclasses): one row
    each, columns from the first record's flattened keys, so a nested cell
    such as a complex E becomes the columns E.im and E.re.  Records that
    are all flat dicts of int or str values (the tau table) skip plain and
    flatten, which would return them unchanged but for key order."""
    rows = list(rows)
    if ({type(row) for row in rows} <= {dict}
            and {type(k) for row in rows for k in row} <= {str}
            and {type(v) for row in rows for v in row.values()} <= {int, str}):
        flat, cols = rows, sorted(rows[0]) if rows else []
    else:
        flat = [flatten(plain(row)) for row in rows]
        cols = list(flat[0]) if flat else []
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    w.writerows([row[c] for c in cols] for row in flat)
    return buf.getvalue()
