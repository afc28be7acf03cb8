"""File formats: every file cforge reads or writes is parsed or written here.

* ``k,re,im`` CSV, one complex coefficient per row at 17 significant
  digits (Fourier curves, polynomial cores);
* samples CSV with header ``t,re,im`` or ``re,im``;
* coefficient lists ``[{"k": .., "re": .., "im": ..}, ...]`` in JSON;
* pretty JSON (two-space indent, trailing newline).

Readers return plain data and the modules owning the objects build them.
A file that cannot be parsed raises :class:`InputError`; one that cannot
be opened raises the ``OSError`` of ``open``.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import InputError

__all__ = [
    "write_text", "write_json", "parse_json", "read_json",
    "coeffs_to_json", "coeffs_from_json", "write_kri", "read_kri",
    "read_curve", "read_samples", "read_boundary",
]

KRI_HEADER = ("k", "re", "im")
# row parser of each CSV header
KRI_ROWS = {KRI_HEADER: lambda r: (int(r[0]), complex(float(r[1]), float(r[2])))}
SAMPLE_ROWS = {
    ("t", "re", "im"): lambda r: complex(float(r[1]), float(r[2])),
    ("re", "im"): lambda r: complex(float(r[0]), float(r[1])),
}


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path: str, payload, sort_keys: bool = True) -> None:
    """``payload`` as pretty JSON, complex and numpy values made plain."""
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=sort_keys)
    write_text(path, text + "\n")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def parse_json(text: str, what: str) -> dict:
    """The JSON object in ``text``; ``what`` names it in errors."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise InputError(f"malformed {what}: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError(f"{what} must be a JSON object")
    return payload


def read_json(path: str, what: str) -> dict:
    return parse_json(_read_text(path), f"{what} {path}")


def _jsonable(obj):
    """``obj`` with complex numbers as ``[re, im]`` and numpy values as
    Python lists and scalars."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _jsonable(list(obj))
    return obj


def coeffs_to_json(ks, cs) -> list:
    return [{"k": k, "re": c.real, "im": c.imag} for k, c in zip(ks, cs)]


def coeffs_from_json(entries) -> list:
    """``[(k, c), ...]`` from a coefficient list."""
    try:
        return [(int(e["k"]), complex(e["re"], e["im"])) for e in entries]
    except KeyError as exc:
        raise InputError(f"coefficient entry is missing the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed coefficient entry: {exc}") from exc


def _header(text: str) -> tuple:
    return tuple(h.strip().lower() for h in next(csv.reader(text.splitlines()), []))


def _table(text: str, path: str, parsers: dict) -> list:
    """Nonempty rows of a CSV, each parsed by the function of its header."""
    header = _header(text)
    if header not in parsers:
        expected = " or ".join(",".join(h) for h in parsers)
        raise InputError(f"expected header {expected} in {path}, got {header}")
    records = csv.reader(text.splitlines()[1:])
    try:
        rows = [parsers[header](rec) for rec in records if rec]
    except (IndexError, ValueError) as exc:
        raise InputError(f"malformed row in {path}: {exc}") from exc
    if not rows:
        raise InputError(f"no rows in {path}")
    return rows


def write_kri(path: str, ks, cs) -> None:
    lines = [",".join(KRI_HEADER)] + [
        f"{k},{format(c.real, '.17g')},{format(c.imag, '.17g')}"
        for k, c in zip(ks, cs)
    ]
    write_text(path, "\n".join(lines) + "\n")


def read_kri(path: str) -> list:
    """``[(k, c), ...]`` from a ``k,re,im`` CSV, in file order."""
    return _table(_read_text(path), path, KRI_ROWS)


def read_samples(path: str) -> np.ndarray:
    return np.asarray(_table(_read_text(path), path, SAMPLE_ROWS), dtype=complex)


def _curve_rows(text: str, path: str) -> list:
    if not text.lstrip().startswith("{"):
        return _table(text, path, KRI_ROWS)
    payload = parse_json(text, f"curve JSON {path}")
    rows = coeffs_from_json(payload.get("coeffs", ()))
    if not rows:
        raise InputError(f"no coefficients in curve JSON {path}")
    return rows


def read_curve(path: str) -> list:
    """``[(k, c), ...]``, never empty, from a ``k,re,im`` CSV or a JSON
    ``{"coeffs": [...]}`` (told apart by content)."""
    return _curve_rows(_read_text(path), path)


def read_boundary(path: str):
    """``(rows, None)`` for a curve file, ``(None, samples)`` otherwise."""
    text = _read_text(path)
    if text.lstrip().startswith("{") or _header(text) == KRI_HEADER:
        return _curve_rows(text, path), None
    return None, np.asarray(_table(text, path, SAMPLE_ROWS), dtype=complex)
