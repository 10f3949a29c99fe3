"""Structural comparison of program outputs against pinned expectations.

Floats may differ by at most 1e-12 relative, the tolerance the project
allows when golden files are regenerated; every other value (keys, lengths,
strings, integers, booleans, None, the type of each value) must match
exactly.
"""

from __future__ import annotations

import json

REL_TOL = 1e-12


def mismatch(expected, actual, rel: float = REL_TOL, path: str = "$") -> str | None:
    """Describe the first difference between expected and actual, or None."""
    if type(expected) is not type(actual):
        return f"{path}: type {type(actual).__name__}, expected {type(expected).__name__}"
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return f"{path}: keys {sorted(actual)}, expected {sorted(expected)}"
        for key in expected:
            found = mismatch(expected[key], actual[key], rel, f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)}, expected {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, rel, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(expected, float):
        if expected == actual or abs(expected - actual) <= rel * max(abs(expected), abs(actual)):
            return None
        return f"{path}: {actual!r}, expected {expected!r}"
    if expected != actual:
        return f"{path}: {actual!r}, expected {expected!r}"
    return None


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def csv_rows(text: str) -> list:
    """Numeric CSV as rows of cells, numbers parsed as floats."""
    return [[_cell(cell) for cell in line.split(",")] for line in text.splitlines()]


def strip_elapsed(obj):
    """Drop elapsed_ms fields, which are timings and not outputs.  Kept here
    rather than imported from rieszmart, so that a change to the program
    cannot change what is compared."""
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def report_json(text: str):
    return strip_elapsed(json.loads(text))
