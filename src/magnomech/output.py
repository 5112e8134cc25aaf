"""Deterministic artifact serialization.

Every file carries a metadata header (preset, config hash, unit system,
column names) and a data section whose bytes depend only on the inputs:
no timestamps, no environment echoes, platform-stable float formatting.
Tables are columns: a mapping from column name to a 1-D array or a
GridAxis, formatted once per cell for both CSV and JSON. A float cell is
exactly Python's shortest round-trip repr: orjson formats the whole column
in one pass, and repr redoes the cells whose layout differs (non-finite,
1e-9 <= |x| < 1e-4, |x| >= 1e16). The rows of a table are joined from
those cells in one C pass (_rows), with no Python string per row. CSV metadata
lines start with '#'; the data section is everything after them. JSON
artifacts are one compact sorted-key line {"data": ..., "metadata": ...};
their data section compares parsed values.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import orjson

UNITS_NOTE = "rates in Hz-as-labeled (2e7 means a 20 MHz rate); hbar = 1"


@dataclass(frozen=True)
class GridAxis:
    """Axis column of a row-major grid: np.tile(np.repeat(values, repeat), tile), formatted per value once."""

    values: np.ndarray
    repeat: int = 1
    tile: int = 1

    def __array__(self, dtype=None, copy=None):
        return np.tile(np.repeat(np.asarray(self.values, dtype=dtype), self.repeat), self.tile)


def config_hash(config, run_params=None) -> str:
    payload = {"config": config.to_dict(), "run": run_params or {}}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class JsonText(str):
    """A data section already encoded as JSON text, which write_json writes verbatim."""


def format_column(column):
    """CSV text of a 1-D column, one string per cell: bools as 1/0, ints by str, floats as repr writes them.

    orjson writes the same shortest round-trip digits as repr, in one C pass
    over the column; only its layout differs, and only for non-finite values
    (null), for 1e-9 <= |x| < 1e-4 (1e-7 and 0.00001 against 1e-07 and 1e-05)
    and for |x| >= 1e16 (1e16 against 1e+16). Those cells are redone by repr.
    """
    if isinstance(column, GridAxis):
        text = format_column(column.values)
        repeated = [None] * (len(text) * column.repeat)
        for r in range(column.repeat):
            repeated[r::column.repeat] = text
        return repeated * column.tile
    col = np.asarray(column)
    if col.dtype == np.bool_:
        return ["1" if v else "0" for v in col.tolist()]
    if col.dtype.kind in "iu":
        return list(map(str, col.tolist()))
    values = np.ascontiguousarray(col, dtype=np.float64)
    if not values.size:
        return []
    cells = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode().split(",")
    cells[0] = cells[0][1:]  # strip the brackets in place: one cell for a one-value column
    cells[-1] = cells[-1][:-1]
    mag = np.abs(values)
    redo = np.flatnonzero(~(mag < 1e16) | ((mag >= 1e-9) & (mag < 1e-4)))  # ~(<) also takes nan
    for i, v in zip(redo.tolist(), values[redo].tolist()):
        cells[i] = repr(v)
    return cells


def json_cells(column, cells):
    """JSON text of a column's format_column cells: JSON's names for nan, inf and bools, else the same text."""
    values = np.asarray(column.values if isinstance(column, GridAxis) else column)
    if values.dtype == np.bool_:
        return ["true" if c == "1" else "false" for c in cells]
    if values.dtype.kind in "iu" or np.isfinite(values).all():
        return cells
    return [{"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(c, c) for c in cells]


def json_list(cells):
    return "[" + ", ".join(cells) + "]"


def _rows(columns, sep, end):
    """The cells of equal-length columns row by row, sep between a row's cells and end after each row.

    Each column fills its slots of one flat list of seps by a slice assignment, and one join makes the
    text. Unequal lengths raise ValueError: a row-wise zip would silently drop the longer tails.
    """
    columns = list(columns)
    k, n = len(columns), len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError(f"table columns differ in length: {[len(col) for col in columns]}")
    if not n:
        return ""
    parts = [sep] * (2 * k * n)
    for j, col in enumerate(columns):
        parts[2 * j::2 * k] = col
    parts[2 * k - 1::2 * k] = [end] * n
    return "".join(parts)


def json_rows(cells):
    """The {"columns", "rows"} JSON text of a table from its columns' json_cells, the rows joined by _rows."""
    end = "], ["
    rows = _rows(cells.values(), ", ", end)[:-len(end)]  # no end after the last row
    rows = f"[{rows}]" if rows else ""  # a cell is never empty text, so no rows means no text
    return JsonText(f'{{"columns": {json.dumps(list(cells))}, "rows": [{rows}]}}')


def metadata_block(command, preset, config, run_params=None, extra=None):
    meta = {
        "tool": "magnomech " + command,
        "preset": preset or "(none)",
        "config_hash": config_hash(config, run_params),
        "units": UNITS_NOTE,
    }
    if extra:
        meta.update(extra)
    return meta


def write_csv(path, table, metadata, cells=None):
    """Write a CSV artifact: '#'-prefixed metadata header, then the data section; cells are format_column's.

    The header and the rows, joined by _rows, go out as two writes, so the rows' text is never copied.
    """
    rows = _rows(cells or [format_column(col) for col in table.values()], ",", "\n")
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    lines += [f"# columns: {','.join(table)}", ",".join(table), ""]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write(rows)


def write_json(path, data, metadata):
    """Write a JSON artifact, one line as json.dumps(..., sort_keys=True) writes it; JsonText goes in verbatim."""
    text = data if isinstance(data, JsonText) else json.dumps(data, sort_keys=True)
    with open(path, "w", newline="") as fh:
        fh.write(f'{{"data": {text}, "metadata": {json.dumps(metadata, sort_keys=True)}}}\n')


def data_section(path) -> bytes:
    """The artifact bytes that the determinism contract covers."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if path.endswith(".json") or raw.lstrip()[:1] == b"{":
        obj = json.loads(raw)
        return json.dumps(obj.get("data"), sort_keys=True).encode()
    return b"\n".join(line for line in raw.split(b"\n") if not line.startswith(b"#"))
