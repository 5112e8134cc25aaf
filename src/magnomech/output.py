"""Deterministic artifact serialization.

Every file carries a metadata header (preset, config hash, unit system,
column names) and a data section whose bytes depend only on the inputs:
no timestamps, no environment echoes, platform-stable float formatting.
Tables are columns: a mapping from column name to a 1-D array or a
GridAxis, formatted once per cell for both CSV and JSON. CSV metadata
lines start with '#'; the data section is everything after them. JSON
artifacts are one compact sorted-key line {"data": ..., "metadata": ...};
their data section compares parsed values.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

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
    """CSV text of a 1-D column, one string per cell: bools as 1/0, ints by str, floats by repr."""
    if isinstance(column, GridAxis):
        text = format_column(column.values)
        return [s for s in text for _ in range(column.repeat)] * column.tile
    col = np.asarray(column)
    if col.dtype == np.bool_:
        return ["1" if v else "0" for v in col.tolist()]
    if col.dtype.kind in "iu":
        return list(map(str, col.tolist()))
    return list(map(repr, col.astype(float).tolist()))


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


def json_rows(cells):
    """The {"columns", "rows"} JSON text of a table from its columns' json_cells."""
    rows = ", ".join(map(json_list, zip(*cells.values())))
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
    """Write a CSV artifact: '#'-prefixed metadata header, then the data section; cells are format_column's."""
    cols = cells or [format_column(col) for col in table.values()]
    lines = [f"# {key}: {value}" for key, value in metadata.items()]
    lines.append(f"# columns: {','.join(table)}")
    lines.append(",".join(table))
    lines.extend(map(",".join, zip(*cols)))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


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
