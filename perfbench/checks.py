"""Comparison of CLI outputs against recorded reference outputs.

Floating-point cells agree when |a - b| <= RTOL * max(|a|, |b|) + atol.
RTOL accepts the few-ulp changes a reordered Gram reduction or an exact
kappa = 2.0 produce (relative 1e-16 to 1e-15, up to ~1e-13 after a
Cholesky solve), and rejects a relative change of 1e-6. Every other cell,
and the CSV header except its version line, must match exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

RTOL = 1e-9


@dataclass(frozen=True)
class CsvOutput:
    header: dict
    columns: list
    rows: list

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def floats(self, name: str) -> list:
        return [float(v) for v in self.column(name)]


def read_csv(path: Path) -> CsvOutput:
    """Parse a harmonica CSV: ``# key: value`` header lines, then rows."""
    header, rows = {}, []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        elif line:
            rows.append(line.split(","))
    columns = header.get("columns", "").split(",")
    return CsvOutput(header=header, columns=columns, rows=rows)


def close(a: float, b: float, atol: float = 0.0) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + atol


def compare_csv(out_path: Path, ref_path: Path, float_cols: dict) -> list:
    """Problems found comparing a CSV with its reference.

    ``float_cols`` maps each floating-point column to its absolute
    tolerance; the other columns compare as text.
    """
    out, ref = read_csv(out_path), read_csv(ref_path)
    name = Path(out_path).name
    problems = []
    for key in ("command", "config_sha256", "seed", "columns"):
        if out.header.get(key) != ref.header.get(key):
            problems.append(f"{name}: header {key!r} is {out.header.get(key)!r}, "
                            f"reference {ref.header.get(key)!r}")
    if problems:
        return problems
    if len(out.rows) != len(ref.rows):
        return [f"{name}: {len(out.rows)} rows, reference {len(ref.rows)}"]
    atols = [float_cols.get(c) for c in out.columns]
    for r, (got, want) in enumerate(zip(out.rows, ref.rows)):
        for c, (a, b, atol) in enumerate(zip(got, want, atols)):
            same = a == b if atol is None else close(float(a), float(b), atol)
            if not same:
                problems.append(f"{name}: row {r + 1} {out.columns[c]} = {a}, "
                                f"reference {b}")
                if len(problems) >= 5:
                    return problems
    return problems


def compare_json(out_path: Path, ref_path: Path) -> list:
    """Problems found comparing a flat JSON summary with its reference;
    the tool version is not compared."""
    out = json.loads(Path(out_path).read_text(encoding="ascii"))
    ref = json.loads(Path(ref_path).read_text(encoding="ascii"))
    name = Path(out_path).name
    if set(out) != set(ref):
        return [f"{name}: keys {sorted(out)}, reference {sorted(ref)}"]
    problems = []
    for key in sorted(set(ref) - {"harmonica"}):
        a, b = out[key], ref[key]
        if isinstance(b, float) and isinstance(a, (int, float)):
            same = close(float(a), b)
        else:
            same = a == b
        if not same:
            problems.append(f"{name}: {key} = {a!r}, reference {b!r}")
    return problems
