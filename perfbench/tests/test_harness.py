"""Tests of the benchmark harness itself (not of harmonica).

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import math
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from checks import read_csv  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import Span, Tracer, self_times, union_length  # noqa: E402
from workloads import REFERENCE, WORKLOADS  # noqa: E402


def test_union_length_counts_overlap_once():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7), (4, 4)]) == 4


def test_self_times_nested_and_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),    # overlaps a: [1, 6] is covered once
        Span("a.x", 2.0, 3.0, 1),  # grandchild, only reduces a
        Span("c", 9.0, 12.0, 0),   # sticks out of root: only [9, 10] counts
        Span("other", 20.0, 21.0, None),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0, 1.0]


def test_layer_metrics_account_for_the_whole_wall_time():
    spans = [
        Span("cli.import", 0.1, 0.5, None),
        Span("cli.main", 0.5, 3.0, None),
        Span("spectrum.lambda_table", 0.6, 2.0, 1),
        Span("taylor.power", 0.7, 1.2, 2),
        Span("harmonics.funk_hecke", 1.5, 1.9, 2),
    ]
    m, accounted = layer_metrics(spans, {}, wall=3.2, useful_entries=None)
    assert math.isclose(accounted, 3.2)
    assert math.isclose(m["trace.untraced_s"], 0.3)
    assert math.isclose(m["spectrum.lambda_table_s"], 1.4)
    assert math.isclose(m["spectrum.lambda_table_self_s"], 0.5)


def test_tracer_wrap_records_nesting_and_counts():
    class Lib:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Lib.inner(x) * 2

    tracer = Tracer()
    tracer.wrap(Lib, "inner", "lib.inner",
                lambda counts, args, kwargs, result: counts.update(seen=args[0]))
    tracer.wrap(Lib, "outer", "lib.outer")
    assert Lib.outer(3) == 8
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("lib.outer", None), ("lib.inner", 0)]
    assert tracer.counts == {"lib.inner.calls": 1, "lib.outer.calls": 1, "seen": 3}


def _spectrum_copy(tmp_path, scale_mu):
    w = WORKLOADS["spectrum-decay"]
    src = REFERENCE / w.name / "seed-0"
    for name in w.outputs:
        shutil.copy(src / name, tmp_path / name)
    csv = tmp_path / w.outputs[0]
    out = read_csv(csv)
    col = out.columns.index("mu")
    lines = [line for line in csv.read_text(encoding="ascii").splitlines()
             if line.startswith("#")]
    for row in out.rows:
        row[col] = f"{scale_mu(float(row[col])):.17g}"
        lines.append(",".join(row))
    csv.write_text("\n".join(lines) + "\n", encoding="ascii")
    return w


@pytest.mark.parametrize("scale_mu, accepted", [
    (lambda v: math.nextafter(v, math.inf), True),
    (lambda v: v * (1.0 + 1e-6), False),
])
def test_check_mu_tolerance(tmp_path, scale_mu, accepted):
    w = _spectrum_copy(tmp_path, scale_mu)
    problems = w.check(tmp_path, 0)
    assert (problems == []) == accepted, problems


def test_check_reports_missing_output(tmp_path):
    w = WORKLOADS["nystrom"]
    assert w.check(tmp_path, 0) == ["missing output nystrom.csv"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_reference_passes_its_own_check(name):
    w = WORKLOADS[name]
    for ref in sorted((REFERENCE / name).iterdir()):
        seed = int(ref.name.removeprefix("seed-"))
        assert w.check(ref, seed) == [], ref
