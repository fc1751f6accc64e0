"""Self-tests of the benchmark: output gate, span arithmetic, and agreement
with BENCHMARK.json.  Run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
import tracing
from tracing import Command, Span

from ordersix.cli import modeq_document
from ordersix.modeq import format_polynomial
from ordersix.verify import golden_poly

GOLDEN_LEVELS = (2, 3, 5, 7, 11, 13)


@pytest.fixture(scope="module")
def checker():
    return gate.Gate()


def golden_document(level: int) -> dict:
    coeffs = [{"i": i, "j": j, "value": str(c)}
              for (i, j), c in sorted(golden_poly(level).coeffs.items())]
    return {"schema_version": "1", "command": "modeq", "inputs": {"level": level},
            "result": {"level": level, "coefficients": coeffs}}


def modeq_argv(level: int, fmt: str = "json") -> tuple[str, ...]:
    return ("modeq", str(level), "--no-cache", "--format", fmt, "--no-timing")


@pytest.mark.parametrize("level", GOLDEN_LEVELS)
def test_edited_coefficient_fails_json(checker, level):
    doc = golden_document(level)
    assert checker.check(modeq_argv(level), 0, json.dumps(doc)) is None
    entry = doc["result"]["coefficients"][len(doc["result"]["coefficients"]) // 2]
    entry["value"] = str(int(entry["value"]) + 1)
    assert "golden" in checker.check(modeq_argv(level), 0, json.dumps(doc))


@pytest.mark.parametrize("fmt", ("plain", "latex"))
@pytest.mark.parametrize("level", GOLDEN_LEVELS)
def test_edited_coefficient_fails_text(checker, level, fmt):
    poly = golden_poly(level)
    text = format_polynomial(poly, fmt)
    assert gate.parse_polynomial(text, fmt) == poly.coeffs
    assert checker.check(modeq_argv(level, fmt), 0, text + "\n") is None
    edited = dict(poly.coeffs)
    ij = sorted(edited)[len(edited) // 2]
    edited[ij] *= 2
    bad = format_polynomial(type(poly)(edited), fmt)
    assert "golden" in checker.check(modeq_argv(level, fmt), 0, bad)


@pytest.mark.parametrize("text", ["", "X^", "X Y + X Y", "0 X", "Z", "X^{7}", "X^ 2"])
def test_unparsable_polynomial_fails(checker, text):
    assert "unparsable" in checker.check(modeq_argv(5, "latex"), 0, text)


def test_nonzero_exit_fails(checker):
    assert checker.check(modeq_argv(2), 3, json.dumps(golden_document(2))) == "exit code 3"


def test_failing_child_is_counted(checker, tmp_path):
    sample = run.run_command(Command(tracing.COLD, "timed", ("modeq", "1", "--no-cache")),
                             checker, tmp_path)
    assert sample.failure.startswith("exit code 2") and sample.wall_s > 0


def test_timing_field_fails(checker):
    doc = golden_document(3)
    doc["timing_ms"] = 1.0
    assert checker.check(modeq_argv(3), 0, json.dumps(doc)) is not None


def test_verify_document(checker):
    argv = ("verify", "all", "--no-timing")
    reports = [{"name": "a", "status": "pass"}, {"name": "b", "status": "pass"}]
    doc = {"command": "verify", "result": {"subset": "all", "all_passed": True,
                                           "reports": reports}}
    assert checker.check(argv, 0, json.dumps(doc)) is None
    reports[1]["status"] = "fail"
    assert checker.check(argv, 0, json.dumps(doc)) is not None
    reports[1]["status"] = "pass"
    doc["result"]["all_passed"] = False
    assert checker.check(argv, 0, json.dumps(doc)) is not None
    assert "unparsable" in checker.check(argv, 0, "not json")


def test_level19_document(checker):
    doc = modeq_document(19)
    argv = ("modeq", "19", "--no-cache", "--no-timing")
    assert checker.check(argv, 0, json.dumps(doc)) is None
    coeffs = doc["result"]["coefficients"]
    symmetric = next(e for e in coeffs if e["i"] == e["j"] and int(e["value"]) % 19 == 0)
    symmetric["value"] = str(int(symmetric["value"]) + 19)
    assert "digest" in checker.check(argv, 0, json.dumps(doc))
    coeffs[0]["value"] = str(int(coeffs[0]["value"]) + 1)
    assert "level 19 fails" in checker.check(argv, 0, json.dumps(doc))


def test_self_times_on_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),   # overlaps a: the union is counted once
        Span("c", 8.0, 12.0, 0, 0),  # runs past its parent: clipped at 10
        Span("d", 2.0, 3.0, 1, 0),
        Span("e", 20.0, 21.0, None, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0, 1.0])


def test_trace_view_totals():
    plan = [Command(tracing.COLD, "timed", ("modeq", "7")),
            Command(tracing.COLD, "timed", ("modeq", "13"))]
    spans = [
        Span("x", 0.0, 4.0, None, 0),
        Span("x", 1.0, 2.0, 0, 0),  # nested in a span of the same name
        Span("y", 2.0, 3.0, 0, 0),
        Span("x", 5.0, 6.0, None, 1),
    ]
    view = tracing.TraceView(plan, spans, [{}, {}], {})
    both = view.commands(tracing.COLD, "timed")
    assert view.total("count", "x", both) == 3
    assert view.total("s", "x", both) == pytest.approx(5.0)
    assert view.total("self_s", "x", both) == pytest.approx(4.0)
    assert view.total("s", "x", view.commands(tracing.COLD, "timed", 13)) == pytest.approx(1.0)


def test_hooks_install_and_restore(checker):
    from ordersix import cli, modeq, series

    before = (vars(series.QSeries)["__mul__"], modeq.kernel_int_crt, cli.emit)
    tracer = tracing.Tracer()
    argv = ("modeq", "7", "--no-cache", "--no-timing")
    counts = []
    for _ in range(2):
        with tracing.instrument(tracer):
            assert modeq.kernel_int_crt is not before[1]
            wall, failure, stats = tracing.run_in_process(
                Command(tracing.COLD, "timed", argv), checker, tracer, len(counts))
        assert failure is None and wall > 0
        assert stats["matrix_cols"] == 81 and stats["primes_used"] >= 1
        counts.append(sorted(s.name for s in tracer.spans if s.command == len(counts)))
    assert counts[0] == counts[1]
    assert (vars(series.QSeries)["__mul__"], modeq.kernel_int_crt, cli.emit) == before
    assert {"cli.main", "modeq.solve", "series.mul", "linalg.kernel_int_crt"} <= set(counts[0])


def test_benchmark_json_matches_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCHMARKED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in tracing.LAYER_METRICS
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_length_stays_near_seconds():
    assert run.more_passes(28.0, 2, 40)      # a third pass ends at 42 s
    assert not run.more_passes(32.0, 2, 40)  # a third pass would end at 48 s
    assert run.more_passes(36.0, 8, 40)
