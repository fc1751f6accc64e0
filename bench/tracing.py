"""Spans and counts around the public entry points of each ordersix layer.

The traced run calls ``ordersix.cli.main(argv)`` in-process.  ``instrument``
replaces each entry point where its caller looks it up (a module global or a
class attribute) with a wrapper that records a span: name, start, end,
parent span and command id.  Spans stay in memory until the run ends.
Nothing under ``src/`` changes, and private helpers are not hooked.

``LAYER_METRICS`` names every per-layer metric, with the end-to-end metric
and workload it should move.  ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# (span name, module, class or None, attribute)
HOOKS = (
    ("series.mul", "ordersix.series", "QSeries", "__mul__"),
    ("series.mul", "ordersix.series", "QSeries", "__rmul__"),
    ("series.invert", "ordersix.series", "QSeries", "invert"),
    ("eta.expand", "ordersix.eta", "EtaQuotient", "expand"),
    ("eta.divisor", "ordersix.eta", None, "divisor"),
    ("eta.divisor", "ordersix.modeq", None, "divisor"),
    ("eta.divisor", "ordersix.verify", None, "divisor"),
    ("cusps.are_equivalent", "ordersix.cusps", None, "are_equivalent"),
    ("cusps.are_equivalent", "ordersix.verify", None, "are_equivalent"),
    ("cusps.canonical", "ordersix.cusps", None, "canonical"),
    ("linalg.kernel_int_crt", "ordersix.modeq", None, "kernel_int_crt"),
    ("linalg.nullspace_exact", "ordersix.modeq", None, "nullspace_exact"),
    ("modeq.solve", "ordersix.cli", None, "solve_modular_equation"),
    ("modeq.solve", "ordersix.verify", None, "solve_modular_equation"),
    ("modeq.residual_series", "ordersix.modeq", None, "residual_series"),
    ("modeq.predict_degrees", "ordersix.modeq", None, "predict_degrees"),
    ("verify.check_golden_tables", "ordersix.verify", None, "check_golden_tables"),
    ("verify.identities", "ordersix.verify", None, "check_fourth_power_identities"),
    ("verify.identities", "ordersix.verify", None, "check_level3_x_identity"),
    ("verify.identities", "ordersix.verify", None, "check_j_identity"),
    ("verify.check_cusp_lists", "ordersix.verify", None, "check_cusp_lists"),
    ("cli.modeq_document", "ordersix.cli", None, "modeq_document"),
    ("cli.validate_document", "ordersix.cli", None, "validate_document"),
    ("cli.emit", "ordersix.cli", None, "emit"),
)
# Calls whose arguments and results feed the per-solve statistics.
KEEP = frozenset({"linalg.kernel_int_crt", "modeq.solve"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: int


class Tracer:
    """Records spans for calls made while ``command`` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.command: int | None = None
        self.kept: list[tuple[str, tuple, object]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            command = self.command
            if command is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, command)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep:
                self.kept.append((name, args, result))
            return result

        return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the HOOKS wrappers for the duration of the block."""
    saved = []
    try:
        for name, module, owner, attr in HOOKS:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            original = vars(target)[attr]
            saved.append((target, attr, original))
            setattr(target, attr, tracer.wrap(name, original, keep=name in KEEP))
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def clear_caches() -> None:
    """Empty every memo in the package, so each in-process command starts
    from the state a fresh process would have."""
    for name, module in list(sys.modules.items()):
        if name == "ordersix" or name.startswith("ordersix."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def solve_stats(kept) -> dict[str, float]:
    """Matrix shape, entry size, primes and row ratio of one command's solve."""
    stats: dict[str, float] = {}
    for name, args, result in kept:
        if name == "linalg.kernel_int_crt":
            rows = args[0]
            bits = max(abs(x).bit_length() for row in rows for x in row)
            stats["matrix_rows"] = len(rows)
            stats["matrix_cols"] = len(rows[0])
            stats["entry_bits_max"] = bits
            stats["primes_used"] = result.primes_used
            if result.vector is not None:
                useful = max(abs(x).bit_length() for x in result.vector)
                stats["useful_bits_ratio"] = useful / bits
        elif name == "modeq.solve":
            unknowns = (result.d1 + 1) * (result.d2 + 1)
            stats["rows_per_unknown"] = result.precision_used / unknowns
    return stats


@dataclass(frozen=True)
class Command:
    workload: str
    phase: str  # "setup" or "timed"
    argv: tuple[str, ...]

    @property
    def level(self) -> int | None:
        return int(self.argv[1]) if self.argv[0] == "modeq" else None


def run_in_process(command: Command, checker, tracer: Tracer | None = None,
                   index: int | None = None) -> tuple[float, str | None, dict]:
    """Run one command through ``ordersix.cli.main`` with stdout captured.

    Returns its wall time, the gate's failure reason (or None) and, when
    traced as command ``index``, the statistics of its solve.
    """
    from ordersix import cli

    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    clear_caches()
    buf = io.StringIO()
    error = None
    if tracer is not None:
        tracer.command = index
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(command.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is recorded as this command's failure
        code, error = 1, traceback.format_exc(limit=3)
    finally:
        if tracer is not None:
            tracer.command = None
    wall = time.perf_counter() - start
    stats = {}
    if tracer is not None:
        stats = solve_stats(tracer.kept)
        tracer.kept.clear()
    return wall, error or checker.check(command.argv, code, buf.getvalue()), stats


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

COLD = "modeq-cold"
VERIFY = "verify-all"
WARM = "modeq-warm"
COLD_LEVELS = (7, 13, 19)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload this should move
    value: Callable[["TraceView"], float]


class TraceView:
    """Totals over the spans of a traced run, by span name and command."""

    def __init__(self, plan: list[Command], spans: list[Span], stats, probes):
        self.plan = plan
        self.spans = spans
        self.self_s = self_times(spans)
        self.stats = stats
        self.probes = probes

    def commands(self, workload: str, phase: str, level: int | None = None) -> set[int]:
        return {
            i for i, c in enumerate(self.plan)
            if c.workload == workload and c.phase == phase
            and (level is None or c.level == level)
        }

    def total(self, kind: str, name: str, commands: set[int]) -> float:
        """Count, summed duration ("s") or summed self time ("self_s") of the
        spans called ``name`` or ``name.*`` in the given commands.  A span
        nested in another picked span adds no duration of its own."""
        picked = {i for i, s in enumerate(self.spans)
                  if s.command in commands and (s.name == name or s.name.startswith(name + "."))}
        if kind == "count":
            return len(picked)
        if kind == "self_s":
            return sum(self.self_s[i] for i in picked)
        return sum(self.spans[i].end - self.spans[i].start
                   for i in picked if not self._inside(i, picked))

    def _inside(self, index: int, picked: set[int]) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if parent in picked:
                return True
            parent = self.spans[parent].parent
        return False

    def stat(self, key: str, commands: set[int]) -> float:
        (index,) = commands
        return self.stats[index][key]


def _build_metrics() -> list[LayerMetric]:
    out: list[LayerMetric] = []

    def spans(prefix, select, moves, *suffixes):
        for suffix in suffixes:
            name, _, kind = suffix.rpartition(".")
            out.append(LayerMetric(
                f"{prefix}.{suffix}", "count" if kind == "count" else "s", "lower", moves,
                lambda v, name=name, kind=kind: v.total(kind, name, select(v)),
            ))

    cold_solve = "cmd_max_ms and wall_s on modeq-cold"
    for n in COLD_LEVELS:
        def level(v, n=n):
            return v.commands(COLD, "timed", n)

        spans(f"{COLD}.n{n}", level, cold_solve,
              "modeq.solve.s", "modeq.solve.self_s", "modeq.residual_series.s",
              "series.mul.count", "series.mul.self_s",
              "linalg.kernel_int_crt.s", "linalg.kernel_int_crt.count")
        for suffix, unit, better in (
            ("linalg.primes_used", "count", "lower"),
            ("linalg.matrix_rows", "count", "lower"),
            ("linalg.matrix_cols", "count", "lower"),
            ("linalg.entry_bits_max", "bits", "lower"),
            ("linalg.useful_bits_ratio", "ratio", "higher"),
            ("modeq.rows_per_unknown", "ratio", "lower"),
        ):
            key = suffix.partition(".")[2]
            out.append(LayerMetric(f"{COLD}.n{n}.{suffix}", unit, better, cold_solve,
                                   lambda v, key=key, level=level: v.stat(key, level(v))))

    spans(COLD, lambda v: v.commands(COLD, "timed"), "wall_s on modeq-cold",
          "series.invert.self_s", "eta.expand.count", "eta.expand.self_s",
          "eta.divisor.count", "cusps.are_equivalent.count", "cusps.canonical.count",
          "cusps.self_s", "modeq.predict_degrees.s", "cli.main.self_s", "cli.emit.s")
    spans(VERIFY, lambda v: v.commands(VERIFY, "timed"), "wall_s on verify-all",
          "series.mul.count", "series.mul.self_s", "series.invert.self_s",
          "eta.expand.count", "eta.expand.self_s", "eta.divisor.count",
          "cusps.are_equivalent.count", "cusps.canonical.count", "cusps.self_s",
          "linalg.kernel_int_crt.s", "linalg.kernel_int_crt.count",
          "linalg.nullspace_exact.s", "linalg.nullspace_exact.count",
          "modeq.solve.s", "modeq.solve.self_s", "modeq.residual_series.s",
          "verify.check_golden_tables.s", "verify.identities.s",
          "verify.check_cusp_lists.s", "cli.main.self_s")
    spans(WARM, lambda v: v.commands(WARM, "timed"), "cmd_p50_ms and wall_s on modeq-warm",
          "cli.main.self_s", "cli.validate_document.s", "cli.emit.s")
    spans(f"{WARM}.setup", lambda v: v.commands(WARM, "setup"), "setup_s on modeq-warm",
          "modeq.solve.s", "linalg.nullspace_exact.s", "linalg.kernel_int_crt.s",
          "series.mul.count")
    for key, moves in (
        ("cli.startup_s", "cmd_p50_ms and wall_s on modeq-warm"),
        ("cli.import_s", "cmd_p50_ms and wall_s on modeq-warm"),
        ("trace.overhead_s", "none; the cost of tracing itself"),
    ):
        out.append(LayerMetric(key, "s", "lower", moves, lambda v, key=key: v.probes[key]))
    return out


LAYER_METRICS = _build_metrics()


def layer_metrics(plan, tracer: Tracer, stats, probes) -> dict[str, float]:
    view = TraceView(plan, tracer.spans, stats, probes)
    return {m.name: m.value(view) for m in LAYER_METRICS}
