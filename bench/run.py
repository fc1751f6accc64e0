#!/usr/bin/env python3
"""End-to-end benchmark of the ordersix command line.

    python3 bench/run.py --workload modeq-cold --seed 1 --seconds 50 --trace 0

With ``--trace 0`` each timed command runs as ``python -m ordersix ...`` in
a fresh process with ``src`` on PYTHONPATH, one at a time from this process
(a closed loop with one client).  Passes over the workload's commands repeat
for about ``--seconds`` (at least two passes), and times are medians over
passes.  The seed only permutes the order of commands within a pass.

With ``--trace 1`` every workload runs once in-process through
``ordersix.cli.main``, whatever ``--workload`` says: each command runs
untraced and then again with spans around each layer's entry points
(tracing.py), and the per-layer metrics are reported.

Every command's output is checked (gate.py).  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when any check fails and 2 when the benchmark cannot run.
Working files, results and spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import tracing  # noqa: E402
from tracing import Command  # noqa: E402

WARM_LEVELS = (2, 3, 5, 7, 11, 13)
FORMATS = ("json", "plain", "latex")
WORKLOADS = (tracing.COLD, tracing.VERIFY, tracing.WARM)
# The workloads BENCHMARK.json lists.  modeq-warm stays runnable by hand and
# in the traced run, but its wall times (18 process starts of ~0.3 s, each
# running numpy's thread pool on a 2-vCPU machine) spread across runs by
# more than any bound on a shared host, so it gates nothing.
BENCHMARKED = (tracing.COLD, tracing.VERIFY)
SETUP_REPEATS = 5
MIN_PASSES = 2  # so that every per-command median has at least two samples
PROBE_REPEATS = 5
END_TO_END = {
    "wall_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_max_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
CACHE = "{cache}"  # replaced by a fresh cache directory per set-up


class SetupError(RuntimeError):
    """The program could not be prepared or probed."""


def workload_plan(workload: str, rng: random.Random) -> list[Command]:
    """The workload's set-up and timed commands, timed ones in seed order."""
    if workload == tracing.COLD:
        setup = []
        timed = [("modeq", str(n), "--no-cache", "--no-timing") for n in tracing.COLD_LEVELS]
    elif workload == tracing.VERIFY:
        setup = []
        timed = [("verify", "all", "--no-timing")]
    else:
        setup = [("modeq", str(n), "--cache-dir", CACHE, "--no-timing") for n in WARM_LEVELS]
        timed = [("modeq", str(n), "--cache-dir", CACHE, "--format", f, "--no-timing")
                 for n in WARM_LEVELS for f in FORMATS]
    rng.shuffle(timed)
    return ([Command(workload, "setup", argv) for argv in setup]
            + [Command(workload, "timed", argv) for argv in timed])


def with_cache(plan: list[Command], cache_dir: Path) -> list[Command]:
    return [Command(c.workload, c.phase,
                    tuple(str(cache_dir) if a == CACHE else a for a in c.argv))
            for c in plan]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    argv: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_kb: int
    failure: str | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ORDERSIX_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: list[str], work: Path) -> tuple[int, str, str, float, object]:
    """Run ``python args...``; return exit code, stdout, stderr, wall time
    and the child's resource usage."""
    with tempfile.TemporaryFile(dir=work) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=err, cwd=work, env=child_env())
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return proc.returncode, out.decode(errors="replace"), stderr, wall, usage


def run_command(command: Command, checker: gate.Gate, work: Path) -> Sample:
    code, out, err, wall, usage = run_child(["-m", "ordersix", *command.argv], work)
    failure = checker.check(command.argv, code, out)
    if failure and err.strip():
        failure += f" (stderr: {err.strip().splitlines()[-1]})"
    return Sample(command.argv, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss, failure)


def probe(code: str, work: Path) -> float:
    """Median wall time of ``python -c code`` in a fresh process."""
    times = []
    for _ in range(PROBE_REPEATS):
        rc, _, err, wall, _ = run_child(["-c", code], work)
        if rc != 0:
            raise SetupError(f"python -c {code!r} failed: {err.strip()}")
        times.append(wall)
    return statistics.median(times)


def cache_snapshot(cache_dir: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size)
            for p in sorted(cache_dir.iterdir())}


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def set_up(plan: list[Command], checker: gate.Gate, work: Path,
           index: int) -> tuple[float, Path]:
    """One set-up: a fresh cache filled by the set-up commands, or, for
    workloads without set-up commands, a check that the program imports
    (which also writes its bytecode caches)."""
    cache_dir = work / f"cache-{index}"
    setup = [c for c in with_cache(plan, cache_dir) if c.phase == "setup"]
    start = time.perf_counter()
    cache_dir.mkdir()
    if not setup:
        code, _, err, _, _ = run_child(["-c", "import ordersix.cli"], work)
        if code != 0:
            raise SetupError(f"cannot import ordersix from {SRC}: {err.strip()}")
    for command in setup:
        sample = run_command(command, checker, work)
        if sample.failure:
            raise SetupError(f"set-up command {' '.join(command.argv)}: {sample.failure}")
    return time.perf_counter() - start, cache_dir


def more_passes(elapsed: float, done: int, seconds: float) -> bool:
    """Whether one more pass ends nearer to ``seconds`` than stopping now,
    so that a run lasts about ``seconds`` even when a pass is long."""
    return elapsed + elapsed / done / 2 < seconds


def end_to_end(workload: str, seed: int, seconds: int, checker: gate.Gate, work: Path):
    rng = random.Random(seed)
    plan = workload_plan(workload, rng)
    setups = []
    for index in range(SETUP_REPEATS):
        elapsed, cache_dir = set_up(plan, checker, work, index)
        setups.append(elapsed)
    timed = [c for c in with_cache(plan, cache_dir) if c.phase == "timed"]
    passes: list[list[Sample]] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or more_passes(time.perf_counter() - start,
                                                  len(passes), seconds):
        order = list(timed)
        if passes:
            rng.shuffle(order)
        samples = []
        for command in order:
            before = cache_snapshot(cache_dir)
            sample = run_command(command, checker, work)
            if not sample.failure and cache_snapshot(cache_dir) != before:
                sample.failure = "the command wrote to the cache"
            samples.append(sample)
        passes.append(samples)
    every = [s for p in passes for s in p]
    # Medians per command over passes, so that a burst of interference
    # slowing one command in one pass does not move the result.
    by_command: dict[tuple[str, ...], list[Sample]] = {}
    for sample in every:
        by_command.setdefault(sample.argv, []).append(sample)
    walls = [statistics.median(s.wall_s for s in group) for group in by_command.values()]
    cpus = [statistics.median(s.cpu_s for s in group) for group in by_command.values()]
    values = {
        "wall_s": sum(walls),
        "cmd_p50_ms": 1000 * statistics.median(s.wall_s for s in every),
        "cmd_max_ms": 1000 * max(walls),
        "cpu_s": sum(cpus),
        "peak_rss_mb": max(s.rss_kb for s in every) / 1024,
        "setup_s": statistics.median(setups),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    detail = {
        "passes": len(passes),
        "commands_per_pass": len(timed),
        "cmd_p50_ms_samples": len(every),
        "setup_s_samples": setups,
        "samples": [asdict(s) for s in every],
    }
    return metrics, every, detail


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def traced(seed: int, checker: gate.Gate, work: Path):
    """Each command runs in-process twice, untraced and traced, in
    alternating order so that drift does not bias the overhead."""
    rng = random.Random(seed)
    plan = [c for w in WORKLOADS for c in workload_plan(w, rng)]
    plain = with_cache(plan, work / "untraced")
    hooked = with_cache(plan, work / "traced")
    (work / "untraced").mkdir()
    (work / "traced").mkdir()
    tracer = tracing.Tracer()
    walls = {"untraced": 0.0, "traced": 0.0}
    failures, stats = [], []
    for index, command in enumerate(plan):
        for side in (("untraced", "traced") if index % 2 else ("traced", "untraced")):
            if side == "traced":
                with tracing.instrument(tracer):
                    wall, failure, solve = tracing.run_in_process(
                        hooked[index], checker, tracer, index)
                stats.append(solve)
            else:
                wall, failure, _ = tracing.run_in_process(plain[index], checker)
            walls[side] += wall
            if failure:
                failures.append(f"{' '.join(command.argv)} ({side}): {failure}")
    probes = {
        "cli.startup_s": probe("pass", work),
        "cli.import_s": probe("import ordersix.cli", work),
        "trace.overhead_s": walls["traced"] - walls["untraced"],
    }
    values = tracing.layer_metrics(plan, tracer, stats, probes)
    units = {m.name: m.unit for m in tracing.LAYER_METRICS}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    detail = {
        "untraced_wall_s": walls["untraced"],
        "traced_wall_s": walls["traced"],
        "commands": [asdict(c) for c in plan],
        "spans": [asdict(s) for s in tracer.spans],
    }
    return metrics, 2 * len(plan), failures, detail


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ordersix" / "__init__.py").is_file():
        print(f"bench: no ordersix package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        checker = gate.Gate()
        if args.trace:
            metrics, attempted, failures, detail = traced(args.seed, checker, work)
        else:
            metrics, samples, detail = end_to_end(
                args.workload, args.seed, args.seconds, checker, work)
            attempted = len(samples)
            failures = [f"{' '.join(s.argv)}: {s.failure}" for s in samples if s.failure]
    except SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta = metadata(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "failures": failures, "detail": detail}))
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"meta {json.dumps(meta)}")
    if not args.trace:
        print(f"passes {detail['passes']} x {detail['commands_per_pass']} commands; "
              f"cmd_p50_ms over {detail['cmd_p50_ms_samples']} commands; "
              f"setup_s over {SETUP_REPEATS} set-ups")
    else:
        print(f"traced in-process run: {detail['traced_wall_s']:.3f} s, "
              f"untraced {detail['untraced_wall_s']:.3f} s")
    for key, (value, unit) in metrics.items():
        print(f"{key:48} {value:>14.6g} {unit}")
    print(f"{'fail_ratio':48} {len(failures) / attempted:>14.6g} ({len(failures)} of {attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
