"""Time the modeq level ladder end to end and at modeq's seams, and write
BENCH_<short sha>.json.

    python tools/ladder.py [--levels 5 13 19 24 25 27 40 45 48] [--runs 7]
                           [--out DIR]

End to end: every command, ``modeq N --no-cache --no-timing`` for each
level and ``verify all --no-timing``, runs as ``python -m ordersix`` in a
fresh process with this checkout's src on PYTHONPATH and
PYTHONDONTWRITEBYTECODE=1, so each run compiles src from source.  The
commands alternate: round k runs each of them once, in reverse order when
k is odd, so drift on a shared host reaches every command alike.  Wall
time is read from this process's clock, peak RSS from the child's own
rusage (os.wait4).  A child's peak counts this process's size when it
was spawned, so nothing heavy (numpy, the package) is imported before
these runs end.

By phase: in this process, with numpy imported first and the package's
memos emptied before each solve, solve_modular_equation(N) runs --runs
times with timers around modeq's seams: the MonomialMatrix constructor
(expand_w_s), modp.conjugate_polynomial_mod over all primes (fn_mod_p_s),
the power tables it builds, modp.power_table (power_table_s, part of
fn_mod_p_s; the rest is Newton's identities and the read-off), the twist
checks (twist_s), residual_series (residual_s) and certificate_failure,
twists and residual included (certificate_s).  A seam the checkout lacks
reads 0.

By verify stage: in the same process, before the seams are wrapped, the
checks of ``verify all`` run --runs times, with the memos emptied before
each stage: the two X identities (x_identities_s), the j identity
(j_identity_s), the golden tables (golden_tables_s) and the cusp lists
(cusp_lists_s).  A stage that does not pass is an error.

Every timing is reported as its median and interquartile range (IQR)
over the runs.  The JSON also records the git SHA, whether src differs
from it, the Python and numpy versions and nproc.  Only the standard
library is used, besides the package measured and numpy's version.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the end-to-end ladder, 5, 13, 19 and 25, plus levels that name where a
# solve spends its time: 24 and 27 (3 | n, the numpy crossover), 40 and 48
# (even, residual-bound) and 45 (odd 3 | n)
LEVELS = (5, 13, 19, 24, 25, 27, 40, 45, 48)
# (key, module, attribute path) of each timed seam
SEAMS = (
    ("expand_w_s", "ordersix.modeq", "MonomialMatrix.__init__"),
    ("fn_mod_p_s", "ordersix.modp", "conjugate_polynomial_mod"),
    ("power_table_s", "ordersix.modp", "power_table"),
    ("twist_s", "ordersix.modeq", "mobius_twist"),
    ("residual_s", "ordersix.modeq", "residual_series"),
    ("certificate_s", "ordersix.modeq", "certificate_failure"),
)


def summary(values: list[float]) -> dict[str, float]:
    """Median and interquartile range, to four decimals."""
    iqr = 0.0
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        iqr = q3 - q1
    return {"median": round(statistics.median(values), 4), "iqr": round(iqr, 4)}


def git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_fresh(argv: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of ``python -m ordersix ARGV``."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "ordersix", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024


def end_to_end(levels: list[int], runs: int) -> dict[str, dict]:
    commands = [["modeq", str(n), "--no-cache", "--no-timing"] for n in levels]
    commands.append(["verify", "all", "--no-timing"])
    samples: dict[str, list[tuple[float, float]]] = {" ".join(c[:2]): [] for c in commands}
    for k in range(runs):
        for argv in commands[::-1] if k % 2 else commands:
            samples[" ".join(argv[:2])].append(run_fresh(argv))
    return {name: {"wall_s": summary([w for w, _ in got]),
                   "peak_rss_mb": summary([r for _, r in got])}
            for name, got in samples.items()}


def clear_memos() -> None:
    """Empty every functools cache of the package's loaded modules."""
    for module in [m for name, m in sys.modules.items() if name.startswith("ordersix")]:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def phases(levels: list[int], runs: int) -> dict[str, dict]:
    """Per level: each seam's time and the solve's total, plus the primes
    used, the certificate height and the length w was expanded to."""
    from ordersix import modeq

    spent: dict[str, float] = {}
    calls: dict[str, int] = {}

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] = spent.get(key, 0.0) + time.perf_counter() - start
                calls[key] = calls.get(key, 0) + 1
        return wrapper

    for key, module, path in SEAMS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        if hasattr(owner, attr):
            setattr(owner, attr, timed(key, getattr(owner, attr)))
    out = {}
    for n in levels:
        totals: dict[str, list[float]] = {key: [] for key, _, _ in SEAMS}
        totals["total_s"] = []
        for _ in range(runs):
            clear_memos()
            spent.clear()
            calls.clear()
            start = time.perf_counter()
            result = modeq.solve_modular_equation(n)
            totals["total_s"].append(time.perf_counter() - start)
            for key in totals:
                if key != "total_s":
                    totals[key].append(spent.get(key, 0.0))
        d1 = result.d1
        out[str(n)] = {key: summary(values) for key, values in totals.items()}
        out[str(n)].update(primes=calls.get("fn_mod_p_s", 0), height=result.precision_used,
                           expansion=max(result.precision_used, n * (d1 + 1)))
    return out


def verify_stages(runs: int) -> dict[str, dict]:
    """Each stage of ``verify all`` that computes, timed from empty memos."""
    from ordersix import verify

    stages = (
        ("x_identities_s", lambda: [verify.check_fourth_power_identities(),
                                    verify.check_level3_x_identity()]),
        ("j_identity_s", lambda: [verify.check_j_identity()]),
        ("golden_tables_s", verify.check_golden_tables),
        ("cusp_lists_s", verify.check_cusp_lists),
    )
    totals: dict[str, list[float]] = {key: [] for key, _ in stages}
    for _ in range(runs):
        for key, stage in stages:
            clear_memos()
            start = time.perf_counter()
            reports = stage()
            totals[key].append(time.perf_counter() - start)
            failed = [r.name for r in reports if not r.passed]
            if failed:
                raise RuntimeError(f"verify stage {key} failed: {failed}")
    return {key: summary(values) for key, values in totals.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--levels", type=int, nargs="+", default=list(LEVELS))
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    sha = git("rev-parse", "HEAD")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    doc = {
        "sha": sha,
        "src_differs_from_sha": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "runs": args.runs,
        "levels": args.levels,
        "end_to_end": end_to_end(args.levels, args.runs),
    }
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401  imported first, as a solve from level 24 up would
    except ImportError:
        pass
    stages = verify_stages(args.runs)  # before phases() wraps modeq's seams
    doc["phases"] = phases(args.levels, args.runs)
    doc["verify"] = stages
    path = args.out / f"BENCH_{(sha or 'unknown')[:7]}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    for name, got in doc["end_to_end"].items():
        print(f"{name:12} wall {got['wall_s']['median'] * 1000:8.1f} ms "
              f"(IQR {got['wall_s']['iqr'] * 1000:.1f})  "
              f"peak RSS {got['peak_rss_mb']['median']:.1f} MB")
    for n, got in doc["phases"].items():
        print(f"modeq {n:>3} in process {got['total_s']['median'] * 1000:8.1f} ms, power "
              f"tables {got['power_table_s']['median'] * 1000:.1f} ms, residual "
              f"{got['residual_s']['median'] * 1000:.1f} ms, {got['primes']} primes, "
              f"height {got['height']}")
    print("verify all in process " + ", ".join(
        f"{key[:-2]} {got['median'] * 1000:.1f} ms" for key, got in doc["verify"].items()))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
