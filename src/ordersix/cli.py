"""Command-line interface: expand, cusps, modeq, verify.

Every command emits a versioned output document (json, plain, or latex
rendering).  Big integers are serialized as decimal strings so any JSON
parser round-trips them exactly.  Solved equations are cached one JSON file
per level, modeq-level{n}.json, under --cache-dir (or $ORDERSIX_CACHE_DIR,
default ~/.cache/ordersix); writes are atomic and a failed write only warns.
An entry is served only when its equation passes modeq.certificate_failure
and the entry is, as JSON text, the document modeq.result_for makes of that
equation; any other entry (corrupt, edited, or written by another schema or
solver) is recomputed with a warning and replaced in place.  Exit codes:
0 ok, 1 verification failure, 2 usage error, 3 internal solver error,
141 stdout closed by its reader (128 + SIGPIPE, what a shell reports for
`yes | head`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from .cusps import cusp_set, width
from .eta import EtaQuotient, NAMED_QUOTIENTS, named_j
from .modeq import (
    BivarPoly,
    ModEqResult,
    NullspaceAmbiguousError,
    NullspaceEmptyError,
    certificate_failure,
    extract_inner_factor,
    format_polynomial,
    result_for,
    signed_sum,
    solve_modular_equation,
)
from .series import QSeries
from .verify import SUBSETS, run_checks
from .arith import is_prime

SCHEMA_VERSION = "1"
CACHE_ENV = "ORDERSIX_CACHE_DIR"


class BadSpecError(ValueError):
    """Malformed quotient spec or invalid command input."""


class CacheCorruptError(Exception):
    """A cached document failed validation."""


# ---------------------------------------------------------------------------
# quotient specs
# ---------------------------------------------------------------------------

def parse_quotient_spec(text: str) -> EtaQuotient:
    """Parse 'N; d1:r1, d2:r2, ...' into an eta quotient."""
    try:
        head, _, tail = text.partition(";")
        level = int(head.strip())
    except ValueError as exc:
        raise BadSpecError(f"bad quotient spec {text!r}: {exc}") from None
    if level < 1:
        raise BadSpecError(f"bad quotient spec {text!r}: level must be positive")
    exponents: dict[int, int] = {}
    for chunk in tail.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            d_text, r_text = chunk.split(":")
            d, r = int(d_text), int(r_text)
        except ValueError:
            raise BadSpecError(f"bad quotient spec {text!r}: malformed entry {chunk!r}") from None
        if d < 1 or level % d:
            raise BadSpecError(f"bad quotient spec {text!r}: {d} does not divide {level}")
        exponents[d] = exponents.get(d, 0) + r
    return EtaQuotient(level, exponents)


def resolve_quotient(name: str | None, spec: str | None) -> tuple[str, EtaQuotient | None]:
    """Resolve --name/--quotient; the named 'j' has no eta-quotient form and
    is returned as (name, None)."""
    if (name is None) == (spec is None):
        raise BadSpecError("exactly one of --name and --quotient is required")
    if name is not None:
        if name == "j":
            return "j", None
        if name not in NAMED_QUOTIENTS:
            raise BadSpecError(f"unknown name {name!r}; choose from w, X, j")
        return name, NAMED_QUOTIENTS[name]()
    return "", parse_quotient_spec(spec)


# ---------------------------------------------------------------------------
# output documents
# ---------------------------------------------------------------------------

def make_document(command: str, inputs: dict, result: dict,
                  timing_ms: float | None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
    }
    if timing_ms is not None:
        doc["timing_ms"] = round(timing_ms, 3)
    return doc


def series_payload(s: QSeries) -> dict:
    return {
        "exponent_denominator": s.h,
        "valuation": s.val,
        "precision": s.prec,
        "coefficients": [str(c) for c in s.coeffs],
    }


def series_latex(s: QSeries) -> str:
    def power(e) -> str:
        if e == 0:
            return ""
        if e == 1:
            return "q"
        if e.denominator == 1 and 0 < e < 10:
            return f"q^{e}"
        return f"q^{{{e}}}"

    return signed_sum((c, power(e)) for e, c in s.terms())


def poly_payload(poly) -> list[dict]:
    return [
        {"i": i, "j": j, "value": str(c)}
        for (i, j), c in sorted(poly.coeffs.items())
    ]


def emit(doc: dict, fmt: str, plain_text: str, latex_text: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=False))
    elif fmt == "plain":
        print(plain_text)
    else:
        print(latex_text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_expand(args) -> int:
    t0 = time.perf_counter()
    name, quotient = resolve_quotient(args.name, args.quotient)
    if args.prec < 1:
        raise BadSpecError("--prec must be at least 1")
    if quotient is None:
        s = named_j(args.prec)
        inputs = {"name": "j", "prec": args.prec}
    else:
        s = quotient.expand(args.prec)
        inputs = {
            "name": name or None,
            "level": quotient.level,
            "exponents": {str(d): r for d, r in quotient.exponents.items()},
            "prec": args.prec,
        }
    result = series_payload(s)
    doc = make_document("expand", inputs, result, _elapsed(args, t0))
    emit(doc, args.format, repr(s), series_latex(s))
    return 0


def cmd_cusps(args) -> int:
    t0 = time.perf_counter()
    if args.level < 1:
        raise BadSpecError("level must be positive")
    quotient = None
    if args.divisor is not None:
        if args.divisor in NAMED_QUOTIENTS:
            quotient = NAMED_QUOTIENTS[args.divisor]()
        else:
            quotient = parse_quotient_spec(args.divisor)
        if args.level % quotient.level:
            raise BadSpecError(
                f"quotient level {quotient.level} does not divide {args.level}"
            )
        quotient = quotient.lift(args.level)
    entries = []
    for x in cusp_set(args.level):
        entry = {"cusp": str(x), "a": x.a, "c": x.c, "width": width(args.level, x)}
        if quotient is not None:
            entry["order"] = str(quotient.order_at_cusp(x))
        entries.append(entry)
    inputs = {"level": args.level}
    if args.divisor is not None:
        inputs["divisor"] = args.divisor
    result = {"count": len(entries), "cusps": entries}
    doc = make_document("cusps", inputs, result, _elapsed(args, t0))
    plain_lines = [
        "  ".join(
            [f"{e['cusp']:>8}", f"width {e['width']}"]
            + ([f"order {e['order']}"] if "order" in e else [])
        )
        for e in entries
    ]
    latex = ", ".join(
        ("\\infty" if e["cusp"] == "inf" else e["cusp"]) for e in entries
    )
    emit(doc, args.format, "\n".join(plain_lines), latex)
    return 0


def _cache_dir(args) -> Path:
    if args.cache_dir:
        return Path(args.cache_dir)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ordersix"


def _cache_path(args, level: int) -> Path:
    return _cache_dir(args) / f"modeq-level{level}.json"


def _write_atomic(path: Path, payload: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _equation_document(res: ModEqResult) -> dict:
    level = res.level
    result = {
        "level": level,
        "degree_x": res.poly.degx,
        "degree_y": res.poly.degy,
        "d1": res.d1,
        "d2": res.d2,
        "precision_used": res.precision_used,
        "nullspace_dimension": res.nullspace_dim,
        "normalization": res.normalization,
        "coefficients": poly_payload(res.poly),
    }
    if is_prime(level) and level >= 5:
        inner = extract_inner_factor(res.poly, level)
        result["factored"] = {
            "frame": f"(X^{level} - Y)(X - Y^{level}) - {level} X Y G(X, Y)",
            "inner_coefficients": poly_payload(inner),
        }
    return make_document("modeq", {"level": level}, result, None)


def modeq_document(level: int) -> dict:
    return _equation_document(solve_modular_equation(level))


def _doc_poly(doc: dict) -> BivarPoly:
    return BivarPoly({
        (int(e["i"]), int(e["j"])): int(e["value"]) for e in doc["result"]["coefficients"]
    })


def validate_document(doc, level: int) -> None:
    """Serve a cache entry only if its equation passes certificate_failure
    and the entry is the document result_for makes of that equation; raises
    CacheCorruptError otherwise.  No other field of the entry is read."""
    try:
        poly = _doc_poly(doc)
        reason = certificate_failure(level, poly)
        # compared as JSON text, because 1 == 1.0 == True in Python
        if reason is None and (json.dumps(_equation_document(result_for(level, poly)))
                               != json.dumps(doc)):
            reason = "fields differ from those of the certified equation"
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        reason = f"{type(exc).__name__}: {exc}"
    if reason:
        raise CacheCorruptError(reason)


def cmd_modeq(args) -> int:
    t0 = time.perf_counter()
    if args.level < 2:
        raise BadSpecError("modeq level must be at least 2")
    doc = None
    path = _cache_path(args, args.level)
    if not args.no_cache and path.exists():
        try:
            cached = json.loads(path.read_text())
            validate_document(cached, args.level)
            doc = cached
        # ValueError: undecodable bytes or malformed JSON; RecursionError:
        # json.loads on deeply nested arrays
        except (OSError, ValueError, RecursionError, CacheCorruptError) as exc:
            print(f"warning: cache entry {path} is corrupt ({exc}); recomputing",
                  file=sys.stderr)
            doc = None
    if doc is None:
        doc = modeq_document(args.level)
        if not args.no_cache:
            try:
                _write_atomic(path, json.dumps(doc, indent=2))
            except OSError as exc:
                print(f"warning: cache entry {path} not written ({exc})",
                      file=sys.stderr)
    if not args.no_timing:
        doc = dict(doc)
        doc["timing_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    poly = _doc_poly(doc)
    emit(doc, args.format, format_polynomial(poly, "plain"),
         format_polynomial(poly, "latex"))
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    reports = run_checks(args.subset, fail_fast=args.fail_fast)
    all_passed = all(r.passed for r in reports)
    result = {
        "subset": args.subset,
        "all_passed": all_passed,
        "reports": [
            {"name": r.name, "status": r.status, "detail": r.detail,
             "precision": r.precision}
            for r in reports
        ],
    }
    doc = make_document("verify", {"subset": args.subset}, result, _elapsed(args, t0))
    plain = "\n".join(f"{r.status.upper():4} {r.name}: {r.detail}" for r in reports)
    latex = plain
    emit(doc, args.format, plain, latex)
    return 0 if all_passed else 1


def _elapsed(args, t0) -> float | None:
    if getattr(args, "no_timing", False):
        return None
    return 1000 * (time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordersix",
        description="Eta-quotient arithmetic on Gamma0(N) and modular "
                    "equations for the order-six continued fraction",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "plain", "latex"),
                       default="json")
        p.add_argument("--no-timing", action="store_true",
                       help="omit the timing field for byte-deterministic output")

    p = sub.add_parser("expand", help="q-expansion of a named or explicit eta quotient")
    p.add_argument("--name", choices=("w", "X", "j"))
    p.add_argument("--quotient", metavar="SPEC",
                   help="explicit quotient 'N; d1:r1, d2:r2, ...'")
    p.add_argument("--prec", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("cusps", help="canonical cusps of Gamma0(N) with widths")
    p.add_argument("level", type=int)
    p.add_argument("--divisor", metavar="SPEC",
                   help="attach orders of a named (w, X) or explicit quotient")
    common(p)
    p.set_defaults(func=cmd_cusps)

    p = sub.add_parser("modeq", help="solve the level-n modular equation for w")
    p.add_argument("level", type=int)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")
    common(p)
    p.set_defaults(func=cmd_modeq)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("subset", nargs="?", default="all", choices=SUBSETS)
    p.add_argument("--fail-fast", action="store_true")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout at /dev/null so the
        # interpreter's final flush cannot fail again, and end as a writer
        # killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except BadSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NullspaceEmptyError, NullspaceAmbiguousError, RuntimeError) as exc:
        # RuntimeError: kernel_int_crt did not converge
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
