"""Command-line interface: expand, cusps, modeq, verify.

Every command emits a versioned output document (json, plain, or latex
rendering).  Big integers are serialized as decimal strings so any JSON
parser round-trips them exactly.  Solved equations are cached one JSON file
per level, modeq-level{n}.json, under --cache-dir (or $ORDERSIX_CACHE_DIR,
default ~/.cache/ordersix); writes are atomic and a failed write only warns.
Only an entry's coefficients are read: they are served only when they pass
modeq.certificate_failure, and every other field is derived from them as
for a fresh solve, so a hit prints what a fresh solve prints.  An entry that
fails (corrupt, or with edited coefficients) is recomputed with a warning
and replaced in place.  Exit codes:
0 ok, 1 verification failure, 2 usage error, 3 internal solver error,
141 stdout closed by its reader (128 + SIGPIPE, what a shell reports for
`yes | head`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import SUBSETS
from .cusps import cusp_set, width
from .eta import EtaQuotient, NAMED_QUOTIENTS, named_j
from .modeq import (
    MAX_LEVEL,
    BivarPoly,
    ModEqResult,
    certificate_failure,
    extract_inner_factor,
    format_polynomial,
    result_for,
    solve_modular_equation,
)
from .series import QSeries, monomial, signed_sum
from .arith import is_prime

SCHEMA_VERSION = "1"
CACHE_ENV = "ORDERSIX_CACHE_DIR"

# The largest level `cusps` accepts.  Listing the cusps of Gamma0(N)
# trial-divides N up to its square root and prints up to about 2*sqrt(N)
# of them; at N <= 10^6 that is at most 1,000 divisions, and on 2 vCPUs
# the prime 999983, 720720 and 10^6 (1,800 cusps) each printed within
# 0.3 s.  The bound refuses a larger N before anything factors it.
MAX_CUSPS_LEVEL = 10**6


class BadSpecError(ValueError):
    """Malformed quotient spec or invalid command input."""


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
        return name, NAMED_QUOTIENTS[name]()
    return "", parse_quotient_spec(spec)


# ---------------------------------------------------------------------------
# output documents
# ---------------------------------------------------------------------------

def make_document(command: str, inputs: dict, result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
    }


def series_payload(s: QSeries) -> dict:
    return {
        "exponent_denominator": s.h,
        "valuation": s.val,
        "precision": s.prec,
        "coefficients": [str(c) for c in s.coeffs],
    }


def series_latex(s: QSeries) -> str:
    """LaTeX for expand, through the series module's term renderer."""
    return signed_sum(((c, monomial("q", e, "latex")) for e, c in s.terms()), " ")


def poly_payload(poly) -> list[dict]:
    return [
        {"i": i, "j": j, "value": str(c)}
        for (i, j), c in sorted(poly.coeffs.items())
    ]


def emit(doc: dict, fmt: str, render) -> None:
    """Print ``doc`` as JSON, or ``render(fmt)`` for plain and latex, so only
    the requested text is built."""
    print(json.dumps(doc, indent=2, sort_keys=False) if fmt == "json" else render(fmt))


# ---------------------------------------------------------------------------
# commands: each returns its document, the renderer emit takes for plain
# and latex, and its exit code
# ---------------------------------------------------------------------------

def cmd_expand(args):
    name, quotient = resolve_quotient(args.name, args.quotient)
    if args.prec < 1:
        raise BadSpecError("--prec must be at least 1")
    if args.prec > sys.maxsize:  # no list that long can exist
        raise BadSpecError(f"--prec must be at most {sys.maxsize}")
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
    doc = make_document("expand", inputs, series_payload(s))
    return doc, lambda style: repr(s) if style == "plain" else series_latex(s), 0


def cmd_cusps(args):
    if args.level < 1:
        raise BadSpecError("level must be positive")
    if args.level > MAX_CUSPS_LEVEL:  # checked before anything factors the level
        raise BadSpecError(f"cusps level must be at most {MAX_CUSPS_LEVEL}")
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
    doc = make_document("cusps", inputs, result)

    def render(style):
        if style == "latex":
            return ", ".join(("\\infty" if e["cusp"] == "inf" else e["cusp"])
                             for e in entries)
        return "\n".join(
            "  ".join([f"{e['cusp']:>8}", f"width {e['width']}"]
                      + ([f"order {e['order']}"] if "order" in e else []))
            for e in entries
        )

    return doc, render, 0


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
    import tempfile  # only a cache write needs it

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
    return make_document("modeq", {"level": level}, result)


def modeq_document(level: int) -> dict:
    return _equation_document(solve_modular_equation(level))


def _doc_poly(doc: dict) -> BivarPoly:
    return BivarPoly({
        (int(e["i"]), int(e["j"])): int(e["value"]) for e in doc["result"]["coefficients"]
    })


def validate_document(doc, level: int) -> dict:
    """The document of a cache entry's equation, built as for a fresh solve,
    if the equation passes certificate_failure; raises ValueError otherwise.
    No field of the entry but its coefficients is read."""
    try:
        poly = _doc_poly(doc)
        reason = certificate_failure(level, poly)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        reason = f"{type(exc).__name__}: {exc}"
    if reason:
        raise ValueError(reason)
    return _equation_document(result_for(level, poly))


def cmd_modeq(args):
    if args.level < 2:
        raise BadSpecError("modeq level must be at least 2")
    if args.level > MAX_LEVEL:  # checked before anything factors the level
        raise BadSpecError(f"modeq level must be at most {MAX_LEVEL}")
    doc = None
    path = _cache_path(args, args.level)
    if not args.no_cache:
        try:
            doc = validate_document(json.loads(path.read_text()), args.level)
        # no entry there: a missing file, or a parent that is not a directory
        except (FileNotFoundError, NotADirectoryError):
            pass
        # any other OSError, such as a name too long: solve without the entry
        except OSError as exc:
            print(f"warning: cache entry {path} not read ({exc}); recomputing",
                  file=sys.stderr)
        # ValueError: undecodable bytes, malformed JSON or an equation that
        # validate_document refuses; RecursionError: json.loads on deeply
        # nested arrays
        except (ValueError, RecursionError) as exc:
            print(f"warning: cache entry {path} is corrupt ({exc}); recomputing",
                  file=sys.stderr)
    if doc is None:
        doc = modeq_document(args.level)
        if not args.no_cache:
            try:
                _write_atomic(path, json.dumps(doc, indent=2))
            except OSError as exc:
                print(f"warning: cache entry {path} not written ({exc})",
                      file=sys.stderr)
    return doc, lambda style: format_polynomial(_doc_poly(doc), style), 0


def cmd_verify(args):
    from .verify import run_checks  # loaded only by this command

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
    doc = make_document("verify", {"subset": args.subset}, result)
    # plain and latex are the same text
    return (doc,
            lambda _: "\n".join(f"{r.status.upper():4} {r.name}: {r.detail}" for r in reports),
            0 if all_passed else 1)


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
    t0 = time.perf_counter()
    try:
        doc, render, code = args.func(args)
        if not args.no_timing:
            doc = {**doc, "timing_ms": round(1000 * (time.perf_counter() - t0), 3)}
        emit(doc, args.format, render)
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
    except RuntimeError as exc:
        # a solver failure, such as kernel_int_crt certifying no lift
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
