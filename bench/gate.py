"""Output checks for the commands the benchmark times.

A command passes only if it exits 0, its output parses, and the equation
or report it prints is right:

* ``modeq n`` for n <= 13: the coefficients equal ``golden_poly(n)``;
* ``modeq 19``: the Kronecker, symmetry and coefficient-pattern checks
  pass and the coefficient digest matches ``LEVEL19_DIGEST``;
* ``verify all``: every report passes and ``all_passed`` is true.

Plain and latex renderings are parsed here, independently of the
program's own formatter.
"""

from __future__ import annotations

import hashlib
import json
import re

# sha256 of the level-19 coefficients in canonical form (see coefficient_digest),
# recorded from `modeq 19 --no-cache` when the benchmark was defined.
LEVEL19_DIGEST = "8a4ac87a978a2e8311964d57b950212660c1fd34057ef1e133c564128c010f69"

_EXPONENT = {
    "plain": r"\^(\d+)",
    "latex": r"\^(\d|\{\d\d+\})",
}


def coefficient_digest(coeffs: dict[tuple[int, int], int]) -> str:
    blob = json.dumps(sorted([i, j, str(c)] for (i, j), c in coeffs.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def parse_polynomial(text: str, style: str) -> dict[tuple[int, int], int]:
    """Parse a rendering such as ``X^6 - 5 X Y^2 + Y^6`` into {(i, j): c}.

    Raises ValueError on anything that is not a sum of distinct nonzero
    integer monomials in X and Y.
    """
    pieces = re.split(r" ([+-]) ", text.strip())
    signs = ["-" if pieces[0].startswith("-") else "+"] + pieces[1::2]
    bodies = [pieces[0].removeprefix("-")] + pieces[2::2]
    out: dict[tuple[int, int], int] = {}
    for sign, body in zip(signs, bodies):
        tokens = body.split(" ")
        c = int(tokens.pop(0)) if tokens[0].isdigit() else 1
        ij = []
        for var in ("X", "Y"):
            m = re.fullmatch(rf"{var}(?:{_EXPONENT[style]})?", tokens[0]) if tokens else None
            if m:
                tokens.pop(0)
            ij.append(0 if not m else int(m.group(1).strip("{}")) if m.group(1) else 1)
        ij = tuple(ij)
        if tokens or not body or c == 0 or ij in out:
            raise ValueError(f"bad term {body!r}")
        out[ij] = -c if sign == "-" else c
    return out


class Gate:
    """Checks one command's output; ``check`` returns None or a reason."""

    def __init__(self):
        from ordersix.modeq import (
            BivarPoly,
            ModEqResult,
            check_kronecker,
            check_pattern,
            check_symmetry,
            predict_coefficient_pattern,
        )
        from ordersix.verify import golden_poly

        pattern = predict_coefficient_pattern(19)
        self._golden = golden_poly
        self._poly = BivarPoly
        self._result = ModEqResult
        self._level19_checks = (
            ("Kronecker congruence", check_kronecker),
            ("X/Y symmetry", check_symmetry),
            ("coefficient pattern", lambda res: check_pattern(res, pattern)),
        )

    def check(self, argv, returncode: int, stdout: str) -> str | None:
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            if argv[0] == "verify":
                return self._check_verify(json.loads(stdout))
            level = int(argv[1])
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
            if fmt == "json":
                doc = json.loads(stdout)
                return self._check_modeq_json(level, doc)
            return self._check_equation(level, parse_polynomial(stdout, fmt), None)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return f"unparsable output: {type(exc).__name__}: {exc}"

    def _check_verify(self, doc) -> str | None:
        result = doc["result"]
        if doc["command"] != "verify" or result["subset"] != "all":
            return "not a verify-all document"
        failing = [r["name"] for r in result["reports"] if r["status"] != "pass"]
        if failing or result["all_passed"] is not True:
            return f"verify all did not pass: {failing}"
        return None

    def _check_modeq_json(self, level: int, doc) -> str | None:
        result = doc["result"]
        if doc["command"] != "modeq" or doc["inputs"]["level"] != level:
            return "not the requested modeq document"
        if result["level"] != level or "timing_ms" in doc:
            return "level mismatch or timing field under --no-timing"
        coeffs = {}
        for entry in result["coefficients"]:
            ij = (entry["i"], entry["j"])
            if ij in coeffs:
                raise ValueError(f"repeated coefficient {ij}")
            coeffs[ij] = int(entry["value"])
        return self._check_equation(level, coeffs, result)

    def _check_equation(self, level, coeffs, result) -> str | None:
        if level != 19:
            if coeffs != self._golden(level).coeffs:
                return f"level {level} coefficients differ from the golden table"
            return None
        if result is None:
            return "level 19 is only checked from json output"
        res = self._result(
            level=19, d1=result["d1"], d2=result["d2"], poly=self._poly(coeffs),
            precision_used=result["precision_used"],
            nullspace_dim=result["nullspace_dimension"],
            normalization=result["normalization"], method="crt",
        )
        for name, check in self._level19_checks:
            if not check(res):
                return f"level 19 fails the {name} check"
        if coefficient_digest(coeffs) != LEVEL19_DIGEST:
            return "level 19 coefficient digest differs from the recorded one"
        return None
