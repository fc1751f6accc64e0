"""One-command verification suite for every identity the library reproduces.

Golden data: the level-two and level-three equations as flat grids, and the
prime-level equations as (X^p - Y)(X - Y^p) - p X Y G(X, Y) with the inner
grids G transcribed row by row (row j lists the coefficients of
X^0 .. X^d at Y^j).  The factored form is expanded to a flat grid in
exactly one place, golden_poly, so a transcription slip is localized and
shows up as a solver mismatch.  Checks are independent, deterministic, and
collected in a fixed order.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple

from . import SUBSETS
from .cusps import Cusp, are_equivalent, cusp_set
from .eta import divisor, named_j, named_w, named_x
from .modeq import (
    BivarPoly,
    check_kronecker,
    check_pattern,
    check_symmetry,
    kronecker_frame,
    predict_coefficient_pattern,
    solve_modular_equation,
)
from .series import QSeries

PASS = "pass"
FAIL = "fail"


class CheckReport(namedtuple("CheckReport", "name status detail precision")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status == PASS


# ---------------------------------------------------------------------------
# golden data
# ---------------------------------------------------------------------------

GOLDEN_F2 = {
    (2, 0): 1, (0, 1): -1, (1, 1): 2, (2, 1): -3, (0, 2): 1,
}

GOLDEN_F3 = {
    (3, 0): 1, (0, 1): -1, (1, 1): 3, (2, 1): -3,
    (0, 2): 3, (1, 2): -9, (2, 2): 9,
    (0, 3): -3, (1, 3): 9, (2, 3): -9,
}

# inner factors G_p; row j = coefficients of X^0..X^(p-1) at Y^j
GOLDEN_INNER = {
    5: [
        [0, -1, 2, -3, 3],
        [-1, 4, -6, 9, -9],
        [2, -6, 8, -18, 18],
        [-3, 9, -18, 36, -27],
        [3, -9, 18, -27, 16],
    ],
    7: [
        [0, -1, 3, -6, 9, -9, 5],
        [-1, 7, -21, 42, -63, 59, -27],
        [3, -21, 63, -126, 197, -189, 81],
        [-6, 42, -126, 242, -378, 378, -162],
        [9, -63, 197, -378, 567, -567, 243],
        [-9, 59, -189, 378, -567, 567, -243],
        [5, -27, 81, -162, 243, -243, 104],
    ],
    11: [
        [0, -1, 5, -16, 38, -70, 100, -110, 91, -51, 15],
        [-1, 12, -65, 221, -544, 1022, -1478, 1613, -1263, 630, -153],
        [5, -65, 377, -1348, 3422, -6552, 9616, -10542, 8077, -3789, 819],
        [-16, 221, -1348, 5000, -12982, 25214, -37458, 41403, -31626, 14517, -2970],
        [38, -544, 3422, -12982, 34186, -67074, 100662, -112374, 86544, -39906, 8100],
        [-70, 1022, -6552, 25214, -67074, 132804, -201222, 226926, -176904, 82782, -17010],
        [100, -1478, 9616, -37458, 100662, -201222, 307674, -350514, 277182, -132192, 27702],
        [-110, 1613, -10542, 41403, -112374, 226926, -350514, 405000, -327564, 161109, -34992],
        [91, -1263, 8077, -31626, 86544, -176904, 277182, -327564, 274833, -142155, 32805],
        [-51, 630, -3789, 14517, -39906, 82782, -132192, 161109, -142155, 78732, -19683],
        [15, -153, 819, -2970, 8100, -17010, 27702, -34992, 32805, -19683, 5368],
    ],
    13: [
        [0, -1, 6, -23, 65, -144, 255, -363, 414, -369, 243, -108, 26],
        [-1, 13, -76, 277, -735, 1530, -2559, 3459, -3816, 3447, -2457, 1235, -324],
        [6, -76, 420, -1398, 3307, -6111, 9126, -11187, 12096, -12609, 11638, -7371, 2187],
        [-23, 277, -1398, 3973, -7302, 9297, -7731, 3258, -4860, 21199, -37827, 31023, -9963],
        [65, -735, 3307, -7302, 6195, 9981, -44883, 82404, -73664, -14580, 108864, -103032, 33534],
        [-144, 1530, -6111, 9297, 9981, -77760, 193752, -297231, 247212, 29322, -302049, 280179, -88209],
        [255, -2559, 9126, -7731, -44883, 193752, -419532, 581256, -403947, -208737, 739206, -621837, 185895],
        [-363, 3459, -11187, 3258, 82404, -297231, 581256, -699840, 269487, 753057, -1484973, 1115370, -314928],
        [414, -3816, 12096, -4860, -73664, 247212, -403947, 269487, 501795, -1774386, 2410803, -1607445, 426465],
        [-369, 3447, -12609, 21199, -14580, 29322, -208737, 753057, -1774386, 2896317, -3057426, 1817397, -452709],
        [243, -2457, 11638, -37827, 108864, -302049, 739206, -1484973, 2410803, -3057426, 2755620, -1495908, 354294],
        [-108, 1235, -7371, 31023, -103032, 280179, -621837, 1115370, -1607445, 1817397, -1495908, 767637, -177147],
        [26, -324, 2187, -9963, 33534, -88209, 185895, -314928, 426465, -452709, 354294, -177147, 40880],
    ],
}

# coefficients of P, descending from X^9; P(1/w) closes the j identity
J_IDENTITY_P = [1, 225, -1080, 3348, -8262, 16038, -23328, 26244, -19683, 6561]

# printed expansion prefix of w
W_PREFIX = [1, -1, 1, -2, 3, -4, 5]

# orders of w at the canonical cusps of Gamma0(18), in cusp_set order
W_ORDER_TABLE = [1, 0, -1, 0, 0, 0, 0, 0]

# published inequivalent-cusp lists; 18p follows the common pattern with
# a = 11 on 6p for p = 5 and a = 5 otherwise
CUSP_LISTS = {
    18: ["inf", "0/1", "1/2", "1/3", "2/3", "1/6", "5/6", "1/9"],
    36: ["inf", "0/1", "1/2", "1/3", "2/3", "1/4", "1/6", "5/6", "1/9",
         "1/12", "5/12", "1/18"],
    54: ["inf", "0/1", "1/2", "1/3", "2/3", "1/6", "5/6", "1/9", "5/9",
         "1/18", "5/18", "1/27"],
}


def _cusp_list_18p(p: int) -> list[str]:
    a = 11 if p == 5 else 5
    return ["inf", "0/1", "1/2", "1/3", "2/3", "1/6", "5/6", "1/9", "1/18",
            f"1/{p}", f"1/{2 * p}", f"1/{3 * p}", f"2/{3 * p}", f"1/{6 * p}",
            f"{a}/{6 * p}", f"1/{9 * p}"]


def golden_poly(level: int) -> BivarPoly:
    """Flat golden grid; the only place the factored form is expanded."""
    if level == 2:
        return BivarPoly(dict(GOLDEN_F2))
    if level == 3:
        return BivarPoly(dict(GOLDEN_F3))
    rows = GOLDEN_INNER[level]
    p = level
    coeffs = dict(kronecker_frame(p).coeffs)
    for j, row in enumerate(rows):
        for i, g in enumerate(row):
            if g:
                ij = (i + 1, j + 1)
                coeffs[ij] = coeffs.get(ij, 0) - p * g
    return BivarPoly(coeffs)


def golden_checksum() -> str:
    blob = json.dumps(
        {
            "f2": sorted((i, j, c) for (i, j), c in GOLDEN_F2.items()),
            "f3": sorted((i, j, c) for (i, j), c in GOLDEN_F3.items()),
            "inner": {str(p): GOLDEN_INNER[p] for p in sorted(GOLDEN_INNER)},
        },
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _series_vanishes(s: QSeries, bound: int, name: str) -> CheckReport:
    """Pass iff s is zero below q^bound; distinguishes a failing identity
    (witness term) from insufficient working precision."""
    if s.precision() < bound:
        return CheckReport(
            name, FAIL,
            f"precision insufficient: series known below q^{s.precision()}, "
            f"needed q^{bound}", bound,
        )
    for e, c in s.terms():
        if e < bound:
            return CheckReport(
                name, FAIL, f"identity fails: coefficient {c} at q^{e}", bound
            )
    return CheckReport(name, PASS, f"zero series below q^{bound}", bound)


def check_w_expansion_prefix() -> CheckReport:
    """The printed opening terms of w: q - q^2 + q^3 - 2q^4 + ..."""
    name = "w-expansion-prefix"
    prec = 8
    s = named_w().expand(prec)
    for k, expected in enumerate(W_PREFIX, start=1):
        got = s.coeff(k)
        if got != expected:
            return CheckReport(
                name, FAIL, f"coefficient of q^{k}: expected {expected}, got {got}", prec
            )
    return CheckReport(name, PASS, f"matches printed prefix below q^{prec}", prec)


def check_w_cusp_orders() -> CheckReport:
    """Order table of w on Gamma0(18): one simple zero, one simple pole."""
    name = "w-cusp-orders"
    div = divisor(named_w())
    got = [co.order for co in div]
    if len(got) != len(W_ORDER_TABLE):
        return CheckReport(
            name, FAIL, f"expected {len(W_ORDER_TABLE)} cusps, got {len(got)}", 0
        )
    for co, expected in zip(div, W_ORDER_TABLE):
        if co.order != expected:
            return CheckReport(
                name, FAIL, f"order at {co.cusp}: expected {expected}, got {co.order}", 0
            )
    return CheckReport(name, PASS, f"orders {got} across {len(got)} cusps", 0)


def check_cusp_lists() -> list[CheckReport]:
    """Canonical cusp lists against the published ones (up to equivalence;
    the small levels also match literally)."""
    out = []
    expected_lists = dict(CUSP_LISTS)
    for p in (5, 7, 11, 13):
        expected_lists[18 * p] = _cusp_list_18p(p)
    for level, expected in expected_lists.items():
        name = f"cusp-set-{level}"
        got = cusp_set(level)
        if len(got) != len(expected):
            out.append(CheckReport(
                name, FAIL,
                f"expected {len(expected)} cusps, got {len(got)}", 0,
            ))
            continue
        witness = ""
        matched = {}
        for text in expected:
            a, c = (1, 0) if text == "inf" else map(int, text.split("/"))
            target = Cusp.make(a, c)
            hits = [x for x in got if are_equivalent(level, x, target)]
            if len(hits) != 1:
                witness = f"published cusp {text} matches {len(hits)} representatives"
                break
            if hits[0] in matched:
                witness = (f"published cusps {matched[hits[0]]} and {text} match "
                           f"the same representative {hits[0]}")
                break
            matched[hits[0]] = text
        out.append(CheckReport(
            name,
            FAIL if witness else PASS,
            witness or f"{len(expected)} classes match one-to-one",
            0,
        ))
    return out


def fourth_power_residuals(prec: int) -> tuple[QSeries, QSeries]:
    """Residuals of X(t)^4 = w(1 - 3w + 3w^2) and of the cross-multiplied
    X(3t)^4 (1 - 3w + 3w^2) = w^3."""
    inner = prec + 8
    w = named_w().expand(inner)
    x = named_x().expand(inner)
    x3 = x.rescale(3).truncate(inner)
    u = w * w * 3 - w * 3 + 1
    first = x ** 4 - w * u
    second = (x3 ** 4) * u - w ** 3
    return first.truncate(prec), second.truncate(prec)


def check_fourth_power_identities() -> CheckReport:
    name = "x-fourth-power-identities"
    prec = 200
    first, second = fourth_power_residuals(prec)
    r1 = _series_vanishes(first, prec, name)
    if not r1.passed:
        return r1
    return _series_vanishes(second, prec, name)


def level3_x_residual(prec: int) -> QSeries:
    """Residual of X(t)^3 - X(3t) + 3 X(t) X(3t)^2 - 3 X(t)^2 X(3t)^3."""
    inner = prec + 8
    x = named_x().expand(inner)
    x3 = x.rescale(3).truncate(inner + 3)
    s = x ** 3 - x3 + 3 * (x * x3 ** 2) - 3 * (x ** 2 * x3 ** 3)
    return s.truncate(prec)


def check_level3_x_identity() -> CheckReport:
    prec = 200
    return _series_vanishes(level3_x_residual(prec), prec, "x-level3-identity")


def j_identity_residual(prec: int) -> QSeries:
    """Residual of the closed form for j in terms of f = 1/w:

        j (f-1)^2 f^9 (f-3)^18 (f^2 - 3f + 3) (f^2 + 3)^2
            - (f^3 + 3f^2 - 9f + 9)^3 P(f)^3
    """
    inner = prec + 48
    w = named_w().expand(inner)
    f = QSeries.one(w.prec - w.val, h=w.h) / w
    j = named_j(inner)
    lhs = j * (f - 1) ** 2 * f ** 9 * (f - 3) ** 18
    lhs = lhs * (f * f - 3 * f + 3) * (f * f + 3) ** 2
    pf = None
    for c in J_IDENTITY_P:
        pf = (pf * f + c) if pf is not None else (f ** 0) * c
    rhs = (f ** 3 + 3 * f * f - 9 * f + 9) ** 3 * pf ** 3
    return (lhs - rhs).truncate(prec)


def check_j_identity() -> CheckReport:
    name = "j-identity"
    prec = 100
    j = named_j(4)
    expected = {-1: 1, 0: 744, 1: 196884, 2: 21493760}
    for e, c in expected.items():
        got = j.coeff(e)
        if got != c:
            return CheckReport(
                name, FAIL, f"j coefficient at q^{e}: expected {c}, got {got}", prec
            )
    return _series_vanishes(j_identity_residual(prec), prec, name)


def check_golden_tables(fail_fast: bool = False) -> list[CheckReport]:
    """Solve each level and compare with the golden grid coefficient by
    coefficient; every level then runs the pattern check, and prime levels
    >= 5 also the Kronecker and symmetry checks.  The certificate already
    requires symmetry at levels prime to 6 (the W_n twist), so the
    symmetry check is an independent recheck of the solved equation."""
    out = []
    checksum = golden_checksum()
    for n in (2, 3, 5, 7, 11, 13):
        name = f"equation-level-{n}"
        expected = golden_poly(n)
        solved = solve_modular_equation(n)
        witness = ""
        keys = set(solved.poly.coeffs) | set(expected.coeffs)
        for ij in sorted(keys):
            a, b = solved.poly.coeff(*ij), expected.coeff(*ij)
            if a != b:
                witness = f"C{ij}: solved {a}, golden {b}"
                break
        if not witness and not check_pattern(solved, predict_coefficient_pattern(n)):
            witness = "forced coefficient pattern violated"
        if not witness and n >= 5:
            if not check_kronecker(solved):
                witness = "Kronecker congruence violated"
            elif not check_symmetry(solved):
                witness = "X/Y symmetry violated"
        out.append(CheckReport(
            name,
            FAIL if witness else PASS,
            witness or f"matches golden grid [checksum {checksum}]",
            solved.precision_used,
        ))
        if witness and fail_fast:
            break
    return out


def check_scope_notes() -> CheckReport:
    """Records what has no finite verification here and which computed
    proxies stand in for it."""
    detail = (
        "no desk-scale reproduction exists for the field-generation claim, "
        "for irreducibility of the equations, or for the ray-class-field "
        "statements; proxies checked instead: the divisor of w has a single "
        "simple pole (degree-one hauptmodul map), and every solved equation "
        "fills the predicted (d2, d1) box, d2 = [Gamma0(18) : Gamma0(18n)] "
        "the degree of w over C(w(n*tau)), whose relations form a "
        "one-dimensional space"
    )
    return CheckReport("scope-acknowledgment", PASS, detail, 0)


def run_checks(subset: str = "all", fail_fast: bool = False) -> list[CheckReport]:
    """Run the named subset in a fixed order and return the reports."""
    if subset not in SUBSETS:
        raise ValueError(f"unknown subset {subset!r}; choose from {SUBSETS}")

    def want(kind: str) -> bool:
        return subset in ("all", kind)

    stages = []
    if want("identities"):
        stages.append(lambda: [check_w_expansion_prefix()])
    if want("cusps"):
        stages.append(lambda: [check_w_cusp_orders()])
        stages.append(check_cusp_lists)
    if want("identities"):
        stages.append(lambda: [check_fourth_power_identities()])
        stages.append(lambda: [check_level3_x_identity()])
        stages.append(lambda: [check_j_identity()])
    if want("tables"):
        stages.append(lambda: check_golden_tables(fail_fast=fail_fast))
    if subset == "all":
        stages.append(lambda: [check_scope_notes()])

    reports: list[CheckReport] = []
    for stage in stages:
        reports.extend(stage())
        if fail_fast and any(not r.passed for r in reports):
            break
    return reports


__all__ = [
    "CheckReport",
    "PASS",
    "FAIL",
    "GOLDEN_F2",
    "GOLDEN_F3",
    "GOLDEN_INNER",
    "J_IDENTITY_P",
    "golden_poly",
    "golden_checksum",
    "check_w_expansion_prefix",
    "check_w_cusp_orders",
    "check_cusp_lists",
    "check_fourth_power_identities",
    "check_level3_x_identity",
    "check_j_identity",
    "check_golden_tables",
    "check_scope_notes",
    "fourth_power_residuals",
    "level3_x_residual",
    "j_identity_residual",
    "run_checks",
    "SUBSETS",
]
