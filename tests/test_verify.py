import pytest

import ordersix.verify as verify
from ordersix.cusps import Cusp
from ordersix.eta import EtaQuotient
from ordersix.modeq import BivarPoly, CoeffPattern
from ordersix.series import QSeries
from ordersix.verify import (
    GOLDEN_INNER,
    check_cusp_lists,
    check_fourth_power_identities,
    check_golden_tables,
    check_j_identity,
    check_level3_x_identity,
    check_scope_notes,
    check_w_cusp_orders,
    check_w_expansion_prefix,
    golden_checksum,
    golden_poly,
    run_checks,
)


def test_golden_inner_grids_are_symmetric():
    for p, rows in GOLDEN_INNER.items():
        assert len(rows) == p
        for j, row in enumerate(rows):
            assert len(row) == p
            for i in range(p):
                assert rows[i][j] == rows[j][i], (p, i, j)


def test_golden_landmark_coefficients():
    assert GOLDEN_INNER[11][10][10] == 5368
    assert GOLDEN_INNER[13][12][12] == 40880
    # the flat grids inherit the frame corners that the inner factor cannot
    # reach: (p+1, 0), (0, p+1), and (1, 1) since the inner grid is 0 at the
    # origin
    for p in (5, 7, 11, 13):
        flat = golden_poly(p)
        assert flat.coeff(p + 1, 0) == 1
        assert flat.coeff(0, p + 1) == 1
        assert flat.coeff(1, 1) == -1
        assert flat.coeff(p, p) == -1 - p * GOLDEN_INNER[p][p - 1][p - 1]


def test_golden_flat_grids_satisfy_kronecker_congruence():
    for p in (5, 7, 11, 13):
        flat = golden_poly(p)
        frame = {(p + 1, 0): 1, (p, p): -1, (1, 1): -1, (0, p + 1): 1}
        diff = dict(flat.coeffs)
        for ij, c in frame.items():
            diff[ij] = diff.get(ij, 0) - c
        assert all(c % p == 0 for c in diff.values()), p


def test_expansion_prefix_check_passes():
    r = check_w_expansion_prefix()
    assert r.passed


def test_expansion_prefix_negative_control(monkeypatch):
    sabotaged = EtaQuotient(18, {1: 2, 2: -2, 9: -1, 18: 2})
    monkeypatch.setattr(verify, "named_w", lambda: sabotaged)
    r = check_w_expansion_prefix()
    assert not r.passed
    assert "q^1" in r.detail


def test_cusp_order_check_and_negative_control(monkeypatch):
    assert check_w_cusp_orders().passed
    monkeypatch.setattr(verify, "W_ORDER_TABLE", [1, 0, -2, 0, 0, 0, 0, 0])
    r = check_w_cusp_orders()
    assert not r.passed and "1/2" in r.detail


def test_cusp_order_check_fails_on_a_wrong_cusp_count(monkeypatch):
    """A divisor with one cusp too many or too few fails with the counts,
    also when its first eight orders match the table."""
    div = verify.divisor(verify.named_w())
    for wrong in (div + div[-1:], div[:-1]):
        monkeypatch.setattr(verify, "divisor", lambda f, wrong=wrong: wrong)
        r = check_w_cusp_orders()
        assert not r.passed and r.detail == f"expected 8 cusps, got {len(wrong)}"


def test_cusp_lists_check():
    reports = check_cusp_lists()
    assert len(reports) == 7
    assert all(r.passed for r in reports)


def test_cusp_lists_reject_a_duplicated_class(monkeypatch):
    """1/4 is equivalent to 1/2 on Gamma0(18): a list with 1/4 in place of
    1/9 names one class twice and misses the class of 1/9."""
    published = list(verify.CUSP_LISTS[18])
    published[published.index("1/9")] = "1/4"
    monkeypatch.setitem(verify.CUSP_LISTS, 18, published)
    report = check_cusp_lists()[0]
    assert report.name == "cusp-set-18" and not report.passed
    assert "1/2 and 1/4" in report.detail


def test_cusp_lists_fail_on_a_wrong_cusp_count(monkeypatch):
    """Representative lists one cusp short fail at every level with the
    counts, before any class is matched."""
    cusp_set = verify.cusp_set
    monkeypatch.setattr(verify, "cusp_set", lambda level: cusp_set(level)[:-1])
    reports = check_cusp_lists()
    assert len(reports) == 7 and not any(r.passed for r in reports)
    assert reports[0].name == "cusp-set-18"
    assert reports[0].detail == "expected 8 cusps, got 7"


def test_cusp_lists_fail_on_a_published_cusp_with_no_representative(monkeypatch):
    """Representatives with infinity's replaced by a second copy of 0's
    have the right count, and inf, the first published cusp, matches none
    of them."""
    cusp_set = verify.cusp_set

    def tampered(level):
        got = list(cusp_set(level))
        inf, zero = ([x for x in got if verify.are_equivalent(level, x, c)]
                     for c in (Cusp.make(1, 0), Cusp.make(0, 1)))
        got[got.index(inf[0])] = zero[0]
        return tuple(got)

    monkeypatch.setattr(verify, "cusp_set", tampered)
    reports = check_cusp_lists()
    assert len(reports) == 7
    assert all(not r.passed and r.detail == "published cusp inf matches 0 representatives"
               for r in reports)


# eta quotients with the leading term of w and of X that differ further on
WRONG_W = EtaQuotient(18, {1: 3, 2: -3, 9: -3, 18: 3})
WRONG_X = EtaQuotient(6, {1: 3, 2: -3, 3: -3, 6: 3})


def test_fourth_power_identities(monkeypatch):
    assert check_fourth_power_identities().passed
    monkeypatch.setattr(verify, "named_w", lambda: WRONG_W)
    bad = check_fourth_power_identities()
    assert not bad.passed and "q^" in bad.detail


def test_level3_identity(monkeypatch):
    assert check_level3_x_identity().passed
    monkeypatch.setattr(verify, "named_x", lambda: WRONG_X)
    bad = check_level3_x_identity()
    assert not bad.passed and "identity fails" in bad.detail


def test_j_identity():
    assert check_j_identity().passed


def test_j_identity_negative_control(monkeypatch):
    tampered = [1, 224, -1080, 3348, -8262, 16038, -23328, 26244, -19683, 6561]
    monkeypatch.setattr(verify, "J_IDENTITY_P", tampered)
    r = check_j_identity()
    assert not r.passed and "identity fails" in r.detail


def test_j_identity_fails_on_a_wrong_j_coefficient(monkeypatch):
    """A j with constant term 745 fails on its printed coefficients,
    before the identity is expanded."""
    named_j = verify.named_j
    monkeypatch.setattr(verify, "named_j", lambda prec: named_j(prec) + 1)
    r = check_j_identity()
    assert not r.passed and r.detail == "j coefficient at q^0: expected 744, got 745"


def test_series_vanishes_reports_insufficient_precision():
    """A zero residual known only below q^5 does not show vanishing below
    q^10: the report is a precision failure, not an identity failure."""
    r = verify._series_vanishes(QSeries.zero(5), 10, "short")
    assert r.name == "short" and r.status == verify.FAIL
    assert r.detail == "precision insufficient: series known below q^5, needed q^10"


def test_golden_tables_pass(solved):
    reports = check_golden_tables()
    assert [r.status for r in reports] == ["pass"] * 6
    assert all(golden_checksum() in r.detail for r in reports)


def test_golden_tables_negative_control(monkeypatch):
    corrupted = BivarPoly({(2, 0): 1, (0, 1): -1, (1, 1): 2, (2, 1): -3, (0, 2): 2})
    monkeypatch.setattr(verify, "golden_poly", lambda n: corrupted)
    reports = check_golden_tables(fail_fast=True)
    assert len(reports) == 1 and not reports[0].passed
    assert "C(0, 2)" in reports[0].detail


@pytest.mark.parametrize("stub, witness, failing", [
    ("predict_coefficient_pattern", "forced coefficient pattern violated", [2, 3, 5, 7, 11, 13]),
    ("check_kronecker", "Kronecker congruence violated", [5, 7, 11, 13]),
    ("check_symmetry", "X/Y symmetry violated", [5, 7, 11, 13]),
])
def test_golden_tables_report_each_structural_witness(monkeypatch, solved, stub, witness,
                                                      failing):
    """A level that matches its golden grid still fails when a structural
    check does, and the report names that check."""
    stubs = {
        # every coefficient of the solved equation forced to zero
        "predict_coefficient_pattern":
            lambda n: CoeffPattern(n, frozenset(solved(n).poly.coeffs), frozenset()),
        "check_kronecker": lambda result: False,
        "check_symmetry": lambda result: False,
    }
    monkeypatch.setattr(verify, "solve_modular_equation", solved)
    monkeypatch.setattr(verify, stub, stubs[stub])
    reports = check_golden_tables()
    assert [r.name for r in reports if not r.passed] == [f"equation-level-{n}" for n in failing]
    assert all(r.detail == witness for r in reports if not r.passed)


def test_scope_notes_report():
    r = check_scope_notes()
    assert r.passed
    assert "proxies" in r.detail
    assert "one-dimensional" in r.detail


def test_run_checks_deterministic():
    a = run_checks("identities")
    b = run_checks("identities")
    assert a == b
    assert [r.name for r in a] == [
        "w-expansion-prefix",
        "x-fourth-power-identities",
        "x-level3-identity",
        "j-identity",
    ]


def test_run_checks_cusps_subset():
    reports = run_checks("cusps")
    assert all(r.passed for r in reports)
    assert reports[0].name == "w-cusp-orders"


def test_run_checks_rejects_unknown_subset():
    with pytest.raises(ValueError):
        run_checks("everything")


def test_failing_reports_carry_witnesses(monkeypatch):
    monkeypatch.setattr(verify, "named_x", lambda: WRONG_X)
    bad = check_fourth_power_identities()
    assert not bad.passed and bad.detail
    monkeypatch.setattr(verify, "J_IDENTITY_P", [1])
    short = check_j_identity()
    assert not short.passed and short.detail
