import hashlib
import json
import subprocess
import sys

import pytest

import ordersix.cli as cli
import ordersix.modeq as modeq
import ordersix.verify as verify
from ordersix.modeq import NullspaceEmptyError
from ordersix.verify import GOLDEN_INNER


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_expand_named_w(capsys):
    code, doc, _ = run_json(capsys, "expand", "--name", "w", "--prec", "8",
                            "--no-timing")
    assert code == 0
    assert doc["schema_version"] == "1"
    assert doc["result"]["coefficients"] == ["1", "-1", "1", "-2", "3", "-4", "5"]
    assert doc["result"]["valuation"] == 1
    assert "timing_ms" not in doc


def test_expand_trivial_quotient(capsys):
    code, doc, _ = run_json(capsys, "expand", "--quotient", "18; 1:0",
                            "--prec", "5", "--no-timing")
    assert code == 0
    assert doc["result"]["coefficients"] == ["1", "0", "0", "0", "0"]


def test_expand_named_x_valuation(capsys):
    code, doc, _ = run_json(capsys, "expand", "--name", "X", "--prec", "12",
                            "--no-timing")
    assert code == 0
    assert doc["result"]["exponent_denominator"] == 4
    assert doc["result"]["valuation"] == 1
    assert doc["result"]["coefficients"][:8] == ["1", "0", "0", "0", "-1", "0", "0", "0"]


def test_expand_named_j(capsys):
    code, doc, _ = run_json(capsys, "expand", "--name", "j", "--prec", "3",
                            "--no-timing")
    assert code == 0
    assert doc["result"]["valuation"] == -1
    assert doc["result"]["coefficients"] == ["1", "744", "196884", "21493760"]


def test_expand_bad_spec_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "expand", "--quotient", "18; 5:1", "--prec", "4")
    assert code == 2 and "does not divide" in err
    code, _, err = run_cli(capsys, "expand", "--prec", "4")
    assert code == 2
    code, _, err = run_cli(capsys, "expand", "--name", "w", "--quotient", "18; 1:1",
                           "--prec", "4")
    assert code == 2


def test_cusps_counts(capsys):
    for level, count in ((18, 8), (54, 12), (1, 1)):
        code, doc, _ = run_json(capsys, "cusps", str(level), "--no-timing")
        assert code == 0
        assert doc["result"]["count"] == count


def test_cusps_with_divisor(capsys):
    code, doc, _ = run_json(capsys, "cusps", "18", "--divisor", "w", "--no-timing")
    assert code == 0
    orders = [entry["order"] for entry in doc["result"]["cusps"]]
    assert orders == ["1", "0", "-1", "0", "0", "0", "0", "0"]


def test_cusps_divisor_level_mismatch(capsys):
    code, _, err = run_cli(capsys, "cusps", "12", "--divisor", "w")
    assert code == 2 and "does not divide" in err


def test_modeq_latex_matches_printed_level2(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "modeq", "2", "--format", "latex",
                           "--cache-dir", str(tmp_path), "--no-timing")
    assert code == 0
    assert out.strip().replace(" ", "") == "X^2-Y+2XY-3X^2Y+Y^2"


def test_modeq_cache_round_trip(capsys, tmp_path):
    code1, out1, _ = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                             "--no-timing")
    cache_files = list(tmp_path.glob("modeq-level2-*.json"))
    assert code1 == 0 and len(cache_files) == 1
    code2, out2, _ = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                             "--no-timing")
    assert code2 == 0
    assert out1 == out2
    cached = json.loads(cache_files[0].read_text())
    fresh = cli.modeq_document(2)
    assert cached == fresh
    cli.validate_document(cached, "modeq")


def test_modeq_corrupt_cache_recomputes(capsys, tmp_path):
    code, out1, _ = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                            "--no-timing")
    assert code == 0
    path = next(tmp_path.glob("modeq-level2-*.json"))
    path.write_text('{"schema_version": "0"}')
    code, out2, err = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                              "--no-timing")
    assert code == 0
    assert "corrupt" in err
    assert out1 == out2
    # the rewritten cache is valid again
    cli.validate_document(json.loads(path.read_text()), "modeq")


def test_modeq_edited_cache_coefficient_recomputes(capsys, tmp_path):
    code, out1, _ = run_cli(capsys, "modeq", "7", "--cache-dir", str(tmp_path),
                            "--no-timing")
    assert code == 0
    path = next(tmp_path.glob("modeq-level7-*.json"))
    doc = json.loads(path.read_text())
    entry = doc["result"]["coefficients"][3]
    entry["value"] = str(int(entry["value"]) + 1)
    path.write_text(json.dumps(doc, indent=2))
    code, out2, err = run_cli(capsys, "modeq", "7", "--cache-dir", str(tmp_path),
                              "--no-timing")
    assert code == 0
    assert err.startswith("warning: cache entry") and "residual" in err
    assert out1 == out2
    assert json.loads(path.read_text()) == json.loads(out1)


@pytest.mark.parametrize("edit", [
    lambda r: r.update(precision_used=10 ** 9),
    lambda r: r.update(degree_x=99),
    lambda r: r.update(nullspace_dimension=2),
    lambda r: r["coefficients"].append({"i": -1, "j": 0, "value": "5"}),
    lambda r: r["factored"]["inner_coefficients"].pop(),
])
def test_modeq_cache_fields_are_checked(capsys, tmp_path, edit):
    code, out1, _ = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                            "--no-timing")
    path = next(tmp_path.glob("modeq-level5-*.json"))
    doc = json.loads(path.read_text())
    edit(doc["result"])
    path.write_text(json.dumps(doc, indent=2))
    code, out2, err = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                              "--no-timing")
    assert code == 0 and "corrupt" in err
    assert out1 == out2


def test_modeq_no_cache_writes_nothing(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                         "--no-cache", "--no-timing")
    assert code == 0
    assert not list(tmp_path.iterdir())


def test_modeq_factored_output_matches_inner_grid(capsys, tmp_path):
    code, doc, _ = run_json(capsys, "modeq", "7", "--cache-dir", str(tmp_path),
                            "--no-timing")
    assert code == 0
    inner = {
        (e["i"], e["j"]): int(e["value"])
        for e in doc["result"]["factored"]["inner_coefficients"]
    }
    expected = {
        (i, j): GOLDEN_INNER[7][j][i]
        for j in range(7)
        for i in range(7)
        if GOLDEN_INNER[7][j][i]
    }
    assert inner == expected


def test_modeq_usage_and_solver_errors(capsys, tmp_path, monkeypatch):
    code, _, _ = run_cli(capsys, "modeq", "1", "--cache-dir", str(tmp_path))
    assert code == 2

    def boom(level):
        raise NullspaceEmptyError("synthetic failure")

    monkeypatch.setattr(cli, "solve_modular_equation", boom)
    code, _, err = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                           "--no-cache")
    assert code == 3 and "synthetic failure" in err


def test_modeq_kernel_runtime_error_exits_3(capsys, tmp_path, monkeypatch):
    def exhausted(rows):
        raise RuntimeError("prime supply exhausted")

    monkeypatch.setattr(modeq, "kernel_int_crt", exhausted)
    code, out, err = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                             "--no-cache")
    assert code == 3 and out == ""
    assert err == "solver error: prime supply exhausted\n"


def test_modeq_exact_check_always_failing_exits_3(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(modeq.MonomialMatrix, "annihilates", lambda self, vec: False)
    code, out, err = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                             "--no-cache")
    assert code == 3 and out == ""
    assert err.startswith("solver error:")


# sha256 of `python -m ordersix modeq N --no-cache --no-timing` (json)
MODEQ_JSON_SHA256 = {
    2: "a040ff048df59011112d465c931ab57a300bd46799d37a18071d6899a70ee8e0",
    3: "b4c77640eb477666f5ef995f682930056a00ac2a47f735585678dcf0114ad76f",
    4: "78f6324a55cf077a4d6bd9929f693713aa0e423debf32af8693e4330f28d0898",
    5: "f922dc43f683456cbead1b271e912767b9322b93b969bcf86679a8b455161c84",
    6: "7a9a6038bbcfe91be54bb8f43865101d2cadd6b7d10c9ba3c5eaa7e40240532f",
    7: "07e1eb23becdaa86e8c8f6874e3efe39130a9c80c76df3b3d68ea945be253a20",
    8: "ff0a64f2e1de69ca6714b0416daf577a2582f966f0df42ec0b9c7313f70aabd4",
    9: "6883a6b951d1d3addb71676acf3ac6767862e29fa086c05ad4a4e7823ab3ae20",
    10: "7df9fb2c4ec0fba8dc247b2c60ee7c099b5b01cc6ef7b16741dc3bd574a89366",
    11: "4ad8c938bf4b0222e5378154d2130b49e286ffe6f06b91f9569afc0ff97abfda",
    12: "545587dcb897d1c94f6126fb72477a8c4b71aeda66e25fdf25549b0bb1bcacea",
    13: "a5410b60170fe9e17f62c9d16b1868ba600fd4cd670812baaca4b99d63b3efa1",
}


def test_modeq_json_output_is_byte_stable(capsys):
    for n, digest in MODEQ_JSON_SHA256.items():
        code, out, _ = run_cli(capsys, "modeq", str(n), "--no-cache", "--no-timing")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, n


def test_modeq_cache_write_failure_warns(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, doc, err = run_json(capsys, "modeq", "2", "--cache-dir",
                              str(blocker / "sub"), "--no-timing")
    assert code == 0
    assert doc["result"]["level"] == 2
    assert err.count("\n") == 1 and err.startswith("warning: cache entry")
    assert "Traceback" not in err


def test_verify_identities_exit_zero(capsys):
    code, doc, _ = run_json(capsys, "verify", "identities", "--no-timing")
    assert code == 0
    assert doc["result"]["all_passed"] is True
    names = [r["name"] for r in doc["result"]["reports"]]
    assert names == ["w-expansion-prefix", "x-fourth-power-identities",
                     "x-level3-identity", "j-identity"]


def test_verify_cusps_subset(capsys):
    code, doc, _ = run_json(capsys, "verify", "cusps", "--no-timing")
    assert code == 0 and doc["result"]["all_passed"] is True


def test_verify_corrupted_golden_fails_fast(capsys, monkeypatch):
    monkeypatch.setitem(verify.GOLDEN_F2, (0, 2), 7)
    code, doc, _ = run_json(capsys, "verify", "tables", "--fail-fast",
                            "--no-timing")
    assert code == 1
    reports = doc["result"]["reports"]
    assert reports[-1]["status"] == "fail"
    assert "C(0, 2)" in reports[-1]["detail"]
    assert len(reports) == 1  # fail-fast stopped after the first table


def test_verify_output_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "cusps", "--no-timing")
    code2, out2, _ = run_cli(capsys, "verify", "cusps", "--no-timing")
    assert code1 == code2 == 0
    assert out1 == out2


def test_parse_quotient_spec_errors():
    with pytest.raises(cli.BadSpecError):
        cli.parse_quotient_spec("x; 1:1")
    with pytest.raises(cli.BadSpecError):
        cli.parse_quotient_spec("18; 1")
    with pytest.raises(cli.BadSpecError):
        cli.parse_quotient_spec("18; 4:1")
    q = cli.parse_quotient_spec("18; 1:1, 2:-2, 9:-1, 18:2")
    assert q.exponents == {1: 1, 2: -2, 9: -1, 18: 2}


def test_module_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "ordersix", "expand", "--name", "w",
         "--prec", "8", "--no-timing"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["result"]["coefficients"][0] == "1"
