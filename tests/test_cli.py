import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest

import ordersix.cli as cli
import ordersix.modeq as modeq
import ordersix.verify as verify
from ordersix.modeq import MAX_LEVEL, certificate_height, kernel_int_crt, leading_exponent
from ordersix.verify import GOLDEN_INNER

from helpers import invariant_perturbation


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def cache_file(cache_dir, level):
    return cache_dir / f"modeq-level{level}.json"


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


@pytest.mark.parametrize("argv, message", [
    (("expand", "--name", "w", "--prec", "0"), "--prec must be at least 1"),
    (("cusps", "0"), "level must be positive"),
    (("expand", "--quotient", "0; 1:1", "--prec", "4"), "level must be positive"),
])
def test_nonpositive_level_or_precision_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("source", [("--name", "w"), ("--name", "j"),
                                    ("--quotient", "18; 1:1, 2:-2, 9:-1, 18:2")])
def test_expand_prec_past_maxsize_is_usage_error(capsys, source):
    """A --prec no list can hold is refused before anything is expanded."""
    code, out, err = run_cli(capsys, "expand", *source, "--prec", str(sys.maxsize + 1))
    assert code == 2 and out == ""
    assert err == f"error: --prec must be at most {sys.maxsize}\n"


@pytest.mark.parametrize("name", ["w", "j"])
def test_expand_out_of_memory_exits_3(capsys, name):
    """A --prec whose series cannot be allocated fails at once, as an
    internal error with one line on stderr and no traceback."""
    code, out, err = run_cli(capsys, "expand", "--name", name, "--prec", str(10 ** 15))
    assert code == 3 and out == ""
    assert err == "error: out of memory\n"


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


def test_cusps_divisor_spec_matches_the_named_quotient(capsys):
    spec = "18; 1:1, 2:-2, 9:-1, 18:2"  # w spelled out as an eta quotient
    code, named, _ = run_json(capsys, "cusps", "18", "--divisor", "w", "--no-timing")
    code2, explicit, _ = run_json(capsys, "cusps", "18", "--divisor", spec, "--no-timing")
    assert code == code2 == 0
    assert explicit["inputs"]["divisor"] == spec
    assert explicit["result"] == named["result"]


@pytest.mark.parametrize("level", [str(cli.MAX_CUSPS_LEVEL + 1), "1000000000000000003"])
def test_cusps_level_above_max_is_usage_error(capsys, level):
    """A level past MAX_CUSPS_LEVEL is refused before it is factored, so
    the command returns at once instead of trial-dividing a 19-digit
    prime; the bound itself is accepted."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "cusps", level, "--divisor", "w")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == f"error: cusps level must be at most {cli.MAX_CUSPS_LEVEL}\n"
    code, doc, _ = run_json(capsys, "cusps", str(cli.MAX_CUSPS_LEVEL), "--no-timing")
    assert code == 0 and doc["result"]["count"] == 1800


def test_cusps_divisor_level_mismatch(capsys):
    code, _, err = run_cli(capsys, "cusps", "12", "--divisor", "w")
    assert code == 2 and "does not divide" in err


def test_modeq_latex_matches_printed_level2(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "modeq", "2", "--format", "latex",
                           "--cache-dir", str(tmp_path), "--no-timing")
    assert code == 0
    assert out.strip().replace(" ", "") == "X^2-Y+2XY-3X^2Y+Y^2"


def test_modeq_cache_round_trip(capsys, tmp_path, monkeypatch):
    code1, out1, _ = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                             "--no-timing")
    assert code1 == 0 and list(tmp_path.iterdir()) == [cache_file(tmp_path, 2)]
    monkeypatch.setattr(cli, "solve_modular_equation", None)  # a hit never solves
    code2, out2, err2 = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                                "--no-timing")
    assert code2 == 0 and err2 == ""
    assert out1 == out2
    monkeypatch.undo()
    cached = json.loads(cache_file(tmp_path, 2).read_text())
    fresh = cli.modeq_document(2)
    assert cached == fresh
    cli.validate_document(cached, 2)


def test_modeq_corrupt_cache_recomputes(capsys, tmp_path):
    code, out1, _ = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                            "--no-timing")
    assert code == 0
    path = cache_file(tmp_path, 2)
    path.write_text('{"schema_version": "0"}')
    code, out2, err = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                              "--no-timing")
    assert code == 0
    assert "corrupt" in err
    assert out1 == out2
    # the rewritten cache is valid again
    cli.validate_document(json.loads(path.read_text()), 2)


def _edit_cached_level7(capsys, tmp_path, delta):
    """Add ``delta``, {(i, j): c}, to the coefficients of a level-7 cache
    entry; check that reading it prints the fresh output and rewrites the
    entry, and return that run's stderr."""
    code, out1, _ = run_cli(capsys, "modeq", "7", "--cache-dir", str(tmp_path),
                            "--no-timing")
    assert code == 0
    path = cache_file(tmp_path, 7)
    doc = json.loads(path.read_text())
    coeffs = {(e["i"], e["j"]): int(e["value"]) for e in doc["result"]["coefficients"]}
    for ij, c in delta.items():
        coeffs[ij] = coeffs.get(ij, 0) + c
    doc["result"]["coefficients"] = [{"i": i, "j": j, "value": str(c)}
                                     for (i, j), c in sorted(coeffs.items()) if c]
    path.write_text(json.dumps(doc, indent=2))
    code, out2, err = run_cli(capsys, "modeq", "7", "--cache-dir", str(tmp_path),
                              "--no-timing")
    assert code == 0
    assert out1 == out2
    assert json.loads(path.read_text()) == json.loads(out1)
    return err


def test_modeq_edited_cache_coefficient_recomputes(capsys, tmp_path):
    """Adding invariant_perturbation(7, 8) keeps the equation invariant
    under every checked twist and its X^8 column as it was, so the
    residual at the certificate height is what rejects it."""
    err = _edit_cached_level7(capsys, tmp_path, invariant_perturbation(7, 8))
    assert err.startswith("warning: cache entry") and "residual" in err


def test_modeq_asymmetric_cache_edit_recomputes(capsys, tmp_path):
    """One edited coefficient off the diagonal breaks the symmetry, the
    twist of W_n, which refuses the entry before its residual; one on it
    keeps the symmetry and breaks the Fricke twist."""
    err = _edit_cached_level7(capsys, tmp_path, {(1, 3): 1})
    assert err.startswith("warning: cache entry") and "W_n (X <-> Y)" in err
    err = _edit_cached_level7(capsys, tmp_path, {(2, 2): 1})
    assert err.startswith("warning: cache entry") and "Fricke involution" in err


def test_modeq_cache_edit_of_the_leading_column_is_refused_by_shape(capsys, tmp_path):
    """At level 8 the coefficient of X^8 is (1 - 3Y)^7.  Adding 1 to its
    Y^3 term keeps the entry primitive and sign-normalized, and the shape
    check refuses it before the residual runs."""
    code, out1, _ = run_cli(capsys, "modeq", "8", "--cache-dir", str(tmp_path),
                            "--no-timing")
    assert code == 0
    path = cache_file(tmp_path, 8)
    doc = json.loads(path.read_text())
    [entry] = [e for e in doc["result"]["coefficients"] if (e["i"], e["j"]) == (8, 3)]
    assert int(entry["value"]) == comb(7, 3) * (-3) ** 3
    entry["value"] = str(int(entry["value"]) + 1)
    path.write_text(json.dumps(doc, indent=2))
    code, out2, err = run_cli(capsys, "modeq", "8", "--cache-dir", str(tmp_path),
                              "--no-timing")
    assert code == 0 and out1 == out2
    assert err.startswith("warning: cache entry")
    assert "coefficient of X^8 is not (1 - 3Y)^7" in err
    assert json.loads(path.read_text()) == json.loads(out1)


def test_modeq_entry_of_another_schema_is_served_as_the_fresh_document(capsys, tmp_path):
    """Only the coefficients of an entry are read, so an entry that another
    schema wrote prints the fresh document and its file is left as it is."""
    doc = cli.modeq_document(5)
    doc["schema_version"] = "0"
    path = cache_file(tmp_path, 5)
    path.write_text(json.dumps(doc, indent=2))
    before = path.read_bytes()
    code, out, err = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                             "--no-timing")
    assert code == 0 and err == ""
    assert out == run_cli(capsys, "modeq", "5", "--no-cache", "--no-timing")[1]
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_modeq_entry_under_an_old_versioned_name_is_not_read(capsys, tmp_path):
    # edited, so reading it would print a warning
    doc = cli.modeq_document(5)
    doc["result"]["precision_used"] = 116
    old = tmp_path / "modeq-level5-schema1-solver2.json"
    old.write_text(json.dumps(doc, indent=2))
    before = old.read_bytes()
    code, out, err = run_json(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                              "--no-timing")
    assert code == 0 and err == ""
    assert out == cli.modeq_document(5)
    assert old.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "modeq-level5-schema1-solver2.json", "modeq-level5.json"]


def _rerun_with_edited_level5_entry(capsys, tmp_path, edit):
    """Cache level 5, apply ``edit`` to the entry's result and run modeq 5
    on it.  The run prints the fresh solve's bytes either way.  An edit that
    changes the coefficients is refused with a warning and the entry is
    rewritten; any other edit is served with no warning, and the file is
    left as it is."""
    code, fresh, _ = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                             "--no-timing")
    path = cache_file(tmp_path, 5)
    doc = json.loads(path.read_text())
    edit(doc["result"])
    path.write_text(json.dumps(doc, indent=2))
    edited = path.read_bytes()
    code, out, err = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                             "--no-timing")
    assert code == 0 and out == fresh
    if doc["result"]["coefficients"] == json.loads(fresh)["result"]["coefficients"]:
        assert err == "" and path.read_bytes() == edited
    else:
        assert err.startswith("warning: cache entry") and "corrupt" in err
        assert path.read_text() == json.dumps(json.loads(fresh), indent=2)


@pytest.mark.parametrize("edit", [
    lambda r: r.update(precision_used=10 ** 9),
    lambda r: r.update(degree_x=99),
    lambda r: r.update(nullspace_dimension=2),
    lambda r: r["coefficients"].append({"i": -1, "j": 0, "value": "5"}),  # refused
    lambda r: r["factored"]["inner_coefficients"].pop(),
])
def test_modeq_cache_fields_are_checked(capsys, tmp_path, edit):
    """The coefficients are the one field of an entry that is read, and
    the certificate checks them; every other field is derived afresh."""
    _rerun_with_edited_level5_entry(capsys, tmp_path, edit)


@pytest.mark.parametrize("edit", [
    lambda r: r.update(normalization="anything at all"),
    lambda r: r.update(normalization=modeq.NORMALIZATION_NOTES[1]),
    lambda r: r.update(level=5.0),
    lambda r: r.update(nullspace_dimension=True),
    lambda r: r["coefficients"][0].update(i=float(r["coefficients"][0]["i"])),
    lambda r: r["coefficients"][0].update(i=float("inf")),  # refused
], ids=["unknown-note", "swapped-note", "float-level", "bool-dimension", "float-index", "infinite-index"])
def test_modeq_cache_entry_is_served_only_as_the_fresh_bytes(capsys, tmp_path, edit):
    """A hit prints the document derived from its certified coefficients,
    whatever the entry's other fields say: a note the solver never writes,
    the other note, and numbers that Python compares equal to the right
    ones.  An index that no int can hold is refused."""
    _rerun_with_edited_level5_entry(capsys, tmp_path, edit)


@pytest.mark.parametrize("n", [5, 8])
def test_modeq_entry_with_drifted_derived_fields_is_served_without_a_solve(
        capsys, tmp_path, monkeypatch, n):
    """A change to a derived field, such as precision_used or
    schema_version, leaves every cached level valid: the entry is served
    as the fresh document with no solve, warning or rewrite.  Level 5 has
    the factored field; level 8 is not prime to 6."""
    fresh = cli.modeq_document(n)
    drifted = json.loads(json.dumps(fresh))
    drifted["schema_version"] = "0"
    drifted["result"].update(precision_used=1, normalization="anything at all")
    path = cache_file(tmp_path, n)
    path.write_text(json.dumps(drifted, indent=2))
    before = path.read_bytes()

    def no_solve(level):
        raise AssertionError("a cache hit solved")

    monkeypatch.setattr(cli, "solve_modular_equation", no_solve)
    assert cli.validate_document(drifted, n) == fresh
    code, out, err = run_cli(capsys, "modeq", str(n), "--cache-dir", str(tmp_path),
                             "--no-timing")
    assert code == 0 and err == ""
    assert out == json.dumps(fresh, indent=2) + "\n"
    assert path.read_bytes() == before


def test_modeq_deeply_nested_cache_entry_recomputes(capsys, tmp_path):
    code, out1, _ = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                            "--no-timing")
    path = cache_file(tmp_path, 5)
    path.write_text("[" * 100_000)  # json.loads raises RecursionError
    code, out2, err = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                              "--no-timing")
    assert code == 0 and err.count("\n") == 1 and err.startswith("warning: cache entry")
    assert out1 == out2
    assert path.read_text() == json.dumps(json.loads(out1), indent=2)


@pytest.mark.parametrize("via", ["flag", "env"])
def test_modeq_cache_name_too_long_still_solves(capsys, tmp_path, monkeypatch, via):
    """A cache directory with a 300-character component cannot be read or
    written: the command warns and prints what --no-cache prints."""
    cache_dir = str(tmp_path / ("x" * 300))
    argv = ["modeq", "5", "--no-timing"]
    if via == "flag":
        argv += ["--cache-dir", cache_dir]
    else:
        monkeypatch.setenv(cli.CACHE_ENV, cache_dir)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err.startswith("warning: cache entry") and "not read" in err
    assert "Traceback" not in err
    assert out == run_cli(capsys, "modeq", "5", "--no-cache", "--no-timing")[1]


def test_modeq_undecodable_cache_entry_recomputes(capsys, tmp_path):
    code, out1, _ = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                            "--no-timing")
    path = cache_file(tmp_path, 5)
    path.write_bytes(b"\xff\xfe")  # not UTF-8: read_text raises UnicodeDecodeError
    code, out2, err = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                              "--no-timing")
    assert code == 0 and err.count("\n") == 1 and err.startswith("warning: cache entry")
    assert out1 == out2
    code, out3, err = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                              "--no-timing")
    assert code == 0 and err == ""
    assert out3 == out1


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
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "solve_modular_equation", boom)
    code, _, err = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                           "--no-cache")
    assert code == 3 and "synthetic failure" in err


@pytest.mark.parametrize("level", [str(MAX_LEVEL + 1), "1000000000000000003",
                                   "99999999999999999999999"])
def test_modeq_level_above_max_level_is_usage_error(capsys, tmp_path, level):
    """A level past MAX_LEVEL is refused before it is factored, so the
    command returns at once instead of trial-dividing a 19-digit prime."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "modeq", level, "--cache-dir", str(tmp_path), "--no-cache")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == f"error: modeq level must be at most {MAX_LEVEL}\n"


def test_modeq_kernel_runtime_error_exits_3(capsys, tmp_path, monkeypatch):
    def exhausted(rows):
        raise RuntimeError("prime supply exhausted")

    monkeypatch.setattr(modeq, "kernel_int_crt", exhausted)
    code, out, err = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                             "--no-cache")
    assert code == 3 and out == ""
    assert err == "solver error: prime supply exhausted\n"


def test_modeq_exact_check_always_failing_exits_3(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(modeq, "certificate_failure", lambda *args: "rejected")
    code, out, err = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                             "--no-cache")
    assert code == 3 and out == ""
    assert err.startswith("solver error:")


# sha256 of `python -m ordersix modeq N --no-cache --no-timing` (json);
# re-recorded at the levels not prime to 6 when their certificate height
# was halved, and at the odd levels when W_2 and W_n cut it to a third or
# a sixth of the valence bound, under the unchanged MODEQ_COEFF_SHA256
MODEQ_JSON_SHA256 = {
    2: "128ff5a1eab219b796debd1f84c6ead749ab1af5d272839812c120d1143dabc9",
    3: "b74d828337f7c3da4b90fca9a7134195030e9cfb0f9bd4b3ba233f758a9202b1",
    4: "8a3e211b936c97c230e3b69ff0c1ec31adbd8d36488d81c9c11dd9f40bcdbdab",
    5: "c0a1eaf75bbd6e0c8340b4016c00c3cf263267ae772a5e9f861b6ab3e5744396",
    6: "a2aca2b9de0a3eefe855cbd4e4d34d9652c52f7e412aae607bccf0293bf8b3ff",
    7: "f88225ef99ad19bbc94864fcde64892d749961e3dc40065140b342fb860a62d6",
    8: "2a8893fa5580311d11b1a0e109debe088782978b7a6190e8b46bf8c57e879be1",
    9: "0329a5e9178024ca7cc2ab76e7fd29b83b587b79ba7926b4c7eb0da602d0abd3",
    10: "8c503e851351c60eda0942f6b6bc4fee7d4ddeb84043261bffd9824229bda154",
    11: "d0c3ffdf901aa7e7c60f20b75eead34337bf5f4732072ac75429fa25fe73f594",
    12: "76ae6f8baa54c847122838cf1d0994e9300d1af98bcc26915126de4d4ac9d7a6",
    13: "ded47b7412fa5a243f6346a7fbf27fdf2195de89c8d26a907caeb6185b4482f7",
    14: "c23ecff8e9447df3e89332d4d9bde90f767b949a0d41e58ce222a113d48c7969",
    15: "95a43231e136428239cb79df37b7bf48c371d1943c4f93233881c3699962289a",
    16: "2997a9e5fac9824dff910c78fd0a57bac8898a4b9ecfa2b5a2473809453f78be",
    17: "6972c3c5fc714050f66c21b592ebe6625c061a6f09af38de2d42c11ae26b3d26",
    18: "dae28fda971289fa08fd5a159dcccfcdf03415bc9c079a95413c32c495886c59",
    19: "736d7442241e82491141d4aef158f0b20bc69dee0f094abed6754d408edd5741",
    20: "c3faf0fab0c1bd3a3a994fac11252a56781103ce34ec5bc1bc279460af35c9f9",
    21: "f29bdc2a401b11f836a96edb457a496916725b01e003001701a67a09a62df1bb",
    22: "b1bc705a950030dda94ffb4b295c48c1389e381951e0b4ee9775a32c92f753f5",
    23: "a119f2cf0c3e278f901a4f9a76872ac7260aa9d2951e1fdd28de5b78f4e0007f",
    24: "d98f98cad4c4a6557af5b3b0f6b0a15d6d83a476338915b1f01a8475168af206",
    25: "0dc2498acddcc8ad3d9855c93c0e24d53575438eec439a4cf9d04631f288ceb2",
    26: "ec66c67c3e8000ab9f046751505066fd8f42cef5d5c3658c531279d183a6c7c5",
    27: "3d054de4c31a53a1bce100deaa520ed458443e9a04aea1cb7fd3cef28ae64a3b",
    28: "bc37961b81418fd2f40ca557b47a7fe886013df95fc20a5f438865b791212eae",
    29: "cd7425fbf61e049c22fb1e384e8d4322b3e236e4aacf441f9916623cc62c743a",
    30: "910833dd3b026ddd5a337d6549e17f1a54c19ba4237b35b028aeea7cd905af2e",
}


@lru_cache(maxsize=None)
def modeq_output(n):
    """stdout of `modeq N --no-cache --no-timing` (json), solved once per
    level for the pins below."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["modeq", str(n), "--no-cache", "--no-timing"]) == 0
    return buf.getvalue()


def test_modeq_json_output_is_byte_stable():
    for n, digest in MODEQ_JSON_SHA256.items():
        assert hashlib.sha256(modeq_output(n).encode()).hexdigest() == digest, n


def coefficient_digest(doc):
    """sha256 of the coefficients alone, in the canonical form of the
    benchmark's gate: the JSON list of sorted [i, j, "c"] triples."""
    blob = json.dumps(sorted([e["i"], e["j"], str(int(e["value"]))]
                             for e in doc["result"]["coefficients"]))
    return hashlib.sha256(blob.encode()).hexdigest()


# coefficient_digest of `modeq N --no-cache --no-timing` at every level of
# MODEQ_JSON_SHA256.  Fields such as precision_used do not enter it, so a
# change of the certificate that leaves F_n alone leaves these digests.
MODEQ_COEFF_SHA256 = {
    2: "7cb4468aef22713bd955644e1b58d6771dc02135d6b2543ab8d304350ca03b1b",
    3: "b61e9664a90cb5b59ec9bdc14dbc4983b9335984008976ae082208201b0c1535",
    4: "28a83f62cd4b0c943ecbd751ddcf08078b87573b51a20e3c1b3d517eb69a2e6b",
    5: "80d403128ad9d3114ee59de0e2e3d3179cd03d6c7b825f91f173d7e3d0cd2d5c",
    6: "df44ec856cfbc09f238a7efdae200cfd4118b8f59ebc7cb0ba08717872b5b8df",
    7: "ad49055a3231e5f6e4de8237cafe4eb2bd4edf5277b447ed0ddd7c4edd543190",
    8: "00f0c79dee37e0e7e1f8d326d3dd2b0f64de9e8d61843ec4066229981f960553",
    9: "259ce421b4ef00d54531cc149c0fd1367e6bc2c1a01c4b8aad2fad9ef4b692e7",
    10: "c0b27821ca632f0d1889d60630268a204d582b1ea34276a2f82bc9a353f044b0",
    11: "c0635691418fdd35ed45b952f2ab7ea474450591e0e50a96d2e13309f9c2bada",
    12: "e6171ef245244db47f4f87b41a637345fa853f1f63c0d49029e1fbc7837d899f",
    13: "e890505eaf2fb12c886a30bad2d4dd7240aa6bb8d416de55ecaa0b7a521a0b69",
    14: "c0f2aae790793d96f03e6d94e823aa66c0109f4b6fec536ec4161facb54f8448",
    15: "45f9a0a9e998a22ea54983828ec89a82d5badfbd7c1986969dd8b54e46c2f8ee",
    16: "fe8d42b2a6e93b114ceb1f11950b1e7a5eb04a84e573180230cca4d496a46668",
    17: "920267ff8e53794b896295478251466e7016c0ff63c4ab0e9672b4f053b78f05",
    18: "3c1c857d01c10e5fee2c16a4b44acc28c7a3ef568ba59839cbb925f063ac4ae1",
    19: "8a4ac87a978a2e8311964d57b950212660c1fd34057ef1e133c564128c010f69",
    20: "2ee7e1299fb49dd2e0c2bedbbd7265fa33e4afd7a071f79b673db339d4b5420a",
    21: "b0a5dd048d4a125d4498f5977a919902423a80be5825136271444b206ffa300b",
    22: "e6f326678b2f5b4b3350d5ea6e49f9e549f2cb5d082e4be10c1aef0910f406cb",
    23: "4b83e5c069496e1ea6444b7e572d5eda477e94a7aebe63c48836bb14dd94e05f",
    24: "debbce2216cf966f66088ad15268694ba2a83730ef23ccc1aba1951303843ad1",
    25: "a1e10a22184a064ac6fa16160eb602b8b4abc5afa28e3039abf3132d43a97d2d",
    26: "0f52d0cb2f31e01ba22fb2730c70bcce9a2619bf2c7f0490a73b651a2542a28e",
    27: "393aad3b6fb62ab50ba9b5d20f0ca7c80fd7df8b01234a8818b0d9daa5ddee26",
    28: "3688a43147a11a4caec9576e2e7c1d02fdab4a5b592aed00b93c442e35a30f28",
    29: "962f84a1149f97862f1174855baa7c069f928c5547cebb4c13f83d62eeddf645",
    30: "553b861d3ec818891c136770950297a99c996763c57d7244605403c9a008df0d",
}


def test_modeq_coefficients_are_byte_stable():
    assert set(MODEQ_COEFF_SHA256) == set(MODEQ_JSON_SHA256)
    for n, digest in MODEQ_COEFF_SHA256.items():
        assert coefficient_digest(json.loads(modeq_output(n))) == digest, n


def test_leading_column_is_a_power_of_1_minus_3y():
    """At every pinned level the coefficient of X^d2 in F_n is exactly
    (1 - 3Y)^m, m = leading_exponent(n)."""
    for n in MODEQ_JSON_SHA256:
        result = json.loads(modeq_output(n))["result"]
        d2, m = result["d2"], leading_exponent(n)
        column = {e["j"]: int(e["value"]) for e in result["coefficients"] if e["i"] == d2}
        assert column == {j: comb(m, j) * (-3) ** j for j in range(m + 1)}, n


def test_every_pinned_level_is_fricke_invariant_with_constant_6_to_the_d():
    """The twist check of certificate_failure accepts F_n with c = 6^d at
    every pinned level: H(X, Y) = (3 - 3X)^d (3 - 3Y)^d F_n(M(Y), M(X)) is
    exactly 6^d F_n."""
    for n in MODEQ_JSON_SHA256:
        result = json.loads(modeq_output(n))["result"]
        d = result["d2"]
        poly = modeq.BivarPoly({(e["i"], e["j"]): int(e["value"])
                                for e in result["coefficients"]})
        assert modeq.mobius_twist(poly, d, modeq.FRICKE_MAP, True) == modeq.BivarPoly(
            {ij: 6 ** d * c for ij, c in poly.coeffs.items()}), n


def test_every_odd_pinned_level_is_w2_invariant_with_constant_2_to_the_d():
    """The W_2 twist, H(X, Y) = (1 - 3X)^d (1 - 3Y)^d F_n(M2(X), M2(Y)),
    M2(t) = (1 - t)/(1 - 3t), is exactly 2^d F_n at every odd pinned level.
    At n = 2 and 4, where W_2 is no involution of Gamma0(18n), it is no
    multiple of F_n."""
    for n in MODEQ_JSON_SHA256:
        result = json.loads(modeq_output(n))["result"]
        d = result["d2"]
        poly = modeq.BivarPoly({(e["i"], e["j"]): int(e["value"])
                                for e in result["coefficients"]})
        twist = modeq.mobius_twist(poly, d, modeq.W2_MAP, False)
        c = twist.coeff(d, 0)
        invariant = twist == modeq.BivarPoly({ij: c * v for ij, v in poly.coeffs.items()})
        if n % 2:
            assert invariant and c == 2 ** d, n
        elif n in (2, 4):
            assert not invariant, n


def test_every_pinned_level_has_the_predicted_coefficient_pattern():
    """check_pattern accepts F_n against predict_coefficient_pattern(n) at
    every pinned level, even levels divisible by 3 among them."""
    for n in MODEQ_JSON_SHA256:
        poly = modeq.BivarPoly({(e["i"], e["j"]): int(e["value"])
                                for e in json.loads(modeq_output(n))["result"]["coefficients"]})
        assert modeq.check_pattern(modeq.result_for(n, poly),
                                   modeq.predict_coefficient_pattern(n)), n


# coefficient_digest at two levels past the pins above, with high powers of
# 2 and 3 and a leading exponent m > 0, recorded before the certificate
# height at levels not prime to 6 was halved (4609 -> 2305 at level 48)
MODEQ_COEFF_SHA256_SLOW = {
    32: "3511833b9483afadad2039f54358b9fe41c04337a5bfae87d77edfeb86de4a2f",
    48: "960ce91dd9a87f1a7f4ad0cb3c35698467e8f27383464843b49847ec9fc12e2f",
}


@pytest.mark.slow
@pytest.mark.parametrize("n", list(MODEQ_COEFF_SHA256_SLOW))
def test_modeq_coefficients_at_levels_32_and_48_are_byte_stable(n):
    assert coefficient_digest(json.loads(modeq_output(n))) == MODEQ_COEFF_SHA256_SLOW[n]


# sha256 of `python -m ordersix modeq N --no-cache --no-timing --format F`,
# F = plain and latex
MODEQ_TEXT_SHA256 = {
    2: ("531894647cf9e3da1b0ed446edff1f1d5d79268be4054f65d226f709326daf06",
        "531894647cf9e3da1b0ed446edff1f1d5d79268be4054f65d226f709326daf06"),
    3: ("47bcb0da1cd6ac72df9aede68b3ef7d21267bc4a70ff67d720b3311e91e0af36",
        "47bcb0da1cd6ac72df9aede68b3ef7d21267bc4a70ff67d720b3311e91e0af36"),
    4: ("3bdecd52ff68e34f4bd817a9290bf022e284f1419196bb58472441eba3aebd55",
        "3bdecd52ff68e34f4bd817a9290bf022e284f1419196bb58472441eba3aebd55"),
    5: ("3c0b044fe70a75b8647ec3dc887432a9a86cbe0914414a3329390094a95be3ad",
        "3c0b044fe70a75b8647ec3dc887432a9a86cbe0914414a3329390094a95be3ad"),
    6: ("bf3416a4fae0c58a3452b366ba66d516d6a398a82af88ee7b79362a8ca64bb93",
        "bf3416a4fae0c58a3452b366ba66d516d6a398a82af88ee7b79362a8ca64bb93"),
    7: ("f54466e922daeac506965f9d4f2f1823173a6083119fd01981197762865b007b",
        "f54466e922daeac506965f9d4f2f1823173a6083119fd01981197762865b007b"),
    8: ("f5014b151856febc9d275d5c84c684a4f24fb88fc3ac6951f0101da05b6f75c1",
        "f5014b151856febc9d275d5c84c684a4f24fb88fc3ac6951f0101da05b6f75c1"),
    9: ("7908df33c11657009fbd26ed4138cf3299784af27f8a5632ed6485f5469c08fc",
        "7908df33c11657009fbd26ed4138cf3299784af27f8a5632ed6485f5469c08fc"),
    10: ("ef8a2ca1ecdfc9d9d624bcf8433adb6b94ff8a172a87280ce3eaec6c46df49ff",
         "6e2b995b3432d70ce0b51bbd92a8e5d78c5f7288c8abc472deb5603d90ca44ac"),
    11: ("0c5a87b06bb7d01b37ee6ce2fc156d829af54eefb2403ea1cca0c845563c0dfa",
         "037cfccbfd11608a43ad3d29fceb35ef7943b702986ff355562bf49762270031"),
    12: ("f9b62973f41af9a9eb4bdedc997273fcd5bcc2af0b1874c8ec99c40bb7259231",
         "4a1c786a7c52ad70e805db10ac8d5c83f9ede6d777f5b14b219bab03952b8045"),
    13: ("f563f33a54b173ab3c02ab91f93d8aa6428ff44a5fe39d2e4e8ad172319df25c",
         "e967cd606a35c7d0f8191729a27fe384ab6997f2d5c920a25d8a47e5d88cad5c"),
}


def test_modeq_plain_and_latex_output_is_byte_stable(capsys):
    for n, digests in MODEQ_TEXT_SHA256.items():
        for fmt, digest in zip(("plain", "latex"), digests):
            code, out, _ = run_cli(capsys, "modeq", str(n), "--no-cache", "--no-timing",
                                   "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (n, fmt)


def test_modeq_level19_json_is_byte_stable_from_three_primes(capsys, monkeypatch):
    """Level 19's largest coefficient has 43 bits, so after three 20-bit
    primes the lift is right and clears kernel_int_crt's margin of
    modeq._MARGIN_BITS = 8 bits, and the certificate accepts it there."""
    primes_used = []

    def kernel(matrix):
        result = kernel_int_crt(matrix)
        primes_used.append(result.primes_used)
        return result

    monkeypatch.setattr(modeq, "kernel_int_crt", kernel)
    code, out, _ = run_cli(capsys, "modeq", "19", "--no-cache", "--no-timing")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "736d7442241e82491141d4aef158f0b20bc69dee0f094abed6754d408edd5741")
    assert json.loads(out)["result"]["precision_used"] == certificate_height(19)
    assert primes_used == [3]


SCHEMA_CASES = {
    "expand-w": ("expand", "--name", "w", "--prec", "12"),
    "expand-X": ("expand", "--name", "X", "--prec", "12"),
    "expand-j": ("expand", "--name", "j", "--prec", "12"),
    "expand-quotient": ("expand", "--quotient", "4; 1:-1", "--prec", "12"),
    "cusps-18": ("cusps", "18"),
    "cusps-18-w": ("cusps", "18", "--divisor", "w"),
    "cusps-18-nonmodular": ("cusps", "18", "--divisor", "9; 1:1, 9:-1"),
    "modeq-2": ("modeq", "2", "--no-cache"),
    "modeq-5": ("modeq", "5", "--no-cache"),
    "modeq-12": ("modeq", "12", "--no-cache"),
    "verify-all": ("verify", "all"),
    "verify-cusps": ("verify", "cusps"),
}


@pytest.mark.parametrize("argv", list(SCHEMA_CASES.values()), ids=list(SCHEMA_CASES))
def test_json_output_conforms_to_the_schema(capsys, argv):
    """docs/output-schema.json accepts every command's json document;
    jsonschema is a test-only oracle."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).parents[1] / "docs" / "output-schema.json").read_text())
    code, doc, _ = run_json(capsys, *argv, "--no-timing")
    assert code == 0
    jsonschema.validate(doc, schema, cls=jsonschema.Draft202012Validator)


# sha256 of `python -m ordersix ARGS --no-timing` (json)
OUTPUT_JSON_SHA256 = {
    ("expand", "--name", "w", "--prec", "40"):
        "e39261bc82f1ca8e8828563a8de67566f7536e4a2577fed0f918e6ce12bd19a8",
    ("expand", "--name", "X", "--prec", "40"):
        "445bf7ea0be69ec53f8187e8cdebf1dfaaffa346d7f4a3781e2e038070337ee3",
    ("expand", "--name", "j", "--prec", "40"):
        "518f108a1046b3e25093a9593ae8eb2f1c3b76bc04aaa4951fd6f0a60f2bb4a8",
    ("expand", "--quotient", "36; 1:3, 4:-2, 36:5, 12:-6", "--prec", "30"):
        "7abad3fc0fa5a2d98bed576add3b378dd3ab0de45015d8e1407c83dfa1a24a8f",
    ("verify", "all"):
        "ce78c761b1bccb31b0e509f8c6c1528e1427671283d882749827c0abd7cce260",
}


@pytest.mark.parametrize("argv", list(OUTPUT_JSON_SHA256),
                         ids=["expand-w", "expand-X", "expand-j", "expand-quotient", "verify-all"])
def test_expand_and_verify_json_output_is_byte_stable(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--no-timing")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_JSON_SHA256[argv]


# sha256 of `python -m ordersix ARGS --no-timing --format F`, F = plain and latex
OUTPUT_TEXT_SHA256 = {
    ("expand", "--name", "w", "--prec", "40"):
        ("e1d89f8159741fac79173e5d2465bc217c44ec98006d32f78e28808b29320325",
         "7b8cb6ba2d5423d264797c562dfdb9975434c7aa33c3dda25be8c10a2053416d"),
    ("expand", "--name", "X", "--prec", "40"):
        ("cd643d39d5ec96a0923d7dc93e1dabfedcc50ec0b509bb494e92a7ab5aaa3835",
         "461e165581da61343cd7d262e92c603db841e2b7490c77982d08237edb0307d5"),
    ("expand", "--name", "j", "--prec", "40"):
        ("3bd0e5ad80881f105a79ff96fbd54f8d64a3023f4215f134f04d4a0dcfd16518",
         "a8ed4d1497359f40b8c315b4ec08f9d93cf4a44b452796803054a1f0c0c0096e"),
    ("expand", "--quotient", "36; 1:3, 4:-2, 36:5, 12:-6", "--prec", "30"):
        ("56cdb04c247f6e57a12af914c1d602ef28f14fae40cde6b7b162f38f501c22b0",
         "4e9587a983b77bbf98f46dcd96f5ec2957385366ef625aa5c828cbccb083940b"),
    ("cusps", "18", "--divisor", "w"):
        ("5969d723026d2184e0ac6c46872a865fd54fbc33fbc2d6850e0bcf4c4ca19868",
         "c36bcb19197f4e7c69fcf390acdfa3dc999558d040a7ad28caae3ca4276f2917"),
}


@pytest.mark.parametrize("argv", list(OUTPUT_TEXT_SHA256),
                         ids=["expand-w", "expand-X", "expand-j", "expand-quotient", "cusps-18-w"])
def test_expand_and_cusps_text_output_is_byte_stable(capsys, argv):
    for fmt, digest in zip(("plain", "latex"), OUTPUT_TEXT_SHA256[argv]):
        code, out, _ = run_cli(capsys, *argv, "--no-timing", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_modeq_cache_write_failure_warns(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, doc, err = run_json(capsys, "modeq", "2", "--cache-dir",
                              str(blocker / "sub"), "--no-timing")
    assert code == 0
    assert doc["result"]["level"] == 2
    assert err.count("\n") == 1 and err.startswith("warning: cache entry")
    assert "Traceback" not in err


def test_modeq_cache_replace_failure_warns_and_leaves_no_temp_file(capsys, tmp_path,
                                                                   monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run_cli(capsys, "modeq", "2", "--cache-dir", str(tmp_path),
                             "--no-timing")
    monkeypatch.undo()
    assert code == 0
    assert out == run_cli(capsys, "modeq", "2", "--no-cache", "--no-timing")[1]
    assert err.count("\n") == 1 and err.startswith("warning: cache entry")
    assert "replace refused" in err
    assert list(tmp_path.iterdir()) == []


def test_timing_field_is_all_that_timing_adds(capsys, tmp_path, monkeypatch):
    """Without --no-timing each command prints timing_ms >= 0, and without
    that key the document is the --no-timing one; a cache entry never
    holds it."""
    fresh = run_json(capsys, "modeq", "5", "--no-cache", "--no-timing")[1]
    cache = ("--cache-dir", str(tmp_path))
    runs = [
        (("expand", "--name", "w", "--prec", "8"), None),
        (("cusps", "18", "--divisor", "w"), None),
        (("modeq", "5", *cache), fresh),  # a miss: solves and writes the entry
        (("modeq", "5", *cache), fresh),  # a hit
        (("verify", "cusps"), None),
    ]
    for argv, untimed in runs:
        code, timed, err = run_json(capsys, *argv)
        assert code == 0 and err == "", argv
        timing = timed.pop("timing_ms")
        assert isinstance(timing, float) and timing >= 0, argv
        assert timed == (untimed or run_json(capsys, *argv, "--no-timing")[1]), argv
        if argv[0] == "modeq":
            monkeypatch.setattr(cli, "solve_modular_equation", None)  # a hit never solves
    assert "timing_ms" not in json.loads(cache_file(tmp_path, 5).read_text())


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


def test_verify_unknown_subset_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument subset: invalid choice: 'bogus'" in err
    assert "'all', 'tables', 'identities', 'cusps'" in err


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
    assert cli.parse_quotient_spec("18; 1:1, , 2:-2").exponents == {1: 1, 2: -2}


def test_module_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "ordersix", "expand", "--name", "w",
         "--prec", "8", "--no-timing"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["result"]["coefficients"][0] == "1"


def test_modeq_output_does_not_depend_on_the_hash_seed():
    """Two fresh interpreters with different string-hash seeds print the
    same bytes."""
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-m", "ordersix", "modeq", "13", "--no-cache",
                               "--no-timing"], capture_output=True,
                              env={**os.environ, "PYTHONHASHSEED": seed}, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == MODEQ_JSON_SHA256[13]


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--format", "plain"],
    ["modeq", "7", "--no-cache", "--format", "plain"],
    ["expand", "--name", "w", "--prec", "2", "--format", "plain"],
])
def test_closed_stdout_exits_141_quietly(tmp_path, argv):
    """A reader that closes stdout ends the command with 141 (128 + SIGPIPE),
    not with a traceback and the verification-failure code.  The read end is
    closed before the child can write, so the first write always fails.
    stdout is kept block-buffered, as in a shell pipeline, so the short
    expand output fails only when main flushes it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "ordersix", *argv],
                                stdout=subprocess.PIPE, stderr=err, env=env)
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        err.seek(0)
        stderr = err.read()
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
