import hashlib
import json
import os
import subprocess
import sys

import pytest

import ordersix.cli as cli
import ordersix.modeq as modeq
import ordersix.verify as verify
from ordersix.linalg import KernelResult, kernel_int_crt
from ordersix.modeq import NullspaceEmptyError, valence_bound
from ordersix.verify import GOLDEN_INNER


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


def test_modeq_edited_cache_coefficient_recomputes(capsys, tmp_path):
    code, out1, _ = run_cli(capsys, "modeq", "7", "--cache-dir", str(tmp_path),
                            "--no-timing")
    assert code == 0
    path = cache_file(tmp_path, 7)
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


def test_modeq_entry_of_another_schema_is_replaced_in_place(capsys, tmp_path):
    doc = cli.modeq_document(5)
    doc["schema_version"] = "0"
    path = cache_file(tmp_path, 5)
    path.write_text(json.dumps(doc, indent=2))
    code, out, err = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                             "--no-timing")
    assert code == 0 and err.startswith("warning: cache entry") and "corrupt" in err
    assert json.loads(out) == cli.modeq_document(5)
    assert path.read_text() == json.dumps(json.loads(out), indent=2)
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
    path = cache_file(tmp_path, 5)
    doc = json.loads(path.read_text())
    edit(doc["result"])
    path.write_text(json.dumps(doc, indent=2))
    code, out2, err = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                              "--no-timing")
    assert code == 0 and "corrupt" in err
    assert out1 == out2


@pytest.mark.parametrize("edit", [
    lambda r: r.update(normalization="anything at all"),
    lambda r: r.update(normalization=modeq.NORMALIZATION_NOTES[1]),
    lambda r: r.update(level=5.0),
    lambda r: r.update(nullspace_dimension=True),
    lambda r: r["coefficients"][0].update(i=float(r["coefficients"][0]["i"])),
    lambda r: r["coefficients"][0].update(i=float("inf")),
], ids=["unknown-note", "swapped-note", "float-level", "bool-dimension", "float-index", "infinite-index"])
def test_modeq_cache_entry_is_served_only_as_the_fresh_bytes(capsys, tmp_path, edit):
    """An entry that would print anything but the fresh document is
    recomputed: a note the solver never writes, the other note, and numbers
    that Python compares equal to the right ones."""
    code, out1, _ = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                            "--no-timing")
    path = cache_file(tmp_path, 5)
    doc = json.loads(path.read_text())
    edit(doc["result"])
    path.write_text(json.dumps(doc, indent=2))
    code, out2, err = run_cli(capsys, "modeq", "5", "--cache-dir", str(tmp_path),
                              "--no-timing")
    assert code == 0 and err.startswith("warning: cache entry") and "corrupt" in err
    assert out1 == out2
    assert path.read_text() == json.dumps(json.loads(out1), indent=2)


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


def test_modeq_ambiguous_kernel_is_not_retried(capsys, monkeypatch):
    heights = []

    def ambiguous(matrix):
        heights.append(matrix.height)
        return KernelResult(2, None, 1)

    monkeypatch.setattr(modeq, "kernel_int_crt", ambiguous)
    code, out, err = run_cli(capsys, "modeq", "5", "--no-cache")
    assert code == 3 and out == ""
    assert err.startswith("solver error:") and "kernel dimension 2" in err
    assert heights == [valence_bound(5)]


# sha256 of `python -m ordersix modeq N --no-cache --no-timing` (json)
MODEQ_JSON_SHA256 = {
    2: "dd833a14e244dd20a5739eb8321a201f4e3867912727ba2e14b75a5b7f688dcb",
    3: "43581e18dbc8a48c30044afebec69444e69531141ba468e21284168ca1ee0e78",
    4: "278d37c7499a54a0271b8c66c91db4f8a40e0e4ff1b6d872e69b05cad60ad87b",
    5: "ea2c6a63f7e10bcbb52bc252c1e7e6ff9c929c6841780249ae34c0079be76e71",
    6: "3af71409d1e9df77409129ac5d0182a3970eca9cde77c29f37bfe95e1fa626fd",
    7: "a316c2349cacf25a425a2203b83ba265959108c94c91af04bbd91cee62aced1c",
    8: "ede47108628fd0f2b7d09e3ee636c3a0785a9e785c5fe44a88ee220d051a3d41",
    9: "d2cd2a54e9f3033c4a2d2754413a468e07bafd35176e4afa1f0568b87332f110",
    10: "06160cad4286c4ded23f6f75bcdddb8eb69b3333439ae7a8927a2539c0497e0e",
    11: "76ba95bb16c6afba91ebef173b1ae502674d4967848f7ef478826faa2e0debf7",
    12: "f2a9f40426a6556135ddf19d220c52319d8cc98c7608a4af84afb7d66d178527",
    13: "b2978b5e5df5c9e3cb4d163f31ec440cc9e50022d64baa8b1bb9e84a871cbfef",
}


def test_modeq_json_output_is_byte_stable(capsys):
    for n, digest in MODEQ_JSON_SHA256.items():
        code, out, _ = run_cli(capsys, "modeq", str(n), "--no-cache", "--no-timing")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, n


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


def test_modeq_level19_json_is_byte_stable(capsys, monkeypatch):
    """Level 19 is the first level whose kernel spans many row blocks and
    needs five primes."""
    primes_used = []

    def kernel(matrix):
        result = kernel_int_crt(matrix)
        primes_used.append(result.primes_used)
        return result

    monkeypatch.setattr(modeq, "kernel_int_crt", kernel)
    code, out, _ = run_cli(capsys, "modeq", "19", "--no-cache", "--no-timing")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "452976d5f99858cdc6c36d2d07c6f28a53697250efd611318add6affe06cd038")
    assert json.loads(out)["result"]["precision_used"] == valence_bound(19)
    assert primes_used == [5]


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
        "9900a41a70f26eeb2cd9857eb13c071200beb0e34a78eb18d267e347768753b5",
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
