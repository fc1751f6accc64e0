import json
import subprocess
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parents[1] / "tools" / "ladder.py"


def test_ladder_on_level_5_writes_every_key(tmp_path):
    """tools/ladder.py on level 5 alone, one run: one BENCH_<sha>.json with
    the environment, a median and IQR per fresh-process command, the
    in-process seams of the solve and the in-process stages of verify."""
    proc = subprocess.run([sys.executable, str(LADDER), "--levels", "5", "--runs", "1",
                           "--out", str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    [path] = tmp_path.glob("BENCH_*.json")
    doc = json.loads(path.read_text())
    assert set(doc) == {"sha", "src_differs_from_sha", "python", "numpy", "nproc", "runs",
                        "levels", "end_to_end", "phases", "verify"}
    assert path.name == f"BENCH_{(doc['sha'] or 'unknown')[:7]}.json"
    assert (doc["runs"], doc["levels"]) == (1, [5]) and doc["nproc"] >= 1
    assert set(doc["end_to_end"]) == {"modeq 5", "verify all"}
    for got in doc["end_to_end"].values():
        assert set(got) == {"wall_s", "peak_rss_mb"}
        assert got["wall_s"]["median"] > 0 and got["peak_rss_mb"]["median"] > 0
        assert got["wall_s"]["iqr"] == 0
    phases = doc["phases"]["5"]
    assert set(phases) == {"expand_w_s", "fn_mod_p_s", "power_table_s", "twist_s",
                           "residual_s", "certificate_s", "total_s", "primes", "height",
                           "expansion"}
    assert (phases["height"], phases["expansion"]) == (13, 35)
    assert phases["primes"] >= 1
    assert 0 < phases["residual_s"]["median"] <= phases["total_s"]["median"]
    assert 0 < phases["power_table_s"]["median"] <= phases["fn_mod_p_s"]["median"]
    assert set(doc["verify"]) == {"x_identities_s", "j_identity_s", "golden_tables_s",
                                  "cusp_lists_s"}
    for got in doc["verify"].values():
        assert got["median"] > 0 and got["iqr"] == 0
