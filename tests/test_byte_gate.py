"""The byte gate's file comparison (tools/byte_gate.py), on two directories
written here: no git and no CLI runs."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from byte_gate import compare_trees, max_rel_diff  # noqa: E402


def write(root, name, text):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def manifest(generated_at, data_file, fee):
    return json.dumps({"generated_at": generated_at, "data_file": data_file,
                       "config": {"fee_rate": fee}})


def test_compare_trees_names_every_file_with_its_verdict(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    for root, last in ((base, "1.5"), (head, "1.5000003")):
        write(root, "run/weights.csv", "date,A00\n2023-01-02,0.25\n")
        write(root, "run/returns.csv", f"date,net\n2023-01-02,{last}\n")
    # the manifests differ only in the fields that differ between any runs
    write(base, "run/manifest.json", manifest("2026-01-01", "/a.csv", 0.001))
    write(head, "run/manifest.json", manifest("2026-02-02", "/b.csv", 0.001))
    write(base, "other/manifest.json", manifest("x", "y", 0.001))
    write(head, "other/manifest.json", manifest("x", "y", 0.002))
    write(head, "run/extra.csv", "1\n")
    assert compare_trees(base, head) == {
        "other/manifest.json": "differs (max rel diff 0.5)",
        "run/extra.csv": "differs (max rel diff inf)",
        "run/manifest.json": "equal",
        "run/returns.csv": "differs (max rel diff 2e-07)",
        "run/weights.csv": "equal",
    }


def test_max_rel_diff_reads_numbers_and_flags_the_rest():
    assert max_rel_diff("a,1.0\n2.0", "a,1.0\n2.0") == 0.0
    assert max_rel_diff("4,0.0", "5,-0.0") == 0.2
    assert max_rel_diff("1,2", "1,2,3") == float("inf")
    assert max_rel_diff("a,1", "b,1") == float("inf")
    assert max_rel_diff("nan", "1.0") == float("inf")
