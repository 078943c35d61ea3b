"""The per-module line counts of tools/source_size.py."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from source_size import SRC, count, main  # noqa: E402


def test_the_counts_add_up_to_wc_l(capsys):
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        assert sum(count(path).values()) == path.read_bytes().count(b"\n")
    main()
    total = capsys.readouterr().out.splitlines()[-1]
    wc_l = sum(path.read_bytes().count(b"\n") for path in modules)
    assert total.startswith("| total |")
    assert total.endswith(f"| {wc_l:,} |")


def test_a_docstring_comment_and_blank_line_are_told_apart(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""Module.\n\nMore."""\n\n# note\ndef f():\n'
                    '    """One."""\n    return 1  # trailing\n')
    assert count(path) == {"code": 2, "docstrings": 4, "comments": 1,
                           "blank": 1}
