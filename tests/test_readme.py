"""The README's library quick start runs as printed, and every function it
names exists."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

#: a backticked ``<module>.<name>``, with an optional ``sepmult.`` prefix
_REFERENCE = re.compile(
    r"`(?:sepmult\.)?(linalg|groups|vna|schur|classify|verify|cli)\.(\w+)")


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def test_quick_start_prints_what_its_comments_say(capsys):
    blocks = _python_blocks()
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert lines[0] == "separating"
    assert lines[1] == "2j"
    assert lines[2] == "None"
    assert lines[3] == "not-separating"
    assert lines[4].startswith("probe:")
    assert float(lines[5]) > 0.0
    assert float(lines[6]) < 1e-12


def test_backticked_library_names_resolve():
    found = set(_REFERENCE.findall(README.read_text(encoding="utf-8")))
    assert len(found) >= 5
    missing = sorted("%s.%s" % ref for ref in found
                     if not hasattr(importlib.import_module("sepmult." + ref[0]), ref[1]))
    assert missing == []
