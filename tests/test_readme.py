"""The README's "Library use" examples run as written."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_blocks() -> list[str]:
    """The ```python blocks of the "Library use" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE)


def test_library_use_examples_run_in_order(tmp_path, monkeypatch):
    # Each block runs on the names the blocks before it defined, in a
    # scratch working directory, and prints what its comments say.
    monkeypatch.chdir(tmp_path)
    blocks = _library_blocks()
    assert len(blocks) == 3
    namespace: dict = {}
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed.append(out.getvalue().splitlines())
    run, stepped, priced = printed
    assert len(run) == 1
    assert stepped == ["1 True"]
    assert float(priced[-1].split()[-1]) == pytest.approx(50.0, rel=1e-12)
