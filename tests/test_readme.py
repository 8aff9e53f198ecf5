"""The README's Python quick start runs as written and prints what it shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_prints_its_documented_lines():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Quick start \(Python\)\n+```python\n(.*?)^```$", text, re.S | re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme_quick_start"})
    assert out.getvalue().splitlines() == ["Vector(coords=(0.0,)) max_steps", "refuted", "True"]
