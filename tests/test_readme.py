"""The README's examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert blocks  # the pattern still finds the documented example
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
