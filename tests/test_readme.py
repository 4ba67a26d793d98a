"""The README's library sketch runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:library-sketch", "exec"), {"__name__": "readme_sketch"})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3
    assert all(math.isfinite(float(v)) for v in printed)
