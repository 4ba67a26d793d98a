"""The README's library sketch runs as written, and its config block is
the resolved default config."""

import json
import math
import re
from pathlib import Path

from mfmarl.harness import ExperimentConfig, parse_config, resolved_config_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:library-sketch", "exec"), {"__name__": "readme_sketch"})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3
    assert all(math.isfinite(float(v)) for v in printed)


def test_config_block_is_the_default_config():
    text = README.read_text(encoding="utf-8")
    section = text.split("Config JSON", 1)[1]
    block = json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))
    assert block.pop("out") == ExperimentConfig.out
    assert block == resolved_config_dict(parse_config({"model": {"q": 10, "k": 5}}))
