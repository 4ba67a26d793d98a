"""The README's library sketch and environment example run as written, and
its config block is the resolved default config."""

import json
import math
import re
from pathlib import Path

from mfmarl.harness import ExperimentConfig, parse_config, resolved_config_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def run_section(heading: str, capsys) -> list:
    """Run the first python block after `heading` and return what it printed."""
    text = README.read_text(encoding="utf-8")
    section = text.split(heading, 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:{heading}", "exec"), {"__name__": "readme_sketch"})
    return capsys.readouterr().out.split()


def test_library_sketch_runs(capsys):
    printed = run_section("## Library sketch", capsys)
    assert len(printed) == 3
    assert all(math.isfinite(float(v)) for v in printed)


def test_environment_example_runs(capsys):
    v_mf, v_marl, stderr = map(float, run_section("## Environment contract", capsys))
    # The example's dynamics ignore the population and its near-uniform
    # initial policy barely reads the views, so the N-agent return is close
    # to the mean-field value from the same initial law.
    assert math.isfinite(v_mf) and stderr > 0
    assert abs(v_marl - v_mf) <= 4 * stderr


def test_config_block_is_the_default_config():
    text = README.read_text(encoding="utf-8")
    section = text.split("Config JSON", 1)[1]
    block = json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))
    assert block.pop("out") == ExperimentConfig.out
    assert block == resolved_config_dict(parse_config({"model": {"q": 10, "k": 5}}))
