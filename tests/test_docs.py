"""The public name list and the README's Layout block match the package, and
the README's quick start runs as written."""

import re
from pathlib import Path

import wspan

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_imports():
    missing = [name for name in wspan.__all__ if not hasattr(wspan, name)]
    assert missing == []
    assert len(set(wspan.__all__)) == len(wspan.__all__)


def test_readme_layout_lists_every_module():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Layout\s+```\n(.*?)```", readme, re.S)
    assert block, "README has no Layout code block"
    listed = set(re.findall(r"^\s+(\w+\.py)\s", block.group(1), re.M))
    modules = {p.name for p in (ROOT / "src" / "wspan").glob("*.py") if p.name != "__init__.py"}
    assert modules - listed == set(), "modules missing from README Layout"
    assert listed - modules == set(), "README Layout names modules that do not exist"


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S)
    assert block, "README has no Library quick start code block"
    exec(compile(block.group(1), "README.md", "exec"), {})
