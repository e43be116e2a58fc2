"""The public name list and the README's Layout block match the package, the
README's quick start runs as written, and the dotted names of the package's
modules that the README and the docstrings cite exist."""

import ast
import importlib
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


def test_dotted_module_names_in_docs_resolve():
    # module.name (or wspan.module.name, module.Class.method) in README.md and
    # in every docstring of the package names an attribute that exists; a
    # module's file name, module.py, is no attribute
    src = ROOT / "src" / "wspan"
    modules = sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    dotted = re.compile(rf"\b(?:wspan\.)?({'|'.join(modules)})((?:\.[A-Za-z_]\w*)+)")
    texts = [("README.md", (ROOT / "README.md").read_text())]
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    texts.append((f"{path.name}:{getattr(node, 'name', '')}", doc))
    missing = []
    for where, text in texts:
        for module, names in dotted.findall(text):
            if names == ".py":
                continue
            obj = importlib.import_module(f"wspan.{module}")
            for name in names[1:].split("."):
                if not hasattr(obj, name):
                    missing.append(f"{where}: {module}{names}")
                    break
                obj = getattr(obj, name)
    assert missing == []
