"""Every third-party module the package imports is a declared dependency.

CI installs the package from ``pyproject.toml`` alone, so a module that
``src/`` imports and the dependency list leaves out breaks ``import
repro`` on a clean install.  The check reads each source file's import
statements, so an import inside a function counts too.

scipy stays off the import path: importing ``scipy.stats`` takes longer
than importing the whole package, and every experiment, campaign worker
and benchmark child starts a fresh process.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    return {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0]
        .lower()
        .replace("-", "_")
        for requirement in re.findall(r'"([^"]+)"', block.group(1))
    }


def imported_modules() -> dict[str, str]:
    """Top-level third-party module -> the first source file importing it."""
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    undeclared = {
        module: path
        for module, path in imported_modules().items()
        if module not in declared
    }
    assert not undeclared, f"imported but not in pyproject.toml: {undeclared}"


def test_importing_the_package_loads_no_scipy():
    # a child process: other test modules import scipy into this one
    modules = ["repro", "repro.__main__"] + sorted(
        f"repro.{init.parent.name}"
        for init in (ROOT / "src" / "repro").glob("*/__init__.py")
    )
    code = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", f"importing the package loaded {proc.stdout}"
