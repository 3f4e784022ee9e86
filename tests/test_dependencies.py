"""Every third-party module the package imports is a declared dependency.

CI installs the package from ``pyproject.toml`` alone, so a module that
``src/`` imports and the dependency list leaves out breaks ``import
repro`` on a clean install.  The check reads each source file's import
statements, so an import inside a function counts too.

scipy stays off the import path: importing ``scipy.stats`` takes longer
than importing the whole package, and every experiment, campaign worker
and benchmark child starts a fresh process.  It also stays off the
serving path: a tier that prices every serving batch key, Table I's
ICDF designs included, and an ICDF simulator kernel's ROM use numpy's
normal quantile, so neither loads scipy (``scipy.special`` alone took
about 0.3 s).
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


def scipy_modules_after(code: str) -> str:
    """The scipy modules loaded once ``code`` has run in a fresh child.

    A child process, because other test modules import scipy into this one.
    """
    code += (
        "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_importing_the_package_loads_no_scipy():
    modules = ["repro", "repro.__main__"] + sorted(
        f"repro.{init.parent.name}"
        for init in (ROOT / "src" / "repro").glob("*/__init__.py")
    )
    code = (
        "import importlib\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)"
    )
    loaded = scipy_modules_after(code)
    assert loaded == "[]", f"importing the package loaded {loaded}"


def test_serving_every_batch_key_and_the_icdf_rom_load_no_scipy():
    code = """
from repro.devices import measured_path_rates
from repro.engine.jobs import GammaJob
from repro.rng import IcdfFpga
from repro.serve import WorkloadSpec
from repro.serve.sharding import ShardedEngine

spec = WorkloadSpec()
keys = [(c, v) for c in spec.configs for v in spec.variances]
with ShardedEngine(n_shards=1, n_workers=1, queue_depth=64) as tier:
    handles = [
        tier.submit(GammaJob(config=c, variance=v, n_samples=256, seed=i))
        for i, (c, v) in enumerate(keys)
    ]
    for handle in handles:
        handle.result(timeout=60)
# one rate per (transform, variance): the tier priced every key
assert measured_path_rates.cache_info().currsize == 2 * len(spec.variances)
IcdfFpga()
"""
    loaded = scipy_modules_after(code)
    assert loaded == "[]", f"serving and the ICDF ROM loaded {loaded}"
