"""The names the benchmark imports from the package still exist.

perfbench/ is run against each checkout as it stands, so a change that
deletes or renames a package name it imports would only fail there.  This
test reads the benchmark's sources with ast (it imports nothing from
perfbench/) and fails on such a change instead.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = ("workloads.py", "test_perfbench.py")


def _package_imports() -> list[tuple[str, str, str | None]]:
    """(file, module, name) for each `from paulient... import name`, and
    (file, module, None) for each `import paulient...`."""
    found = []
    for source in SOURCES:
        for node in ast.walk(ast.parse((PERFBENCH / source).read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    node.module.split(".")[0] == "paulient":
                found += [(source, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(source, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "paulient"]
    return found


def _exists(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


def test_perfbench_package_imports_exist():
    found = _package_imports()
    assert {source for source, _, _ in found} == set(SOURCES)
    missing = [f"{source}: {module}.{name}" for source, module, name in found
               if not _exists(module, name)]
    assert missing == []
