"""The documented public API surface stays importable and consistent."""

import ast
import importlib
import re
from pathlib import Path

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version():
    assert repro.__version__ == "1.0.0"


def test_key_entry_points_callable():
    assert callable(repro.run_table_kernel)
    assert callable(repro.run_inference)
    assert callable(repro.autotune)
    assert callable(repro.generate_trace)
    assert callable(repro.kernel_workload)


def test_presets_accessible():
    assert set(repro.HOTNESS_PRESETS) == {
        "one_item", "high_hot", "med_hot", "low_hot", "random",
    }
    assert sum(repro.TABLE_MIXES["Mix1"].values()) == 250


def test_gpu_presets():
    assert repro.A100_SXM4_80GB.num_sms == 108
    assert repro.H100_NVL.num_sms == 132


def _repro_imports(source: str):
    """(module, name) for every ``repro`` import in ``source``; name is
    None for a plain ``import repro.x``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module.split(".")[0] == "repro"
        ):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


def test_examples_and_readme_imports_resolve():
    """CI runs no example and the README's snippets are not executed;
    a name moved between modules must not break them silently."""
    root = Path(__file__).resolve().parents[1]
    sources = {
        path.name: path.read_text()
        for path in sorted((root / "examples").glob("*.py"))
    }
    blocks = re.findall(
        r"^```python\n(.*?)^```", (root / "README.md").read_text(),
        re.M | re.S,
    )
    assert blocks, "no fenced python block in README.md"
    for i, block in enumerate(blocks):
        sources[f"README.md block {i}"] = block
    unresolved = []
    checked = 0
    for where, source in sources.items():
        for module, name in _repro_imports(source):
            checked += 1
            try:
                mod = importlib.import_module(module)
            except ImportError:
                unresolved.append(f"{where}: {module}")
                continue
            if name is not None and not hasattr(mod, name):
                try:
                    importlib.import_module(f"{module}.{name}")
                except ImportError:
                    unresolved.append(f"{where}: {module}.{name}")
    assert checked > 0
    assert unresolved == []
