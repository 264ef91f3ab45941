"""The package depends on nothing beyond numpy and pyyaml: every module of
`sfcsim` imports only from the standard library, numpy, yaml or itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "sfcsim"
ALLOWED = sys.stdlib_module_names | {"numpy", "yaml", "sfcsim"}


def imported_modules(path):
    """The top-level names of the modules `path` imports; a relative import
    is from the package itself."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "sfcsim" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_yaml_or_sfcsim(path):
    assert set(imported_modules(path)) <= ALLOWED
