"""Package layering: no module reaches into another module's private names."""

import ast
from pathlib import Path

import bandstack

PACKAGE = Path(bandstack.__file__).parent


def _imports_from_bandstack(path):
    """(module, name) for every ``from bandstack... import name`` in ``path``,
    relative imports included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "bandstack")
            for alias in node.names]


def test_no_module_imports_a_private_name_from_another():
    private = {path.name: [(module, name) for module, name in _imports_from_bandstack(path)
                           if name.startswith("_")]
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in private.items() if found} == {}


def test_sidecar_does_not_depend_on_mapping():
    modules = {module for module, _ in _imports_from_bandstack(PACKAGE / "sidecar.py")}
    assert "bandstack.mapping" not in modules


def test_no_module_imports_the_kernel_lane_module():
    # _kernels only names the lane for the benchmark's environment line;
    # mapping.stack_fast is the package's one assignment kernel
    importers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                if any("_kernels" in name.split(".") for name in names):
                    importers.setdefault(path.name, []).append(ast.unparse(node))
    assert importers == {}
