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


def _bandstack_modules(path):
    """The dotted name of every bandstack module ``path`` imports or imports
    a name from; a name imported from the package itself counts as its
    module ("bandstack.spectrum" for ``from bandstack import spectrum``)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.split(".")[0] == "bandstack"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "bandstack"):
            module = ".".join(filter(None, ["bandstack" if node.level else None, node.module]))
            found |= {f"{module}.{a.name}" if module == "bandstack" else module
                      for a in node.names}
    return found


def test_only_transform_imports_the_fft_module():
    # _fft is the pipelines' FFT machinery, built on spectrum's blocks alone
    importers = {path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "bandstack._fft" in _bandstack_modules(path)}
    assert importers == {"transform.py"}
    assert _bandstack_modules(PACKAGE / "_fft.py") == {"bandstack.spectrum"}


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
