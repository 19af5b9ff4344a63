"""The names the benchmark harness reaches in riemsub, read from its source.

``perfbench/tracing.py`` rebinds layer functions, layer methods and check
entry points by name and reads attributes off riemsub modules, and the
other ``perfbench`` files import names from the package.  A name that is
gone fails the traced benchmark run; these tests read the harness files
(parsing them, not importing them) so that it fails here first.
"""

import ast
import importlib
from pathlib import Path

import riemsub

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((_PERFBENCH / name).read_text())


def _constant(tree, name):
    """The literal value assigned to the module-level ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no module-level {name}")


def test_tracing_binds_existing_layers_and_checks():
    tree = _tree("tracing.py")
    for _, module, attr in _constant(tree, "LAYER_FUNCTIONS"):
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for _, module, cls, method in _constant(tree, "LAYER_METHODS"):
        assert callable(getattr(getattr(importlib.import_module(module), cls), method)), (cls, method)
    cli = importlib.import_module("riemsub.cli")
    for _, attr in _constant(tree, "CHECK_FUNCTIONS"):
        assert callable(getattr(cli, attr)), attr
    expr = importlib.import_module("riemsub.expr")
    for cls in _constant(tree, "EXPR_CLASSES"):
        assert callable(getattr(expr, cls).eval), cls


def test_tracing_reads_existing_module_attributes():
    # ``clairaut = sys.modules["riemsub.clairaut"]`` and then
    # ``clairaut.geodesic_condition_residuals``, say.
    aliases, read = {}, []
    for node in ast.walk(_tree("tracing.py")):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript)
                and ast.unparse(node.value.value) == "sys.modules"):
            aliases[node.targets[0].id] = ast.literal_eval(node.value.slice)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            read.append((node.value.id, node.attr))
    assert aliases
    attrs = [(aliases[name], attr) for name, attr in read if name in aliases]
    assert ("riemsub.clairaut", "geodesic_condition_residuals") in attrs
    for module, attr in attrs:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def test_harness_imports_existing_names():
    imported = []
    for path in sorted(_PERFBENCH.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "riemsub":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert any(name == "micro.py" for name, _, _ in imported)
    for name, module, attr in imported:
        assert hasattr(importlib.import_module(module), attr), (name, module, attr)


def test_every_exported_name_resolves():
    assert len(set(riemsub.__all__)) == len(riemsub.__all__)
    for name in riemsub.__all__:
        assert hasattr(riemsub, name), name
