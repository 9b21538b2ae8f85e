import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "seqspectrum").glob("*.py"))


def _linalg_uses(tree):
    """(line, name) for every numpy.linalg attribute or import in a module."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("np", "numpy")
        ):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            yield from ((node.lineno, alias.name) for alias in node.names if alias.name == "linalg")
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names if alias.name == "numpy.linalg")


def test_library_uses_no_numpy_linalg_decompositions():
    assert SOURCES
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for line, name in _linalg_uses(ast.parse(path.read_text(encoding="utf-8")))
        if name != "norm"
    ]
    assert offenders == []


def _unused_imports(tree):
    """(line, name) for every name a module imports but never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_library_has_no_unused_imports():
    # __init__.py imports only to re-export
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []
