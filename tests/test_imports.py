"""Every imported name of the package and of the tests is used."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_unused_imports():
    # The package's __init__.py imports only to re-export, and
    # `from __future__` imports bind no name.
    paths = [p for p in sorted((ROOT / "src" / "pointconic").glob("*.py"))
             if p.name != "__init__.py"] + sorted(ROOT.glob("tests/*.py"))
    unused = []
    for path in paths:
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        used = {n.id for n in nodes if isinstance(n, ast.Name)}
        unused += [
            (path.name, n.lineno, name) for n in nodes
            if isinstance(n, (ast.Import, ast.ImportFrom))
            and getattr(n, "module", None) != "__future__"
            for name in ((a.asname or a.name).split(".")[0] for a in n.names)
            if name not in used]
    assert unused == []


def _module_names(node) -> list:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def test_no_unread_private_names():
    # Every private module-level function, class and constant of the
    # package is read somewhere in the package: by name, as an attribute
    # or through an import.
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted((ROOT / "src" / "pointconic").glob("*.py"))}
    nodes = [n for tree in trees.values() for n in ast.walk(tree)]
    read = ({n.id for n in nodes
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes
               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
            | {n.name for n in nodes if isinstance(n, ast.alias)})
    private = [(path, node.lineno, name)
               for path, tree in trees.items() for node in tree.body
               for name in _module_names(node)
               if name.startswith("_") and not name.startswith("__")]
    assert private
    assert [p for p in private if p[2] not in read] == []
