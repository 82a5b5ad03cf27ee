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
