import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unread_imports(path):
    """(line, name) of each name that ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in imported if name not in read]


def test_every_imported_name_is_read():
    # the package's __init__ imports names only to re-export them
    paths = [path for path in sorted((ROOT / "src" / "mocklie").glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unread = {f"{path.relative_to(ROOT)}:{line}": name
              for path in paths for line, name in unread_imports(path)}
    assert not unread


def imported_names(path):
    """Every dotted part of the modules and names that ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def test_math_modules_do_not_import_the_wire_format():
    # formats, catalog and cli read and write the constructions; the
    # constructions never reach back up to them
    math = ("fields", "linalg", "algebra", "reps", "matched", "doubles", "classify")
    found = {name: sorted(imported_names(ROOT / "src" / "mocklie" / f"{name}.py")
                          & {"formats", "catalog", "cli"})
             for name in math}
    assert not any(found.values()), found
