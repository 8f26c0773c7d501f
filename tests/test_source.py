"""The package holds no code that only the tests use, and only the CLI prints."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "afrelay"


def test_every_top_level_definition_is_used_by_the_package():
    # a function or class that no module but __init__.py names is exported
    # for the tests alone; it belongs in the tests
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for name, tree in trees.items() if name != "__init__.py"
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]
    assert unused == []


def test_only_the_cli_prints():
    # the library reports through return values, exceptions and callbacks
    printing = sorted(path.name for path in PACKAGE.glob("*.py")
                      if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                             and node.func.id == "print"
                             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert printing == ["cli.py"]
