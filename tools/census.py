"""Print two size figures of the package: its line count, and the census of
settable values (function parameters and dataclass fields that have a
default).

    python tools/census.py [package directory, default src/uception]

It sets no threshold; CHANGES.md quotes both figures for each change.
"""
import ast
import pathlib
import sys


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def settable_values(tree):
    """Parameters with a default, plus dataclass fields with a default."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def main(argv):
    package = pathlib.Path(argv[1] if len(argv) > 1 else "src/uception")
    sources = [p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))]
    lines = sum(len(text.splitlines()) for text in sources)
    settable = sum(settable_values(ast.parse(text)) for text in sources)
    print(f"lines {lines}")
    print(f"settable values {settable}")


if __name__ == "__main__":
    main(sys.argv)
