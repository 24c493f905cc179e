"""Print the two size metrics of the package: source lines and options.

``src_lines`` counts the lines of every module under ``src/qpirlab``.
``options`` counts the knobs a caller can leave at a default: function
parameters with a default value plus dataclass fields with a default
(a ``field(...)`` counts only when it sets ``default`` or
``default_factory``).  Both are counted from the source with ``ast``,
without importing the package.

Usage: python scripts/surface.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _field_has_default(value: ast.expr) -> bool:
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def options(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(st, ast.AnnAssign) and st.value is not None
                         and _field_has_default(st.value) for st in node.body)
    return count


def surface(src: Path) -> dict[str, int]:
    files = sorted(src.glob("*.py"))
    texts = [f.read_text() for f in files]
    return {
        "src_lines": sum(t.count("\n") for t in texts),
        "options": sum(options(ast.parse(t)) for t in texts),
    }


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "qpirlab"
    for name, value in surface(src).items():
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
