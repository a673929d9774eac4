#!/usr/bin/env python3
"""Census of the code in ``src/repro`` that no ``src`` module reaches.

Lists every function, class and method whose name no ``src/repro``
module reads, and shows which tests, examples or benches name it.  A
package re-export (an import or an ``__all__`` entry) is not a read;
dunder methods and defs a decorator registers are left out.  Names match
by their bare identifier (``x.clear`` names every ``clear``), so the list
errs towards reached.

Run:  python tools/census.py [repo root]
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path
from typing import AbstractSet, Dict, Iterator, List, Set, Tuple

OUTSIDE = ("tests", "examples", "benchmarks", "perfbench")
#: decorators that only wrap; any other one registers what it decorates
WRAPPERS = {"property", "cached_property", "staticmethod", "classmethod", "dataclass"}


def definitions(tree: ast.AST, prefix: str = "") -> Iterator[Tuple[str, ast.AST]]:
    """``(qualified name, node)`` of every class, function and method."""
    for node in getattr(tree, "body", []):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            decorators = {getattr(getattr(d, "func", d), "id", "") for d in node.decorator_list}
            if decorators <= WRAPPERS:
                yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from definitions(node, prefix + node.name + ".")


def names(tree: ast.AST, skip: AbstractSet[int] = frozenset()) -> Iterator[str]:
    """Every identifier ``tree`` reads, outside the nodes ``skip`` holds."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value  # getattr and registry lookups by name
        stack.extend(ast.iter_child_nodes(node))


def main(root: Path) -> None:
    reached: Set[str] = set()
    defined: List[Tuple[str, str, int]] = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.extend(
            (qualified, str(path.relative_to(root)), node.lineno)
            for qualified, node in definitions(tree)
        )
        # an ``__all__`` list only re-exports; import aliases are not names
        exports = {id(node) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                   and any(getattr(target, "id", "") == "__all__" for target in node.targets)}
        reached.update(names(tree, exports))
    outside: Dict[str, Set[str]] = defaultdict(set)
    for folder in OUTSIDE:
        for path in sorted((root / folder).rglob("*.py")):
            for name in set(names(ast.parse(path.read_text(), str(path)))):
                outside[name].add(str(path.relative_to(root)))
    for qualified, where, line in defined:
        name = qualified.rsplit(".", 1)[-1]
        if not (name.startswith("__") and name.endswith("__") or name in reached):
            users = ", ".join(sorted(outside[name])) or "nothing"
            print(f"{where}:{line}  {qualified}  <- {users}")


if __name__ == "__main__":
    main(Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]))
