"""Every public name in ``src/derand`` has a reader outside the tests.

A module-level ``def`` or ``class`` whose name has no leading underscore
must be read somewhere in ``src/derand/`` or ``perfbench/`` outside its
own definition, or be named in its module's docstring (as a lemma the
acceptance criteria check, or as the oracle of a fast path).  Library
code that only tests read belongs in the tests.  ``perfbench/`` is only
parsed, never imported; its tracer names what it wraps in strings, so
string constants there count as reads.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reads(tree: ast.AST, strings: bool = False) -> set:
    """Identifiers read in ``tree``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_name_has_a_reader():
    modules = {p: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / "src" / "derand").glob("*.py"))}
    perfbench = set()
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        perfbench |= _reads(ast.parse(p.read_text(encoding="utf-8")), strings=True)
    statements = [(node, _reads(node)) for tree in modules.values() for node in tree.body]
    unread = []
    for path, tree in modules.items():
        doc = set(re.findall(r"\w+", ast.get_docstring(tree) or ""))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if node.name in doc or node.name in perfbench or any(
                    node.name in reads for other, reads in statements if other is not node):
                continue
            unread.append(f"{path.stem}.{node.name}")
    assert not unread, unread
