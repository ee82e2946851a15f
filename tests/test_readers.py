"""Every name in ``src/derand`` that the library defines has a reader.

A module-level ``def`` or ``class`` whose name has no leading underscore
must be read somewhere in ``src/derand/`` or ``perfbench/`` outside its
own definition, or be named in its module's docstring (as a lemma the
acceptance criteria check, or as the oracle of a fast path).  Library
code that only tests read belongs in the tests.  ``perfbench/`` is only
parsed, never imported; its tracer names what it wraps in strings, so
string constants there count as reads.

A module-level private ``def`` or ``class`` and an UPPERCASE constant,
private or not, must be read in ``src/derand/`` itself outside its own
definition: a helper or a limit that a refactor leaves behind fails
here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reads(tree: ast.AST, strings: bool = False) -> set:
    """Identifiers read in ``tree``; a name only assigned is not read."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return out


def _src_modules():
    """Each module of ``src/derand`` by path, and each of its top-level
    statements with the identifiers it reads."""
    modules = {p: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / "src" / "derand").glob("*.py"))}
    return modules, [(node, _reads(node)) for tree in modules.values() for node in tree.body]


def _read_elsewhere(name: str, node, statements) -> bool:
    return any(name in reads for other, reads in statements if other is not node)


def test_every_public_name_has_a_reader():
    modules, statements = _src_modules()
    perfbench = set()
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        perfbench |= _reads(ast.parse(p.read_text(encoding="utf-8")), strings=True)
    unread = []
    for path, tree in modules.items():
        doc = set(re.findall(r"\w+", ast.get_docstring(tree) or ""))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if node.name in doc or node.name in perfbench or \
                    _read_elsewhere(node.name, node, statements):
                continue
            unread.append(f"{path.stem}.{node.name}")
    assert not unread, unread


def _guarded_names(node) -> list:
    """The private functions and classes and the UPPERCASE constants a
    top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name] if node.name[0] == "_" else []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and name.id.isupper()]


def test_every_private_name_and_constant_is_read_in_the_library():
    modules, statements = _src_modules()
    unread = [f"{path.stem}.{name}" for path, tree in modules.items() for node in tree.body
              for name in _guarded_names(node) if not _read_elsewhere(name, node, statements)]
    assert not unread, unread
