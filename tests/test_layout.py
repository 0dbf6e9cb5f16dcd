"""The package holds only what the program runs.

Every function and class defined at the top level of a module in
``src/specpool/`` with a public name must be referenced somewhere else in
that package: code that only tests call belongs in the tests. Only code
counts as a reference, not comments or docstrings, and a name used only
inside its own definition is not referenced.
"""

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "specpool"

def public_definitions():
    """(module name, name, first line, last line) of each public def."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path.stem, node.name, node.lineno, node.end_lineno


def name_tokens():
    """(module name, line, name) of every identifier in the package."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        with open(path, "rb") as fh:
            out += [(path.stem, tok.start[0], tok.string)
                    for tok in tokenize.tokenize(fh.readline)
                    if tok.type == tokenize.NAME]
    return out


def unreferenced():
    tokens = name_tokens()

    def used(module, name, first, last):
        own = {(module, line) for line in range(first, last + 1)}
        return any(tok == name and (mod, line) not in own
                   for mod, line, tok in tokens)

    return sorted(f"{d[0]}.{d[1]}" for d in public_definitions()
                  if not used(*d))


def test_every_public_definition_is_used_by_the_package():
    unused = unreferenced()
    assert unused == [], f"defined in src/specpool/ but used only " \
                         f"outside it: {unused}"
