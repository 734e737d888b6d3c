"""Dead-code guard: every name defined in src/delaycast is referenced somewhere.

Lists each top-level function and class, and each non-dunder method, defined
in src/delaycast/, and fails when no code in src/ or scripts/ refers to the
name: a reference is a `Name` id, an `Attribute` attr or an imported name in
the parsed source, so docstrings, comments and strings do not count, and
neither do tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delaycast"
SEARCHED = (ROOT / "src", ROOT / "scripts")

# qualified name -> why it stays without a reference in src/ or scripts/
ALLOWED = {
    "synth.read_labels": "reader for the label file synth itself writes",
    "Rng.next_u64": "scalar reference the whole-array draws are tested against",
    "Rng.integer": "one bounded draw for the c02 and c03 oracles",
    "numerics.grad_check": "finite-difference oracle of the c06 gradient checks",
    "TreeArrays.member": "one ensemble member as a tree, for the c05 checks",
}


def _definitions():
    """(qualified name, bare name) per top-level def/class and method."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found.extend((f"{node.name}.{item.name}", item.name)
                             for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not re.fullmatch(r"__\w+__", item.name))
    return found


def _references():
    """Names that code in src/ and scripts/ refers to."""
    names = set()
    for base in SEARCHED:
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return names


def test_allowlisted_names_are_defined():
    defined = {qualified for qualified, _ in _definitions()}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)


def test_every_definition_is_referenced():
    references = _references()
    dead = sorted(qualified for qualified, bare in _definitions()
                  if bare not in references and qualified not in ALLOWED)
    assert not dead, ("defined but referenced nowhere else in src/ or scripts/: "
                      + ", ".join(dead))
