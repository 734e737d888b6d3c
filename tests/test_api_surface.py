"""Dead-code guard: every name defined in src/delaycast is referenced somewhere.

Lists each top-level function and class, and each non-dunder method, defined
in src/delaycast/, and fails when the name occurs in src/ and scripts/ only
on the lines that define it. Any other whole-word occurrence counts as a
reference, so a name mentioned in a docstring stays; tests do not count.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delaycast"
SEARCHED = (ROOT / "src", ROOT / "scripts")

# qualified name -> why it stays without a reference in src/ or scripts/
ALLOWED = {
    "Flights.from_records": "the documented way to build Flights from rows",
    "synth.read_labels": "reader for the label file synth itself writes",
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


def _words():
    """Whole-word occurrence counts over src/ and scripts/."""
    words = Counter()
    for base in SEARCHED:
        for path in sorted(base.rglob("*.py")):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def test_allowlisted_names_are_defined():
    defined = {qualified for qualified, _ in _definitions()}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)


def test_every_definition_is_referenced():
    definitions = _definitions()
    defined_count = Counter(bare for _, bare in definitions)
    words = _words()
    dead = sorted(qualified for qualified, bare in definitions
                  if words[bare] <= defined_count[bare] and qualified not in ALLOWED)
    assert not dead, ("defined but referenced nowhere else in src/ or scripts/: "
                      + ", ".join(dead))
