"""Layout guard: ``src/nanotube_bands`` holds what a command or a script runs.

Every top-level function and class of the package must be reachable from the
package's module code (the ``__main__`` entry point, the ``asym`` regime
table, module constants) or from a script in ``scripts/``, through the
definitions that reference each other.  Closed forms and one-channel
references that only check the engine belong with the tests
(``closed_forms.py``, ``scalar_reference.py``, ``block_reference.py``).

References are read from the syntax tree: a name or an attribute spelled like
the definition, outside the definition's own body.  Imports and the
``__all__`` strings do not count, so a name that the package only re-exports
is flagged.  Any variable of the same spelling counts as a reference, so the
guard can miss an unused definition, but it flags none that is reachable.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nanotube_bands"
SCRIPTS = ROOT / "scripts"

# public names that no command runs, each with the reason it stays in src/
EXEMPT = {
    "flat_field_amplitudes": "the paper's flat-band field formula; the README's sweep recipe tells users to call it",
}


def _referenced(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def unreachable_definitions() -> tuple[list[str], set[str]]:
    """The ``module.name`` of every top-level definition in src/, and the names of those no command or script reaches."""
    defined, refs, roots = [], {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{node.name}")
                refs.setdefault(node.name, set()).update(_referenced(node) - {node.name})
            else:
                roots |= _referenced(node)
    for path in sorted(SCRIPTS.glob("*.py")):
        roots |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    live, todo = set(), [name for name in roots if name in refs]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo += [other for other in refs[name] if other in refs]
    return defined, set(refs) - live


def test_every_definition_in_src_is_reached_by_a_command_or_script():
    defined, unreachable = unreachable_definitions()
    assert len(defined) > 100  # the walk found the package
    unused = sorted(unreachable - set(EXEMPT))
    assert unused == [], f"defined in src/ but run by no command or script: {unused}"


def test_exemptions_are_defined_and_unreached():
    # an exempt name that a command starts to run no longer needs its exemption
    _, unreachable = unreachable_definitions()
    assert set(EXEMPT) <= unreachable
