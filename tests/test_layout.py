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

A second guard keeps the tolerance policy in one place: a number literal of
magnitude at most 1e-9, or arithmetic on number literals alone that comes to
one (``2.0**-53``), may appear only in the tolerance table, the module-level
assignments of ``core.py``.

A third keeps the float rule of the writers in one place: the float spec of
the output precision (``%.{sig}g``) and the quoted non-finite values
(``"inf"``, ``"-inf"``, ``"nan"``) are spelled once in src/, in
``cli._float_slots``.

A fourth keeps one exception per exit code: ``errors.py`` defines only
``InvalidInputError`` (exit 2), ``InternalConsistencyError`` (exit 3) and
``HillOrderError``, the subclass that carries its failing channel; every
``raise`` in src/ names one of them or a builtin exception; and ``cli.main``
maps them, with ``FileNotFoundError``, to their exit codes and nothing else.
"""

from __future__ import annotations

import ast
import builtins
import re
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


ROUNDING_LEVEL = 1e-9  # a literal this small is a rounding tolerance


def _literal_value(node: ast.AST):
    """The value of a number literal, or of arithmetic on number literals alone; None for anything else."""
    allowed = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)
    if not all(isinstance(n, allowed) for n in ast.walk(node)):
        return None
    if not all(type(n.value) in (int, float) for n in ast.walk(node) if isinstance(n, ast.Constant)):
        return None
    return eval(compile(ast.Expression(node), "<literal>", "eval"), {"__builtins__": {}})


def rounding_literals(source: str, table: bool = False) -> list[tuple[int, str]]:
    """(line, text) of each literal expression of magnitude in (0, ROUNDING_LEVEL] in ``source``.

    The outermost literal expression is reported, once.  With ``table`` the
    module-level assignments, where the tolerance table lives, are skipped.
    """
    found = []
    todo = [node for node in ast.parse(source).body if not (table and isinstance(node, (ast.Assign, ast.AnnAssign)))]
    while todo:
        node = todo.pop()
        value = _literal_value(node) if isinstance(node, ast.expr) else None
        if value is None:
            todo += ast.iter_child_nodes(node)
        elif 0 < abs(value) <= ROUNDING_LEVEL:
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_rounding_tolerances_are_named_only_in_the_core_table():
    found = [
        f"{path.stem}.py:{line}: {text}"
        for path in sorted(SRC.glob("*.py"))
        for line, text in rounding_literals(path.read_text(encoding="utf-8"), table=path.stem == "core")
    ]
    assert found == [], "rounding-level literals outside the tolerance table of core.py: " + ", ".join(found)


def test_rounding_guard_flags_literals_and_literal_arithmetic():
    source = (
        "TOL = 1e-12\n"
        "def f(a, tol=1e-9):\n"
        "    return a < 2.0**-53 or a > -1e-13 * 4 or a > 1e-8 or a == 0.0 or a > 1e-12 * a\n"
    )
    assert rounding_literals(source) == [
        (1, "1e-12"), (2, "1e-09"), (3, "-1e-13 * 4"), (3, "1e-12"), (3, "2.0 ** (-53)"),
    ]
    assert [line for line, _ in rounding_literals(source, table=True)] == [2, 3, 3, 3]


FLOAT_SPEC = re.compile(r"\.\{[^{}]+\}g")  # a float spec whose precision is a variable: "%.{sig}g", "{x:.{sig}g}"
NON_FINITE = re.compile(r'"-?(?:inf|nan)"')  # a non-finite float quoted for JSON


def float_rule_spellings(source: str) -> list[tuple[str, str]]:
    """(top-level definition, text) of each spelling of the float spec or of a quoted non-finite float in ``source``.

    String constants are read, docstrings aside, and an f-string is read
    whole as its source text, so that a spec inside a replacement field
    counts once.
    """
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    found = []
    for top in tree.body:
        todo = [top]
        while todo:
            node = todo.pop()
            if isinstance(node, ast.JoinedStr):
                text = ast.unparse(node)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                text = node.value
            else:
                todo += ast.iter_child_nodes(node)
                continue
            name = getattr(top, "name", "<module>")
            found += [(name, m.group()) for pattern in (FLOAT_SPEC, NON_FINITE) for m in pattern.finditer(text)]
    return sorted(found)


def test_the_float_rule_is_spelled_once_in_src():
    found = [
        f"{path.stem}.{name}: {text}"
        for path in sorted(SRC.glob("*.py"))
        for name, text in float_rule_spellings(path.read_text(encoding="utf-8"))
    ]
    rule = ".{sig}g", '"inf"', '"-inf"', '"nan"'
    assert sorted(found) == sorted(f"cli._float_slots: {text}" for text in rule)


def test_float_rule_guard_flags_specs_and_quotes_outside_docstrings():
    source = (
        "def fmt(x, sig):\n"
        '    """Written ``%.{sig}g``, or ``"inf"`` in quotes."""\n'
        "    if x != x:\n"
        "        return '\"nan\"'\n"
        '    return f"{float(x):.{sig}g}"\n'
        "SPEC = f'%.{n}g'\n"
        "MESSAGE = f'{x:.3g} \"-inf\"'\n"
    )
    assert float_rule_spellings(source) == [
        ("<module>", '"-inf"'), ("<module>", ".{n}g"), ("fmt", '"nan"'), ("fmt", ".{sig}g"),
    ]


PACKAGE_EXCEPTIONS = ["HillOrderError", "InternalConsistencyError", "InvalidInputError"]
EXIT_CODES = [(["FileNotFoundError", "InvalidInputError"], 2), (["InternalConsistencyError"], 3)]


def _is_builtin_exception(name: str) -> bool:
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def defined_classes(source: str) -> list[str]:
    return sorted(node.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef))


def raised_names(source: str) -> list[tuple[int, str]]:
    """(line, text) of each ``raise`` in ``source`` whose exception is not a builtin one; a bare re-raise is skipped."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not _is_builtin_exception(ast.unparse(exc)):
                found.append((node.lineno, ast.unparse(exc)))
    return sorted(found)


def exit_handlers(source: str, function: str = "main") -> list[tuple[list[str], int | None]]:
    """(caught names, returned exit code) of each ``except`` clause in ``function`` of ``source``."""
    (func,) = [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef) and node.name == function]
    handlers = []
    for node in ast.walk(func):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            returns = [r.value.value for r in node.body if isinstance(r, ast.Return) and isinstance(r.value, ast.Constant)]
            handlers.append((sorted(ast.unparse(c) for c in caught), returns[0] if returns else None))
    return handlers


def test_errors_defines_one_exception_per_exit_code():
    assert defined_classes((SRC / "errors.py").read_text(encoding="utf-8")) == PACKAGE_EXCEPTIONS


def test_every_raise_in_src_names_a_package_or_builtin_exception():
    found = [
        f"{path.stem}.py:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in raised_names(path.read_text(encoding="utf-8"))
        if name not in PACKAGE_EXCEPTIONS
    ]
    assert found == [], "raises of exceptions outside errors.py's three: " + ", ".join(found)


def test_cli_main_maps_each_exception_to_its_exit_code():
    assert exit_handlers((SRC / "cli.py").read_text(encoding="utf-8")) == EXIT_CODES


def test_exception_guard_flags_a_new_refusal_class():
    errors = (SRC / "errors.py").read_text(encoding="utf-8") + "\n\nclass NotApplicableError(InvalidInputError):\n    pass\n"
    source = (
        "def predict(s):\n"
        "    if s < 1:\n"
        "        raise NotApplicableError(f'band index {s}')\n"
        "    if s > 9:\n"
        "        raise ValueError('programming error')\n"
        "    try:\n"
        "        return s\n"
        "    except KeyError:\n"
        "        raise\n"
        "def main(argv=None):\n"
        "    try:\n"
        "        return predict(argv)\n"
        "    except (InvalidInputError, NotApplicableError, FileNotFoundError) as exc:\n"
        "        return 2\n"
        "    except InternalConsistencyError:\n"
        "        return 3\n"
    )
    assert defined_classes(errors) == [*PACKAGE_EXCEPTIONS, "NotApplicableError"]
    assert raised_names(source) == [(3, "NotApplicableError")]
    assert exit_handlers(source) == [(["FileNotFoundError", "InvalidInputError", "NotApplicableError"], 2), EXIT_CODES[1]]
