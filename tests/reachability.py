"""Public functions of isomlab that no verdict runs, and settings that no
verdict sets.

    PYTHONPATH=src python tests/reachability.py

Runs the verdict traffic in this process under ``sys.settrace``: the
acceptance tests and the CLI tests (the exit-1 refusal contract) under
pytest, then ``cli_digest`` on the first 12 ops of every workload at seed 3.
Of the CLI tests only what runs through ``cli.main`` counts: a function that
the test file calls directly is a unit under test, not a verdict.
It records which lines of the ``isomlab`` package on the path ran and prints,
grouped by function, the body lines that never ran, leaving out the lines of
raise statements: refusals and error handlers are safety code, not
candidates for deletion.  It exits 1, naming them under FUNCTIONS and
MEMBERS, if a public function, or a public method or property, never ran,
and under SETTINGS if a default-valued parameter of a public function or
method, or of a dataclass's generated ``__init__``, is never bound to
another value: no recorded call passes a value that is not the default
object itself or, for a number or string default, equal to it.  So a call
that spells out a default sets nothing.  The parameters of exception
classes are exempt: their constructors run in raise statements.  A name is
public unless it starts with one underscore; dunders such as ``__str__``
are public.

The body lines of a function are the lines of its code that hold
instructions, less its first line (the ``def`` or its decorator), together
with those of the functions, lambdas and comprehensions defined in it.
Only the traced traffic counts: a function that unit tests alone call, or
whose only call sits in a branch that never runs, is reported.  The script
uses the standard library and pytest alone.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import inspect
import numbers
import os
import sys
from pathlib import Path
from types import CodeType

TESTS = Path(__file__).resolve().parent
TRAFFIC = [TESTS / "test_acceptance.py", TESTS / "test_cli.py"]
UNIT_TESTS = [TESTS / "test_cli.py"]  # its own calls count only through main
FUNCTIONS = "public functions that no verdict runs:"
MEMBERS = "public methods and properties that no verdict runs:"
SETTINGS = "default-valued parameters that no verdict sets:"


def _group(qualname: str) -> str:
    """The function that a code object's lines count for: nested code counts
    for the outermost function that defines it."""
    return qualname.split(".<locals>")[0]


def _public(name: str) -> bool:
    return all(not p.startswith("_") or (p.startswith("__") and p.endswith("__"))
               for p in name.split("."))


def _body_lines(source: str) -> dict[str, set[int]]:
    """Qualified name -> body lines of every function defined in the module
    `source` (see the module docstring)."""
    out = {}

    def walk(code):
        for c in code.co_consts:
            if isinstance(c, CodeType):
                if c.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                    out.setdefault(_group(c.co_qualname), set()).update(
                        line for _, _, line in c.co_lines()
                        if line is not None and line != c.co_firstlineno)
                walk(c)

    walk(compile(source, "<module>", "exec"))
    return out


def _raise_lines(source: str) -> set[int]:
    return {line for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


def _modules(package: Path) -> list[Path]:
    """The .py files under `package`, by the absolute paths that the code
    objects of its modules carry."""
    return sorted(Path(os.path.abspath(package)).rglob("*.py"))


def _defaults(modules) -> dict:
    """Code object -> ('module.qualname', ((parameter, default), ...)) of
    every public function and public method (dunders such as ``__init__``
    count, a dataclass's generated one too) defined in the imported
    `modules` that has a default-valued parameter; exception classes are
    left out."""
    out = {}
    for module in modules:
        short = module.__name__.partition(".")[2] or "__init__"
        for name, obj in vars(module).items():
            if not _public(name) or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                if issubclass(obj, BaseException):
                    continue
                found = [getattr(v, "__func__", v) for k, v in vars(obj).items() if _public(k)]
            else:
                found = [obj]
            for fn in filter(inspect.isfunction, found):
                params = tuple((p.name, p.default)
                               for p in inspect.signature(fn).parameters.values()
                               if p.default is not p.empty)
                if params:
                    out[fn.__code__] = (f"{short}.{fn.__qualname__}", params)
    return out


def _is_default(value, default) -> bool:
    return value is default or (isinstance(default, (numbers.Number, str))
                                and isinstance(value, (numbers.Number, str))
                                and value == default)


def traced(package: Path, traffic, unit_tests=()):
    """Import the package under sys.settrace, run `traffic()` there, and
    return the (file, line) pairs that ran in the .py files under `package`,
    the (file, function) pairs that were called there (functions as `_group`
    names them), the sorted 'module.qualname(parameter)' of every
    default-valued parameter that no recorded call set (see the module
    docstring), and what `traffic()` returned.  `package` is imported by its
    directory's name, which must be importable.  A call that a file among
    `unit_tests` makes into the package is recorded, with all that it runs,
    only when it calls a `main` or runs a module's import."""
    files = {str(path) for path in _modules(package)}
    units = {os.path.abspath(path) for path in unit_tests}
    watched = files | units
    ran, called = set(), set()
    defaults, unset = {}, {}  # filled in once the package is imported
    entered = set(files)  # the files of every code that is recorded when called

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in entered:  # the cheapest test first: it runs on every call
            return None
        caller = frame.f_back  # the nearest caller in the package or a unit test
        while caller and caller.f_code.co_filename not in watched:
            caller = caller.f_back
        if caller and caller.f_code.co_filename in units:
            if code.co_name not in ("main", "<module>"):
                return None
        elif caller and caller.f_trace is None:
            return None  # run, at some depth, by a call that is not recorded
        if code in unset:
            values = frame.f_locals  # at the call event: the bound arguments
            left = [(name, default) for name, default in unset[code]
                    if _is_default(values[name], default)]
            if left:
                unset[code] = left
            else:
                del unset[code]
        if code.co_filename not in files:  # a generated __init__
            return None
        called.add((code.co_filename, _group(code.co_qualname)))
        return on_line

    def run():
        root = Path(os.path.abspath(package))
        modules = [importlib.import_module(".".join(
            [root.name, *path.relative_to(root).with_suffix("").parts]
        ).removesuffix(".__init__")) for path in _modules(package)]
        defaults.update(_defaults(modules))
        unset.update((code, list(params)) for code, (_, params) in defaults.items())
        entered.update(code.co_filename for code in defaults)
        return traffic()

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    settings = sorted(f"{defaults[code][0]}({name})"
                      for code, params in unset.items() for name, _ in params)
    return ran, called, settings, result


def report(package: Path, ran, called):
    """((functions, members), unrun, (body lines, body lines that never ran))
    from what `traced` recorded: the sorted 'module.qualname' of every public
    module-level function and of every public method or property under
    `package` that was never called, and per function the sorted (line,
    source text) of its body lines outside raise statements that never ran."""
    functions, members, unrun, total = [], [], {}, [0, 0]
    for path in _modules(package):
        module = ".".join(path.relative_to(os.path.abspath(package)).with_suffix("").parts)
        source = path.read_text()
        raises, text = _raise_lines(source), source.splitlines()
        for name, body in sorted(_body_lines(source).items(), key=lambda kv: min(kv[1], default=0)):
            where = f"{module}.{name}"
            if _public(name) and (str(path), name) not in called:
                (members if "." in name else functions).append(where)
            missed = sorted(k for k in body if (str(path), k) not in ran)
            total[0] += len(body)
            total[1] += len(missed)
            missed = [(k, text[k - 1].strip()) for k in missed if k not in raises]
            if missed:
                unrun[where] = missed
    return (sorted(functions), sorted(members)), unrun, total


def _verdict_traffic():
    """Exit code of the pytest run and of the CLI digest."""
    import pytest

    sys.path.insert(0, str(TESTS))
    import cli_digest

    code = pytest.main(["-q", "-p", "no:cacheprovider", *map(str, TRAFFIC)])
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return int(code), cli_digest.main(["--seeds", "3", "--ops", "12"])


def main() -> int:
    # located, not imported: the import runs under the trace, as module-level
    # calls run functions too
    package = Path(importlib.util.find_spec("isomlab").submodule_search_locations[0])
    ran, called, settings, (tests, digest) = traced(package, _verdict_traffic, UNIT_TESTS)
    (functions, members), unrun, (body, missed) = report(package, ran, called)
    print("\nbody lines that no verdict runs, raise statements left out:")
    for where, missed_lines in unrun.items():
        print(f"  {where}")
        for k, source in missed_lines:
            print(f"    {k:5d}  {source}")
    shown = sum(map(len, unrun.values()))
    print(f"{missed} of {body} body lines never ran; {shown} of them outside raise statements")
    if tests or digest:
        print(f"the verdict traffic failed (pytest exit {tests}, cli_digest exit {digest})")
    for heading, listed in [(FUNCTIONS, functions), (MEMBERS, members), (SETTINGS, settings)]:
        if listed:
            print(heading)
            print("\n".join(f"  {where}" for where in listed))
    return 1 if tests or digest or functions or members or settings else 0


if __name__ == "__main__":
    sys.exit(main())
