"""Every default-valued parameter of isomlab has a verdict that sets it,
every public function, method and property runs in a verdict, and every
dataclass field and property is read by one.

Which settings a verdict sets and which public names it reaches is decided
by running it, not by names: `tests/reachability.py` runs the verdict
traffic (the acceptance tests, the CLI tests through `cli.main` and a
`cli_digest` slice of every workload) under a trace.  A public function or
member that never runs is reported, and so is a default-valued parameter of
a public function, method or dataclass `__init__` that no call binds to a
value other than its default: a setting no verdict sets is a second code
path that no verdict takes, or one that only unit tests take.  A call that
spells out the default sets nothing.  The parameters of exception classes
are exempt, since their constructors run in raise statements.

Which dataclass fields and properties a verdict reads is found with the
stdlib `ast` module.  A verdict is code in `src/`, the acceptance tests or
the benchmark; a field that only unit tests read serves none.

Reads are matched by name, not resolved, so a name that some other object
also uses is counted as read whatever it belongs to.  Such names were
checked by hand (grep), and the test-only ones removed: the fields `tau`,
`r` and `uC` of `SectorFrame`, `pair` and `gaps` of `VanishingFit`, `r` of
`StokesResult` and `MonodromyDataSet`, `r` and `tau` of
`CoalescenceReport`, and `tau` of `CellReport`, which attributes of the
same names on other objects (`args.tau`, `cfg.tau`) hid.  `system` of
`SolutionHandle`, which `args.system` and `kv.system` hid, is read for real:
`integrate_path` and `monodromy_loop` transport a handle under its own
system.

Last, no module of `src/` or `tests/` imports a name it never uses, unless
the import says `noqa: F401`.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reachability

ROOT = Path(__file__).resolve().parents[1]


def _trees(*paths):
    """(path, parsed module) of each file among `paths` and each .py file
    under each directory among them."""
    for p in map(Path, paths):
        for path in sorted(p.rglob("*.py")) if p.is_dir() else [p]:
            yield path, ast.parse(path.read_text(), filename=str(path))


def _name(node):
    """The name a call or decorator refers to: f, mod.f and obj.f give f."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _fields(cls: ast.ClassDef):
    """The name of each field of a dataclass."""
    return [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)
            and isinstance(s.target, ast.Name) and "ClassVar" not in ast.unparse(s.annotation)]


def _getattr_readers(trees):
    """Names of the functions that pass one of their parameters to getattr
    as the attribute name; a string given to them names an attribute read."""
    out = {"getattr"}
    for tree in trees:
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            params = {a.arg for a in fn.args.posonlyargs + fn.args.args}
            if any(isinstance(c, ast.Call) and _name(c) == "getattr" and len(c.args) > 1
                   and isinstance(c.args[1], ast.Name) and c.args[1].id in params
                   for c in ast.walk(fn)):
                out.add(fn.name)
    return out


def unread_fields(package, *readers):
    """'module.Class.name' of every field of a public dataclass and every
    property of a public class under `package` that nothing in the `readers`
    (files or directories) reads.  A read is an attribute load of that name,
    or a string constant handed to getattr (directly or through a function
    that passes its parameter on).  Definitions and constructor keywords are not reads;
    like the calls above, reads are matched by name, not resolved."""
    declared = []
    for path, tree in _trees(package):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            if any(_name(d) == "dataclass" for d in cls.decorator_list):
                declared += [(path.stem, cls.name, name) for name in _fields(cls)]
            declared += [(path.stem, cls.name, fn.name) for fn in cls.body
                         if isinstance(fn, ast.FunctionDef)
                         and any(_name(d) == "property" for d in fn.decorator_list)]
    trees = [tree for _, tree in _trees(*readers)]
    via_getattr = _getattr_readers(trees)
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and _name(node) in via_getattr:
                read.update(a.value for a in node.args
                            if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return sorted(f"{mod}.{cls}.{name}" for mod, cls, name in declared if name not in read)


def test_every_field_is_read():
    # a field or property that only unit tests read serves no verdict
    assert unread_fields(ROOT / "src" / "isomlab", ROOT / "src",
                         ROOT / "tests" / "test_acceptance.py", ROOT / "perfbench") == []


def test_reports_exactly_the_fields_nothing_reads(tmp_path):
    # an attribute load and a string handed on to getattr read a field;
    # a store, a constructor keyword and a dict key do not
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class C:\n"
        "    a: int\n"
        "    b: int\n"
        "    c: int\n"
        "    d: int\n"
        "    e: int\n"
        "    @property\n"
        "    def p(self): return 0\n"
        "    @property\n"
        "    def q(self): return 0\n"
        "class _P:\n"
        "    x: int\n"
        "class Plain:\n"
        "    y: int\n"
    )
    (tmp_path / "reads.py").write_text(
        "def pick(obj, key): return getattr(obj, key)\n"
        "obj = C(a=1, b=2, c=3, d=4, e=5)\n"
        "obj.a\n"
        "getattr(obj, 'b')\n"
        "pick(obj, 'c')\n"
        "obj.d = 0\n"
        "{'e': obj.p}\n"
    )
    assert unread_fields(tmp_path / "pkg", tmp_path) == ["mod.C.d", "mod.C.e", "mod.C.q"]


def test_reports_the_fields_only_other_files_read(tmp_path):
    # reads count in the reader directories and reader files alone: a field
    # that only a file outside them reads is reported
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class C:\n"
        "    a: int\n"
        "    b: int\n"
        "    c: int\n"
    )
    (tmp_path / "verdicts").mkdir()
    (tmp_path / "verdicts" / "run.py").write_text("def f(obj): return obj.a\n")
    (tmp_path / "acceptance.py").write_text("def g(obj): return obj.b\n")
    (tmp_path / "unit.py").write_text("def h(obj): return obj.a + obj.b + obj.c\n")
    assert unread_fields(tmp_path / "pkg", tmp_path / "verdicts",
                         tmp_path / "acceptance.py") == ["mod.C.c"]


@pytest.fixture(scope="module")
def unreached(tmp_path_factory):
    """{heading: the public names or settings listed under it} from one run of
    `tests/reachability.py` on the isomlab of this checkout.  What the script
    prints is kept as `reachability.txt` in pytest's base temporary
    directory (`--basetemp`), for a log to show."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "reachability.py")],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)
    (tmp_path_factory.getbasetemp() / "reachability.txt").write_text(proc.stdout)
    lists = {reachability.FUNCTIONS: [], reachability.MEMBERS: [], reachability.SETTINGS: []}
    heading = None
    for line in proc.stdout.splitlines():
        if line in lists:
            heading = line
        elif heading and line.startswith("  "):
            lists[heading].append(line.strip())
        else:
            heading = None
    # the script exits 1 exactly when it lists a name or the traffic failed
    assert proc.returncode == int(any(lists.values())), proc.stdout[-4000:] + proc.stderr[-4000:]
    return lists


def test_every_function_is_reached(unreached):
    # a public function that no verdict runs serves none
    assert unreached[reachability.FUNCTIONS] == []


def test_every_member_is_reached(unreached):
    # a public method or property that no verdict runs serves none
    assert unreached[reachability.MEMBERS] == []


def test_every_default_has_a_caller(unreached):
    # a default that only unit tests set serves no verdict
    assert unreached[reachability.SETTINGS] == []


@pytest.fixture
def traced_package(tmp_path, monkeypatch):
    """reachability.report on a small package whose `run()` is the traffic,
    together with the test of a unit-test file that calls `tested()` and
    `main()` directly, with what `run()` and the test returned."""
    pkg = tmp_path / "reachpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "class C:\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def idle(self):\n"
        "        return 2\n"
        "    @property\n"
        "    def read(self):\n"
        "        return 3\n"
        "    @property\n"
        "    def unread(self):\n"
        "        return 4\n"
        "    def __str__(self):\n"
        "        return 'C'\n"
        "    def _private(self):\n"
        "        return 5\n"
        "def run():\n"
        "    c = C()\n"
        "    if False:\n"
        "        dead()\n"
        "    try:\n"
        "        check(-1)\n"
        "    except ValueError:\n"
        "        pass\n"
        "    return c.used() + c.read + len(str(c))\n"
        "def check(x):\n"
        "    if x < 0:\n"
        "        refuse(x)\n"
        "    return x\n"
        "def refuse(x):\n"
        "    raise ValueError(\n"
        "        x)\n"
        "def dead():\n"
        "    return 6\n"
        "def idle():\n"
        "    return 7\n"
        "def tested():\n"
        "    return inner()\n"
        "def inner():\n"
        "    return 8\n"
        "def main():\n"
        "    return entry()\n"
        "def entry():\n"
        "    return 9\n"
    )
    unit = tmp_path / "reachunit.py"
    unit.write_text("from reachpkg import mod\n"
                    "def test():\n"
                    "    return mod.tested() + mod.main()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        ran, called, _, result = reachability.traced(
            pkg, lambda: (importlib.import_module("reachpkg.mod").run(),
                          importlib.import_module("reachunit").test()), [unit])
    finally:
        for name in ("reachunit", "reachpkg.mod", "reachpkg"):
            sys.modules.pop(name, None)
    return reachability.report(pkg, ran, called), result


def test_reports_exactly_the_functions_nothing_reaches(traced_package):
    # a function nothing calls, one whose only call sits in an `if False:`
    # branch and one that only a unit-test file calls, with what it calls,
    # are reported; one that only a refusal reaches runs, and so does what
    # the unit-test file reaches through main
    ((functions, _), unrun, _), result = traced_package
    assert result == (5, 17)
    assert functions == ["mod.dead", "mod.idle", "mod.inner", "mod.tested"]
    # the raise statement of refuse is left out of the lines that never ran
    assert unrun["mod.check"] == [(28, "return x")]
    assert "mod.refuse" not in unrun


def test_reports_exactly_the_members_nothing_reaches(traced_package):
    # a method nothing calls and a property nothing reads are reported;
    # __str__ runs through str(), and private members are not checked
    ((_, members), unrun, _), _ = traced_package
    assert members == ["mod.C.idle", "mod.C.unread"]
    assert unrun == {
        "mod.C.idle": [(5, "return 2")], "mod.C.unread": [(11, "return 4")],
        "mod.C._private": [(15, "return 5")], "mod.check": [(28, "return x")],
        "mod.dead": [(33, "return 6")], "mod.idle": [(35, "return 7")],
        "mod.tested": [(37, "return inner()")], "mod.inner": [(39, "return 8")],
    }


def test_reports_exactly_the_defaults_no_call_sets(tmp_path, monkeypatch):
    # a recorded call sets a parameter by binding another value to it, by
    # position or keyword, in a dataclass's generated __init__ too; a value
    # equal to a number or string default, the default object itself, a
    # call from a unit-test file other than main and a call in a branch that
    # never runs set nothing; private callables and exception classes are
    # not checked
    pkg = tmp_path / "setpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "from dataclasses import dataclass, field\n"
        "NONE = None\n"
        "def f(x, a=1, b=2.0, *, c=None, d='s'):\n"
        "    return x\n"
        "def g(x, e=0):\n"
        "    return x\n"
        "def _h(x, k=5):\n"
        "    return x\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: list = field(default_factory=list)\n"
        "    w: int = 0\n"
        "    def m(self, v=1):\n"
        "        return v\n"
        "    @staticmethod\n"
        "    def s(t=1):\n"
        "        return t\n"
        "class Refused(ValueError):\n"
        "    def __init__(self, message, code=0):\n"
        "        super().__init__(message)\n"
        "def run():\n"
        "    f(0, 5, 2, c=NONE, d='s')\n"
        "    f(0, d='t')\n"
        "    C(0, 1)\n"
        "    C(0, z=[])\n"
        "    C(0).m(1)\n"
        "    C.s(t=2)\n"
        "    if False:\n"
        "        C(0, w=1)\n"
        "    try:\n"
        "        raise Refused('no')\n"
        "    except Refused:\n"
        "        pass\n"
        "def main(flag=False):\n"
        "    return flag\n"
    )
    unit = tmp_path / "setunit.py"
    unit.write_text("from setpkg import mod\n"
                    "def test():\n"
                    "    return mod.g(0, e=1), mod.main(flag=True)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        _, _, settings, _ = reachability.traced(
            pkg, lambda: (importlib.import_module("setpkg.mod").run(),
                          importlib.import_module("setunit").test()), [unit])
    finally:
        for name in ("setunit", "setpkg.mod", "setpkg"):
            sys.modules.pop(name, None)
    assert settings == ["mod.C.__init__(w)", "mod.C.m(v)", "mod.f(b)", "mod.f(c)", "mod.g(e)"]


def unused_imports(*paths):
    """'file:line name' of every name that a module among `paths` (files or
    directories) imports and no Name node of that module loads, unless the
    import's line says `noqa: F401`.  Package `__init__` modules, which
    import to re-export, and `__future__` imports are not checked; a name
    mentioned only in a string is unused."""
    out = []
    for path, tree in _trees(*paths):
        if path.stem == "__init__":
            continue
        lines = path.read_text().splitlines()
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if (name != "*" and name not in used
                        and "noqa: F401" not in lines[alias.lineno - 1]):
                    out.append(f"{path.relative_to(path.parents[1])}:{alias.lineno} {name}")
    return out


def test_no_unused_imports():
    assert unused_imports(ROOT / "src", ROOT / "tests") == []


def test_reports_exactly_the_unused_imports(tmp_path):
    # a load of the name, also as an attribute root, in an annotation or in
    # a nested function, uses an import; a string, a store and an attribute
    # of the same name do not; noqa: F401, __future__ and __init__ are exempt
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("from .mod import f\n")
    (tmp_path / "pkg" / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,\n"
        "    e,  # noqa: F401\n"
        ")\n"
        "from cmath import inf, nan\n"
        "from typing import Any\n"
        "from re import sub\n"
        "def f(x: Any):\n"
        "    def g():\n"
        "        return os.path.join(pi)\n"
        "    sub = 0\n"
        "    return g, js.dumps, 'tau', x.nan, inf\n"
    )
    assert unused_imports(tmp_path / "pkg") == [
        "pkg/mod.py:6 tau", "pkg/mod.py:9 nan", "pkg/mod.py:11 sub",
    ]
