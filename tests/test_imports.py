"""Static checks on the hullsolve modules, with the stdlib ast module.

- A stand-in for a linter's unused-import rule: each module under
  src/hullsolve except the package __init__ must use each name it imports
  (load it, or read an attribute of it), or list it in __all__.
- Every name a module lists in __all__ is defined at its module level.
- No module but cli calls print: the library reports through its return
  values and logging.
- These three checks also cover tests/oracles.py, the ground truth the
  tests use, which is a module of the same kind.
- Every module-level UPPER_CASE constant is read somewhere in the package,
  by name or as a module attribute; an __all__ entry or an import alone
  does not count, so a constant whose last reader is gone shows up.
- Every exception class of the package derives from ValueError, directly
  or through another class of the package, and the except clauses of
  cli.main name only built-in exceptions: cli.main catches every error
  the library raises without importing one.
- SolveConfig holds only what both solvers read: two_phase and
  incremental each read every one of its fields as an attribute, and
  hull reads every HullConfig field. Reads in __post_init__ and in the
  check_run_settings the two configs share are validation, not use, and
  do not count.
- No solver module imports another: two_phase and incremental import
  from hull and system alone, where the stop rule they share lives.
- The top level of hullsolve is the library API alone; every other name
  is imported from the module that defines it.
"""

import ast
import builtins
import re
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hullsolve"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used | exported)


def undefined_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    defined: set[str] = set()
    exported: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined.update(names)
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in defined]


def print_calls(source: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


def test_check_finds_unused_names():
    source = "import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nsys.exit(0)\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", [*MODULES, ORACLES], ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checks_find_undefined_exports_and_prints():
    source = "import os\nX = 1\n__all__ = ['X', 'os', 'gone']\ndef f():\n    print(X)\n"
    assert undefined_exports(source) == ["gone"]
    assert print_calls(source) == [5]


@pytest.mark.parametrize("path", [*ALL_MODULES, ORACLES], ids=lambda p: p.name)
def test_module_defines_its_exports(path):
    assert undefined_exports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", [p for p in [*ALL_MODULES, ORACLES] if p.name != "cli.py"], ids=lambda p: p.name
)
def test_library_module_does_not_print(path):
    assert print_calls(path.read_text(encoding="utf-8")) == []


def unread_constants(sources: dict[str, str]) -> list[str]:
    """module.NAME for each module-level UPPER_CASE constant of sources
    ({module: source}) that no module reads."""
    defined: list[str] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend(
                    f"{module}.{t.id}"
                    for t in targets
                    if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in defined if name.split(".", 1)[1] not in read]


def test_check_finds_unread_constants():
    sources = {
        "a": "X = 1\nY: int = 2\nZ = 3\n_W = 4\nlower = 5\n__all__ = ['X', 'Y']\n",
        "b": "from .a import X, Y, _W\nimport a\n\ndef f():\n    return X + a.Z\n",
    }
    assert unread_constants(sources) == ["a.Y", "a._W"]


def test_every_constant_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in ALL_MODULES}
    assert unread_constants(sources) == []


def is_builtin_exception(name: str, kind: type = BaseException) -> bool:
    """Whether name is a built-in subclass of kind."""
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, kind)


def exception_classes(sources: list[str]) -> dict[str, bool]:
    """{class: whether it derives from ValueError} for each class of sources
    that derives from a built-in exception, directly or through classes
    defined in sources; a base is matched by its last dotted name."""
    bases: dict[str, list[str]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases]

    def roots(name: str) -> set[str]:
        if name not in bases:
            return {name}
        return set().union(*map(roots, bases[name]))

    return {
        name: any(is_builtin_exception(r, ValueError) for r in roots(name))
        for name in bases
        if any(is_builtin_exception(r) for r in roots(name))
    }


def handler_types(source: str, function: str) -> list[str]:
    """The exception types the except clauses of function name, as
    written; a bare except is listed as 'except:'."""
    tree = ast.parse(source)
    body = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == function
    )
    names: list[str] = []
    for node in ast.walk(body):
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                names.append("except:")
            else:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names.extend(ast.unparse(t) for t in types)
    return names


def test_checks_find_other_exceptions_and_handlers():
    sources = [
        "class A(ValueError):\n    pass\nclass B(A):\n    pass\nclass C(Exception):\n    pass\n",
        "import x\nclass D(x.C):\n    pass\nclass E(KeyError):\n    pass\n"
        "class F:\n    pass\nclass G(UnicodeError):\n    pass\n",
    ]
    assert exception_classes(sources) == {
        "A": True, "B": True, "C": False, "D": False, "E": False, "G": True
    }
    source = (
        "def main():\n    try:\n        run()\n"
        "    except (ValueError, matio.ParseError) as exc:\n        pass\n"
        "    except OSError:\n        pass\n    except:\n        pass\n"
        "def other():\n    try:\n        run()\n    except Custom:\n        pass\n"
    )
    types = handler_types(source, "main")
    assert types == ["ValueError", "matio.ParseError", "OSError", "except:"]
    assert [t for t in types if not is_builtin_exception(t)] == ["matio.ParseError", "except:"]


def test_every_exception_is_a_value_error():
    classes = exception_classes([p.read_text(encoding="utf-8") for p in ALL_MODULES])
    assert {"ParseError", "SingularMatrixError", "DegeneratePivot"} <= set(classes)
    assert [name for name, is_value_error in classes.items() if not is_value_error] == []


def test_cli_main_catches_only_builtins():
    types = handler_types((PACKAGE / "cli.py").read_text(encoding="utf-8"), "main")
    assert types and [t for t in types if not is_builtin_exception(t)] == []


VALIDATORS = {"__post_init__", "check_run_settings"}


def config_fields(source: str, name: str) -> list[str]:
    """The annotated fields of class name in source, in order."""
    node = next(
        n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef) and n.name == name
    )
    return [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]


def unread_fields(fields: list[str], sources: dict[str, str]) -> list[str]:
    """module.field for each field that a module of sources ({module:
    source}) never reads as an attribute outside the VALIDATORS."""
    unread = []
    for module, source in sources.items():
        tree = ast.parse(source)
        skipped = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name in VALIDATORS
            for n in ast.walk(f)
        }
        read = {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in skipped
        }
        unread.extend(f"{module}.{field}" for field in fields if field not in read)
    return unread


def test_check_finds_stray_fields():
    config = (
        "@dataclass\nclass Config:\n    used: int = 1\n    stray: int = 2\n"
        "    def __post_init__(self):\n        check_run_settings(self)\n"
        "        assert self.stray\n"
        "def check_run_settings(config):\n    assert config.stray and config.used\n"
    )
    fields = config_fields(config, "Config")
    assert fields == ["used", "stray"]
    readers = {"a": "def f(config):\n    return config.used\n", "b": "x = config.stray\n"}
    assert unread_fields(fields, {"config": config, **readers}) == [
        "config.used", "config.stray", "a.stray", "b.used"
    ]


def test_solve_config_holds_what_both_solvers_read():
    fields = config_fields((PACKAGE / "system.py").read_text(encoding="utf-8"), "SolveConfig")
    assert fields == ["epsilon0", "max_iterations", "init_coeffs", "record_trace"]
    solvers = {m: (PACKAGE / f"{m}.py").read_text(encoding="utf-8") for m in ("two_phase", "incremental")}
    assert unread_fields(fields, solvers) == []


def test_hull_reads_every_hull_config_field():
    source = (PACKAGE / "hull.py").read_text(encoding="utf-8")
    assert unread_fields(config_fields(source, "HullConfig"), {"hull": source}) == []


def package_imports(source: str) -> set[str]:
    """The hullsolve modules a module imports from, by relative or
    absolute import."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                modules.update(
                    [node.module] if node.module else [alias.name for alias in node.names]
                )
            elif node.module and node.module.split(".")[0] == "hullsolve":
                modules.add(node.module.partition(".")[2] or "hullsolve")
        elif isinstance(node, ast.Import):
            modules.update(
                alias.name.partition(".")[2] or "hullsolve"
                for alias in node.names
                if alias.name.split(".")[0] == "hullsolve"
            )
    return modules


def test_check_finds_package_imports():
    source = (
        "import numpy as np\nfrom .hull import find_pivot\nfrom . import system\n"
        "import hullsolve.matio\nfrom hullsolve.two_phase import solve_nonneg\n"
    )
    assert package_imports(source) == {"hull", "system", "matio", "two_phase"}


@pytest.mark.parametrize("solver", ["two_phase", "incremental"])
def test_no_solver_imports_another(solver):
    # Both solvers stop by the one rule in system; neither reaches into
    # the other for it.
    source = (PACKAGE / f"{solver}.py").read_text(encoding="utf-8")
    assert package_imports(source) <= {"hull", "system"}


def test_top_level_is_the_library_api():
    # The solvers, the hull query, the analysis, their configs and
    # outcomes, the statuses and the two exceptions a caller handles; the
    # kernel, escalation and Phase 1 names stay on their modules.
    import hullsolve

    names = {
        name for name, value in vars(hullsolve).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == {
        "LinearSystem", "SolveConfig", "SolveOutcome", "solve_nonneg", "solve_incremental",
        "HullInstance", "HullConfig", "HullOutcome", "run_hull",
        "analyze_system", "SystemAnalysis",
        "IN_HULL_APPROX", "NOT_IN_HULL", "CAP_EXCEEDED", "CONVERGED", "INFEASIBLE_NONNEG",
        "SingularMatrixError", "DegeneratePivot",
    }
    assert hullsolve.__version__
