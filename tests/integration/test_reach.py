"""Self-test of the reach gate, ``tools/reach.py``, without its full trace.

The gate itself runs every command under a profile hook and takes about
a minute, so it is a CI step of its own.  These tests pin its parts:
the command list it reads, the inventory key it joins on, the hook in
a real (tiny) subprocess, and the allowlist against ``src/``.
"""

import ast
import functools
import importlib.util
import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

SMOKE = ROOT / "benchmarks" / "ci_smoke.sh"
PACKAGE = (ROOT / "src" / "repro").resolve()


@functools.lru_cache(maxsize=None)
def _src_keys() -> frozenset:
    """``file:name`` of every function under ``src/repro``."""
    return frozenset(f"{path.relative_to(PACKAGE).as_posix()}:{name}"
                     for (path, _), name in reach.inventory().items())


class TestCommands:
    def test_smoke_parse_yields_its_two_run_python_lines(self):
        argvs = reach.smoke_commands(SMOKE, "OUT")
        assert len(argvs) == 2 == SMOKE.read_text().count("\nrun python ")
        run, soak = argvs
        assert run[:4] == ["python", "-m", "repro.cli", "run"]
        assert run[-3:] == ["--quick", "--out", "OUT"]
        assert soak[:4] == ["python", "-m", "repro.cli", "soak"]
        assert soak[soak.index("--json-out") + 1] == "OUT/BENCH_soak.json"

    def test_smoke_runs_exactly_the_experiments_it_has_baselines_for(self):
        """An experiment run without a committed file would fail the
        smoke's diff; a file without a run would go stale unseen."""
        run, _ = reach.smoke_commands(SMOKE, "OUT")
        baselines = ROOT / "benchmarks" / "baselines"
        assert sorted(run[4:-3]) == sorted(
            p.stem for p in baselines.glob("[EX]*.json"))

    def test_continuations_join_and_other_lines_drop(self, tmp_path):
        script = tmp_path / "smoke.sh"
        script.write_text(textwrap.dedent("""\
            run() { "$@"; }
            # run python -m commented --out "$OUT_DIR/x"
            run python -m a.cli one --n 4 \\
              --json-out "$OUT_DIR/one.json"
            echo run python not-a-run-line
            run python -m a.cli two
            """))
        assert reach.smoke_commands(script, "D") == [
            ["python", "-m", "a.cli", "one", "--n", "4", "--json-out",
             "D/one.json"],
            ["python", "-m", "a.cli", "two"]]

    def test_every_command_source_is_read(self):
        argvs = reach.commands("OUT")
        examples = sorted((ROOT / "examples").glob("*.py"))
        spine = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        assert argvs[:2] == reach.smoke_commands(SMOKE, "OUT")
        assert argvs[2:-2] == [["python", f"examples/{p.name}"]
                               for p in examples]
        assert argvs[-2] == ["python", "-m", "repro.cli", "run", "all",
                             "--quick", "--out", "OUT"]
        assert argvs[-1] == [*spine, "--all", "--seconds", "2"]


def _package(tmp_path) -> pathlib.Path:
    """A synthetic ``pkg`` with one function of each kind the gate sees."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent("""\
        import functools


        def used():
            def inner():
                return 1
            return inner()


        def planted():
            return "no command calls me"


        def allowed():
            def nested():
                return 2
            return nested()


        @functools.lru_cache(maxsize=None)
        @functools.wraps(
            used,
        )
        def decorated():
            return 3


        class Box:
            @property
            def size(self):
                return 4

            @staticmethod
            def made():
                return Box()


        def in_child():
            return 5
        """))
    (tmp_path / "run.py").write_text(textwrap.dedent("""\
        import subprocess, sys
        from pkg import mod

        mod.used()
        mod.decorated()
        mod.Box.made().size
        subprocess.run([sys.executable, "-c",
                        "from pkg import mod; mod.in_child()"], check=True)
        """))
    return pkg


class TestInventory:
    def test_key_is_co_firstlineno(self, tmp_path):
        pkg = _package(tmp_path)
        spec = importlib.util.spec_from_file_location("pkg_mod",
                                                      pkg / "mod.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        found = reach.inventory(pkg)
        path = (pkg / "mod.py").resolve()
        codes = {
            "used": mod.used.__code__,
            "decorated": mod.decorated.__wrapped__.__code__,
            "Box.size": mod.Box.size.fget.__code__,
            "Box.made": mod.Box.made.__code__,
        }
        for name, code in codes.items():
            assert found[(path, code.co_firstlineno)] == name
        # the decorated def's key is its first decorator's line
        lines = path.read_text().splitlines()
        first = lines.index("@functools.lru_cache(maxsize=None)") + 1
        assert found[(path, first)] == "decorated"

    def test_nested_functions_are_dotted(self, tmp_path):
        found = reach.inventory(_package(tmp_path))
        assert sorted(found.values()) == [
            "Box.made", "Box.size", "allowed", "allowed.nested",
            "decorated", "in_child", "planted", "used", "used.inner"]

    def test_src_inventory_has_one_key_per_def(self):
        """No two defs of ``src/`` share a key, so none hides another."""
        defs = sum(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for path in PACKAGE.rglob("*.py")
                   for node in ast.walk(ast.parse(path.read_text())))
        assert len(_src_keys()) == defs


class TestTraceAndVerdict:
    """One real traced run of a synthetic package (~0.2 s)."""

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("reach")
        pkg = _package(tmp_path)
        entered, failures = reach.trace([["python", "run.py"]], tmp_path,
                                        str(tmp_path))
        return reach.inventory(pkg), entered, failures, pkg.resolve()

    def test_entered_functions_include_the_subprocess(self, traced):
        found, entered, failures, _ = traced
        assert failures == []
        names = {name for where, name in found.items() if where in entered}
        assert names == {"used", "used.inner", "decorated", "Box.size",
                         "Box.made", "in_child"}

    def test_planted_unreached_function_is_reported(self, traced):
        found, entered, _, pkg = traced
        unreached, stale = reach.verdict(
            found, entered, {"mod.py:allowed": "kept for a test"}, pkg)
        assert unreached == ["mod.py:planted"]
        assert stale == []

    def test_no_allowlist_reports_every_unreached(self, traced):
        found, entered, _, pkg = traced
        unreached, _ = reach.verdict(found, entered, {}, pkg)
        assert unreached == ["mod.py:allowed", "mod.py:allowed.nested",
                             "mod.py:planted"]

    def test_a_file_key_covers_its_functions(self, traced):
        found, entered, _, pkg = traced
        assert reach.verdict(found, entered, {"mod.py": "whole file"},
                             pkg) == ([], [])

    @pytest.mark.parametrize("key", ["mod.py:used", "mod.py:used.inner",
                                     "mod.py:gone", "gone.py"])
    def test_stale_allowlist_keys_are_reported(self, traced, key):
        """Entered functions and names that do not exist may not stay."""
        found, entered, _, pkg = traced
        allowlist = {"mod.py:allowed": "kept", "mod.py:planted": "kept",
                     key: "stale"}
        assert reach.verdict(found, entered, allowlist, pkg) == ([], [key])

    def test_every_dump_keeps_a_file_of_its_own(self, tmp_path):
        """Two dumps of one pid leave two files: a recycled pid cannot
        overwrite an earlier process's dump."""
        hook = tmp_path / "hook.py"
        hook.write_text(reach._HOOK.format(dump_dir=str(tmp_path / "dumps")))
        (tmp_path / "dumps").mkdir()
        subprocess.run([sys.executable, "-c",
                        f"exec(open({str(hook)!r}).read()); _dump(); _dump(); "
                        "import os; os._exit(0)"], check=True)
        assert len(list((tmp_path / "dumps").glob("*.json"))) == 2

    def test_a_failing_command_is_reported(self, tmp_path):
        entered, failures = reach.trace(
            [[sys.executable, "-c", "raise SystemExit(3)"]], tmp_path,
            str(tmp_path))
        assert len(failures) == 1 and failures[0].startswith("exit 3:")


@pytest.mark.parametrize("key", sorted(reach.ALLOWLIST))
def test_allowlist_entry_names_a_function_in_src(key):
    """Each entry keeps something that exists, for one stated reason."""
    keys = _src_keys()
    files = {k.partition(":")[0] for k in keys}
    assert key in (keys if ":" in key else files)
    reason = reach.ALLOWLIST[key]
    assert reason.strip() and "\n" not in reason


def _entries(*reasons) -> list:
    return sorted(k for k, why in reach.ALLOWLIST.items()
                  if why.startswith(reasons))


def _def_node(key):
    """The ``ast`` def an allowlist key names."""
    file, _, name = key.partition(":")
    node = ast.parse((PACKAGE / file).read_text())
    for part in name.split("."):
        node = next(child for child in ast.iter_child_nodes(node)
                    if getattr(child, "name", None) == part)
    return node


@pytest.mark.parametrize("key", _entries("abstract", "protocol stub",
                                         "the no-patch-rule default"))
def test_stub_entries_have_no_body(key):
    """A stub is abstract, or its body only raises, returns a constant or
    is ``...``: nothing there for a command to run."""
    node = _def_node(key)
    body = node.body[1:] if ast.get_docstring(node) else node.body
    decorators = {ast.unparse(d) for d in node.decorator_list}
    assert "abc.abstractmethod" in decorators or all(
        isinstance(stmt, ast.Raise)
        or (isinstance(stmt, (ast.Expr, ast.Return))
            and isinstance(stmt.value, ast.Constant))
        for stmt in body)


@pytest.mark.parametrize("key", _entries("dunder"))
def test_dunder_entries_are_dunders(key):
    name = key.rpartition(".")[2]
    assert name.startswith("__") and name.endswith("__")


@pytest.mark.parametrize("argv", reach.smoke_commands(SMOKE, "OUT"),
                         ids=lambda argv: argv[3])
def test_each_smoke_command_is_a_valid_invocation(argv):
    """Every traced smoke command parses, names registered experiments
    and keeps each soak flag inside its bound: the gate never traces an
    exit-2 run."""
    from repro.cli import _SOAK_BOUNDS, build_parser
    from repro.experiments.runner import EXPERIMENT_IDS

    args = build_parser().parse_args(argv[3:])
    if args.command == "run":
        assert set(args.names) <= set(EXPERIMENT_IDS)
    for flag, bound in _SOAK_BOUNDS if args.command == "soak" else ():
        value = getattr(args, flag[2:].replace("-", "_"))
        assert value is None or not bound(value)
