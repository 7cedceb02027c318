"""Nothing in `src/dcpnet` that only tests read: every function, class, module
constant, method and property is reached from the package's own code, its
`__init__` or the benchmark, and a read counts only from code that is itself
reached."""

import ast
import os
import subprocess
import sys
import tomllib
from importlib import import_module
from pathlib import Path

import pytest

from dcpnet import cli

SRC = Path(cli.__file__).parent
ROOT = SRC.parents[1]

# DCPM's executable spec: the bytes `transmit` charges for are the length of
# `serialize_message` (test_transmit_charges_and_delivers_what_the_codec_carries),
# and the acceptance tests fuzz the pair.  They stay until a send path serializes.
ALLOWED = {"protocol.ProtocolMessage", "protocol.serialize_message", "protocol.parse_message"}

# reached only through benchmarks/: when the benchmark stops reading one, it leaves src
BENCHMARK_HELD = {"harness.init_dcp_params", "metrics.miou", "metrics.split_miou", "protocol.CommLedger.counts"}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _targets(stmt):
    """Names a top-level assignment binds."""
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and not _dunder(n.id)]


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each top-level function, class and constant of
    `tree` and of each class's methods and properties; dunders are Python's hooks."""
    for stmt in tree.body:
        if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
            yield f"{module}.{stmt.name}", stmt
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, _FUNCTIONS) and not _dunder(item.name):
                        yield f"{module}.{stmt.name}.{item.name}", item
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for name in _targets(stmt):
                yield f"{module}.{name}", stmt


def _owned(module: str, tree: ast.Module):
    """(owner, node) for every node of `tree`: the innermost definition that
    holds it, or None for module-level code that runs on import."""
    for stmt in tree.body:
        owner = None
        methods = {}  # id of a method node -> its qualified name
        if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
            owner = f"{module}.{stmt.name}"
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and _targets(stmt):
            owner = f"{module}.{_targets(stmt)[0]}"
        if isinstance(stmt, ast.ClassDef):
            methods = {id(item): f"{owner}.{item.name}" for item in stmt.body
                       if isinstance(item, _FUNCTIONS) and not _dunder(item.name)}
        for part in ast.iter_child_nodes(stmt) if methods else [stmt]:
            for node in ast.walk(part):
                yield methods.get(id(part), owner), node


def _reads(module: str | None, tree: ast.Module, defs: set[str], package: set[str]):
    """(owner, qualified name) of every read in `tree` of a definition in `defs`.

    A bare name reads its own module's definition or what a `from` import bound
    it to; `mod.x` reads module `mod`'s x; any other `obj.x` reads every method
    or property named x.  `package` holds the module names of `src/dcpnet`."""
    modules, names = {}, {}  # local name -> module, local name -> qualified name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix("dcpnet").lstrip(".")
            for alias in node.names:
                if not source and alias.name in package:
                    modules[alias.asname or alias.name] = alias.name
                elif source in package:
                    names[alias.asname or alias.name] = f"{source}.{alias.name}"
    methods: dict[str, set[str]] = {}
    for q in defs:
        if q.count(".") == 2:
            methods.setdefault(q.rsplit(".", 1)[1], set()).add(q)
    for owner, node in _owned(module or "", tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            hits = {names.get(node.id, f"{module}.{node.id}")}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            hits = {f"{modules[base]}.{node.attr}"} if base in modules else methods.get(node.attr, set())
        else:
            continue
        for q in hits & defs:
            yield (owner if module else None), q


def _traced(tree: ast.Module):
    """The qualified names that the dotted strings of `tracing.TARGETS` patch, as
    "training.Adam.step": the class and its method."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _targets(stmt) == ["TARGETS"]:
            for entry in stmt.value.elts:
                parts = entry.elts[0].value.split(".")
                yield from (".".join(parts[:k]) for k in range(2, len(parts) + 1))


def unreached(src: dict[str, str], benchmarks: dict[str, str]) -> tuple[set[str], set[str]]:
    """(definitions nothing reaches, definitions only `benchmarks` reach) of the
    modules in `src` (name -> source), read until no more are reached."""
    trees = {name: ast.parse(text) for name, text in src.items()}
    defs = {q for name, tree in trees.items() for q, _ in _definitions(name, tree)}
    package = set(trees)
    edges = {(owner, q) for name, tree in trees.items() if name != "__init__"
             for owner, q in _reads(name, tree, defs, package)}
    # the package's imports, which `__all__` lists, are its public names
    edges |= {(None, f"{node.module}.{alias.name}") for node in ast.walk(trees.get("__init__", ast.Module([], [])))
              if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    edges |= {(None, q) for q in ALLOWED}
    outside = set()
    for name, text in benchmarks.items():
        tree = ast.parse(text)
        outside |= {q for _, q in _reads(None, tree, defs, package)}
        outside |= set(_traced(tree)) if name == "tracing" else set()

    def reach(roots):
        reached = set()
        while True:
            live = roots | {q for owner, q in edges if owner is None or owner in reached}
            grown = {q for q in live & defs if q.count(".") < 2 or q.rsplit(".", 1)[0] in reached}
            if grown == reached:
                return reached
            reached = grown

    reached = reach(outside)
    return defs - reached, reached - reach(set())


def _sources(path: Path) -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(path.glob("*.py"))}


@pytest.mark.parametrize("src, bench, flagged", [
    pytest.param({"m": "def f():\n    pass"}, {}, {"m.f"}, id="unread-function"),
    pytest.param({"m": "def f():\n    return g()\ndef g():\n    pass"}, {}, {"m.f", "m.g"},
                 id="helper-of-an-unread-function"),
    pytest.param({"m": "def f():\n    return f()"}, {}, {"m.f"}, id="read-only-by-itself"),
    pytest.param({"m": "K = 3\ndef f():\n    return K"}, {}, {"m.K", "m.f"}, id="constant-of-an-unread-function"),
    pytest.param({"m": "class C:\n    def m(self):\n        pass\ndef f():\n    C().m()"}, {},
                 {"m.C", "m.C.m", "m.f"}, id="method-of-an-unread-class"),
    pytest.param({"m": "class C:\n    def m(self):\n        pass\nC()"}, {}, {"m.C.m"}, id="unread-method"),
    pytest.param({"m": "def f():\n    pass", "n": "from . import m\nm.f()"}, {}, set(), id="read-by-a-sibling-module"),
    pytest.param({"m": "def f():\n    pass", "n": "from .m import f as g\ng()"}, {}, set(), id="read-by-a-from-import"),
    pytest.param({"m": "def f():\n    pass", "n": "from .m import f\ndef h():\n    f()"}, {}, {"n.h", "m.f"},
                 id="imported-by-an-unread-function"),
    pytest.param({"m": "def f():\n    pass", "__init__": "from .m import f"}, {}, set(), id="listed-in-init"),
    pytest.param({"m": "class C:\n    def m(self):\n        pass", "n": "from .m import C\nC().m()"}, {}, set(),
                 id="method-read-by-attribute"),
    pytest.param({"m": "def f():\n    pass"}, {"tracing": "TARGETS = [('m.f', 'm.f', None)]"}, set(),
                 id="named-by-a-tracer-string"),
    pytest.param({"m": "class C:\n    def m(self):\n        pass"}, {"tracing": "TARGETS = [('m.C.m', 'm.m', None)]"},
                 set(), id="method-named-by-a-tracer-string"),
    pytest.param({"m": "def f():\n    pass"}, {"run": "from dcpnet import m\nm.f()"}, set(), id="read-by-the-benchmark"),
    pytest.param({"m": "def f():\n    pass"}, {"tracing": "NAMES = ['m.f']"}, {"m.f"}, id="a-string-outside-targets"),
])
def test_the_reach_finder(src, bench, flagged):
    assert unreached(src, bench)[0] == flagged


def test_benchmark_held_names_are_those_only_the_benchmark_reads():
    src = {"m": "def f():\n    pass\ndef g():\n    pass\ng()"}
    assert unreached(src, {"run": "from dcpnet import m\nm.f()\nm.g()"}) == (set(), {"m.f"})


def test_every_definition_in_src_is_reached_and_the_benchmark_holds_only_what_it_lists():
    flagged, held = unreached(_sources(SRC), _sources(ROOT / "benchmarks"))
    assert flagged == set()
    assert held == BENCHMARK_HELD
    # the allowlist names live definitions, so it cannot hide a typo
    for q in ALLOWED | BENCHMARK_HELD:
        owner = import_module(f"dcpnet.{q.split('.')[0]}")
        for part in q.split(".")[1:]:
            owner = getattr(owner, part)


def test_python_m_dcpnet_lists_every_command():
    run = subprocess.run([sys.executable, "-m", "dcpnet", "--help"], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    assert "{gen,train,eval,sweep,report,experiment}" in run.stdout


def test_the_console_script_is_cli_main():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["dcpnet"].partition(":")
    assert getattr(import_module(module), attr) is cli.main
