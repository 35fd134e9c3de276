"""The benchmark reaches into newtondyn by name: traced runs wrap functions
and methods listed in the TARGETS table of bench/tracing.py, the bench
scripts import names from newtondyn, and bench/checks.py reads fields of
the JobConfig it is given.  A name that no longer resolves breaks every
run, so each one is checked here.  The bench sources are read with ast:
nothing under bench/ is imported or written."""

import ast
import importlib
from dataclasses import fields
from pathlib import Path

from newtondyn.cli import JobConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _tables():
    """{name: value} of the tuple tables assigned at the top of tracing.py,
    each row of TARGETS cut to its literal (span, module, attribute)."""
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("MODULES", "TARGETS"):
                    rows = node.value.elts
                    tables[target.id] = (
                        [tuple(ast.literal_eval(e) for e in row.elts[:3]) for row in rows]
                        if target.id == "TARGETS" else [ast.literal_eval(e) for e in rows])
    return tables


def test_every_traced_name_resolves_in_newtondyn():
    tables = _tables()
    assert len(tables["TARGETS"]) >= 20
    modules = {m: importlib.import_module("newtondyn." + m) for m in tables["MODULES"]}
    for span, module, attr in tables["TARGETS"]:
        owner = modules[module]
        if "." in attr:
            cls_name, method = attr.split(".")
            # tracing replaces the method in the class's own namespace
            assert method in vars(getattr(owner, cls_name)), span
        else:
            assert callable(getattr(owner, attr, None)), span


def _bench_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))}


def _dotted(node):
    """'a.b.c' for an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_every_bench_import_from_newtondyn_resolves():
    checked = 0
    for name, tree in _bench_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("newtondyn"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{name}: {node.module}.{alias.name}"
                    checked += 1
            elif isinstance(node, ast.Attribute):
                # newtondyn.<module>.<attribute>, as after 'import newtondyn.cli'
                dotted = (_dotted(node) or "").split(".")
                if dotted[0] == "newtondyn" and len(dotted) == 3:
                    module = importlib.import_module(".".join(dotted[:2]))
                    assert hasattr(module, dotted[2]), f"{name}: {'.'.join(dotted)}"
                    checked += 1
    assert checked >= 10


def test_every_job_field_read_by_the_checker_exists():
    tree = _bench_trees()["checks.py"]
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "job"}
    assert {"mode", "outputs", "params"} <= read
    assert read <= {f.name for f in fields(JobConfig)}, read - {f.name for f in fields(JobConfig)}
