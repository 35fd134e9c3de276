"""Traced benchmark runs wrap newtondyn functions and methods by name (the
TARGETS table of bench/tracing.py); a name that no longer resolves breaks
every traced run, so each one is checked here.  The table is read from the
source with ast: nothing under bench/ is imported or written."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
