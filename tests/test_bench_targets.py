"""The benchmark reaches into newtondyn by name: traced runs wrap functions
and methods listed in the TARGETS table of bench/tracing.py, the bench
scripts import names from newtondyn, and bench/checks.py reads fields of
the JobConfig it is given.  A name that no longer resolves breaks every
run, so each one is checked here.  Its runs at seeds other than 0 load
configs whose fields bench/workloads.py shifted, so those must load too.
The bench sources are read with ast: nothing under bench/ is imported or
written."""

import ast
import importlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from newtondyn import poly
from newtondyn.analysis import barna_check
from newtondyn.cli import JobConfig, load_config
from newtondyn.grid import BasinRaster, OccupancyRaster
from newtondyn.newton import build_newton_complex
from newtondyn.poly import UniComplexPoly, batched_complex_roots, univariate_complex_roots

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


def test_every_raster_field_read_by_tracing_exists():
    # the counters in tracing.py read the rasters that render_basins,
    # parameter_scan and backward_tree return through a name 'raster'
    read = {node.attr for node in ast.walk(ast.parse(TRACING.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "raster"}
    assert {"codes", "iterations", "count", "partial"} <= read
    have = {f.name for cls in (BasinRaster, OccupancyRaster) for f in fields(cls)}
    have |= {name for cls in (BasinRaster, OccupancyRaster) for name in vars(cls)}
    assert read <= have, read - have


def test_one_variable_paths_never_reach_multipoly_eval(monkeypatch):
    """tracing.py counts each MultiPoly.eval call as (self, x, y) and reads
    its third argument, so one-variable evaluation must not go through it."""
    two_variable_eval = poly.MultiPoly.eval

    def eval_of_two_or_more(self, *point):
        assert len(point) >= 2, "MultiPoly.eval reached with one coordinate"
        return two_variable_eval(self, *point)

    monkeypatch.setattr(poly.MultiPoly, "eval", eval_of_two_or_more)
    p = UniComplexPoly([-1, 0, 0, 1])
    N = build_newton_complex(p)
    N.step_many(np.array([0.5 + 0.5j, -1.0, 2j]))
    univariate_complex_roots(N.numerator - 0.3j * N.denominator)
    batched_complex_roots(np.array([p.coefficients]))
    barna_check(UniComplexPoly([4.0, 0.0, -5.0, 0.0, 1.0]), samples=2000)


def test_unicomplexpoly_keeps_the_form_the_checker_reads():
    # checks.py builds UniComplexPoly(ascending coefficients), reverses
    # .coefficients for np.roots and builds the Newton map of it
    p = UniComplexPoly([-1, 0, 0, 1])
    assert len(p.coefficients) == 4
    assert p.coefficients[::-1] == (1, 0, 0, -1)
    assert build_newton_complex(p).degree == 3


def _workloads_and_varied_fields():
    """WORKLOADS of bench/workloads.py and the config fields vary_config
    assigns: the keywords of its dict(cfg, ...) copy and each out[...] key."""
    workloads, varied = None, set()
    for node in ast.parse((BENCH / "workloads.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets):
            workloads = ast.literal_eval(node.value)
        elif isinstance(node, ast.FunctionDef) and node.name == "vary_config":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "dict":
                    varied |= {kw.arg for kw in sub.keywords}
                elif isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store):
                    varied.add(ast.literal_eval(sub.slice))
    return workloads, varied


def test_every_benchmark_config_loads_with_its_varied_fields_shifted(tmp_path):
    # each field vary_config moves, alone and all together, by 0.49 of a
    # pixel either way (the box by 1/256 of its span, as vary_config does)
    workloads, varied = _workloads_and_varied_fields()
    assert {"prng_seed", "window", "seed_point", "box"} <= varied
    paths = [BENCH.parent / rel for jobs in workloads.values() for rel in jobs]
    assert len(paths) >= 11
    for path in paths:
        cfg = json.loads(path.read_text())
        xmin, xmax, ymin, ymax = cfg.get("window", (-2.0, 2.0, -2.0, 2.0))
        for frac in (-0.49, 0.49):
            dx = frac * (xmax - xmin) / cfg.get("width", 256)
            dy = frac * (ymax - ymin) / cfg.get("height", 256)
            moved = {"prng_seed": 2**31 - 1}
            if "window" in cfg:
                moved["window"] = [xmin + dx, xmax + dx, ymin + dy, ymax + dy]
            if "seed_point" in cfg:
                moved["seed_point"] = [cfg["seed_point"][0] + dx, cfg["seed_point"][1] + dy]
            if "box" in cfg:
                bx0, bx1, by0, by1 = cfg["box"]
                bx, by = frac * (bx1 - bx0) / 256, frac * (by1 - by0) / 256
                moved["box"] = [bx0 + bx, bx1 + bx, by0 + by, by1 + by]
            assert set(moved) == varied & (set(cfg) | {"prng_seed"}), path.name
            for change in [{key: value} for key, value in moved.items()] + [moved]:
                shifted = tmp_path / path.name
                shifted.write_text(json.dumps(dict(cfg, **change)))
                load_config(str(shifted), cfg["mode"])
