"""Tests for the config-driven command line front end."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from newtondyn.grid import (
    Window,
    BasinRaster,
    OccupancyRaster,
    CODE_CYCLE,
    CODE_ESCAPED,
    CODE_SINGULAR,
    CODE_UNDECIDED,
)
from newtondyn import analysis, backward, cli, forward, newton, poly
from newtondyn.backward import backward_tree
from newtondyn.forward import _family_coefficients, classify_orbit
from newtondyn.newton import build_newton_complex
from newtondyn.poly import UniComplexPoly
from newtondyn.cli import (
    ConfigError,
    MODES,
    PALETTE,
    SCHEMA_VERSION,
    load_config,
    main,
    run_job,
    write_raster,
)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def cubic_basins_config(tmp_path, **overrides):
    payload = {
        "mode": "basins",
        "map": {"kind": "complex", "polynomial": "z^3 - 1", "variable": "z"},
        "window": [-2.0, 2.0, -2.0, 2.0],
        "width": 60,
        "height": 60,
    }
    payload.update(overrides)
    return write_config(tmp_path, "job.json", payload)


class TestLoadConfig:
    def test_defaults_and_echo(self, tmp_path):
        path = cubic_basins_config(tmp_path)
        job = load_config(path, "basins")
        assert job.mode == "basins"
        assert job.map_kind == "complex"
        assert job.window == (-2.0, 2.0, -2.0, 2.0)
        assert (job.width, job.height) == (60, 60)
        assert job.prng_seed == 0
        assert job.raw["map"]["polynomial"] == "z^3 - 1"

    def test_seed_and_thread_overrides(self, tmp_path):
        path = cubic_basins_config(tmp_path, prng_seed=3)
        job = load_config(path, "basins", seed_override=7,
                          threads_override=2)
        assert job.prng_seed == 7
        assert job.threads == 2
        assert job.raw["prng_seed"] == 7

    def test_mode_mismatch(self, tmp_path):
        path = cubic_basins_config(tmp_path)
        with pytest.raises(ConfigError):
            load_config(path, "barna")

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"line 1, column"):
            load_config(str(path), "basins")

    def test_bad_polynomial_reports_column(self, tmp_path):
        path = cubic_basins_config(tmp_path)
        cfg = json.loads((tmp_path / "job.json").read_text())
        cfg["map"]["polynomial"] = "z^3 + q"
        path = write_config(tmp_path, "bad.json", cfg)
        with pytest.raises(ConfigError, match=r"column"):
            load_config(path, "basins")

    def test_missing_mode_fields(self, tmp_path):
        path = cubic_basins_config(tmp_path, mode="alpha-tree")
        with pytest.raises(ConfigError, match="seed_point"):
            load_config(path, "alpha-tree")

    def test_bad_scan_override(self, tmp_path):
        path = cubic_basins_config(tmp_path, scan={"bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path, "basins")
        path = cubic_basins_config(tmp_path, scan={"max_iter": 0})
        with pytest.raises(ConfigError):
            load_config(path, "basins")

    def test_rational_map_rejected_for_basins(self, tmp_path):
        path = cubic_basins_config(tmp_path)
        cfg = json.loads((tmp_path / "job.json").read_text())
        cfg["map"] = {"kind": "rational", "numerator": "z^2",
                      "denominator": "z"}
        path = write_config(tmp_path, "rat.json", cfg)
        with pytest.raises(ConfigError):
            load_config(path, "basins")

    def test_planar_alpha_needs_domain(self, tmp_path):
        payload = {
            "map": {"kind": "planar", "first": "y - x^2",
                    "second": "x - 2 + 4*y - y^2"},
            "seed_point": [0.0, -1.0],
            "depth": 3,
        }
        path = write_config(tmp_path, "p.json", payload)
        with pytest.raises(ConfigError, match="domain"):
            load_config(path, "alpha-tree")


class TestWriteRaster:
    def test_single_pixel_palette_zero(self, tmp_path):
        raster = BasinRaster(Window(-1, 1, -1, 1), 1, 1,
                             np.array([[0]], dtype=np.int32),
                             np.array([[1]], dtype=np.int32),
                             {0: 1.0 + 0.0j})
        path = tmp_path / "one.ppm"
        write_raster(raster, path)
        data = path.read_bytes()
        assert data == b"P6\n1 1\n255\n" + bytes((230, 57, 70))
        assert len(data) == 14

    def test_special_codes_and_palette_wrap(self, tmp_path):
        codes = np.array([[CODE_CYCLE, CODE_ESCAPED],
                          [CODE_SINGULAR, CODE_UNDECIDED],
                          [9, 1]], dtype=np.int32)
        raster = BasinRaster(Window(-1, 1, -1, 1), 2, 3, codes,
                             np.ones_like(codes), {})
        path = tmp_path / "codes.ppm"
        write_raster(raster, path)
        data = path.read_bytes()
        assert data.startswith(b"P6\n2 3\n255\n")
        body = data[len(b"P6\n2 3\n255\n"):]
        pixels = [tuple(body[i:i + 3]) for i in range(0, 18, 3)]
        assert pixels[0] == (0, 255, 255)
        assert pixels[1] == (255, 255, 255)
        assert pixels[2] == (128, 128, 128)
        assert pixels[3] == (0, 0, 0)
        assert pixels[4] == PALETTE[9 % len(PALETTE)]
        assert pixels[5] == PALETTE[1]

    def test_empty_occupancy_is_all_white(self, tmp_path):
        raster = OccupancyRaster(Window(-1, 1, -1, 1), 4, 2,
                                 np.zeros((2, 4), dtype=bool))
        path = tmp_path / "empty.ppm"
        write_raster(raster, path)
        body = path.read_bytes()[len(b"P6\n4 2\n255\n"):]
        assert body == b"\xff" * (4 * 2 * 3)

    def test_occupancy_black_on_white(self, tmp_path):
        bits = np.zeros((1, 2), dtype=bool)
        bits[0, 1] = True
        raster = OccupancyRaster(Window(-1, 1, -1, 1), 2, 1, bits)
        path = tmp_path / "bit.ppm"
        write_raster(raster, path)
        body = path.read_bytes()[len(b"P6\n2 1\n255\n"):]
        assert body == b"\xff\xff\xff\x00\x00\x00"


class TestRunJob:
    def test_basins_job(self, tmp_path):
        path = cubic_basins_config(tmp_path)
        job = load_config(path, "basins")
        report, written = run_job(job, out_dir=tmp_path / "out")
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["mode"] == "basins"
        fr = report["statistics"]["basin_fractions"]
        assert sum(fr.values()) == pytest.approx(1.0, abs=1e-3)
        assert "scan" in report["tolerances"]
        assert (tmp_path / "out" / "basins.ppm").exists()
        reread = json.loads((tmp_path / "out" / "basins.json").read_text())
        assert reread["statistics"]["basin_fractions"] == fr

    def test_alpha_tree_matches_direct_call(self, tmp_path):
        payload = {
            "map": {"kind": "complex", "polynomial": "z^3 - 1"},
            "window": [-2.0, 2.0, -2.0, 2.0],
            "width": 64, "height": 64,
            "seed_point": [5.0, 1.0],
            "depth": 4,
            "compare_boundary": False,
        }
        path = write_config(tmp_path, "tree.json", payload)
        job = load_config(path, "alpha-tree")
        report, _ = run_job(job, out_dir=tmp_path)
        direct = backward_tree(job.newton, 5.0 + 1.0j, 4,
                               window=(-2, 2, -2, 2), width=64, height=64)
        assert report["statistics"]["pixel_count"] == direct.count
        assert "boundary_comparison" not in report["statistics"]
        assert report["tolerances"]["depth"] == 4

    def test_alpha_tree_boundary_comparison_included(self, tmp_path):
        payload = {
            "map": {"kind": "complex", "polynomial": "z^3 - 1"},
            "window": [-2.0, 2.0, -2.0, 2.0],
            "width": 64, "height": 64,
            "seed_point": [5.0, 1.0],
            "depth": 5,
        }
        path = write_config(tmp_path, "tree.json", payload)
        report, written = run_job(load_config(path, "alpha-tree"),
                                  out_dir=tmp_path)
        cmp = report["statistics"]["boundary_comparison"]
        assert cmp["alpha_pixel_count"] > 0
        assert cmp["hausdorff_pixels"] == cmp["alpha_to_boundary_pixels"]
        assert any(str(p).endswith("boundary.ppm") for p in written)

    def test_alpha_random_csv_round_trip(self, tmp_path):
        payload = {
            "map": {"kind": "complex", "polynomial": "z^3 - 1"},
            "window": [-2.0, 2.0, -2.0, 2.0],
            "width": 64, "height": 64,
            "seed_point": [5.0, 1.0],
            "length": 60,
            "burn_in": 10,
            "prng_seed": 4,
        }
        path = write_config(tmp_path, "rand.json", payload)
        job = load_config(path, "alpha-random")
        report, _ = run_job(job, out_dir=tmp_path)
        assert report["statistics"]["point_count"] == 50
        rows = (tmp_path / "alpha-random.csv").read_text().strip().split("\n")
        assert len(rows) == 50
        values = [complex(*map(float, row.split(","))) for row in rows]
        # forward step maps each point to its predecessor
        for nxt, prev in zip(values[1:], values[:-1]):
            assert abs(job.newton.step(nxt) - prev) < 1e-8

    def test_ifs_job(self, tmp_path):
        payload = {
            "map": {"kind": "complex", "polynomial": "z^3 - 1"},
            "window": [-2.0, 2.0, -2.0, 2.0],
            "width": 64, "height": 64,
            "disks": {"radius": 0.3, "centers": "roots"},
            "steps": 3,
        }
        path = write_config(tmp_path, "ifs.json", payload)
        report, _ = run_job(load_config(path, "ifs"), out_dir=tmp_path)
        stats = report["statistics"]
        assert len(stats["gaps_pixels"]) == 3
        assert len(stats["exclusion_disks"]) == 3
        assert stats["final_pixel_count"] > 0

    def test_param_scan_job(self, tmp_path):
        payload = {
            "map": {"kind": "family", "polynomial": "z^3 + A*z - z - A",
                    "variables": ["z", "A"]},
            "window": [0.2, 0.4, 1.6, 1.7],
            "width": 12, "height": 8,
            "seed_value": 0.0,
        }
        path = write_config(tmp_path, "scan.json", payload)
        report, _ = run_job(load_config(path, "param-scan"),
                            out_dir=tmp_path)
        stats = report["statistics"]
        assert stats["cycle_pixel_count"] >= 1
        cycles = [c for c in stats["cycles"] if c["outcome"] == "cycle"]
        assert cycles
        assert all(abs(c["multiplier"]) < 1.0 for c in cycles)

    def test_barna_job(self, tmp_path):
        payload = {
            "map": {"kind": "complex", "polynomial": "z^4 - 5*z^2 + 4"},
            "max_period": 2,
            "samples": 20000,
            "sample_interval": [-10.0, 10.0],
        }
        path = write_config(tmp_path, "barna.json", payload)
        report, _ = run_job(load_config(path, "barna"), out_dir=tmp_path)
        stats = report["statistics"]
        assert stats["all_roots_real"]
        assert stats["cycle_count_bound_ok"] == {"1": True, "2": True}
        assert len(stats["cycles_by_period"]["2"]) == 3
        assert stats["nonconvergent_fraction"] < 1e-3
        assert report["tolerances"]["samples"] == 20000

    def test_ghost_job_confirms_invariant_line(self, tmp_path):
        payload = {
            "map": {"kind": "planar", "first": "y - x^2",
                    "second": "y + x^2 + 1"},
            "box": [-3.0, 3.0, -3.0, 3.0],
            "probe": {"seed_count": 10, "iterations": 100,
                      "online_samples": 5, "online_iterations": 40,
                      "divergence_steps": 10, "invariance_samples": 10},
        }
        path = write_config(tmp_path, "ghost.json", payload)
        report, _ = run_job(load_config(path, "ghost"), out_dir=tmp_path)
        stats = report["statistics"]
        assert stats["ghost_line_count"] == 1
        line = stats["ghost_lines"][0]
        assert line["line_invariant"]
        assert line["stay_fraction"] > 0.5
        assert report["tolerances"]["probe"]["seed_count"] == 10

    def test_compare_job(self, tmp_path):
        payload = {
            "map": {"kind": "complex", "polynomial": "z^3 - 1"},
            "window": [-2.0, 2.0, -2.0, 2.0],
            "width": 64, "height": 64,
            "seed_point": [5.0, 1.0],
            "depth": 6,
        }
        path = write_config(tmp_path, "cmp.json", payload)
        report, written = run_job(load_config(path, "compare"),
                                  out_dir=tmp_path)
        stats = report["statistics"]
        assert stats["hausdorff_pixels"] >= 0.0
        assert stats["boundary_pixel_count"] > 0
        assert (tmp_path / "boundary.ppm").exists()
        assert (tmp_path / "alpha-tree.ppm").exists()


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        path = cubic_basins_config(tmp_path)
        code = main(["basins", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 0
        printed = capsys.readouterr().out.strip().split("\n")
        assert any(line.endswith("basins.json") for line in printed)

    def test_missing_config(self, tmp_path, capsys):
        code = main(["basins", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_mode_is_validation_error(self, tmp_path, capsys):
        path = cubic_basins_config(tmp_path)
        code = main(["frobnicate", "--config", path])
        assert code == 1

    def test_malformed_polynomial_writes_nothing(self, tmp_path, capsys):
        path = cubic_basins_config(tmp_path)
        cfg = json.loads((tmp_path / "job.json").read_text())
        cfg["map"]["polynomial"] = "z^^3"
        path = write_config(tmp_path, "bad.json", cfg)
        out_dir = tmp_path / "never"
        code = main(["basins", "--config", path, "--out", str(out_dir)])
        assert code == 1
        assert not out_dir.exists()

    def test_runtime_error_names_operation(self, tmp_path, capsys):
        # disks that blanket the window empty every backward iterate
        payload = {
            "map": {"kind": "complex", "polynomial": "z^3 - 1"},
            "window": [-2.0, 2.0, -2.0, 2.0],
            "width": 32, "height": 32,
            "disks": {"radius": 50.0, "centers": "roots"},
            "steps": 2,
        }
        path = write_config(tmp_path, "cover.json", payload)
        code = main(["ifs", "--config", path, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "runtime error" in err
        assert "hutchinson_iterate" in err

    def test_negative_threads_is_validation_error(self, tmp_path, capsys):
        path = cubic_basins_config(tmp_path)
        out_dir = tmp_path / "never"
        code = main(["basins", "--config", path, "--out", str(out_dir),
                     "--threads", "-1"])
        assert code == 1
        assert "threads" in capsys.readouterr().err
        assert not out_dir.exists()
        with pytest.raises(ConfigError):
            load_config(cubic_basins_config(tmp_path, threads=-2), "basins")

    def test_seed_flag_changes_orbit(self, tmp_path):
        payload = {
            "map": {"kind": "complex", "polynomial": "z^3 - 1"},
            "window": [-2.0, 2.0, -2.0, 2.0],
            "width": 32, "height": 32,
            "seed_point": [5.0, 1.0],
            "length": 30,
            "burn_in": 5,
        }
        path = write_config(tmp_path, "rand.json", payload)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["alpha-random", "--config", path, "--out", str(out_a),
                     "--seed", "1"]) == 0
        assert main(["alpha-random", "--config", path, "--out", str(out_b),
                     "--seed", "2"]) == 0
        csv_a = (out_a / "alpha-random.csv").read_bytes()
        csv_b = (out_b / "alpha-random.csv").read_bytes()
        assert csv_a != csv_b

    def test_rerun_is_byte_identical_at_any_thread_count(self, tmp_path):
        payload = {
            "map": {"kind": "complex", "polynomial": "z^3 - 1"},
            "window": [-2.0, 2.0, -2.0, 2.0],
            "width": 48, "height": 48,
            "seed_point": [5.0, 1.0],
            "length": 40,
            "burn_in": 5,
            "prng_seed": 9,
        }
        path = write_config(tmp_path, "rand.json", payload)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["alpha-random", "--config", path, "--out", str(out_a),
                     "--threads", "1"]) == 0
        assert main(["alpha-random", "--config", path, "--out", str(out_b),
                     "--threads", "8"]) == 0
        for name in ("alpha-random.ppm", "alpha-random.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestCheckedInConfigs:
    def test_every_config_loads(self):
        # the benchmark's own jobs too, so no config rule can reject one
        bench_configs = sorted((CONFIG_DIR.parent / "bench" / "configs").glob("*.json"))
        assert bench_configs
        configs = sorted(CONFIG_DIR.glob("*.json")) + bench_configs
        assert len(configs) >= 9
        seen_modes = set()
        for cfg_path in configs:
            mode = json.loads(cfg_path.read_text())["mode"]
            job = load_config(str(cfg_path), mode)
            seen_modes.add(job.mode)
        assert seen_modes == set(MODES)

    def test_loading_does_no_numeric_work(self, monkeypatch):
        # set-up cost is import plus load_config: no root solve and no trap
        # may run before run_job, in any module that can reach one
        def refuse(*args, **kwargs):
            raise AssertionError("numeric work inside load_config")

        names = ("univariate_complex_roots", "batched_complex_roots", "system_real_roots",
                 "root_traps", "row_traps", "plane_traps")
        for module in (poly, newton, forward, analysis, backward, cli):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        configs = sorted(CONFIG_DIR.glob("*.json"))
        configs += sorted((CONFIG_DIR.parent / "bench" / "configs").glob("*.json"))
        for cfg_path in configs:
            load_config(str(cfg_path), json.loads(cfg_path.read_text())["mode"])

    def test_tiled_ifs_is_byte_identical_at_any_thread_count(self, tmp_path, monkeypatch):
        # the first set-map level solves one root row per pixel, 65,536 of
        # them, so _complex_preimages_batch splits it into tiles and runs
        # them on the requested threads
        cfg_path = CONFIG_DIR / "cubic-roots-of-unity-ifs.json"
        cfg = json.loads(cfg_path.read_text())
        assert cfg["width"] * cfg["height"] > 4 * poly._TILE_ROWS
        pools = []

        class RecordingPool(poly.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(poly, "ThreadPoolExecutor", RecordingPool)
        reports, images = [], []
        for threads in (1, 2, 4):
            pools.clear()
            out_dir = tmp_path / f"t{threads}"
            assert main(["ifs", "--config", str(cfg_path), "--out", str(out_dir),
                         "--threads", str(threads)]) == 0
            assert pools[:1] == ([threads] if threads > 1 else [])
            images.append((out_dir / cfg["outputs"]["raster"]).read_bytes())
            rep = json.loads((out_dir / cfg["outputs"]["report"]).read_text())
            assert rep["threads"] == rep["config"]["threads"] == threads
            for doc in (rep, rep["config"]):
                doc.pop("threads")
            rep.pop("timings_s")
            reports.append(rep)
        assert images[0] == images[1] == images[2]
        assert reports[0] == reports[1] == reports[2]

    def test_tiled_basins_are_byte_identical_at_any_thread_count(self, tmp_path, pools):
        # 512 x 512 pixels make four forward tiles of 65,536 points, which
        # run on the calling thread whatever --threads says
        cfg_path = CONFIG_DIR / "planar-two-parabolas-basins.json"
        cfg = json.loads(cfg_path.read_text())
        assert cfg["width"] * cfg["height"] == 4 * poly._TILE_POINTS
        reports, images = [], []
        for threads in (1, 2, 4):
            pools.clear()
            out_dir = tmp_path / f"t{threads}"
            assert main(["basins", "--config", str(cfg_path), "--out", str(out_dir),
                         "--threads", str(threads)]) == 0
            assert pools == []
            images.append((out_dir / cfg["outputs"]["raster"]).read_bytes())
            rep = json.loads((out_dir / cfg["outputs"]["report"]).read_text())
            assert rep["threads"] == threads
            for doc in (rep, rep["config"]):
                doc.pop("threads")
            rep.pop("timings_s")
            reports.append(rep)
        assert images[0] == images[1] == images[2]
        assert reports[0] == reports[1] == reports[2]

    def test_console_script_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "newtondyn.cli", "basins",
             "--config", str(CONFIG_DIR / "cubic-roots-of-unity-basins.json"),
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "cubic-roots-of-unity-basins.ppm").exists()


class TestNumericFields:
    @pytest.mark.parametrize("field,value", [("width", "wide"), ("prng_seed", [1]),
                                             ("threads", "x")])
    def test_bad_top_level_number_is_config_error(self, tmp_path, capsys, field, value):
        path = cubic_basins_config(tmp_path, **{field: value})
        assert main(["basins", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert f"config error: '{field}' must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_mode_number_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "tree.json", {
            "map": {"kind": "complex", "polynomial": "z^3 - 1"},
            "seed_point": [5.0, 1.0], "depth": "deep"})
        assert main(["alpha-tree", "--config", path, "--out", str(tmp_path)]) == 1
        assert "config error: 'depth' must be an integer" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="'disks.radius' must be a number"):
            load_config(write_config(tmp_path, "ifs.json", {
                "map": {"kind": "complex", "polynomial": "z^3 - 1"},
                "disks": {"radius": "big"}}), "ifs")


    @pytest.mark.parametrize("field,value", [("samples", 0), ("samples", -5),
                                             ("max_period", 0), ("max_period", -1)])
    def test_barna_counts_below_one_are_config_errors(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path, "barna.json", {
            "map": {"kind": "complex", "polynomial": "z^4 - 5*z^2 + 4"},
            "max_period": 2, "samples": 100, field: value})
        out_dir = tmp_path / "never"
        assert main(["barna", "--config", path, "--out", str(out_dir)]) == 1
        assert f"config error: '{field}' must be >= 1" in capsys.readouterr().err
        assert not out_dir.exists()


CUBIC = {"kind": "complex", "polynomial": "z^3 - 1"}
FAMILY = {"kind": "family", "polynomial": "z^3 + A*z - z - A", "variables": ["z", "A"]}
PLANAR = {"kind": "planar", "first": "y - x^2", "second": "x - 2 + 4*y - y^2"}
RATIONAL = {"kind": "rational", "numerator": "z^4 + 2*z^2 + 1",
            "denominator": "4*z^3 - 4*z"}
MAPS = {"complex": CUBIC, "planar": PLANAR, "rational": RATIONAL, "family": FAMILY}
# the smallest valid config of each mode, less its map
MODE_FIELDS = {
    "basins": {},
    "alpha-tree": {"seed_point": [0.5, 0.5], "domain": [-3.0, 3.0, -3.0, 3.0],
                   "depth": 2},
    "alpha-random": {"seed_point": [0.5, 0.5], "domain": [-3.0, 3.0, -3.0, 3.0],
                     "length": 20, "burn_in": 5},
    "ifs": {"disks": {"radius": 0.3, "centers": [[1.0, 0.0]]}, "steps": 2},
    "param-scan": {"seed_value": 0.0},
    "barna": {"max_period": 2, "samples": 100},
    "ghost": {"box": [-3.0, 3.0, -3.0, 3.0]},
    "compare": {"seed_point": [0.0, -1.0], "domain": [-20.0, 20.0, -24.0, 10.0],
                "depth": 2},
}
MODE_KINDS = {
    "basins": {"complex", "planar"},
    "alpha-tree": {"complex", "planar", "rational"},
    "alpha-random": {"complex", "planar", "rational"},
    "ifs": {"complex", "planar", "rational"},
    "param-scan": {"family"},
    "barna": {"complex"},
    "ghost": {"planar"},
    "compare": {"complex", "planar"},
}


def small_job(mode, map_desc=CUBIC, **fields):
    return {"mode": mode, "map": map_desc, "width": 16, "height": 16,
            **MODE_FIELDS[mode], **fields}


class TestConfigErrors:
    @pytest.mark.parametrize("mode,payload", [
        ("basins", small_job("basins", scan={"max_iter": "big"})),
        ("basins", small_job("basins", scan={"max_iter": 100.5})),
        ("ifs", small_job("ifs", disks={"radius": 0.3, "centers": 5})),
        ("basins", small_job("basins", outputs=5)),
        ("basins", small_job("basins", outputs={"raster": 5})),
        ("alpha-tree", small_job("alpha-tree", compare_boundary="false")),
        ("alpha-tree", small_job("alpha-tree", FAMILY)),
        ("alpha-random", small_job("alpha-random", FAMILY)),
        ("basins", small_job("basins", dict(PLANAR, variables=5))),
        ("alpha-random", small_job("alpha-random", burnin=5)),
    ], ids=["scan-text", "scan-fraction", "disk-centers-number", "outputs-number",
            "output-name-number", "bool-as-text", "family-alpha-tree",
            "family-alpha-random", "variables-number", "unknown-field"])
    def test_bad_value_is_config_error_before_any_work(self, tmp_path, capsys,
                                                        mode, payload):
        path = write_config(tmp_path, "job.json", payload)
        out_dir = tmp_path / "never"
        assert main([mode, "--config", path, "--out", str(out_dir)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("mode,payload,match", [
        ("alpha-tree", small_job("alpha-tree", RATIONAL, compare_boundary=True),
         "no roots"),
        ("basins", small_job("basins", dict(CUBIC, variable=["z"])), "variable"),
        ("basins", small_job("basins", dict(CUBIC, polynomial=5)), "map.polynomial"),
        ("basins", small_job("basins", dict(CUBIC, varible="w")), "varible"),
        ("basins", small_job("basins", outputs={"rastr": "a.ppm"}), "outputs"),
        ("basins", small_job("basins", outputs={"raster": "sub/a.ppm"}), "outputs"),
        ("basins", small_job("basins", prng_seed=-1), "'prng_seed' must be >= 0"),
        ("basins", small_job("basins", width=True), "'width' must be an integer"),
        ("alpha-tree", small_job("alpha-tree", seed_point=[float("nan"), 0.0]), "seed_point"),
        ("param-scan", small_job("param-scan", FAMILY, report_cycles=-1),
         "'report_cycles' must be >= 0"),
        ("ghost", small_job("ghost", PLANAR, probe={"seed_count": 2.5}),
         "'probe.seed_count' must be an integer"),
        ("basins", small_job("basins", scan={"root_tol": float("nan")}),
         "'scan.root_tol' must be a number"),
        ("ifs", small_job("ifs", disks={"radius": 0.3, "center": [[1.0, 0.0]]}),
         "'disks' must be"),
        ("param-scan", small_job("param-scan", dict(FAMILY, variables=["z", "z"])),
         "distinct"),
    ])
    def test_value_rules(self, tmp_path, mode, payload, match):
        with pytest.raises(ConfigError, match=match):
            load_config(write_config(tmp_path, "job.json", payload), mode)

    @pytest.mark.parametrize("mode,desc", [
        ("basins", dict(CUBIC, polynomial="z^1e12 - 1")),
        ("basins", dict(PLANAR, first="x^1e12")),
        ("alpha-tree", dict(RATIONAL, denominator="z^1e12")),
        ("param-scan", dict(FAMILY, polynomial="z^3 + A^1e12")),
    ], ids=["complex", "planar", "rational", "family"])
    def test_degree_above_cap_is_refused_at_once(self, tmp_path, capsys, mode, desc):
        path = write_config(tmp_path, "job.json", small_job(mode, desc))
        start = time.perf_counter()
        assert main([mode, "--config", path, "--out", str(tmp_path / "never")]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "config error:" in err and "degree 1000000000000 is above the cap" in err

    @pytest.mark.parametrize("desc,column", [
        (dict(CUBIC, polynomial="1e400*z^3 - 1"), 1),
        (dict(CUBIC, polynomial="z^3 - 1e400"), 7),
        (dict(PLANAR, first="1e400*x^2 - y"), 1),
    ], ids=["complex-leading", "complex-constant", "planar"])
    def test_overflowing_coefficient_is_config_error(self, tmp_path, capsys, desc, column):
        path = write_config(tmp_path, "job.json", small_job("basins", desc))
        assert main(["basins", "--config", path, "--out", str(tmp_path / "never")]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert f"coefficient is not finite (column {column})" in err

    def test_integer_fields_reject_fractions(self, tmp_path):
        for width in (60, 60.0):
            assert load_config(cubic_basins_config(tmp_path, width=width),
                               "basins").width == 60
        with pytest.raises(ConfigError, match="'width' must be an integer"):
            load_config(cubic_basins_config(tmp_path, width=60.7), "basins")

    def test_every_mode_and_map_kind_pair(self, tmp_path):
        assert set(MODE_KINDS) == set(MODES) == set(MODE_FIELDS)
        for mode in MODES:
            for kind, desc in MAPS.items():
                path = write_config(tmp_path, f"{mode}-{kind}.json",
                                    small_job(mode, desc))
                if kind in MODE_KINDS[mode]:
                    assert load_config(path, mode).map_kind == kind
                else:
                    with pytest.raises(ConfigError, match="takes maps of kind"):
                        load_config(path, mode)

    @pytest.mark.parametrize("outputs,match", [
        ({"raster": "same.out", "report": "same.out"}, "one file name"),
        ({"report": "basins.ppm"}, "one file name"),
        ({"orbit": "x.csv", "boundary": "b.ppm"}, "some of raster, report"),
    ], ids=["raster-and-report", "report-on-default-raster", "kinds-not-written"])
    def test_outputs_name_each_written_artifact_once(self, tmp_path, capsys,
                                                     outputs, match):
        cfg = json.loads((CONFIG_DIR / "cubic-roots-of-unity-basins.json").read_text())
        path = write_config(tmp_path, "job.json",
                            dict(cfg, width=20, height=20, outputs=outputs))
        with pytest.raises(ConfigError, match=match):
            load_config(path, "basins")
        out_dir = tmp_path / "never"
        assert main(["basins", "--config", path, "--out", str(out_dir)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_outputs_resolve_to_the_files_the_job_writes(self, tmp_path):
        job = load_config(write_config(tmp_path, "job.json", small_job(
            "alpha-random", outputs={"orbit": "o.csv"})), "alpha-random")
        assert job.outputs == {"raster": "alpha-random.ppm", "orbit": "o.csv",
                               "report": "alpha-random.json"}
        # alpha-tree writes its boundary only when it compares against it
        tree = small_job("alpha-tree", compare_boundary=False,
                         outputs={"boundary": "b.ppm"})
        with pytest.raises(ConfigError, match="some of raster, report"):
            load_config(write_config(tmp_path, "tree.json", tree), "alpha-tree")


class TestParamScanReport:
    def test_reported_cycles_match_classify_orbit(self, tmp_path):
        job = load_config(str(CONFIG_DIR / "cubic-family-param-scan.json"), "param-scan")
        report, _ = run_job(job, out_dir=tmp_path)
        stats = report["statistics"]
        cycles = stats["cycles"]
        assert len(cycles) == min(stats["cycle_pixel_count"], job.params["report_cycles"])
        assert cycles
        for entry in cycles:
            a = complex(*entry["parameter"])
            member = UniComplexPoly(_family_coefficients(job.source, np.array([a]))[0])
            roots = poly.univariate_complex_roots(member, tol=job.scan.root_tol)
            out = classify_orbit(build_newton_complex(member), job.params["seed_value"],
                                 roots, cfg=job.scan)
            assert entry["outcome"] == out.kind == "cycle"
            assert entry["period"] == out.period
            assert entry["multiplier"] == pytest.approx(out.multiplier, rel=1e-6)


def test_cli_import_loads_no_scipy():
    # importing scipy.ndimage once cost most of the CLI's start-up
    code = ("import newtondyn.cli, sys; print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
