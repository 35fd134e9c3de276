"""Benchmark workloads: which job configs each one runs, why it was chosen,
and how a workload seed varies the inputs.

Seed 0 runs the configs exactly as checked in.  Any other seed gives every
job a new prng_seed and shifts its window, box and seed_point by less than
one pixel, so each job keeps its size and character while its inputs
differ.  Only the standard library is used here, so that run.py stays
light and cannot skew the set-up measurement.
"""

import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# pixel grid assumed for the sub-pixel shift of fields that have no
# width/height of their own (the ghost box)
DEFAULT_PIXELS = 256


# Config paths, relative to the repository root, of each workload's jobs;
# bench/README.md has the full reasons.
WORKLOADS = {
    # forward classification of about 0.43M pixels, 40k parameter rows and
    # 1M Monte-Carlo samples with no backward solve: the forward kernel's
    # target and the root solvers' control
    "batch-forward": (
        "configs/cubic-roots-of-unity-basins.json",
        "configs/cubic-two-islands-basins.json",
        "configs/planar-two-parabolas-basins.json",
        "configs/cubic-family-param-scan.json",
        "configs/quartic-real-roots-barna.json",
    ),
    # preimages solved in large batches (batched companion roots for the
    # trees and the set map, multi-start planar Newton for compare) and one
    # distance transform per set-map step; little forward work, so it is
    # the forward kernel's control
    "batch-backward": (
        "configs/rational-window-filling-alpha-tree.json",
        "configs/cubic-roots-of-unity-alpha-tree.json",
        "configs/cubic-roots-of-unity-ifs.json",
        "configs/planar-two-parabolas-compare.json",
    ),
    # one target or one system at a time (about 2,000 one-row complex root
    # solves, about 200 subdivision solves, the 1M-seed ghost search): the
    # per-call overhead and small-system solvers that batching hides
    "point-solve": (
        "configs/planar-cubic-parabola-ghost.json",
        "configs/cubic-roots-of-unity-alpha-random.json",
        "bench/configs/planar-two-parabolas-alpha-random.json",
    ),
}


def job_name(path):
    """Jobs are named after their config file."""
    return Path(path).stem


def _shift(lo, hi, pixels, rng):
    return rng.uniform(-0.5, 0.5) * (hi - lo) / pixels


def vary_config(cfg, seed, name):
    """Copy of a raw config dict with the seed's prng_seed and sub-pixel
    offsets applied.  The draw depends only on (seed, job name)."""
    rng = random.Random(f"{seed}:{name}")
    out = dict(cfg, prng_seed=rng.randrange(2**31))
    width = int(cfg.get("width", DEFAULT_PIXELS))
    height = int(cfg.get("height", DEFAULT_PIXELS))
    xmin, xmax, ymin, ymax = cfg.get("window", (-2.0, 2.0, -2.0, 2.0))
    dx = _shift(xmin, xmax, width, rng)
    dy = _shift(ymin, ymax, height, rng)
    if "window" in cfg:
        out["window"] = [xmin + dx, xmax + dx, ymin + dy, ymax + dy]
    if "seed_point" in cfg:
        sx, sy = cfg["seed_point"]
        out["seed_point"] = [sx + dx, sy + dy]
    if "box" in cfg:
        bxmin, bxmax, bymin, bymax = cfg["box"]
        bx = _shift(bxmin, bxmax, DEFAULT_PIXELS, rng)
        by = _shift(bymin, bymax, DEFAULT_PIXELS, rng)
        out["box"] = [bxmin + bx, bxmax + bx, bymin + by, bymax + by]
    return out


def job_configs(workload, seed, config_dir):
    """[(name, mode, config path)] for one workload and seed.

    Seed 0 returns the checked-in files themselves; other seeds write the
    varied configs into config_dir and return those paths.
    """
    jobs = []
    for rel in WORKLOADS[workload]:
        path = ROOT / rel
        name = job_name(rel)
        cfg = json.loads(path.read_text(encoding="utf-8"))
        if seed != 0:
            config_dir.mkdir(parents=True, exist_ok=True)
            path = config_dir / f"{name}.json"
            path.write_text(json.dumps(vary_config(cfg, seed, name), indent=2),
                            encoding="utf-8")
        jobs.append((name, cfg["mode"], str(path)))
    return jobs
