"""newtondyn job benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's job list through newtondyn.cli.load_config + run_job
in one fresh single-process interpreter, repeating it for S seconds, and
checks every output (see checks.py).  With --trace 0 it reports the
end-to-end metrics:

  wall_s       s   median time of one pass over the job list
  setup_s      s   median over fresh interpreters of importing
                   newtondyn.cli and loading the workload's configs
  peak_rss_mb  MB  ru_maxrss of the workload's process

With --trace 1 it instead runs a warm-up pass, then alternates untraced
and traced passes and reports the per-layer metrics (see tracing.py).  Either way it prints the
environment record, the failure count and share, and as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}.  Outputs go to
bench/out/.  The workloads and their reasons are in workloads.py and
README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

from workloads import ROOT, WORKLOADS, job_configs

SETUP_PROBES = 5  # timed fresh-interpreter set-ups, after one untimed warm-up
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_ROOT = Path(__file__).resolve().parent / "out"


def _worker(args, timeout, capture):
    """Run worker.py in a fresh interpreter; exit on any failure."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.exit(f"worker {args[0]} exited with code {proc.returncode}")
    return proc.stdout


def setup_times(jobs_file):
    times = []
    for k in range(SETUP_PROBES + 1):
        out = _worker(["probe", str(jobs_file)], PROBE_TIMEOUT_S, capture=True)
        if k:
            times.append(float(out.strip().splitlines()[-1]))
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "newtondyn" / "__init__.py").is_file():
        sys.exit(f"no newtondyn sources under {ROOT / 'src'}")

    out_dir = OUT_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    jobs = job_configs(args.workload, args.seed, out_dir / "configs")
    jobs_file = out_dir / "jobs.json"
    jobs_file.write_text(json.dumps(jobs), encoding="utf-8")

    setup = [] if args.trace else setup_times(jobs_file)
    try:
        _worker(["run", str(jobs_file), str(out_dir), str(args.seed),
                 str(args.seconds), str(args.trace)], WORKER_TIMEOUT_S, capture=False)
    finally:
        shutil.rmtree(out_dir / "artifacts", ignore_errors=True)
    result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))

    untraced = [p["wall_s"] for p in result["passes"]
                if not (p["traced"] or p["warmup"])]
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "wall_s": {"value": median(untraced), "unit": "s"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        result["setup_s"] = setup
    result["metrics"] = metrics
    (out_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    attempted, failed = result["attempted"], result["failed"]
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"{len(result['passes'])} passes, untraced pass walls "
          + " ".join(f"{w:.3f}" for w in untraced))
    if setup:
        print("setup probes " + " ".join(f"{s:.4f}" for s in setup))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_share {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
