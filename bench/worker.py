"""One benchmark process: imports newtondyn from the checkout's src/ and
either times set-up or runs a workload's job list.

    python3 bench/worker.py probe JOBS_JSON
    python3 bench/worker.py run JOBS_JSON OUT_DIR SEED SECONDS TRACE

``probe`` prints the seconds taken to import newtondyn.cli and load every
job config.  ``run`` repeats the job list until SECONDS have passed (at
least once), checks every output and writes OUT_DIR/result.json.  With
TRACE=1 a warm-up pass comes first, so that the first pass's page faults
do not bias the overhead, and then untraced and traced passes alternate
(at least one of each).
bench/run.py starts both; JOBS_JSON lists [name, mode, config path].
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _check_origin():
    """Refuse to measure a newtondyn other than the checkout's own."""
    import newtondyn

    where = Path(newtondyn.__file__).resolve().parent
    if where != ROOT / "src" / "newtondyn":
        sys.exit(f"newtondyn was imported from {where}, "
                 f"not from {ROOT / 'src' / 'newtondyn'}")


def probe(jobs):
    t0 = time.perf_counter()
    import newtondyn.cli

    for name, mode, path in jobs:
        newtondyn.cli.load_config(path, mode)
    elapsed = time.perf_counter() - t0
    _check_origin()
    print(repr(elapsed))


def run(jobs, out_dir, seed, seconds, trace):
    import newtondyn.cli

    _check_origin()

    import checks
    import envinfo
    import tracing

    loader = tracing.Tracer()
    if trace:
        loader.install(newtondyn)
    try:
        # called through the module so that the tracer's wrappers are seen
        loaded = [(name, newtondyn.cli.load_config(path, mode))
                  for name, mode, path in jobs]
    finally:
        loader.uninstall()
    checker = checks.Checker(seed)
    names = [name for name, _ in loaded]
    art_dir = out_dir / "artifacts"

    passes = []
    failures = []
    layers = []
    spans = []
    t_start = time.perf_counter()
    while True:
        warmup = trace and not passes
        traced = trace and not warmup and len(passes) % 2 == 0
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install(newtondyn)
        try:
            wall, job_s, outputs = _run_pass(newtondyn.cli, loaded, art_dir)
        finally:
            if tracer:
                tracer.uninstall()
        t_check = time.perf_counter()
        failed_jobs, artifact_bytes = 0, 0
        for (name, job), written in zip(loaded, outputs):
            if isinstance(written, str):
                problems = [f"{name}: raised\n{written}"]
            else:
                artifact_bytes += sum(Path(p).stat().st_size for p in written)
                problems = checker.check(name, job, written)
            failed_jobs += bool(problems)
            failures += problems
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
        passes.append({"warmup": warmup, "traced": traced, "wall_s": wall,
                       "job_s": job_s, "failed_jobs": failed_jobs,
                       "check_s": time.perf_counter() - t_check})
        if tracer:
            layers.append(tracing.layer_metrics(tracer, wall, names, artifact_bytes))
            spans.append(tracer)
        if time.perf_counter() - t_start >= seconds and (not trace or len(passes) >= 3):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "passes": passes,
        "attempted": len(loaded) * len(passes),
        "failed": sum(p["failed_jobs"] for p in passes),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "env": envinfo.collect(ROOT),
    }
    if trace:
        untraced = median(p["wall_s"] for p in passes
                          if not (p["traced"] or p["warmup"]))
        traced_wall = median(p["wall_s"] for p in passes if p["traced"])
        metrics = {k: median(m[k] for m in layers) for k in layers[0]}
        metrics["cli.load_config.s"] = tracing.per_name_times(loader).get(
            "cli.load_config", (0, 0.0, 0.0))[1]
        metrics["trace.overhead_share"] = (traced_wall - untraced) / untraced
        result["layers"] = {name: {"value": metrics[name], "unit": unit}
                            for name, unit in tracing.per_layer_units()}
        _write_spans(out_dir / "spans.npz", [loader] + spans)
    (out_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")


def _run_pass(cli, loaded, art_dir):
    """Run every job once: (wall seconds, seconds per job, outputs), where
    an output is run_job's artifact list or the traceback of a job that
    raised.  Calls go through the module so that tracer wrappers apply."""
    outputs, job_s = [], []
    t0 = time.perf_counter()
    for name, job in loaded:
        t_job = time.perf_counter()
        try:
            outputs.append(cli.run_job(job, art_dir / name)[1])
        except Exception:
            outputs.append(traceback.format_exc())
        job_s.append(time.perf_counter() - t_job)
    return time.perf_counter() - t0, job_s, outputs


def _write_spans(path, tracers):
    """Spans of every tracer; column "pass" is 0 for the config load and
    k for the k-th traced pass, and parent indices point into the file."""
    import numpy as np

    names = sorted({n for t in tracers for n in t.names})
    cols = {"name": [], "start": [], "end": [], "parent": [], "pass": []}
    offset = 0
    for k, t in enumerate(tracers):
        nid, start, end, parent = t.arrays()
        remap = np.array([names.index(n) for n in t.names], np.int32)
        cols["name"].append(remap[nid])
        cols["start"].append(start)
        cols["end"].append(end)
        cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
        cols["pass"].append(np.full(nid.size, k, np.int32))
        offset += nid.size
    np.savez_compressed(path, names=np.array(names),
                        **{k: np.concatenate(v) for k, v in cols.items()})


def main(argv):
    mode, jobs_file = argv[0], argv[1]
    jobs = json.loads(Path(jobs_file).read_text(encoding="utf-8"))
    if mode == "probe":
        probe(jobs)
    elif mode == "run":
        out_dir, seed, seconds, trace = argv[2:6]
        run(jobs, Path(out_dir), int(seed), float(seconds), trace == "1")
    else:
        sys.exit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
