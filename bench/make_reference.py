"""Regenerate the seed-0 reference outputs in bench/reference/.

    python3 bench/make_reference.py

Runs every benchmark job once with its checked-in config and stores each
artifact gzip-compressed under its file name (reports without
``timings_s``).  The benchmark compares seed-0 outputs with these files
under the tolerances in checks.py, so regenerate them only for a change
that moves outputs on purpose, and bound the difference where the change
is reviewed.
"""

import gzip
import json
import shutil
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS, job_configs

sys.path.insert(0, str(ROOT / "src"))

from newtondyn.cli import load_config, run_job  # noqa: E402

from checks import REFERENCE_DIR, strip_timings  # noqa: E402

SCRATCH = Path(__file__).resolve().parent / "out" / "reference-run"


def main():
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for name, mode, path in job_configs(workload, 0, None):
            _, written = run_job(load_config(path, mode), SCRATCH / name)
            for p in map(Path, written):
                data = p.read_bytes()
                if p.suffix == ".json":
                    report = strip_timings(json.loads(data))
                    data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
                with open(REFERENCE_DIR / f"{p.name}.gz", "wb") as raw:
                    with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0,
                                       filename="") as fh:
                        fh.write(data)
                print(f"{name}: {p.name}")
    shutil.rmtree(SCRATCH)


if __name__ == "__main__":
    main()
