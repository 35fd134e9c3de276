"""Golden artifacts: every checked-in config, run through load_config and
run_job, must reproduce the SHA-256 of each artifact recorded in
tests/golden/hashes.json.  Reports are hashed without their wall-clock
timings_s.  A change that moves an artifact on purpose regenerates the
file and accounts for the difference; the script prints every artifact
whose hash moves as its name, old hash (None if new) and new hash:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from newtondyn.cli import load_config, run_job

ROOT = Path(__file__).resolve().parent.parent
HASHES = Path(__file__).resolve().parent / "golden" / "hashes.json"
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def _digest(path):
    data = Path(path).read_bytes()
    if path.suffix == ".json":
        report = json.loads(data)
        report.pop("timings_s")
        data = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def artifact_hashes(config, out_dir):
    """{artifact file name: sha256} for one config run into out_dir."""
    mode = json.loads(config.read_text(encoding="utf-8"))["mode"]
    _, written = run_job(load_config(str(config), mode), out_dir=out_dir)
    return {Path(p).name: _digest(Path(p)) for p in written}


# the jobs that solve complex counterimage batches, the one pooled stage
POOLED = {"cubic-roots-of-unity-alpha-tree", "rational-window-filling-alpha-tree",
          "cubic-roots-of-unity-ifs"}


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_artifacts_match_golden_hashes(config, tmp_path, pools):
    expected = json.loads(HASHES.read_text(encoding="utf-8"))[config.stem]
    assert artifact_hashes(config, tmp_path) == expected
    assert config.stem in POOLED or pools == []


def test_every_config_has_hashes():
    recorded = json.loads(HASHES.read_text(encoding="utf-8"))
    assert sorted(recorded) == [c.stem for c in CONFIGS]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {c.stem: artifact_hashes(c, Path(tmp) / c.stem) for c in CONFIGS}
    old = json.loads(HASHES.read_text(encoding="utf-8")) if HASHES.exists() else {}
    for stem, hashes in table.items():
        for name, new in sorted(hashes.items()):
            was = old.get(stem, {}).get(name)
            if was != new:
                print(name, was, new, file=sys.stderr)
    HASHES.parent.mkdir(exist_ok=True)
    HASHES.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {HASHES} ({sum(map(len, table.values()))} artifacts)", file=sys.stderr)
