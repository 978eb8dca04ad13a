"""Byte-identity of every CLI artifact for one fixed c17 argv chain.

The chain runs in a fresh directory with relative paths, so the manifests,
configs, netlists, waveforms and reports are the same on every machine. The
manifests record every flag with its resolved default, so this test also pins
each subcommand's flag set.

After a change that is meant to alter the artifacts, regenerate the digests
from the root of a source checkout with::

    PYTHONPATH=src python tests/test_golden_artifacts.py
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from tvdcamo.cli import main

DATA_DIR = Path(__file__).parent / "data"
GOLDEN = DATA_DIR / "golden_artifacts.json"

CONFIG = ["--config", "camo/camo_config.json"]
ARGVS = [
    ["sweep", "-o", "sweep"],
    ["gate", "--func", "XOR", "--inputs", "all", "--margin-csv",
     "--clock-freq", "1e9", "-o", "gate"],
    ["derive-table", "-o", "derive"],
    ["camouflage", "c17.bench", "--rate", "0.5", "--seed", "3", "-o", "camo"],
    ["verify", "c17.bench", "camo/camo.bench", *CONFIG, "-o", "verify"],
    ["attack", "camo/camo.bench", *CONFIG, "--kind", "profiling",
     "--mechanism", "implant", "-o", "profiling"],
    ["attack", "camo/camo.bench", *CONFIG, "--kind", "oracle", "-o", "oracle"],
    ["attack", "camo/camo.bench", *CONFIG, "--kind", "oracle", "--joint-limit",
     "16", "--marginal-fallback", "-o", "marginal"],
]


def artifact_digests(workdir: Path) -> dict[str, str]:
    """Run the chain inside ``workdir``; SHA-256 of each artifact by path."""
    (workdir / "c17.bench").write_text((DATA_DIR / "c17.bench").read_text())
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        codes = [main(argv) for argv in ARGVS]
    finally:
        os.chdir(cwd)
    assert codes == [0] * len(ARGVS)
    return {
        p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.rglob("*"))
        if p.is_file() and p.name != "c17.bench"
    }


def test_cli_artifacts_match_golden_digests(tmp_path):
    assert artifact_digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = artifact_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
