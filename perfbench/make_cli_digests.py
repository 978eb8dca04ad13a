"""Record the SHA-256 of every cli-chain job's artifacts in cli_digests.json.

Usage (from the root of a source checkout)::

    python3 perfbench/make_cli_digests.py

Run it only at a commit whose CLI output is known to be right: the
cli-chain workload fails any job whose artifacts differ from this file.
"""

import json
import shutil
import sys

from run import OUT, SRC, import_fresh
from workloads import CLI_DIGESTS, artifact_digest, cli_specs, run_cli_chain


def main() -> int:
    sys.path.insert(0, str(SRC))
    tv = import_fresh()
    scratch = OUT / "make-cli-digests"
    shutil.rmtree(scratch, ignore_errors=True)
    digests = {}
    try:
        for spec in cli_specs():
            workdir = scratch / spec["key"]
            codes, _ = run_cli_chain(tv, spec, workdir)
            if codes != [0] * len(codes):
                print(f"{spec['key']}: exit codes {codes}", file=sys.stderr)
                return 1
            digests[spec["key"]] = artifact_digest(workdir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    CLI_DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {CLI_DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
