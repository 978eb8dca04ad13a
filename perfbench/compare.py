"""Compare two benchmark records metric by metric.

Usage (from the root of a source checkout)::

    python3 perfbench/compare.py BASE.json NEW.json

Each file is a record that ``perfbench/run.py`` wrote to ``.perfbench_out/``
(or one of the committed ones under ``perfbench/results/``). Records made
with different transient backends, workloads or trace settings are refused
with exit code 2: their numbers do not measure the same thing.
"""

import json
import sys


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path).read()) for path in argv)
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"refused: {key} differs ({base[key]!r} vs {new[key]!r})", file=sys.stderr)
            return 2
    if base["env"]["backend"] != new["env"]["backend"]:
        print(
            f"refused: backend differs ({base['env']['backend']!r} vs "
            f"{new['env']['backend']!r})",
            file=sys.stderr,
        )
        return 2
    print(f"{base['workload']}: {base['env']['commit'][:12]} -> {new['env']['commit'][:12]}")
    for name, m in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        change = f"{(b - a) / a:+8.1%}" if a else "       -"
        print(f"  {name:<36} {a:14.6g} {b:14.6g} {change} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
