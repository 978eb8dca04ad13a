"""Time single layer calls at fixed reference sizes and print them as JSON.

Usage (from the root of a source checkout)::

    python3 perfbench/anchors.py

The sizes are the ones the project's first baselines were quoted at:
``simulate`` at 50,000 steps (20 MHz), ``margin_report`` at 20 MHz,
``parse_bench`` of a 2000-gate netlist, exhaustive ``verify_equivalence``
of a 20-input, 2000-gate netlist against itself, and the c17 joint oracle
attack with 1 to 4 camouflaged gates (the first gates in file order). Each
figure is the median of 5 calls, untraced, after one warm-up call.
"""

import json
import statistics
import sys
import time

from gen import C17_GATES, C17_TEXT, random_dag
from run import SRC, environment, import_fresh


REPEATS = 5


def median_ms(fn):
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3, result


def main() -> int:
    sys.path.insert(0, str(SRC))
    tv = import_fresh()

    params = tv.device.IsfetParams()
    cfg = tv.transient.SimConfig(clock_freq=2e7)
    program = tv.gates.GatePhProgram(
        2.0, 10.0, tv.gates.assignment_for(tv.gates.TruthTable2.XOR)
    )
    text = random_dag(0, 20, 2000, 40, 4)
    netlist = tv.bench.parse_bench(text)
    c17 = tv.bench.parse_bench(C17_TEXT)

    anchors = {}
    ms, _ = median_ms(lambda: tv.transient.simulate(program, params, cfg, 0, 1))
    anchors["transient.simulate_50k_steps_ms"] = ms
    ms, _ = median_ms(lambda: tv.transient.margin_report(program, params, cfg))
    anchors["transient.margin_report_20MHz_ms"] = ms
    ms, _ = median_ms(lambda: tv.bench.parse_bench(text))
    anchors["bench.parse_bench_2000_gates_ms"] = ms
    ms, result = median_ms(lambda: tv.camo.verify_equivalence(netlist, netlist))
    if not result.equivalent:
        raise SystemExit("error: a netlist is not equivalent to itself")
    anchors["camo.verify_exhaustive_20in_2000_gates_ms"] = ms
    for g in range(1, 5):
        camo, config = tv.camo.camouflage(c17, gates=list(C17_GATES[:g]))
        ms, state = median_ms(
            lambda: tv.attack.oracle_attack(camo, camo, oracle_bindings=config.bindings())
        )
        anchors[f"attack.c17_joint_{g}_gates_ms"] = ms
        anchors[f"attack.c17_joint_{g}_gates_queries"] = state.queries
        anchors[f"attack.c17_joint_{g}_gates_survivors"] = state.joint_survivors
    print(json.dumps({"env": environment(tv), "repeats": REPEATS, "anchors": anchors}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
