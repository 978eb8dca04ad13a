"""The four benchmark workloads: their seeded inputs, jobs and output checks.

A workload is a *pass*: a list of jobs built from the seed before timing
starts. The benchmark runs whole passes, so every run measures the same job
mix. A job's ``run`` calls the program through ``tv``, a namespace holding
the ``tvdcamo`` modules, and looks every function up on its module at call
time, so that the traced run sees each call. ``check`` compares the job's
output with an answer computed independently of the program, and ``digest``
reduces the output to a string used to compare two runs.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from gen import C17_GATES, C17_TEXT, KIND_BITS, parse_ref, random_dag, ref_eval

HERE = Path(__file__).resolve().parent
CLI_DIGESTS = HERE / "cli_digests.json"

# pH pairs that resolve every minterm at 20 MHz, 1 GHz and 2 GHz, and the
# pair that resolves at 20 MHz and 1 GHz but leaves every minterm unresolved
# at 2 GHz.
RESOLVING_PAIRS = (
    (2.0, 10.0), (3.0, 9.0), (2.0, 8.0), (4.0, 11.0), (1.0, 7.0),
    (5.0, 12.0), (2.0, 6.0), (6.0, 13.0), (2.0, 4.0), (3.0, 5.0),
)
UNRESOLVED_PAIR = (2.0, 2.5)
UNRESOLVED_CLOCK = 2e9

# Generator parameters of each workload, also listed in README.md.
GATE_CHAR = {
    # Every function runs at every clock; 4 of the 2 GHz jobs use
    # UNRESOLVED_PAIR, the others a pair drawn from RESOLVING_PAIRS.
    "clocks": [2e7, 1e9, 2e9],
    "unresolved_jobs": 4,
    "vgs_points": 361,
    # A 1 or 2 GHz job takes a few ms, a 20 MHz job a quarter of a second.
    # The short ones run this many times a pass, so that the median that
    # gives their latency is taken over more samples.
    "fast_repeats": 4,
}
NETLIST_SIGNOFF = {
    # [inputs, gates, depth, max_fanout, jobs per pass]
    "dags": [
        [20, 2000, 40, 4, 1],
        [18, 1500, 30, 4, 1],
        [16, 2000, 40, 4, 2],
        [16, 1000, 25, 4, 4],
        [14, 1000, 25, 4, 8],
        [13, 500, 20, 4, 12],
        [12, 200, 10, 4, 12],
    ],
    "camo_fraction": 0.1,
    "random_vectors": 1024,
}
ORACLE_ATTACK = {
    # c17 with every subset of these sizes (joint mode), plus c17 with all
    # 6 gates (marginal fallback).
    "c17_subset_sizes": [1, 2, 3, 4],
    # [inputs, gates, depth, max_fanout, camo gates, jobs per pass]
    "dags": [
        [12, 100, 10, 4, 2, 4],
        [14, 200, 12, 4, 3, 4],
        [16, 300, 15, 4, 4, 8],
    ],
    "random_queries": 64,
}
CLI_CHAIN = {
    # c17 plus [inputs, gates, depth, max_fanout, generator seed] per DAG.
    # These inputs are fixed so that every artifact can be checked against a
    # committed SHA-256; the workload seed orders the jobs of a pass.
    "dags": [
        [10, 40, 6, 3, 101],
        [11, 60, 8, 3, 102],
        [12, 80, 10, 3, 103],
    ],
    "camo_seeds": list(range(10)),
    "camo_gates": 3,
    # Jobs per netlist whose gate command runs at 20 MHz; the rest use 1 GHz.
    "slow_clock_jobs": 3,
    "random_queries": 64,
}


@dataclass
class Job:
    key: str
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]
    digest: Callable[[Any], str]
    cleanup: Callable[[Any], None] = lambda out: None
    repeats: int = 1  # times the job runs in one pass


def _sha(text) -> str:
    data = text if isinstance(text, bytes) else str(text).encode()
    return hashlib.sha256(data).hexdigest()


def _bit(function: int, m: int) -> int:
    return (function >> (3 - m)) & 1


# --------------------------------------------------------------- gate-char


def gate_char_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for clock in GATE_CHAR["clocks"]:
        unresolved = set()
        if clock == UNRESOLVED_CLOCK:
            unresolved = set(rng.sample(range(16), GATE_CHAR["unresolved_jobs"]))
        for function in range(16):
            pair = UNRESOLVED_PAIR if function in unresolved else rng.choice(RESOLVING_PAIRS)
            jobs.append(_gate_char_job(function, clock, pair, rng.randrange(4)))
    rng.shuffle(jobs)
    return jobs


def _gate_char_job(function: int, clock: float, pair, minterm: int) -> Job:
    unresolved = clock == UNRESOLVED_CLOCK and tuple(pair) == UNRESOLVED_PAIR
    n = GATE_CHAR["vgs_points"]
    grid = [1.8 * i / (n - 1) for i in range(n)]
    a, b = divmod(minterm, 2)

    def run(tv):
        params = tv.device.IsfetParams()
        cfg = tv.transient.SimConfig(clock_freq=clock)
        program = tv.gates.GatePhProgram(
            pair[0], pair[1], tv.gates.assignment_for(tv.gates.TruthTable2(function))
        )
        table = tv.device.iv_sweep(params, grid, 0.1, pair)
        static = [
            tv.gates.evaluate_static(program, params, m >> 1, m & 1) for m in range(4)
        ]
        margin = tv.transient.margin_report(program, params, cfg)
        trace = tv.transient.simulate(program, params, cfg, a, b)
        buf = io.StringIO()
        tv.transient.write_trace_csv(trace, buf)
        return {
            "sweep": table,
            "static": static,
            "margin": [r["output"] for r in margin],
            "resolve_times": [r["resolve_time"] for r in margin],
            "trace_output": trace.resolved_output,
            "csv": buf.getvalue(),
            "n_steps": cfg.n_steps,
        }

    def check(out):
        expect = [_bit(function, m) for m in range(4)]
        margin_ok = (
            out["margin"] == [None] * 4 if unresolved else out["margin"] == expect
        )
        trace_ok = out["trace_output"] == (None if unresolved else expect[minterm])
        return (
            out["static"] == expect
            and margin_ok
            and trace_ok
            and out["csv"].count("\n") == out["n_steps"] + 2
            and out["sweep"].shape == (2 * n, 3)
        )

    def digest(out):
        return _sha(
            json.dumps([out["static"], out["margin"], out["resolve_times"], out["trace_output"]])
            + _sha(out["sweep"].tobytes())
            + _sha(out["csv"])
        )

    key = f"f{function}-{clock:g}Hz-ph{pair[0]:g}/{pair[1]:g}"
    repeats = 1 if clock == min(GATE_CHAR["clocks"]) else GATE_CHAR["fast_repeats"]
    return Job(key, run, check, digest, repeats=repeats)


# --------------------------------------------------------- netlist-signoff


def netlist_signoff_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n_in, n_gates, depth, fanout, count in NETLIST_SIGNOFF["dags"]:
        for _ in range(count):
            dag_seed = rng.randrange(1 << 30)
            text = random_dag(dag_seed, n_in, n_gates, depth, fanout)
            jobs.append(_signoff_job(f"dag{n_in}x{n_gates}-{dag_seed}", text, dag_seed))
    rng.shuffle(jobs)
    return jobs


def _signoff_job(key: str, text: str, dag_seed: int) -> Job:
    ref = parse_ref(text)
    fraction = NETLIST_SIGNOFF["camo_fraction"]
    n_vectors = NETLIST_SIGNOFF["random_vectors"]

    def run(tv):
        original = tv.bench.parse_bench(text)
        round_trip = tv.bench.parse_bench(tv.bench.serialize_bench(original))
        camo_net, cfg = tv.camo.camouflage(round_trip, fraction=fraction, seed=dag_seed)
        cfg2 = tv.camo.CamoConfig.from_json(cfg.to_json())
        exhaustive = tv.camo.verify_equivalence(camo_net, original, bindings=cfg2.bindings())
        # Flip one camouflaged gate to its complement and look for a difference.
        flipped = cfg2.bindings()
        victim = sorted(flipped)[dag_seed % len(flipped)]
        flipped[victim] = flipped[victim].complement()
        rand = tv.camo.verify_equivalence(
            camo_net, original, bindings=flipped, mode="random",
            n_vectors=n_vectors, seed=dag_seed,
        )
        return {
            "round_trip": round_trip == original,
            "config": {g.name: int(g.function) for g in cfg2.gates},
            "config_same": cfg2 == cfg,
            "exhaustive": exhaustive,
            "victim": victim,
            "random": rand,
        }

    def check(out):
        ex, rnd = out["exhaustive"], out["random"]
        total = 1 << len(ref[0])
        kinds = {name: kind for name, kind, _ in ref[2]}
        ok = (
            out["round_trip"]
            and out["config_same"]
            and len(out["config"]) == round(fraction * len(ref[2]))
            and all(KIND_BITS[kinds[g]] == f for g, f in out["config"].items())
            and ex.equivalent
            and ex.vectors_checked == total == ex.vectors_total
        )
        if not rnd.equivalent:
            bindings = dict(out["config"])
            bindings[out["victim"]] ^= 0b1111
            camo_ref = (
                ref[0], ref[1],
                [(n, "CAMO" if n in bindings else k, f) for n, k, f in ref[2]],
            )
            vec = [rnd.counterexample]
            got_a = ref_eval(camo_ref, vec, bindings)[0]
            got_b = ref_eval(ref, vec)[0]
            ok = ok and got_a != got_b and (got_a, got_b) == (rnd.outputs_a, rnd.outputs_b)
        return ok

    def digest(out):
        ex, rnd = out["exhaustive"], out["random"]
        return _sha(json.dumps([
            out["round_trip"], sorted(out["config"].items()), out["victim"],
            [ex.equivalent, ex.vectors_checked, ex.counterexample],
            [rnd.equivalent, rnd.vectors_checked, rnd.counterexample,
             rnd.outputs_a, rnd.outputs_b],
        ]))

    return Job(key, run, check, digest)


# ----------------------------------------------------------- oracle-attack


def oracle_attack_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for size in ORACLE_ATTACK["c17_subset_sizes"]:
        for subset in itertools.combinations(C17_GATES, size):
            jobs.append(_attack_job(f"c17-{'.'.join(subset)}", C17_TEXT, list(subset)))
    jobs.append(_attack_job("c17-all-marginal", C17_TEXT, list(C17_GATES)))
    for n_in, n_gates, depth, fanout, n_camo, count in ORACLE_ATTACK["dags"]:
        for _ in range(count):
            dag_seed = rng.randrange(1 << 30)
            text = random_dag(dag_seed, n_in, n_gates, depth, fanout)
            picked = _observable_gates(text, n_camo, dag_seed)
            jobs.append(_attack_job(
                f"dag{n_in}x{n_gates}-{dag_seed}", text, picked,
                strategy="random", query_seed=dag_seed,
            ))
    rng.shuffle(jobs)
    return jobs


def _observable_gates(text: str, count: int, seed: int) -> list[str]:
    """Gates that drive a primary output and see all four input minterms often.

    Every random query then prunes each such gate, so how long an attack
    takes depends little on the seed that wired the DAG.
    """
    inputs, outputs, gates = parse_ref(text)
    fanin = {name: f for name, _, f in gates}
    rng = random.Random(seed)
    vectors = [[rng.randrange(2) for _ in inputs] for _ in range(256)]
    nets = sorted({net for o in outputs for net in fanin[o]})
    rows = ref_eval((inputs, nets, gates), vectors)
    col = {net: i for i, net in enumerate(nets)}
    rarest = {}
    for o in outputs:
        a, b = (col[n] for n in fanin[o])
        hits = [0] * 4
        for row in rows:
            hits[2 * row[a] + row[b]] += 1
        rarest[o] = min(hits)
    ranked = sorted(outputs, key=lambda o: -rarest[o])
    good = [o for o in ranked if rarest[o] >= len(vectors) // 10]
    return rng.sample(good, count) if len(good) >= count else ranked[:count]


def _attack_job(key, text, camo_gates, strategy="exhaustive", query_seed=None) -> Job:
    ref = parse_ref(text)
    kinds = {name: kind for name, kind, _ in ref[2]}
    truth = tuple(KIND_BITS[kinds[g]] for g in sorted(camo_gates, key=list(kinds).index))
    n_queries = ORACLE_ATTACK["random_queries"] if strategy == "random" else None
    marginal = 16 ** len(camo_gates) > 65536

    def run(tv):
        original = tv.bench.parse_bench(text)
        camo_net, cfg = tv.camo.camouflage(original, gates=camo_gates)
        state = tv.attack.oracle_attack(
            camo_net, camo_net, oracle_bindings=cfg.bindings(), strategy=strategy,
            n_queries=n_queries, seed=query_seed, marginal_fallback=marginal,
        )
        recon = {}
        for mech in (tv.attack.IMPLANT, tv.attack.ELECTROLYTE):
            vis = tv.attack.DeviceVisibility.from_config(cfg, mech)
            resolution = tv.attack.profiling_attack(camo_net, vis)
            recon[mech] = (resolution, tv.attack.reconstruct(camo_net, resolution))
        return {
            "original": original,
            "camo": camo_net,
            "state": state,
            "report": tv.attack.resilience_report(state),
            "recon": recon,
        }

    def check(out):
        state = out["state"]
        gates_in_order = state.camo_gates
        queries = [q for q, _ in state.query_log]
        observed = [tuple(o) for _, o in state.query_log]
        if queries and ref_eval(ref, queries) != observed:
            return False
        if state.survivors is None:
            # Marginal mode: the truth survives in every per-gate set.
            ok = all(
                any(int(f) == t for f in state.marginals[g])
                for g, t in zip(gates_in_order, truth)
            )
        else:
            survivors = [tuple(int(f) for f in s) for s in state.survivors]
            camo_ref = (
                ref[0], ref[1],
                [(n, "CAMO" if n in camo_gates else k, f) for n, k, f in ref[2]],
            )
            ok = truth in survivors and all(
                not queries
                or ref_eval(camo_ref, queries, dict(zip(gates_in_order, s))) == observed
                for s in survivors
            )
        implant_res, implant_net = out["recon"]["implant"]
        elec_res, elec_net = out["recon"]["electrolyte"]
        return (
            ok
            and state.survivor_history[0] == (16 ** len(camo_gates))
            and tuple(int(implant_res[g]) for g in gates_in_order) == truth
            and implant_net == out["original"]
            and all(v is None for v in elec_res.values())
            and elec_net == out["camo"]
        )

    def digest(out):
        state = out["state"]
        return _sha(json.dumps([
            out["report"], state.query_log, state.survivor_history,
            None if state.survivors is None else [[int(f) for f in s] for s in state.survivors],
        ]))

    return Job(key, run, check, digest)


# --------------------------------------------------------------- cli-chain


def cli_specs() -> list[dict]:
    """Every cli-chain job; each pass runs all of them in a seeded order."""
    netlists = [("c17", C17_TEXT)] + [
        (f"dag{n_in}x{n_gates}", random_dag(gen_seed, n_in, n_gates, depth, fanout))
        for n_in, n_gates, depth, fanout, gen_seed in CLI_CHAIN["dags"]
    ]
    specs = []
    for name, text in netlists:
        for camo_seed in CLI_CHAIN["camo_seeds"]:
            specs.append({"netlist": name, "text": text, "camo_seed": camo_seed})
    for i, spec in enumerate(specs):
        spec["func"] = (5 * i + 1) % 16
        spec["pair"] = RESOLVING_PAIRS[i % len(RESOLVING_PAIRS)]
        spec["minterm"] = i % 4
        slow = spec["camo_seed"] < CLI_CHAIN["slow_clock_jobs"]
        spec["clock"] = 2e7 if slow else 1e9
        spec["key"] = (
            f"{spec['netlist']}-s{spec['camo_seed']}-f{spec['func']}-{spec['clock']:g}Hz"
        )
    return specs


def _cli_digests() -> dict:
    return json.loads(CLI_DIGESTS.read_text()) if CLI_DIGESTS.is_file() else {}


def cli_chain_jobs(seed: int, scratch: Path) -> list[Job]:
    specs = cli_specs()
    random.Random(seed).shuffle(specs)
    digests = _cli_digests()
    return [_cli_job(spec, scratch, digests.get(spec["key"])) for spec in specs]


def cli_argvs(spec: dict) -> list[list[str]]:
    """The six commands of one cli-chain job, run inside a fresh directory."""
    n_gates = len(parse_ref(spec["text"])[2])
    rate = CLI_CHAIN["camo_gates"] / n_gates
    lo, hi = spec["pair"]
    oracle = ["--strategy", "random", "--queries", str(CLI_CHAIN["random_queries"])]
    return [
        ["sweep", "--ph", f"{lo:g},{hi:g}", "--vgs-steps", "181", "-o", "sweep"],
        ["gate", "--func", str(spec["func"]), "--ph-low", f"{lo:g}", "--ph-high", f"{hi:g}",
         "--inputs", f"{spec['minterm']:02b}", "--clock-freq", f"{spec['clock']:g}",
         "--margin-csv", "-o", "gate"],
        ["camouflage", "in.bench", "--rate", repr(rate), "--seed", str(spec["camo_seed"]),
         "-o", "camo"],
        ["verify", "in.bench", "camo/camo.bench", "--config", "camo/camo_config.json",
         "-o", "verify"],
        ["attack", "camo/camo.bench", "--config", "camo/camo_config.json",
         "--kind", "profiling", "--mechanism", "implant", "-o", "profiling"],
        ["attack", "camo/camo.bench", "--config", "camo/camo_config.json",
         "--kind", "oracle", *(oracle if spec["netlist"] != "c17" else []), "-o", "oracle"],
    ]


def artifact_digest(root: Path) -> str:
    """SHA-256 over every file below ``root``: relative path and contents."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def run_cli_chain(tv, spec: dict, workdir: Path) -> tuple[list[int], str]:
    """Run one job's commands in ``workdir``; return exit codes and stdout."""
    workdir.mkdir(parents=True)
    (workdir / "in.bench").write_text(spec["text"])
    cwd = os.getcwd()
    codes = []
    stdout = io.StringIO()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(stdout):
            for argv in cli_argvs(spec):
                codes.append(tv.cli.main(argv))
    finally:
        os.chdir(cwd)
    return codes, stdout.getvalue()


def _cli_job(spec: dict, scratch: Path, expected: str | None) -> Job:
    counter = itertools.count()

    kinds = {name: kind for name, kind, _ in parse_ref(spec["text"])[2]}

    def run(tv):
        workdir = scratch / f"{spec['key']}-{next(counter)}"
        codes, stdout = run_cli_chain(tv, spec, workdir)
        return {"codes": codes, "stdout": stdout, "dir": workdir}

    def check(out):
        root = out["dir"]
        if out["codes"] != [0] * 6 or artifact_digest(root) != expected:
            return False
        # Beyond the hashes: the config holds the true functions, verify
        # found the two netlists equivalent, profiling resolved every gate
        # and the oracle attack kept every true function.
        config = json.loads((root / "camo" / "camo_config.json").read_text())
        truth = {g["name"]: g["function_name"] for g in config["gates"]}
        oracle = json.loads((root / "oracle" / "attack_report.json").read_text())
        profiling = json.loads((root / "profiling" / "attack_report.json").read_text())
        return (
            len(truth) == CLI_CHAIN["camo_gates"]
            and all(KIND_BITS[kinds[g["name"]]] == g["function_bits"] for g in config["gates"])
            and "\nequivalent (" in "\n" + out["stdout"]
            and profiling["resolved_gate_fraction"] == 1.0
            and all(f in oracle["per_gate_marginals"][g] for g, f in truth.items())
        )

    def digest(out):
        return _sha(json.dumps([out["codes"], artifact_digest(out["dir"])]))

    return Job(spec["key"], run, check, digest, lambda out: shutil.rmtree(out["dir"]))


# How much a workload's jobs slow down when the host slows the probe: a
# sample is scaled by (PROBE_REF_S / probe) ** sensitivity. Fitted on the
# 2-vCPU test machine over twenty runs of each workload, as the exponent
# that gave the least spread: the large numpy arrays of netlist-signoff slow
# down less than the probe's Python loop, gate-char's Euler loop a little
# more.
HOST_SENSITIVITY = {
    "gate-char": 1.15,
    "netlist-signoff": 0.7,
    "oracle-attack": 1.0,
    "cli-chain": 1.0,
}

WORKLOADS = {
    "gate-char": lambda seed, scratch: gate_char_jobs(seed),
    "netlist-signoff": lambda seed, scratch: netlist_signoff_jobs(seed),
    "oracle-attack": lambda seed, scratch: oracle_attack_jobs(seed),
    "cli-chain": cli_chain_jobs,
}


def warmup_job(workload: str, scratch: Path) -> Job:
    """One small job, the same for every seed, run once during set-up."""
    if workload == "gate-char":
        return _gate_char_job(6, 2e9, RESOLVING_PAIRS[0], 1)
    if workload == "netlist-signoff":
        return _signoff_job("warmup", random_dag(0, 12, 200, 10, 4), 0)
    if workload == "oracle-attack":
        return _attack_job("warmup", C17_TEXT, [C17_GATES[0]])
    spec = next(s for s in cli_specs() if s["clock"] != 2e7)
    return _cli_job(spec, scratch, _cli_digests().get(spec["key"]))
