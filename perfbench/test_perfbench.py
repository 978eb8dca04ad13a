"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gen import C17_TEXT, KIND_BITS, parse_ref, random_dag, ref_eval  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def tv():
    return run.import_fresh()


def test_generator_is_deterministic_per_seed():
    a = random_dag(7, 14, 300, 12, 4)
    assert a == random_dag(7, 14, 300, 12, 4)
    assert a != random_dag(8, 14, 300, 12, 4)


def test_generator_shape(tv):
    inputs, outputs, gates = parse_ref(random_dag(3, 12, 200, 10, 4))
    assert len(inputs) == 12 and len(gates) == 200 and outputs
    assert all(kind in KIND_BITS and len(fanin) == 2 for _, kind, fanin in gates)
    level = {name: 0 for name in inputs}
    for name, _, (a, b) in gates:
        level[name] = 1 + max(level[a], level[b])
    assert max(level.values()) == 10
    netlist = tv.bench.parse_bench(random_dag(3, 12, 200, 10, 4))
    camo, cfg = tv.camo.camouflage(netlist, fraction=1.0, seed=0)
    assert len(cfg.gates) == 200


def test_job_lists_are_deterministic_per_seed(tmp_path):
    for name, make in workloads.WORKLOADS.items():
        keys = [job.key for job in make(5, tmp_path)]
        assert keys == [job.key for job in make(5, tmp_path)], name


def test_reference_evaluator_matches_program(tv):
    rng = random.Random(0)
    text = random_dag(11, 8, 120, 9, 3)
    ref = parse_ref(text)
    vectors = [[rng.randrange(2) for _ in range(8)] for _ in range(64)]
    netlist = tv.bench.parse_bench(text)
    arrays = {name: np.array([v[i] for v in vectors], dtype=bool)
              for i, name in enumerate(netlist.inputs)}
    outs = tv.bench.eval_vectors(netlist, arrays)
    expect = [tuple(int(o[j]) for o in outs) for j in range(64)]
    assert ref_eval(ref, vectors) == expect


def _cheap_jobs(tmp_path):
    """A few jobs of every workload, skipping the slowest sizes."""
    yield from workloads.gate_char_jobs(1)[:4]
    yield from [j for j in workloads.netlist_signoff_jobs(1) if "x200-" in j.key][:2]
    yield from workloads.oracle_attack_jobs(1)[:4]
    yield from [j for j in workloads.cli_chain_jobs(1, tmp_path) if "1e+09Hz" in j.key][:2]


def test_traced_and_untraced_outputs_are_identical(tv, tmp_path):
    tracer = tracing.Tracer(tv)
    for job in _cheap_jobs(tmp_path):
        _, plain = run.run_job(job, tv)
        _, traced = run.run_job(job, tv, tracer)
        assert plain is not None and traced is not None, job.key
        assert job.check(plain) and job.check(traced), job.key
        assert job.digest(plain) == job.digest(traced), job.key
        job.cleanup(plain)
        job.cleanup(traced)
    # The tracer saw calls into every layer that does work, and put every
    # original function back afterwards.
    layers = {name.split(".", 1)[0] for name in tracer.spans}
    assert {"device", "gates", "transient", "kernels", "bench", "camo", "attack", "cli"} <= layers
    assert tv.camo.eval_vectors is tv.bench.eval_vectors
    assert not hasattr(tv.bench.eval_vectors, "__wrapped__")


def test_counts_repeat_exactly(tv):
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer(tv)
        for job in workloads.oracle_attack_jobs(2)[:6]:
            run.run_job(job, tv, tracer)
        metrics = tracing.layer_metrics(tracer)
        counts.append({k: v for k, v in metrics.items() if not k.endswith(("_s", "_per_s"))})
    assert counts[0] == counts[1]
    assert counts[0]["attack.queries"] > 0


def test_check_rejects_a_wrong_answer(tv):
    job = workloads._attack_job("c17", C17_TEXT, ["10", "22"])
    _, out = run.run_job(job, tv)
    assert job.check(out)
    out["state"].survivors = [s for s in out["state"].survivors if s[0] != 14] or [(0, 0)]
    assert not job.check(out)


def test_metric_names_match_benchmark_json(tv):
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert end_to_end == run.UNITS
    traced = set(tracing.layer_metrics(tracing.Tracer(tv))) | {"trace.overhead_frac"}
    assert set(per_layer) == traced
    assert all(per_layer[name] == run.unit_of(name) for name in per_layer)
    for name in list(end_to_end) + list(per_layer) + [w["name"] for w in SPEC["workloads"]]:
        assert NAME_RE.match(name), name
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_cli_digests_cover_every_job():
    digests = json.loads(workloads.CLI_DIGESTS.read_text())
    assert set(digests) == {spec["key"] for spec in workloads.cli_specs()}


def test_tail_percentile_leaves_ten_jobs_beyond():
    assert run.tail_percentile(64) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(438) == 95.0
    assert run.tail_percentile(1000) == 99.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate-char", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    import compare

    record = json.loads((HERE / "results" / "seed" / "trace0.json").read_text())["runs"][0]
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(record))
    new.write_text(json.dumps(record))
    assert compare.main([str(base), str(new)]) == 0
    record["env"]["backend"] = "numba"
    new.write_text(json.dumps(record))
    assert compare.main([str(base), str(new)]) == 2
    assert "backend differs" in capsys.readouterr().err


def test_host_clock_scales_by_the_probes_around_a_sample():
    clock = run.HostClock()
    clock.times = [0.0, 0.1, 0.2, 1.0, 1.1, 5.0]
    clock.values = [run.PROBE_REF_S * k for k in (1, 1, 1, 2, 2, 4)]
    assert clock.factor(0.05, 0.15) == pytest.approx(1.0)
    assert clock.factor(1.02, 1.08) == pytest.approx(0.5)
    # No probe within the margin: the closest one in time.
    assert clock.factor(4.0, 4.1) == pytest.approx(0.25)
    clock.sensitivity = 0.5
    assert clock.factor(4.0, 4.1) == pytest.approx(0.5)
    assert set(workloads.HOST_SENSITIVITY) == set(workloads.WORKLOADS)


def test_only_short_gate_char_jobs_repeat():
    jobs = workloads.gate_char_jobs(1)
    for job in jobs:
        slow = "-2e+07Hz-" in job.key
        assert job.repeats == (1 if slow else workloads.GATE_CHAR["fast_repeats"]), job.key
