"""Span tracing around the public functions of every ``tvdcamo`` layer.

The tracer swaps each public module-level function, wherever a layer
module holds a reference to it (``camo.eval_vectors`` and
``bench.eval_vectors`` share one wrapper), for a wrapper that times the
call. Spans nest: a span's self time is its duration minus the time its
child spans cover. Counters are computed in the benchmark from each call's
arguments and result, never read from the program.
"""

import functools
import inspect
import time
from collections import defaultdict
from pathlib import Path

# Layer name in metric names -> module name in the package. Metric names must
# start with a letter, so ``_kernels`` reports as ``kernels``.
LAYERS = {
    "device": "device",
    "gates": "gates",
    "transient": "transient",
    "kernels": "_kernels",
    "bench": "bench",
    "camo": "camo",
    "attack": "attack",
    "cli": "cli",
}
_LAYER_OF_MODULE = {mod: layer for layer, mod in LAYERS.items()}
# Methods traced besides module-level functions: (layer, class, names).
METHODS = (("camo", "CamoConfig", ("to_json", "from_json")),)


def _layer_of(fn) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    if not mod.startswith("tvdcamo."):
        return None
    return _LAYER_OF_MODULE.get(mod.split(".", 1)[1])


class Tracer:
    """Aggregated spans and counters for one stretch of traced work."""

    def __init__(self, tv):
        self.tv = tv
        self.reset()
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}

    def reset(self):
        # span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []

    def _wrap(self, fn, span: str):
        observe = getattr(self, "_on_" + span.replace(".", "_"), None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                stat = self.spans[span]
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result)
            return result

        return wrapper

    def install(self):
        """Replace every traced function with its wrapper."""
        modules = [self.tv.package] + [getattr(self.tv, layer) for layer in LAYERS]
        for module in modules:
            for name, obj in list(vars(module).items()):
                layer = _layer_of(obj)
                if name.startswith("_") or not inspect.isfunction(obj) or layer is None:
                    continue
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._saved.append((module, name, obj))
                setattr(module, name, self._wrappers[obj])
        for layer, cls_name, methods in METHODS:
            cls = getattr(getattr(self.tv, layer), cls_name)
            for name in methods:
                raw = vars(cls)[name]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if fn not in self._wrappers:
                    self._wrappers[fn] = self._wrap(fn, f"{layer}.{cls_name}.{name}")
                wrapped = self._wrappers[fn]
                self._saved.append((cls, name, raw))
                setattr(cls, name, classmethod(wrapped) if fn is not raw else wrapped)

    def uninstall(self):
        """Put every original function back."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # Counters, computed from the arguments and result of each call.

    def _on_transient_simulate(self, args, trace):
        cfg = args["cfg"]
        eval_steps = cfg.n_steps - cfg.n_steps // 2
        self.counts["transient.eval_steps"] += eval_steps
        self.counts["transient.simulations"] += 1
        if trace.resolve_time is None:
            self.counts["transient.unresolved"] += 1
            self.counts["transient.resolve_steps"] += eval_steps
        else:
            self.counts["transient.resolve_steps"] += round(trace.resolve_time / cfg.dt)

    def _on_device_iv_sweep(self, args, table):
        self.counts["device.iv_sweep.rows"] += table.shape[0]

    def _on_bench_eval_vectors(self, args, outs):
        arrays = args["input_arrays"]
        width = len(next(iter(arrays.values()))) if arrays else 0
        self.counts["bench.gate_vector_evals"] += len(args["n"].gates) * width

    def _on_bench_parse_bench(self, args, netlist):
        self.counts["bench.parse_bench.lines"] += len(args["text"].splitlines())

    def _on_camo_verify_equivalence(self, args, result):
        self.counts["camo.vectors_checked"] += result.vectors_checked

    def _on_attack_oracle_attack(self, args, state):
        history = state.survivor_history
        self.counts["attack.queries"] += state.queries
        self.counts["attack.survivors_final"] += state.joint_survivors
        if state.mode == "joint":
            # Query q evaluates every candidate alive before it.
            self.counts["attack.candidate_evals"] += sum(history[: state.queries])
            self.counts["attack.candidates_eliminated"] += history[0] - history[-1]

    def _on_cli_main(self, args, code):
        argv = list(args["argv"] or [])
        out_dir = Path(argv[argv.index("-o") + 1]) if "-o" in argv else Path(".")
        self.counts["cli.bytes_written"] += sum(
            p.stat().st_size for p in out_dir.rglob("*") if p.is_file()
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by BENCHMARK.json name."""
    spans, counts = tracer.spans, tracer.counts

    def calls(name):
        return spans[name][0] if name in spans else 0

    def total(name):
        return spans[name][1] if name in spans else 0.0

    def self_s(name):
        return spans[name][2] if name in spans else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            s[2] for name, s in spans.items() if name.split(".", 1)[0] == layer
        )
    for name in (
        "kernels.integrate", "transient.simulate", "transient.margin_report",
        "transient.write_trace_csv", "device.iv_sweep", "gates.evaluate_static",
        "bench.eval_vectors", "bench.parse_bench", "bench.serialize_bench",
        "bench.eval_logic", "camo.verify_equivalence", "camo.camouflage",
        "attack.oracle_attack", "attack.profiling_attack", "cli.main",
    ):
        m[f"{name}.self_s"] = self_s(name)
    for name in ("gates.evaluate_static", "bench.eval_vectors", "bench.eval_logic", "cli.main"):
        m[f"{name}.calls"] = calls(name)
    m["camo.config_json.self_s"] = self_s("camo.CamoConfig.to_json") + self_s(
        "camo.CamoConfig.from_json"
    )

    eval_steps = counts["transient.eval_steps"]
    m["transient.eval_steps"] = eval_steps
    m["transient.resolve_steps"] = counts["transient.resolve_steps"]
    m["transient.resolve_step_frac"] = _ratio(counts["transient.resolve_steps"], eval_steps)
    m["transient.unresolved_frac"] = _ratio(
        counts["transient.unresolved"], counts["transient.simulations"]
    )
    m["kernels.steps_per_s"] = _ratio(eval_steps, total("kernels.integrate"))
    m["device.iv_sweep.rows_per_s"] = _ratio(
        counts["device.iv_sweep.rows"], total("device.iv_sweep")
    )
    m["bench.gate_vector_evals"] = counts["bench.gate_vector_evals"]
    m["bench.gate_vector_evals_per_s"] = _ratio(
        counts["bench.gate_vector_evals"], total("bench.eval_vectors")
    )
    m["bench.parse_bench.lines_per_s"] = _ratio(
        counts["bench.parse_bench.lines"], total("bench.parse_bench")
    )
    m["camo.vectors_checked"] = counts["camo.vectors_checked"]
    m["attack.queries"] = counts["attack.queries"]
    m["attack.candidate_evals"] = counts["attack.candidate_evals"]
    m["attack.prune_frac"] = _ratio(
        counts["attack.candidates_eliminated"], counts["attack.candidate_evals"]
    )
    m["attack.survivors_final"] = counts["attack.survivors_final"]
    m["cli.bytes_written"] = counts["cli.bytes_written"]
    return m
