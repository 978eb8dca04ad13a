"""Command-line front end.

Subcommands: sweep, gate, derive-table, camouflage, verify, attack. Every
run writes a manifest.json next to its outputs recording the resolved
parameters, so identical argv (and seed) reproduce byte-identical artifacts.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .attack import (
    DEFAULT_JOINT_LIMIT,
    DeviceVisibility,
    oracle_attack,
    profiling_attack,
    reconstruct,
    resilience_report,
)
from .bench import parse_bench, serialize_bench
from .camo import CamoConfig, camouflage, verify_equivalence
from .device import IsfetParams, iv_sweep, write_sweep_csv
from .errors import DomainError, UsageError
from .gates import GatePhProgram, TruthTable2, assignment_for
from .transient import (
    SimConfig,
    margin_report,
    simulate,
    trace_metadata,
    write_margin_csv,
    write_trace_csv,
)

OUT_DIR_ENV = "TVDCAMO_OUT_DIR"
ERROR_PREFIX = "error:"


def _out_dir(args) -> Path:
    base = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_manifest(outdir: Path, subcommand: str, args, inputs, outputs):
    params = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k != "func_impl"
    }
    manifest = {
        "subcommand": subcommand,
        "parameters": params,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }
    _write_json(outdir / "manifest.json", manifest)


def _add_field_flags(p, cls, skip=()):
    """One float ``--field-name`` flag per dataclass field, with its default."""
    for f in fields(cls):
        if f.name not in skip:
            p.add_argument(
                "--" + f.name.replace("_", "-"),
                type=float,
                default=f.default,
                help=f.metadata["help"],
            )


def _from_args(cls, args):
    """Build ``cls`` from the parsed flags named like its fields."""
    names = [f.name for f in fields(cls) if hasattr(args, f.name)]
    return cls(**{name: getattr(args, name) for name in names})


def _read_text(path) -> str:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"no such file: {p}")
    return p.read_text()


def _cmd_sweep(args) -> int:
    outdir = _out_dir(args)
    params = _from_args(IsfetParams, args)
    if args.vgs_steps < 1:
        raise UsageError("--vgs-steps must be at least 1")
    # Before np.linspace, which warns on an infinite endpoint.
    if not (math.isfinite(args.vgs_start) and math.isfinite(args.vgs_stop)):
        raise UsageError("--vgs-start and --vgs-stop must be finite")
    if args.vgs_steps == 1:
        grid = np.array([args.vgs_start])
    else:
        grid = np.linspace(args.vgs_start, args.vgs_stop, args.vgs_steps)
    try:
        phs = [float(tok) for tok in args.ph.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--ph must list numbers, got {args.ph!r}") from None
    table = iv_sweep(params, grid, args.vds, phs)
    csv_path = outdir / "sweep.csv"
    with open(csv_path, "w") as fh:
        write_sweep_csv(table, fh)
    _write_manifest(outdir, "sweep", args, [], [csv_path])
    print(f"wrote {csv_path} ({table.shape[0]} rows)")
    return 0


def _program_from_args(args) -> GatePhProgram:
    function = TruthTable2.from_name(args.func)
    return GatePhProgram(
        ph_low=args.ph_low,
        ph_high=args.ph_high,
        assignment=assignment_for(function),
    )


def _cmd_gate(args) -> int:
    outdir = _out_dir(args)
    params = _from_args(IsfetParams, args)
    cfg = _from_args(SimConfig, args)
    program = _program_from_args(args)
    if args.inputs == "all":
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    else:
        token = args.inputs.strip()
        if len(token) != 2 or any(c not in "01" for c in token):
            raise UsageError(f"--inputs must be two bits or 'all', got {args.inputs!r}")
        pairs = [(int(token[0]), int(token[1]))]

    outputs = []
    bits = []
    for a, b in pairs:
        trace = simulate(program, params, cfg, a, b)
        stem = f"gate_{args.func.lower()}_a{a}b{b}"
        csv_path = outdir / f"{stem}.csv"
        with open(csv_path, "w") as fh:
            write_trace_csv(trace, fh)
        meta_path = outdir / f"{stem}.meta.json"
        _write_json(meta_path, trace_metadata(program, params, cfg, a, b, trace))
        outputs.extend([csv_path, meta_path])
        bits.append(trace.output_str)
        rt = "-" if trace.resolve_time is None else f"{trace.resolve_time:.3e} s"
        print(f"a={a} b={b} -> {trace.output_str} (resolve {rt})")

    if args.margin_csv:
        margin_path = outdir / f"gate_{args.func.lower()}_margin.csv"
        with open(margin_path, "w") as fh:
            write_margin_csv(margin_report(program, params, cfg), fh)
        outputs.append(margin_path)
    print(f"outputs: {','.join(bits)}")
    _write_manifest(outdir, "gate", args, [], outputs)
    return 0


def _cmd_derive_table(args) -> int:
    outdir = _out_dir(args)
    print("bits  name         lvt_on_out_side (m=00,01,10,11)")
    for f in TruthTable2:
        assignment = assignment_for(f)
        flags = ",".join("L" if x else "H" for x in assignment.lvt_on_out_side)
        print(f"{f.value:04b}  {f.name:<12} {flags}")
    _write_manifest(outdir, "derive-table", args, [], [])
    return 0


def _cmd_camouflage(args) -> int:
    outdir = _out_dir(args)
    netlist = parse_bench(_read_text(args.netlist))
    if (args.gates is None) == (args.rate is None):
        raise UsageError("specify exactly one of --gates or --rate")
    kwargs = {}
    if args.gates is not None:
        kwargs["gates"] = [tok.strip() for tok in args.gates.split(",") if tok.strip()]
    else:
        kwargs["fraction"] = args.rate
        kwargs["seed"] = args.seed
    camo_netlist, cfg = camouflage(
        netlist,
        ph_low=args.ph_low,
        ph_high=args.ph_high,
        params=_from_args(IsfetParams, args),
        **kwargs,
    )
    bench_path = outdir / args.out_bench
    bench_path.write_text(serialize_bench(camo_netlist))
    config_path = outdir / args.out_config
    config_path.write_text(cfg.to_json())
    _write_manifest(
        outdir, "camouflage", args, [args.netlist], [bench_path, config_path]
    )
    print(
        f"camouflaged {len(cfg.gates)} of {len(netlist.gates)} gates; "
        f"wrote {bench_path} and {config_path}"
    )
    return 0


def _cmd_verify(args) -> int:
    outdir = _out_dir(args)
    a = parse_bench(_read_text(args.netlist_a))
    b = parse_bench(_read_text(args.netlist_b))
    bindings = None
    if args.config:
        bindings = CamoConfig.from_json(_read_text(args.config)).bindings()
    result = verify_equivalence(
        a,
        b,
        bindings=bindings,
        mode=args.mode,
        n_vectors=args.vectors,
        seed=args.seed,
    )
    _write_manifest(
        outdir,
        "verify",
        args,
        [args.netlist_a, args.netlist_b] + ([args.config] if args.config else []),
        [],
    )
    if result.equivalent:
        print(f"equivalent ({result.vectors_checked}/{result.vectors_total} vectors)")
        return 0
    vec = "".join(str(v) for v in result.counterexample)
    outs_a = "".join(str(v) for v in result.outputs_a)
    outs_b = "".join(str(v) for v in result.outputs_b)
    print(f"not equivalent: counterexample {vec} -> {outs_a} vs {outs_b}")
    return 0


def _cmd_attack(args) -> int:
    outdir = _out_dir(args)
    camo = parse_bench(_read_text(args.netlist))
    cfg = CamoConfig.from_json(_read_text(args.config))
    report_path = outdir / args.out_report

    if args.kind == "profiling":
        vis = DeviceVisibility.from_config(cfg, args.mechanism)
        resolution = profiling_attack(camo, vis)
        resolved = {k: v for k, v in resolution.items() if v is not None}
        report = {
            "netlist": str(args.netlist),
            "camo_gates": list(camo.camo_gates),
            "strategy": f"profiling-{args.mechanism}",
            "queries": 0,
            "joint_survivors": 16 ** (len(resolution) - len(resolved)),
            "ambiguity_bits": 4.0 * (len(resolution) - len(resolved)),
            "resolved_gate_fraction": (
                len(resolved) / len(resolution) if resolution else 1.0
            ),
            "per_gate_marginals": {
                name: ([f.name] if f is not None else sorted(t.name for t in TruthTable2))
                for name, f in resolution.items()
            },
        }
        if resolved and len(resolved) == len(resolution):
            recon_path = outdir / "reconstructed.bench"
            recon_path.write_text(serialize_bench(reconstruct(camo, resolution)))
            report["reconstructed"] = str(recon_path)
        _write_json(report_path, report)
        _write_manifest(
            outdir, "attack", args, [args.netlist, args.config], [report_path]
        )
        print(
            f"profiling ({args.mechanism}): resolved "
            f"{len(resolved)}/{len(resolution)} gates; wrote {report_path}"
        )
        return 0

    state = oracle_attack(
        camo,
        camo,
        oracle_bindings=cfg.bindings(),
        strategy=args.strategy,
        n_queries=args.queries,
        seed=args.seed,
        joint_limit=args.joint_limit,
        marginal_fallback=args.marginal_fallback,
    )
    report = {
        "netlist": str(args.netlist),
        "camo_gates": list(state.camo_gates),
        "strategy": args.strategy,
        **resilience_report(state),
    }
    _write_json(report_path, report)
    _write_manifest(
        outdir, "attack", args, [args.netlist, args.config], [report_path]
    )
    print(
        f"oracle attack: {state.queries} queries, "
        f"{state.joint_survivors} joint survivors "
        f"({state.ambiguity_bits:.1f} bits); wrote {report_path}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvdcamo",
        description=(
            "pH-programmable threshold-voltage-defined logic: device sweeps, "
            "gate simulation, netlist camouflaging, and attack evaluation"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sweep", help="export a v_gs/pH drain-current sweep as CSV")
    _add_field_flags(p, IsfetParams)
    p.add_argument("--vgs-start", type=float, default=0.0)
    p.add_argument("--vgs-stop", type=float, default=1.8)
    p.add_argument("--vgs-steps", type=int, default=37)
    p.add_argument("--vds", type=float, default=0.1)
    p.add_argument("--ph", default="2,10", help="comma-separated pH list")
    p.add_argument("-o", "--out-dir", default=None)
    p.set_defaults(func_impl=_cmd_sweep)

    p = sub.add_parser("gate", help="simulate one camouflaged gate transient")
    _add_field_flags(p, IsfetParams)
    # vdd comes from the device flags; pmos_vth has no flag.
    _add_field_flags(p, SimConfig, skip=("vdd", "pmos_vth"))
    p.add_argument("--func", required=True, help="function name or 0..15")
    p.add_argument("--ph-low", type=float, default=2.0)
    p.add_argument("--ph-high", type=float, default=10.0)
    p.add_argument("--inputs", default="all", help="two bits (e.g. 01) or 'all'")
    p.add_argument("--margin-csv", action="store_true", help="also write margin report")
    p.add_argument("-o", "--out-dir", default=None)
    p.set_defaults(func_impl=_cmd_gate)

    p = sub.add_parser(
        "derive-table", help="print all 16 functions and their branch assignments"
    )
    p.add_argument("-o", "--out-dir", default=None)
    p.set_defaults(func_impl=_cmd_derive_table)

    p = sub.add_parser("camouflage", help="replace gates with camouflaged instances")
    _add_field_flags(p, IsfetParams)
    p.add_argument("netlist", help=".bench netlist to camouflage")
    p.add_argument("--gates", default=None, help="comma-separated gate names")
    p.add_argument("--rate", type=float, default=None, help="fraction of eligible gates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ph-low", type=float, default=2.0)
    p.add_argument("--ph-high", type=float, default=10.0)
    p.add_argument("--out-bench", default="camo.bench")
    p.add_argument("--out-config", default="camo_config.json")
    p.add_argument("-o", "--out-dir", default=None)
    p.set_defaults(func_impl=_cmd_camouflage)

    p = sub.add_parser("verify", help="check two netlists for functional equivalence")
    p.add_argument("netlist_a")
    p.add_argument("netlist_b")
    p.add_argument("--config", default=None, help="camouflage config with bindings")
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--vectors", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out-dir", default=None)
    p.set_defaults(func_impl=_cmd_verify)

    p = sub.add_parser("attack", help="run a profiling or oracle-guided attack")
    p.add_argument("netlist", help="camouflaged .bench netlist")
    p.add_argument(
        "--config", required=True, help="ground-truth config (oracle / visibility)"
    )
    p.add_argument("--kind", choices=["profiling", "oracle"], default="oracle")
    p.add_argument(
        "--mechanism", choices=["implant", "electrolyte"], default="electrolyte"
    )
    p.add_argument("--strategy", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--queries", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--joint-limit", type=int, default=DEFAULT_JOINT_LIMIT)
    p.add_argument("--marginal-fallback", action="store_true")
    p.add_argument("--out-report", default="attack_report.json")
    p.add_argument("-o", "--out-dir", default=None)
    p.set_defaults(func_impl=_cmd_attack)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func_impl(args)
    except UsageError as exc:
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
