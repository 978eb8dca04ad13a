"""Command-line front end.

Subcommands: sweep, gate, derive-table, camouflage, verify, attack. Each
``_cmd_*`` computes and returns the paths it read, its artifacts and its
stdout summary; it touches no output file. ``main`` alone checks every output
path, then writes the artifacts and a manifest.json recording the resolved
parameters, so identical argv (and seed) reproduce byte-identical artifacts,
and a rejected command writes nothing.
Exit codes: 0 success, 1 domain or file-system error, 2 usage error.
"""

import argparse
import functools
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
    check_supply,
    margin_report,
    simulate,
    trace_metadata,
    write_margin_csv,
    write_trace_csv,
)

OUT_DIR_ENV = "TVDCAMO_OUT_DIR"
ERROR_PREFIX = "error:"
# Most rows one sweep may write: under tracemalloc, iv_sweep peaks at 80 bytes
# a row with one pH and at 96 with one v_gs (24 are the table), under 1 GB here.
_MAX_SWEEP_ROWS = 10**7


def _resolve(outdir: Path, home: Path, name: str) -> Path:
    """``(outdir / name).resolve()``, ``home`` being ``outdir.resolve()``: a
    bare file name that is not a symlink is ``home / name`` after one lstat."""
    if name not in ("", ".", "..") and os.path.basename(name) == name:
        path = home / name
        if not os.path.islink(path):
            return path
    return (outdir / name).resolve()


def _check_outputs(outdir: Path, artifacts) -> None:
    """UsageError if a command's artifacts cannot all be written where they
    are named, checked before anything is written: an output directory that
    is a file or lies below one; two outputs, or one and manifest.json, that
    resolve to the same path (the later write would replace the earlier);
    one, manifest.json included, that names a directory; or one whose parent
    is neither an existing directory nor the output directory, which is
    created before the first write. ``artifacts`` holds (flag or file name,
    name, data) triples."""
    home = outdir.resolve()
    place = next(p for p in (home, *home.parents) if p.exists())
    if not place.is_dir():
        where = "is" if place == home else "lies below"
        raise UsageError(f"the output directory {where} a file: {place}")
    manifest = _resolve(outdir, home, "manifest.json")
    resolved = [(label, name, _resolve(outdir, home, name)) for label, name, _ in artifacts]
    seen = {manifest: "manifest.json"}
    for label, _, path in resolved:
        if path in seen:
            raise UsageError(f"{label} names the same file as {seen[path]}: {path}")
        seen[path] = label
    for label, name, path in [*resolved, ("manifest.json", "manifest.json", manifest)]:
        if path == home or path.is_dir():
            raise UsageError(f"{label} names a directory: {path}")
        # The write opens ``outdir / name`` as given, so a ".." in the name
        # needs the directory before it to exist.
        parent = (outdir / name).parent
        if not (parent.is_dir() or (path.parent == home and ".." not in Path(name).parts)):
            raise UsageError(f"{label} is in a directory that does not exist: {parent}")


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _manifest(args, inputs, outputs) -> str:
    params = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k != "func_impl"
    }
    manifest = {
        "subcommand": args.subcommand,
        "parameters": params,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }
    return _json(manifest)


def _add_field_flags(p, cls):
    """One float ``--field-name`` flag per dataclass field, with its default."""
    for f in fields(cls):
        p.add_argument(
            "--" + f.name.replace("_", "-"),
            type=float,
            default=f.default,
            help=f.metadata["help"],
        )


def _from_args(cls, args):
    """Build ``cls`` from the parsed flags named like its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _read_text(path) -> str:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"no such file: {p}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{p} is not UTF-8 text: {exc.reason} at offset {exc.start}") from None


def _cmd_sweep(args, outdir: Path) -> tuple[list, list, str]:
    params = _from_args(IsfetParams, args)
    if args.vgs_steps < 1:
        raise UsageError("--vgs-steps must be at least 1")
    # Before np.linspace, which warns on an infinite endpoint.
    if not (math.isfinite(args.vgs_start) and math.isfinite(args.vgs_stop)):
        raise UsageError("--vgs-start and --vgs-stop must be finite")
    try:
        phs = [float(tok) for tok in args.ph.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--ph must list numbers, got {args.ph!r}") from None
    # Before np.linspace, which would try to allocate the whole grid.
    rows = args.vgs_steps * max(len(phs), 1)
    if rows > _MAX_SWEEP_ROWS:
        raise UsageError(
            f"--vgs-steps times the --ph count is {rows} rows, more than {_MAX_SWEEP_ROWS}"
        )
    if args.vgs_steps == 1:
        grid = np.array([args.vgs_start])
    else:
        # A span near the float limit can overflow; iv_sweep rejects inf and nan.
        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.linspace(args.vgs_start, args.vgs_stop, args.vgs_steps)
    table = iv_sweep(params, grid, args.vds, phs)
    csv = ("sweep.csv", "sweep.csv", functools.partial(write_sweep_csv, table))
    return [], [csv], f"wrote {outdir / 'sweep.csv'} ({table.shape[0]} rows)"


def _cmd_gate(args, outdir: Path) -> tuple[list, list, str]:
    params = _from_args(IsfetParams, args)
    cfg = _from_args(SimConfig, args)
    check_supply(params, cfg)
    function = TruthTable2.from_name(args.func)
    program = GatePhProgram(args.ph_low, args.ph_high, assignment_for(function))
    if args.inputs == "all":
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    else:
        token = args.inputs.strip()
        if len(token) != 2 or any(c not in "01" for c in token):
            raise UsageError(f"--inputs must be two bits or 'all', got {args.inputs!r}")
        pairs = [(int(token[0]), int(token[1]))]

    artifacts = []
    lines = []
    bits = []
    for a, b in pairs:
        trace = simulate(program, params, cfg, a, b)
        stem = f"gate_{args.func.lower()}_a{a}b{b}"
        csv, meta = f"{stem}.csv", f"{stem}.meta.json"
        artifacts += [
            (csv, csv, functools.partial(write_trace_csv, trace)),
            (meta, meta, _json(trace_metadata(program, params, cfg, a, b, trace))),
        ]
        bits.append(trace.output_str)
        rt = "-" if trace.resolve_time is None else f"{trace.resolve_time:.3e} s"
        lines.append(f"a={a} b={b} -> {trace.output_str} (resolve {rt})")

    if args.margin_csv:
        margin = f"gate_{args.func.lower()}_margin.csv"
        rows = margin_report(program, params, cfg)
        artifacts.append((margin, margin, functools.partial(write_margin_csv, rows)))
    lines.append(f"outputs: {','.join(bits)}")
    return [], artifacts, "\n".join(lines)


def _cmd_derive_table(args, outdir: Path) -> tuple[list, list, str]:
    lines = ["bits  name         lvt_on_out_side (m=00,01,10,11)"]
    for f in TruthTable2:
        assignment = assignment_for(f)
        flags = ",".join("L" if x else "H" for x in assignment.lvt_on_out_side)
        lines.append(f"{f.value:04b}  {f.name:<12} {flags}")
    return [], [], "\n".join(lines)


def _cmd_camouflage(args, outdir: Path) -> tuple[list, list, str]:
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
    artifacts = [
        ("--out-bench", args.out_bench, serialize_bench(camo_netlist)),
        ("--out-config", args.out_config, cfg.to_json()),
    ]
    summary = (
        f"camouflaged {len(cfg.gates)} of {len(netlist._names)} gates; "
        f"wrote {outdir / args.out_bench} and {outdir / args.out_config}"
    )
    return [args.netlist], artifacts, summary


def _cmd_verify(args, outdir: Path) -> tuple[list, list, str]:
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
    if result.equivalent:
        summary = f"equivalent ({result.vectors_checked}/{result.vectors_total} vectors)"
    else:
        vec = "".join(str(v) for v in result.counterexample)
        outs_a = "".join(str(v) for v in result.outputs_a)
        outs_b = "".join(str(v) for v in result.outputs_b)
        summary = f"not equivalent: counterexample {vec} -> {outs_a} vs {outs_b}"
    return [args.netlist_a, args.netlist_b] + ([args.config] if args.config else []), [], summary


def _cmd_attack(args, outdir: Path) -> tuple[list, list, str]:
    camo = parse_bench(_read_text(args.netlist))
    cfg = CamoConfig.from_json(_read_text(args.config))

    if args.kind == "profiling":
        vis = DeviceVisibility.from_config(cfg, args.mechanism)
        resolution = profiling_attack(camo, vis)
        resolved = {k: v for k, v in resolution.items() if v is not None}
        report = {
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
        recon = None
        if resolved and len(resolved) == len(resolution):
            recon = serialize_bench(reconstruct(camo, resolution))
            report["reconstructed"] = str(outdir / "reconstructed.bench")
        # Checked even when it is not written.
        extra = [("reconstructed.bench", "reconstructed.bench", recon)]
        summary = (
            f"profiling ({args.mechanism}): resolved "
            f"{len(resolved)}/{len(resolution)} gates"
        )
    else:
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
        report = {"strategy": args.strategy, **resilience_report(state)}
        extra = []
        summary = (
            f"oracle attack: {state.queries} queries, "
            f"{state.joint_survivors} joint survivors "
            f"({state.ambiguity_bits:.1f} bits)"
        )
    report.update(netlist=str(args.netlist), camo_gates=list(camo.camo_gates))
    artifacts = [("--out-report", args.out_report, _json(report)), *extra]
    return [args.netlist, args.config], artifacts, f"{summary}; wrote {outdir / args.out_report}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
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
    _add_field_flags(p, SimConfig)
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
        outdir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or ".")
        inputs, artifacts, summary = args.func_impl(args, outdir)
        _check_outputs(outdir, artifacts)
        # The manifest leaves out the profiling attack's reconstructed.bench,
        # which keeps the bytes of every manifest that pins it.
        outputs = [outdir / name for label, name, _ in artifacts if label != "reconstructed.bench"]
        artifacts.append(("manifest.json", "manifest.json", _manifest(args, inputs, outputs)))
        outdir.mkdir(parents=True, exist_ok=True)
        for _, name, data in artifacts:
            if data is not None:
                with open(outdir / name, "w") as fh:
                    if isinstance(data, str):
                        fh.write(data)
                    else:
                        data(fh)
        print(summary)
        return 0
    except (UsageError, DomainError, OSError) as exc:
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
