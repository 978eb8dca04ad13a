import contextlib
import dataclasses
import errno
import io
import json
import os
import random
import tempfile
import tracemalloc
import warnings
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dag_text, first_difference, naive_eval
from tvdcamo.bench import Gate, parse_bench
from tvdcamo.camo import CamoConfig
from tvdcamo import cli
from tvdcamo.cli import OUT_DIR_ENV, main
from tvdcamo.device import BiasPoint, IsfetParams, ids, iv_sweep
from tvdcamo.gates import TruthTable2, assignment_for
from tvdcamo.transient import SimConfig


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def c17_file(tmp_path, c17_text):
    path = tmp_path / "c17.bench"
    path.write_text(c17_text)
    return path


class TestGateCommand:
    def test_xor_all_inputs(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "gate",
                "--func",
                "XOR",
                "--ph-low",
                "2",
                "--ph-high",
                "10",
                "--inputs",
                "all",
                "-o",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert "outputs: 0,1,1,0" in out
        waveforms = sorted(p.name for p in tmp_path.glob("gate_xor_*.csv"))
        assert waveforms == [
            "gate_xor_a0b0.csv",
            "gate_xor_a0b1.csv",
            "gate_xor_a1b0.csv",
            "gate_xor_a1b1.csv",
        ]
        meta = json.loads((tmp_path / "gate_xor_a0b1.meta.json").read_text())
        assert meta["resolved_output"] == 1
        assert meta["program"]["ph_low"] == 2.0
        header = (tmp_path / "gate_xor_a0b0.csv").read_text().split("\n", 1)[0]
        assert header == "t,v_out,v_out_bar,out,out_bar"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "gate"
        assert manifest["version"]

    def test_single_input_pair(self, tmp_path, capsys):
        code, out, _ = run(
            ["gate", "--func", "AND", "--inputs", "11", "-o", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "a=1 b=1 -> 1" in out

    def test_unresolved_reported(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "gate",
                "--func",
                "XOR",
                "--ph-low",
                "5",
                "--ph-high",
                "5",
                "--inputs",
                "00",
                "-o",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert "unresolved" in out

    @pytest.mark.parametrize("vdd", ["1e155", "1e300", "1.7e308"])
    def test_huge_vdd_is_domain_error(self, tmp_path, capsys, vdd):
        # The divergence bound squares the overdrive: it must give inf, not
        # raise OverflowError, and the error then names the supply, since a
        # smaller dt cannot help.
        out_dir = tmp_path / "out"
        code, _, err = run(
            ["gate", "--func", "XOR", "--inputs", "01", "--vdd", vdd, "-o", str(out_dir)],
            capsys,
        )
        assert code == 1
        assert err == (
            f"error: supply vdd={float(vdd):.3e} V overflows the drive current; "
            "lower vdd\n"
        )
        assert not out_dir.exists()

    def test_unknown_function_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            ["gate", "--func", "XAND", "-o", str(tmp_path)], capsys
        )
        assert code == 2
        assert err.startswith("error:")


class TestSweepCommand:
    def test_writes_csv(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "sweep",
                "--vgs-start",
                "1.8",
                "--vgs-stop",
                "1.8",
                "--vgs-steps",
                "1",
                "--vds",
                "0.1",
                "--ph",
                "2,10",
                "-o",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "v_gs,ph,i_ds"
        assert lines[1] == "1.800000e+00,2.000000e+00,1.450000e-05"
        assert lines[2] == "1.800000e+00,1.000000e+01,9.780000e-06"

    def test_signed_sweep_matches_savetxt(self, tmp_path, capsys):
        # 8002 rows: 4000 start with a negative v_gs, so the first 4096-row
        # block is written row by row through "%"; the second is fixed-width.
        argv = ["sweep", "--vgs-start", "-1.8", "--vgs-stop", "1.8", "--vgs-steps", "4001"]
        code, _, _ = run(argv + ["-o", str(tmp_path)], capsys)
        assert code == 0
        table = iv_sweep(IsfetParams(), np.linspace(-1.8, 1.8, 4001), 0.1, [2.0, 10.0])
        want = io.StringIO()
        np.savetxt(want, table, fmt="%.6e", delimiter=",", header="v_gs,ph,i_ds", comments="")
        got = (tmp_path / "sweep.csv").read_text()
        assert first_difference(got, want.getvalue()) is None
        assert got.count("\n-") == 4000

    def test_huge_vgs_matches_ids_without_warnings(self, tmp_path, capsys):
        # The unused saturation branch overflows above v_gs ~ 1e154; the rows
        # must still be ids() bit for bit, with no RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["sweep", "--vgs-stop", "1e200", "-o", str(tmp_path)], capsys)
        assert (code, err) == (0, "")
        params = IsfetParams()
        want = ["v_gs,ph,i_ds"] + [
            f"{v_gs:.6e},{ph:.6e},{ids(params, BiasPoint(v_gs, 0.1, ph)):.6e}"
            for v_gs in np.linspace(0.0, 1e200, 37).tolist()
            for ph in (2.0, 10.0)
        ]
        assert (tmp_path / "sweep.csv").read_text().splitlines() == want

    def test_out_of_range_ph_is_domain_error(self, tmp_path, capsys):
        code, _, err = run(
            ["sweep", "--ph", "20", "-o", str(tmp_path)], capsys
        )
        assert code == 1
        assert err.startswith("error:")
        assert "20" in err

    def test_non_numeric_ph_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(["sweep", "--ph", "2,x", "-o", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert "2,x" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--vgs-steps", "1000000000000"], ["--vgs-steps", "5000001", "--ph", "2,10"]],
    )
    def test_too_many_rows_is_usage_error(self, tmp_path, capsys, flags):
        out_dir = tmp_path / "out"
        code, _, err = run(["sweep"] + flags + ["-o", str(out_dir)], capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "rows" in err and "10000000" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("n_grid", [10**5, 1])
    def test_sweep_peak_memory_scaled_to_the_ceiling_stays_in_its_figure(self, n_grid):
        # 10**5 rows as one pH or one v_gs, the costliest shapes a row; the
        # _MAX_SWEEP_ROWS comment budgets under 1 GB at the ceiling. numpy
        # reports its buffers to tracemalloc.
        rows = 10**5
        grid = np.linspace(0.0, 1.8, n_grid)
        phs = np.linspace(0.0, 14.0, rows // n_grid).tolist()
        tracemalloc.start()
        try:
            iv_sweep(IsfetParams(), grid, 0.1, phs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak * cli._MAX_SWEEP_ROWS / rows < 1e9


class TestDeriveTable:
    def test_sixteen_rows(self, tmp_path, capsys):
        code, out, _ = run(["derive-table", "-o", str(tmp_path)], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 17  # header + 16 functions
        assert any("XOR" in line and "H,L,L,H" in line for line in lines)
        assert any("FALSE" in line and "H,H,H,H" in line for line in lines)


class TestCamouflageVerifyAttack:
    def test_full_pipeline(self, tmp_path, capsys, c17_file):
        code, out, _ = run(
            [
                "camouflage",
                str(c17_file),
                "--gates",
                "16,19",
                "-o",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "camo.bench").exists()
        cfg_doc = json.loads((tmp_path / "camo_config.json").read_text())
        assert len(cfg_doc["gates"]) == 2

        code, out, _ = run(
            [
                "verify",
                str(c17_file),
                str(tmp_path / "camo.bench"),
                "--config",
                str(tmp_path / "camo_config.json"),
                "-o",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert "equivalent (32/32 vectors)" in out

        code, out, _ = run(
            [
                "attack",
                str(tmp_path / "camo.bench"),
                "--config",
                str(tmp_path / "camo_config.json"),
                "--kind",
                "oracle",
                "-o",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "attack_report.json").read_text())
        assert set(report) >= {
            "netlist",
            "camo_gates",
            "strategy",
            "queries",
            "joint_survivors",
            "ambiguity_bits",
            "per_gate_marginals",
        }
        assert report["camo_gates"] == ["16", "19"]

    def test_camouflage_builds_no_gate(self, tmp_path, capsys, monkeypatch):
        netlist = tmp_path / "dag.bench"
        netlist.write_text(dag_text(random.Random(7), 20, 2000))
        built = []
        unchecked = Gate._unchecked.__func__
        monkeypatch.setattr(
            Gate, "_unchecked", classmethod(lambda cls, *args: built.append(args) or unchecked(cls, *args))
        )
        code, out, _ = run(["camouflage", str(netlist), "--rate", "0.1", "-o", str(tmp_path)], capsys)
        assert code == 0
        assert built == []
        assert out == (
            f"camouflaged 200 of 2000 gates; wrote {tmp_path / 'camo.bench'} and "
            f"{tmp_path / 'camo_config.json'}\n"
        )

    @pytest.mark.parametrize("flipped", ["16", "19", "23"])
    def test_verify_prints_first_mismatch(
        self, tmp_path, capsys, c17_file, c17, flipped
    ):
        run(
            ["camouflage", str(c17_file), "--gates", "16,19,23", "-o", str(tmp_path)],
            capsys,
        )
        config = tmp_path / "camo_config.json"
        doc = json.loads(config.read_text())
        for entry in doc["gates"]:
            if entry["name"] == flipped:
                function = TruthTable2(entry["function_bits"]).complement()
                entry["function_bits"] = int(function)
                entry["function_name"] = function.name
                entry["assignment"] = list(assignment_for(function).lvt_on_out_side)
        config.write_text(json.dumps(doc))
        code, out, _ = run(
            ["verify", str(c17_file), str(tmp_path / "camo.bench"), "--config",
             str(config), "-o", str(tmp_path)],
            capsys,
        )
        assert code == 0
        camo = parse_bench((tmp_path / "camo.bench").read_text())
        bindings = CamoConfig.from_json(config.read_text()).bindings()
        for vec in product((0, 1), repeat=len(c17.inputs)):
            outs_a, outs_b = naive_eval(c17, vec), naive_eval(camo, vec, bindings)
            if outs_a != outs_b:
                break
        else:
            pytest.fail("the flipped gate changes no output")
        line = "not equivalent: counterexample {} -> {} vs {}".format(
            *("".join(map(str, bits)) for bits in (vec, outs_a, outs_b))
        )
        assert out.strip() == line

    def test_rate_zero_identity(self, tmp_path, capsys, c17_file, c17_text):
        code, out, _ = run(
            [
                "camouflage",
                str(c17_file),
                "--rate",
                "0",
                "--seed",
                "1",
                "-o",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert parse_bench((tmp_path / "camo.bench").read_text()) == parse_bench(
            c17_text
        )
        assert json.loads((tmp_path / "camo_config.json").read_text())["gates"] == []

    def test_profiling_attack_both_mechanisms(self, tmp_path, capsys, c17_file):
        run(
            ["camouflage", str(c17_file), "--rate", "1", "-o", str(tmp_path)],
            capsys,
        )
        for mechanism, fraction in (("implant", 1.0), ("electrolyte", 0.0)):
            code, out, _ = run(
                [
                    "attack",
                    str(tmp_path / "camo.bench"),
                    "--config",
                    str(tmp_path / "camo_config.json"),
                    "--kind",
                    "profiling",
                    "--mechanism",
                    mechanism,
                    "-o",
                    str(tmp_path),
                ],
                capsys,
            )
            assert code == 0
            report = json.loads((tmp_path / "attack_report.json").read_text())
            assert report["resolved_gate_fraction"] == fraction

    def test_byte_identical_reruns(self, tmp_path, capsys, c17_file):
        argv = [
            "camouflage",
            str(c17_file),
            "--rate",
            "0.5",
            "--seed",
            "42",
            "-o",
        ]
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert main(argv + [str(dir_a)]) == 0
        assert main(argv + [str(dir_b)]) == 0
        capsys.readouterr()
        for name in ("camo.bench", "camo_config.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        # manifests differ only in the out-dir parameter
        ma = json.loads((dir_a / "manifest.json").read_text())
        mb = json.loads((dir_b / "manifest.json").read_text())
        ma["parameters"].pop("out_dir")
        mb["parameters"].pop("out_dir")
        ma.pop("outputs")
        mb.pop("outputs")
        assert ma == mb


class TestParameterFlags:
    def test_gate_flags_build_the_sim_config(self, tmp_path, capsys):
        argv = ["gate", "--func", "AND", "--inputs", "11", "--vdd", "2.0",
                "--clock-freq", "1e9", "--dt", "2e-12", "--trip", "0.8",
                "--resolve-margin", "0.2", "--c-node", "2e-14", "-o", str(tmp_path)]
        code, _, _ = run(argv, capsys)
        assert code == 0
        meta = json.loads((tmp_path / "gate_and_a1b1.meta.json").read_text())
        assert meta["config"] == {
            "vdd": 2.0,
            "clock_freq": 1e9,
            "c_node": 2e-14,
            "dt": 2e-12,
            "trip": 0.8,
            "resolve_margin": 0.2,
            "pmos_vth": 0.5,
        }
        assert meta["params"]["vdd"] == 2.0

    def test_device_flags_reach_the_config(self, tmp_path, capsys, c17_file):
        code, _, _ = run(
            ["camouflage", str(c17_file), "--gates", "16", "--vth0", "0.25",
             "--k-gain", "2e-4", "-o", str(tmp_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads((tmp_path / "camo_config.json").read_text())
        assert doc["params"] == {
            "k_gain": 2e-4, "vth0": 0.25, "ph_ref": 2.0, "sensitivity": 0.059, "vdd": 1.8
        }

    def test_help_comes_from_field_metadata(self, capsys):
        assert main(["gate", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "threshold shift, V/pH" in out
        assert "differential node capacitance, F" in out

    def test_every_device_and_sim_field_is_a_gate_flag(self):
        parse = cli.build_parser().parse_args
        defaults = vars(parse(["gate", "--func", "XOR"]))
        for f in [*dataclasses.fields(IsfetParams), *dataclasses.fields(SimConfig)]:
            assert defaults[f.name] == f.default, f.name
            flag = "--" + f.name.replace("_", "-")
            assert getattr(parse(["gate", "--func", "XOR", flag, "0.25"]), f.name) == 0.25

    def test_impossible_ph_rejected_at_compile_time(self, tmp_path, capsys, c17_file):
        code, _, err = run(
            ["camouflage", str(c17_file), "--rate", "0.5", "--ph-high", "20",
             "-o", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert err.startswith("error:")
        assert "20" in err
        assert not (tmp_path / "camo_config.json").exists()


    def test_impossible_ph_rejected_when_no_gate_is_selected(
        self, tmp_path, capsys, c17_file
    ):
        out_dir = tmp_path / "out"
        code, _, err = run(
            ["camouflage", str(c17_file), "--rate", "0", "--ph-high", "20",
             "-o", str(out_dir)],
            capsys,
        )
        assert code == 1
        assert err.startswith("error:")
        assert "20" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("rate", ["0.5", "0"])
    def test_unresolvable_ph_pair_rejected_at_compile_time(
        self, tmp_path, capsys, c17_file, rate
    ):
        out_dir = tmp_path / "out"
        code, _, err = run(
            ["camouflage", str(c17_file), "--rate", rate, "--sensitivity", "0",
             "-o", str(out_dir)],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: unresolvable gate")
        assert not out_dir.exists()

    @pytest.mark.parametrize("ph_pair", [[], ["--ph-low", "1", "--ph-high", "2"]])
    def test_overflowing_drive_rejected_at_compile_time(
        self, tmp_path, capsys, c17_file, ph_pair
    ):
        # Branch currents of inf and 0, or nan and inf: neither pair resolves.
        out_dir = tmp_path / "out"
        code, _, err = run(
            ["camouflage", str(c17_file), "--gates", "16", "--vdd", "1e200",
             "--sensitivity", "1e200", *ph_pair, "-o", str(out_dir)],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: unresolvable gate") and err.count("\n") == 1
        assert "not finite" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("subcommand", ["gate", "camouflage"])
    def test_reversed_ph_pair_is_domain_error(
        self, tmp_path, capsys, c17_file, subcommand
    ):
        out_dir = tmp_path / "out"
        head = {
            "gate": ["gate", "--func", "XOR", "--inputs", "all"],
            "camouflage": ["camouflage", str(c17_file), "--rate", "0.5"],
        }[subcommand]
        code, _, err = run(
            head + ["--ph-low", "10", "--ph-high", "2", "-o", str(out_dir)], capsys
        )
        assert code == 1
        assert err.startswith("error:")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gate", "--func", "AND", "--clock-freq", "nan"],
            ["gate", "--func", "AND", "--dt", "nan"],
            ["gate", "--func", "AND", "--k-gain", "nan"],
            ["gate", "--func", "AND", "--c-node", "inf"],
            ["sweep", "--k-gain", "inf"],
            ["sweep", "--sensitivity", "nan"],
            ["sweep", "--vds", "nan"],
            ["sweep", "--vds", "inf"],
            ["sweep", "--vgs-steps", "1", "--vgs-start", "nan"],
            ["sweep", "--vgs-stop", "inf"],
            ["camouflage", "C17", "--rate", "0.5", "--k-gain", "nan"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_non_finite_flag_is_usage_error(self, tmp_path, capsys, c17_file, argv):
        out_dir = tmp_path / "out"
        argv = [str(c17_file) if tok == "C17" else tok for tok in argv]
        code, _, err = run(argv + ["-o", str(out_dir)], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags", [["--clock-freq", "1"], ["--clock-freq", "1e-300"], ["--dt", "1e-320"]]
    )
    def test_too_many_steps_is_usage_error(self, tmp_path, capsys, flags):
        out_dir = tmp_path / "out"
        code, _, err = run(["gate", "--func", "AND"] + flags + ["-o", str(out_dir)], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert "steps" in err and "--clock-freq" in err and "--dt" in err
        assert not out_dir.exists()

    def test_invalid_config_params_is_domain_error(self, tmp_path, capsys, c17_file):
        run(["camouflage", str(c17_file), "--gates", "16", "-o", str(tmp_path)], capsys)
        config = tmp_path / "camo_config.json"
        doc = json.loads(config.read_text())
        doc["params"]["k_gain"] = -1
        config.write_text(json.dumps(doc))
        code, _, err = run(
            ["verify", str(c17_file), str(tmp_path / "camo.bench"), "--config",
             str(config), "-o", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert err.startswith("error:")
        assert "k_gain" in err


# Gate supply bounds: argv tail -> the one error line that `gate` prints.
SUPPLY_ERRORS = {
    "trip": (["--trip", "2.0"], "error: trip must lie inside (0, vdd), got 2.0\n"),
    "resolve-margin": (
        ["--resolve-margin", "1.9"], "error: resolve_margin must lie inside (0, vdd), got 1.9\n"
    ),
    "low-vdd": (
        ["--vdd", "0.4", "--vth0", "0.1"], "error: pmos_vth must lie inside (0, vdd), got 0.5\n"
    ),
}


class TestGateSupplyErrors:
    """A trip point, resolve margin or PMOS threshold outside (0, vdd) of
    the device supply is one ``error:`` line and exit 2, reported before
    ``--func``, the pH pair and ``--inputs`` are read."""

    @pytest.mark.parametrize("case", sorted(SUPPLY_ERRORS))
    def test_pinned_error_line(self, tmp_path, capsys, case):
        tail, line = SUPPLY_ERRORS[case]
        out_dir = tmp_path / "out"
        code, out, err = run(
            ["gate", "--func", "XOR", "--inputs", "01", *tail, "-o", str(out_dir)], capsys
        )
        assert (code, out, err) == (2, "", line)
        assert not out_dir.exists()

    @pytest.mark.parametrize("case", sorted(SUPPLY_ERRORS))
    def test_reported_before_function_ph_and_inputs(self, tmp_path, capsys, case):
        tail, line = SUPPLY_ERRORS[case]
        argv = ["gate", "--func", "XAND", "--ph-low", "10", "--ph-high", "2",
                "--inputs", "2", *tail, "-o", str(tmp_path / "out")]
        assert run(argv, capsys) == (2, "", line)


class TestOutputCollisions:
    """An output name that resolves to the path of another output of the
    same command, or of manifest.json, is a usage error raised before
    anything is written."""

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--out-bench", "x", "--out-config", "x"],
             "--out-config names the same file as --out-bench: {out}/x"),
            (["--out-config", "manifest.json"],
             "--out-config names the same file as manifest.json: {out}/manifest.json"),
            (["--out-bench", "manifest.json"],
             "--out-bench names the same file as manifest.json: {out}/manifest.json"),
            (["--out-config", "sub/../camo.bench"],
             "--out-config names the same file as --out-bench: {out}/camo.bench"),
            (["--out-config", "{out}/./camo.bench"],
             "--out-config names the same file as --out-bench: {out}/camo.bench"),
        ],
        ids=["same-name", "config-manifest", "bench-manifest", "dot-dot", "absolute"],
    )
    def test_camouflage(self, tmp_path, capsys, c17_file, extra, message):
        out_dir = (tmp_path / "out").resolve()
        extra = [arg.format(out=out_dir) for arg in extra]
        code, out, err = run(
            ["camouflage", str(c17_file), "--rate", "0.5", *extra, "-o", str(out_dir)], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(out=out_dir)}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--out-report", "manifest.json"],
             "--out-report names the same file as manifest.json: {out}/manifest.json"),
            (["--kind", "profiling", "--out-report", "reconstructed.bench"],
             "reconstructed.bench names the same file as --out-report: "
             "{out}/reconstructed.bench"),
            (["--kind", "profiling", "--mechanism", "implant",
              "--out-report", "a/../reconstructed.bench"],
             "reconstructed.bench names the same file as --out-report: "
             "{out}/reconstructed.bench"),
        ],
        ids=["report-manifest", "report-reconstruction", "report-reconstruction-dot-dot"],
    )
    def test_attack(self, tmp_path, capsys, c17_file, extra, message):
        camouflaged = ["camouflage", str(c17_file), "--gates", "16,19", "-o", str(tmp_path)]
        assert run(camouflaged, capsys)[0] == 0
        out_dir = (tmp_path / "out").resolve()
        code, out, err = run(
            ["attack", str(tmp_path / "camo.bench"),
             "--config", str(tmp_path / "camo_config.json"), *extra, "-o", str(out_dir)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(out=out_dir)}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "link, target, extra, message",
        [
            ("link", "camo.bench", ["--out-config", "link"],
             "--out-config names the same file as --out-bench: {out}/camo.bench"),
            ("link", "manifest.json", ["--out-bench", "link"],
             "--out-bench names the same file as manifest.json: {out}/manifest.json"),
            ("manifest.json", "camo_config.json", [],
             "--out-config names the same file as manifest.json: {out}/camo_config.json"),
        ],
        ids=["config-to-bench", "bench-to-manifest", "manifest-to-config"],
    )
    def test_symlink_to_another_output(
        self, tmp_path, capsys, c17_file, link, target, extra, message
    ):
        # A symlink in the output directory whose target, not yet written,
        # is another output of the same command.
        out_dir = (tmp_path / "out").resolve()
        out_dir.mkdir()
        (out_dir / link).symlink_to(target)
        code, out, err = run(
            ["camouflage", str(c17_file), "--rate", "0.5", *extra, "-o", str(out_dir)], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(out=out_dir)}\n"
        assert [p.name for p in out_dir.iterdir()] == [link]

    def test_an_oracle_report_may_take_the_reconstruction_name(self, tmp_path, capsys, c17_file):
        # Only a profiling attack writes reconstructed.bench.
        run(["camouflage", str(c17_file), "--gates", "16,19", "-o", str(tmp_path)], capsys)
        out_dir = tmp_path / "out"
        code, _, _ = run(
            ["attack", str(tmp_path / "camo.bench"),
             "--config", str(tmp_path / "camo_config.json"),
             "--out-report", "reconstructed.bench", "-o", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json", "reconstructed.bench"]
        assert "joint_survivors" in json.loads((out_dir / "reconstructed.bench").read_text())


class TestOutputPlaces:
    """An output name that names a directory, or lies in a directory that
    does not exist, is a usage error raised before anything is written: one
    error line, exit 2 and no output directory."""

    CASES = [
        ("", "{flag} names a directory: {out}"),
        (".", "{flag} names a directory: {out}"),
        ("{tmp}", "{flag} names a directory: {tmp}"),
        ("sub/x.json", "{flag} is in a directory that does not exist: {out}/sub"),
        ("sub/../x.json", "{flag} is in a directory that does not exist: {out}/sub/.."),
        ("{tmp}/nowhere/x.json",
         "{flag} is in a directory that does not exist: {tmp}/nowhere"),
    ]
    IDS = ["empty", "dot", "existing-dir", "missing-subdir", "missing-dot-dot", "absolute"]

    def _rejected(self, argv, tmp_path, capsys, flag, name, message):
        tmp = tmp_path.resolve()
        out_dir = tmp / "out"
        name = name.format(tmp=tmp)
        code, out, err = run([*argv, flag, name, "-o", str(out_dir)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(flag=flag, out=out_dir, tmp=tmp)}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--out-bench", "--out-config"])
    @pytest.mark.parametrize("name, message", CASES, ids=IDS)
    def test_camouflage(self, tmp_path, capsys, c17_file, flag, name, message):
        argv = ["camouflage", str(c17_file), "--rate", "0.5"]
        self._rejected(argv, tmp_path, capsys, flag, name, message)

    @pytest.mark.parametrize("kind", ["oracle", "profiling"])
    @pytest.mark.parametrize("name, message", CASES, ids=IDS)
    def test_attack(self, tmp_path, capsys, c17_file, kind, name, message):
        assert run(["camouflage", str(c17_file), "--gates", "16,19", "-o", str(tmp_path)],
                   capsys)[0] == 0
        argv = ["attack", str(tmp_path / "camo.bench"), "--config",
                str(tmp_path / "camo_config.json"), "--kind", kind]
        self._rejected(argv, tmp_path, capsys, "--out-report", name, message)

    @pytest.mark.parametrize("via", ["-o", OUT_DIR_ENV])
    @pytest.mark.parametrize("below", ["", "/sub/out"], ids=["file", "below-file"])
    def test_out_dir_may_not_be_or_lie_below_a_file(
        self, tmp_path, capsys, monkeypatch, c17_file, via, below
    ):
        out_dir = f"{c17_file}{below}"
        argv = ["camouflage", str(c17_file), "--rate", "0.5"]
        if via == "-o":
            argv += ["-o", out_dir]
        else:
            monkeypatch.setenv(OUT_DIR_ENV, out_dir)
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        where = "lies below" if below else "is"
        assert err == f"error: the output directory {where} a file: {c17_file}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_existing_directories_are_accepted(self, tmp_path, capsys, c17_file):
        # A subdirectory of an existing output directory, a directory
        # elsewhere, and an output directory nested under missing ones.
        (tmp_path / "out" / "sub").mkdir(parents=True)
        (tmp_path / "keep").mkdir()
        code, _, err = run(
            ["camouflage", str(c17_file), "--rate", "0.5",
             "--out-bench", "sub/../sub/c.bench",
             "--out-config", str(tmp_path / "keep" / "c.json"),
             "-o", str(tmp_path / "out")],
            capsys,
        )
        assert (code, err) == (0, "")
        assert (tmp_path / "out" / "sub" / "c.bench").is_file()
        assert (tmp_path / "keep" / "c.json").is_file()
        nested = tmp_path / "a" / "b"
        code, _, err = run(
            ["camouflage", str(c17_file), "--rate", "0.5", "-o", str(nested)], capsys
        )
        assert (code, err) == (0, "")
        assert sorted(p.name for p in nested.iterdir()) == [
            "camo.bench", "camo_config.json", "manifest.json",
        ]


class TestExitCodes:
    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            ["verify", "nope.bench", "also_nope.bench", "-o", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("subcommand", ["camouflage", "attack"])
    def test_missing_netlist_leaves_no_directory(self, tmp_path, capsys, subcommand):
        out_dir = tmp_path / "out"
        extra = ["--rate", "0.5"] if subcommand == "camouflage" else ["--config", "x.json"]
        code, _, err = run(
            [subcommand, str(tmp_path / "nofile.bench"), *extra, "-o", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:") and "no such file" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("subcommand", ["verify", "attack"])
    def test_too_many_random_vectors_is_usage_error(
        self, tmp_path, capsys, c17_file, subcommand
    ):
        # 10**12 vectors of c17's 5 inputs would be a 5 TB matrix: the
        # ceiling is checked before anything is drawn.
        run(["camouflage", str(c17_file), "--gates", "16,19", "-o", str(tmp_path)], capsys)
        head = {
            "verify": ["verify", str(c17_file), str(c17_file), "--mode", "random",
                       "--vectors", "1000000000000"],
            "attack": ["attack", str(tmp_path / "camo.bench"), "--config",
                       str(tmp_path / "camo_config.json"), "--strategy", "random",
                       "--queries", "1000000000000"],
        }[subcommand]
        out_dir = tmp_path / "out"
        code, out, err = run(head + ["-o", str(out_dir)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "1000000000000 random vectors of 5 inputs" in err and str(2**28) in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("case", ["verify", "merged verify", "attack"])
    def test_negative_random_seed_is_usage_error(self, tmp_path, capsys, c17_file, case):
        # Checked before any vector is drawn: also when every output pair of
        # a verify merges, which draws none.
        (tmp_path / "t.bench").write_text("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")
        (tmp_path / "u.bench").write_text("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n")
        (tmp_path / "wire.bench").write_text("INPUT(a)\nOUTPUT(a)\n")
        run(["camouflage", str(c17_file), "--gates", "16", "-o", str(tmp_path)], capsys)
        head = {
            "verify": ["verify", str(tmp_path / "t.bench"), str(tmp_path / "u.bench")],
            "merged verify": ["verify", str(tmp_path / "wire.bench"), str(tmp_path / "wire.bench")],
            "attack": ["attack", str(tmp_path / "camo.bench"), "--config",
                       str(tmp_path / "camo_config.json"), "--queries", "5"],
        }[case]
        out_dir = tmp_path / "out"
        flag = "--strategy" if case == "attack" else "--mode"
        code, out, err = run(head + [flag, "random", "--seed", "-1", "-o", str(out_dir)], capsys)
        assert (code, out, err) == (2, "", "error: seed must be a non-negative int, got -1\n")
        assert not out_dir.exists()

    def test_underflowing_half_gain(self, tmp_path, capsys, c17_file):
        # --k-gain 5e-324 halves to 0.0 in each series branch: both branches
        # draw no current, so camouflage finds the pair unresolvable, and the
        # margin report runs like the waveforms.
        code, _, err = run(
            ["camouflage", str(c17_file), "--gates", "16", "--k-gain", "5e-324",
             "-o", str(tmp_path / "camo")],
            capsys,
        )
        assert code == 1
        assert err == (
            "error: unresolvable gate: branch currents are equal (0.000000e+00 A) "
            "for pH pair (2.0, 10.0)\n"
        )
        code, out, _ = run(
            ["gate", "--func", "AND", "--k-gain", "5e-324", "--margin-csv",
             "-o", str(tmp_path / "gate")],
            capsys,
        )
        assert code == 0 and "outputs: unresolved,unresolved,unresolved,unresolved" in out
        margin = (tmp_path / "gate" / "gate_and_margin.csv").read_text().splitlines()
        assert margin[1] == "0,0,0,inf,,unresolved"

    def test_parser_reuse_keeps_defaults(self, tmp_path, capsys):
        # The parser is built once per process; a flag given to one call
        # must not become the default of the next.
        run(["sweep", "--vds", "0.2", "-o", str(tmp_path / "a")], capsys)
        run(["sweep", "-o", str(tmp_path / "b")], capsys)
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["parameters"]["vds"] == 0.1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_parse_error_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bench"
        bad.write_text("INPUT(a)\ny = XAND(a, a)\n")
        code, _, err = run(
            ["verify", str(bad), str(bad), "-o", str(tmp_path)], capsys
        )
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("which", ["netlist", "config"])
    def test_non_utf8_file_is_domain_error(self, tmp_path, capsys, c17_file, which):
        binary = tmp_path / "bin.txt"
        binary.write_bytes(b"INPUT(a)\n\xff\xfe\n")
        argv = {
            "netlist": ["verify", str(binary), str(binary)],
            "config": ["verify", str(c17_file), str(c17_file), "--config", str(binary)],
        }[which]
        out_dir = tmp_path / "out"
        code, out, err = run(argv + ["-o", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {binary} is not UTF-8 text: invalid start byte at offset 9\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("subcommand", ["verify", "attack"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (("gates", 0, "name", ["16"]), "gate name must be a string, got ['16']"),
            (("gates", 0, "name", 16), "gate name must be a string, got 16"),
            (("params", "k_gain", True),
             "camouflage config params: k_gain must be an int or a float, got True"),
            (("params", "vdd", "1.8"),
             "camouflage config params: vdd must be an int or a float, got '1.8'"),
        ],
        ids=["list-name", "int-name", "bool-param", "string-param"],
    )
    def test_config_of_wrong_type_is_domain_error(
        self, tmp_path, capsys, c17_file, subcommand, edit, message
    ):
        run(["camouflage", str(c17_file), "--gates", "16,19", "-o", str(tmp_path)], capsys)
        doc = json.loads((tmp_path / "camo_config.json").read_text())
        *path, key, value = edit
        node = doc
        for step in path:
            node = node[step]
        node[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        netlists = {
            "verify": ["verify", str(c17_file), str(tmp_path / "camo.bench")],
            "attack": ["attack", str(tmp_path / "camo.bench")],
        }[subcommand]
        out_dir = tmp_path / "out"
        code, out, err = run([*netlists, "--config", str(bad), "-o", str(out_dir)], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("subcommand", ["verify", "attack"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
            ('{"gates": [{"function_bits": ' + "9" * 5000 + "}]}", "5000 digits"),
        ],
        ids=["deep-nesting", "5000-digit-int"],
    )
    def test_config_past_the_decoder_limits_is_domain_error(
        self, tmp_path, capsys, c17_file, subcommand, text, message
    ):
        # json.loads raises RecursionError for the first and ValueError for
        # the second: past Python's 4300-digit limit on int conversion.
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        netlists = {
            "verify": ["verify", str(c17_file), str(c17_file)],
            "attack": ["attack", str(c17_file)],
        }[subcommand]
        out_dir = tmp_path / "out"
        code, out, err = run([*netlists, "--config", str(bad), "-o", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: malformed camouflage config: ") and message in err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, bound", [
        ("k_gain", "positive"), ("vdd", "positive"), ("sensitivity", "non-negative"),
    ])
    def test_config_params_past_the_largest_float_is_domain_error(
        self, tmp_path, capsys, c17_file, key, bound
    ):
        run(["camouflage", str(c17_file), "--gates", "16", "-o", str(tmp_path)], capsys)
        doc = json.loads((tmp_path / "camo_config.json").read_text())
        doc["params"][key] = 10**400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        code, out, err = run(
            ["verify", str(c17_file), str(tmp_path / "camo.bench"), "--config", str(bad),
             "-o", str(out_dir)],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: camouflage config params: {key} must be {bound} and finite, "
            f"got {10**400}\n"
        )
        assert not out_dir.exists()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.strip()


# Flag values for TestEveryArgv: zeros, negatives, a subnormal, the largest
# finite magnitudes, nan, infinities, any finite float, and values near the
# defaults, which let a run get past the checks of its other flags.
FLOATS = st.one_of(
    st.sampled_from(
        ("0", "-0", "1e-320", "-1e-320", "1.7e308", "-1.7e308", "nan", "inf", "-inf")
    ),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.0, 16.0),
).map(str)
# Counts of rows, vectors or queries: small enough to run in milliseconds,
# or past every ceiling so that they fail at once.
COUNTS = st.one_of(st.integers(-3, 64), st.integers(2**28, 10**30)).map(str)


def flags(draw, strategies: dict) -> list[str]:
    """``--name=value`` for up to three of the flags; "=" keeps a negative
    value from reading as an option."""
    names = draw(st.lists(st.sampled_from(sorted(strategies)), unique=True, max_size=3))
    return [f"--{name}={draw(strategies[name])}" for name in names]


DEVICE_FLAGS = {name: FLOATS for name in ("k-gain", "vth0", "ph-ref", "sensitivity", "vdd")}


@st.composite
def argvs(draw):
    """One argv of sweep, gate, camouflage, verify or attack; the netlist
    commands run on c17 and the files of the ``c17_camo`` fixture."""
    command = draw(st.sampled_from(("sweep", "gate", "camouflage", "verify", "attack")))
    if command == "sweep":
        numbers = st.lists(FLOATS, min_size=1, max_size=2).map(",".join)
        return ["sweep"] + flags(draw, {
            **DEVICE_FLAGS,
            "vgs-start": FLOATS,
            "vgs-stop": FLOATS,
            "vgs-steps": COUNTS,
            "vds": FLOATS,
            "ph": numbers,
        })
    if command == "gate":
        argv = ["gate", "--func=" + draw(st.sampled_from(("XOR", "AND", "0b1111")))]
        argv.append("--inputs=" + draw(st.sampled_from(("01", "all"))))
        if draw(st.booleans()):
            argv.append("--margin-csv")
        argv += flags(draw, {
            **DEVICE_FLAGS,
            "c-node": FLOATS,
            "trip": FLOATS,
            "resolve-margin": FLOATS,
            "ph-low": FLOATS,
            "ph-high": FLOATS,
        })
        # Only the runtime is bounded: a clock and step that would run a
        # period of more than 10**4 steps get a step that runs at most that.
        clock = draw(st.one_of(st.sampled_from(("1e9", "2e9")), FLOATS))
        dt = draw(st.one_of(st.just("1e-12"), FLOATS))
        period = 1.0 / float(clock) if float(clock) > 0 else 0.0
        if 0.0 < float(dt) < period / 100 and 1e4 < period / float(dt) <= 1e7 + 0.5:
            dt = repr(period / draw(st.integers(100, 10**4)))
        return argv + [f"--clock-freq={clock}", f"--dt={dt}"]
    if command == "camouflage":
        return ["camouflage", "C17", "--rate=" + draw(FLOATS)]
    if command == "verify":
        return ["verify", "C17", "CAMO_BENCH", "--config", "CAMO_CONFIG", "--mode=random",
                "--vectors=" + draw(COUNTS)]
    return ["attack", "CAMO_BENCH", "--config", "CAMO_CONFIG", "--strategy=random",
            "--queries=" + draw(COUNTS), "--joint-limit=" + draw(COUNTS)]


@pytest.fixture(scope="module")
def c17_camo(tmp_path_factory, c17_text):
    """c17 and a camouflaged copy with two CAMO gates, with its config."""
    root = tmp_path_factory.mktemp("c17_camo")
    (root / "c17.bench").write_text(c17_text)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["camouflage", str(root / "c17.bench"), "--gates", "16,19",
                     "-o", str(root)]) == 0
    return {
        "C17": root / "c17.bench",
        "CAMO_BENCH": root / "camo.bench",
        "CAMO_CONFIG": root / "camo_config.json",
    }


class TestEveryArgv:
    """Every argv that argparse accepts exits 0, 1 or 2. A failing run
    prints one ``error:`` line and creates no ``-o`` directory. No run
    raises another exception or issues a warning."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(argv=argvs())
    @example(argv=["gate", "--func=XOR", "--inputs=01", "--vdd=1e155",
                   "--clock-freq=1e9", "--dt=1e-12"])
    @example(argv=["sweep", "--vgs-stop=1e200"])
    @example(argv=["sweep", "--vgs-start=1.7976931348623157e+308"])
    def test_exits_with_a_typed_error(self, c17_camo, argv):
        argv = [str(c17_camo.get(tok, tok)) for tok in argv]
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / "out"
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main(argv + ["-o", str(out_dir)])
            lines = err.getvalue().splitlines()
            if code == 0:
                assert lines == []
            else:
                assert code in (1, 2)
                assert len(lines) == 1 and lines[0].startswith("error:"), lines
                assert not out_dir.exists()


class TestWriteErrors:
    """An OSError raised while an artifact is written is one ``error:``
    line and exit 1, and no manifest.json is written."""

    @pytest.mark.parametrize(
        "writer, argv",
        [
            ("write_sweep_csv", ["sweep"]),
            ("write_trace_csv", ["gate", "--func", "XOR", "--inputs", "01",
                                 "--clock-freq", "1e9"]),
            ("write_margin_csv", ["gate", "--func", "XOR", "--inputs", "01",
                                  "--clock-freq", "1e9", "--margin-csv"]),
        ],
        ids=["sweep", "gate", "gate-margin"],
    )
    def test_no_space_left(self, tmp_path, capsys, monkeypatch, writer, argv):
        def full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, writer, full)
        out_dir = tmp_path / "out"
        code, out, err = run(argv + ["-o", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err == "error: [Errno 28] No space left on device\n"
        assert not (out_dir / "manifest.json").exists()


# Each subcommand's argv for TestEveryFilesystemState, with the names of the
# outputs it writes besides manifest.json. The netlist commands run on the
# files of the ``c17_camo`` fixture; its two gates resolve under implant
# profiling, so that attack also writes reconstructed.bench.
FS_COMMANDS = {
    "sweep": (["sweep", "--vgs-steps", "5"], ["sweep.csv"]),
    "gate": (
        ["gate", "--func", "XOR", "--inputs", "01", "--clock-freq", "1e9", "--margin-csv"],
        ["gate_xor_a0b1.csv", "gate_xor_a0b1.meta.json", "gate_xor_margin.csv"],
    ),
    "derive-table": (["derive-table"], []),
    "camouflage": (
        ["camouflage", "C17", "--rate", "0.5", "--out-bench", "b.bench"],
        ["b.bench", "camo_config.json"],
    ),
    "verify": (["verify", "C17", "CAMO_BENCH", "--config", "CAMO_CONFIG"], []),
    "attack": (
        ["attack", "CAMO_BENCH", "--config", "CAMO_CONFIG", "--out-report", "r.json"],
        ["r.json"],
    ),
    "profiling": (
        ["attack", "CAMO_BENCH", "--config", "CAMO_CONFIG", "--kind", "profiling",
         "--mechanism", "implant"],
        ["attack_report.json", "reconstructed.bench"],
    ),
}
OUT_DIR_STATES = ("file", "below-file", "missing-nested", "existing-dir")


@st.composite
def filesystem_states(draw):
    """A command, how its output directory is given and what it is, and, in
    an existing one, output names that already exist as files (which are
    replaced) and the one, if any, that exists as a directory."""
    command = draw(st.sampled_from(sorted(FS_COMMANDS)))
    via = draw(st.sampled_from(("-o", OUT_DIR_ENV)))
    state = draw(st.sampled_from(OUT_DIR_STATES))
    names = [*FS_COMMANDS[command][1], "manifest.json"]
    files, blocked = [], None
    if state == "existing-dir":
        files = draw(st.lists(st.sampled_from(names), unique=True))
        blocked = draw(st.one_of(st.none(), st.sampled_from(names)))
    return command, via, state, [n for n in files if n != blocked], blocked


def tree(root: Path) -> list:
    """Every path below ``root`` with its bytes (None for a directory)."""
    return sorted(
        (p.relative_to(root).as_posix(), None if p.is_dir() else p.read_bytes())
        for p in root.rglob("*")
    )


class TestEveryFilesystemState:
    """Every subcommand, against an output directory that is a file, lies
    below a file, is missing with missing parents or exists, and against
    an output name that exists as a directory, exits 0 or 2 with at most one
    ``error:`` line. A rejected run leaves the directory tree as it was; a
    run that exits 0 writes its manifest."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=filesystem_states())
    @example(case=("camouflage", "-o", "existing-dir", ["b.bench"], "manifest.json"))
    @example(case=("gate", "-o", "existing-dir", [], "gate_xor_margin.csv"))
    @example(case=("derive-table", OUT_DIR_ENV, "file", [], None))
    def test_rejects_before_writing(self, c17_camo, case):
        command, via, state, files, blocked = case
        argv = [str(c17_camo.get(tok, tok)) for tok in FS_COMMANDS[command][0]]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            out_dir = {
                "file": root / "f",
                "below-file": root / "f" / "out",
                "missing-nested": root / "a" / "b" / "out",
                "existing-dir": root / "out",
            }[state]
            if state in ("file", "below-file"):
                (root / "f").write_text("keep")
            elif state == "existing-dir":
                out_dir.mkdir()
                (out_dir / "old.txt").write_text("keep")
                for name in files:
                    (out_dir / name).write_text("old")
                if blocked:
                    (out_dir / blocked).mkdir()
            before = tree(root)
            err = io.StringIO()
            with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                os.environ.pop(OUT_DIR_ENV, None)
                if via == "-o":
                    argv += ["-o", str(out_dir)]
                else:
                    os.environ[OUT_DIR_ENV] = str(out_dir)
                code = main(argv)
            lines = err.getvalue().splitlines()
            rejected = state in ("file", "below-file") or blocked is not None
            if rejected:
                assert code == 2
                assert len(lines) == 1 and lines[0].startswith("error:"), lines
                assert tree(root) == before
            else:
                assert (code, lines) == (0, [])
                assert (out_dir / "manifest.json").is_file()
                assert all((out_dir / name).read_text() != "old" for name in files)
                assert state != "existing-dir" or (out_dir / "old.txt").read_text() == "keep"
