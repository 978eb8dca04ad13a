import json
from itertools import product

import pytest

from conftest import naive_eval
from tvdcamo.bench import parse_bench
from tvdcamo.camo import CamoConfig
from tvdcamo.cli import main
from tvdcamo.gates import TruthTable2, assignment_for


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
        assert not out_dir.exists() or not any(out_dir.iterdir())

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
        assert not out_dir.exists() or not any(out_dir.iterdir())

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
        assert not out_dir.exists() or not any(out_dir.iterdir())

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


class TestExitCodes:
    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            ["verify", "nope.bench", "also_nope.bench", "-o", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

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

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.strip()
