import json
import random
import re
from dataclasses import asdict
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BINARY_KINDS,
    dag_text,
    naive_eval,
    random_netlist,
    reference_from_json,
    slot_form_netlist,
)
from tvdcamo import bench as bench_module
from tvdcamo import camo as camo_module
from tvdcamo.attack import oracle_attack
from tvdcamo.bench import (
    Gate,
    Netlist,
    eval_logic,
    eval_vectors,
    pack_words,
    parse_bench,
    serialize_bench,
)
from tvdcamo.camo import (
    CamoConfig,
    CamoGateSpec,
    EquivalenceResult,
    camouflage,
    decamouflage,
    reconstruct,
    verify_equivalence,
)
from tvdcamo.device import NERNST_SENSITIVITY, IsfetParams
from tvdcamo.errors import (
    CoverageError,
    DomainError,
    NotCamouflageableError,
    PhRangeError,
    SignatureMismatchError,
    UnprogrammedGateError,
    UnresolvableGateError,
    UsageError,
    _shown,
)
from tvdcamo.gates import BranchAssignment, TruthTable2, assignment_for


class TestCamouflage:
    def test_explicit_selection_on_c17(self, c17):
        camo, cfg = camouflage(c17, gates=["16", "19"])
        assert camo.camo_gates == ("16", "19")
        assert sum(1 for g in camo.gates if g.kind == "CAMO") == 2
        assert {s.name: s.function for s in cfg.gates} == {
            "16": TruthTable2.NAND,
            "19": TruthTable2.NAND,
        }
        # unselected gates untouched, fanin preserved
        assert camo.gate_map["10"] == c17.gate_map["10"]
        assert camo.gate_map["16"].fanin == c17.gate_map["16"].fanin

    def test_fraction_zero_is_identity(self, c17):
        camo, cfg = camouflage(c17, fraction=0.0, seed=3)
        assert camo == c17
        assert cfg.gates == ()

    def test_fraction_one_camouflages_everything(self, c17):
        camo, cfg = camouflage(c17, fraction=1.0, seed=3)
        assert len(camo.camo_gates) == 6
        assert len(cfg.gates) == 6

    @pytest.mark.parametrize("sign, named", [(1, "an int"), (-1, "a negative int")])
    def test_fraction_too_long_to_print_is_named_by_its_digits(self, c17, sign, named):
        with pytest.raises(UsageError) as exc:
            camouflage(c17, fraction=sign * 10**5000)
        assert str(exc.value) == f"fraction must lie in [0, 1], got {named} of 5001 digits"

    def test_fraction_selection_deterministic(self, c17):
        a1, c1 = camouflage(c17, fraction=0.5, seed=11)
        a2, c2 = camouflage(c17, fraction=0.5, seed=11)
        assert serialize_bench(a1) == serialize_bench(a2)
        assert c1.to_json() == c2.to_json()

    @pytest.mark.parametrize("seed", range(10))
    def test_config_lists_gates_in_file_order(self, seed):
        n = random_netlist(random.Random(seed), max_gates=30)
        eligible = [g.name for g in n.gates if camo_module._eligible(g.kind, len(g.fanin)) is None]
        for camo, cfg in (
            camouflage(n, fraction=0.7, seed=seed),
            camouflage(n, gates=eligible[::-1]),
        ):
            assert tuple(spec.name for spec in cfg.gates) == camo.camo_gates

    def test_unary_gate_not_camouflageable(self):
        n = Netlist(["a"], ["y"], [Gate("y", "NOT", ("a",))])
        with pytest.raises(NotCamouflageableError) as exc:
            camouflage(n, gates=["y"])
        assert "'y'" in str(exc.value)

    def test_wide_gate_not_camouflageable(self):
        n = Netlist(["a", "b", "c"], ["y"], [Gate("y", "AND", ("a", "b", "c"))])
        with pytest.raises(NotCamouflageableError):
            camouflage(n, gates=["y"])

    @pytest.mark.parametrize("n_fanin", [1, 2, 3, 4])
    def test_eligibility_is_the_shape_table(self, n_fanin):
        inputs = [f"i{k}" for k in range(n_fanin)]
        unary = camo_module.UNARY_KINDS
        for kind in sorted(camo_module.KIND_TO_FUNCTION.keys() | unary):
            if (kind in unary) != (n_fanin == 1):
                continue
            problem = camo_module._eligible(kind, n_fanin)
            assert (problem is None) == (n_fanin == 2 and kind in camo_module.KIND_TO_FUNCTION)
            n = Netlist(inputs, ["y"], [Gate("y", kind, tuple(inputs))])
            if problem is None:
                assert camouflage(n, gates=["y"])[0].camo_gates == ("y",)
                continue
            with pytest.raises(NotCamouflageableError) as exc:
                camouflage(n, gates=["y"])
            assert str(exc.value) == f"gate 'y' not camouflageable: {problem}"
            if kind in camo_module.KIND_TO_FUNCTION:
                assert problem == f"has {n_fanin} inputs (camouflaged cell is 2-input)"
            else:
                assert problem == f"kind {kind} has no camouflaged equivalent"

    def test_unknown_gate_rejected(self, c17):
        with pytest.raises(UsageError):
            camouflage(c17, gates=["nope"])

    def test_both_policies_rejected(self, c17):
        with pytest.raises(UsageError):
            camouflage(c17, gates=["16"], fraction=0.5)
        with pytest.raises(UsageError):
            camouflage(c17)

    def test_already_camouflaged_rejected(self, c17):
        camo, _ = camouflage(c17, gates=["16"])
        with pytest.raises(NotCamouflageableError):
            camouflage(camo, gates=["19"])

    def test_degenerate_ph_pair_rejected(self, c17):
        with pytest.raises(DomainError):
            camouflage(c17, gates=["16"], ph_low=7.0, ph_high=7.0)

    def test_unresolvable_ph_pair_rejected(self, c17):
        # At zero sensitivity both pH values give the same threshold, so the
        # two branches of every minterm draw equal current.
        flat = IsfetParams(sensitivity=0.0)
        for selection in ({"gates": ["16"]}, {"fraction": 0.5}, {"fraction": 0.0}):
            with pytest.raises(UnresolvableGateError, match="currents are equal"):
                camouflage(c17, params=flat, **selection)
        camouflage(c17, gates=["16"], params=IsfetParams(sensitivity=1e-3))

    @pytest.mark.parametrize("ph_low, ph_high", [(2.0, 20.0), (-1.0, 10.0)])
    def test_ph_outside_physical_range_rejected(self, c17, ph_low, ph_high):
        with pytest.raises(PhRangeError):
            camouflage(c17, gates=["16"], ph_low=ph_low, ph_high=ph_high)
        with pytest.raises(PhRangeError):
            camouflage(c17, fraction=0.0, ph_low=ph_low, ph_high=ph_high)
        with pytest.raises(PhRangeError):
            CamoGateSpec(
                name="16",
                function=TruthTable2.NAND,
                assignment=assignment_for(TruthTable2.NAND),
                ph_low=ph_low,
                ph_high=ph_high,
            )


class TestDecamouflage:
    def test_round_trip_c17(self, c17):
        camo, cfg = camouflage(c17, gates=["10", "22"])
        assert decamouflage(camo, cfg) == c17

    def test_round_trip_full_fraction(self, c17):
        camo, cfg = camouflage(c17, fraction=1.0, seed=0)
        assert decamouflage(camo, cfg) == c17

    def test_missing_entry_is_coverage_error(self, c17):
        camo, cfg = camouflage(c17, gates=["10", "22"])
        partial = CamoConfig(params=cfg.params, gates=cfg.gates[:1])
        with pytest.raises(CoverageError) as exc:
            decamouflage(camo, partial)
        assert "22" in str(exc.value)

    def test_extra_entry_is_coverage_error(self, c17):
        camo, cfg = camouflage(c17, gates=["10"])
        extra = CamoConfig(
            params=cfg.params,
            gates=cfg.gates
            + (
                CamoGateSpec(
                    name="ghost",
                    function=TruthTable2.AND,
                    assignment=assignment_for(TruthTable2.AND),
                    ph_low=2.0,
                    ph_high=10.0,
                ),
            ),
        )
        with pytest.raises(CoverageError) as exc:
            decamouflage(camo, extra)
        assert "ghost" in str(exc.value)

    def test_reconstruct_names_a_gate_bound_to_no_function(self, c17):
        camo, _ = camouflage(c17, gates=["16"])
        with pytest.raises(UsageError, match="^gate '16' bound to 99, not a TruthTable2$"):
            reconstruct(camo, {"16": 99})
        # A function with no concrete gate kind stays a DomainError.
        with pytest.raises(DomainError) as exc:
            reconstruct(camo, {"16": TruthTable2.A})
        assert type(exc.value) is DomainError
        assert str(exc.value) == "gate '16': function A has no concrete gate kind"
        assert reconstruct(camo, {"16": TruthTable2.NAND}) == c17
        assert reconstruct(camo, {"16": None}) == camo


def _reference_json(cfg: CamoConfig) -> str:
    """The config text as the json encoder writes it: the format of record."""
    doc = {
        "params": asdict(cfg.params),
        "gates": [
            {
                "name": g.name,
                "function_name": g.function.name,
                "function_bits": int(g.function),
                "assignment": list(g.assignment.lvt_on_out_side),
                "ph_low": g.ph_low,
                "ph_high": g.ph_high,
            }
            for g in cfg.gates
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Ints, floats of any magnitude the fields admit, and -0.0.
_PH = st.one_of(st.integers(0, 14), st.floats(0, 14), st.just(-0.0))
# Names that need escaping: quotes, backslashes, control and non-ASCII
# characters, and surrogates.
_NAMES = st.text(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr)))


@st.composite
def _configs(draw):
    vdd = draw(st.one_of(st.integers(2, 5), st.floats(0.5, 5.0)))
    vth0 = draw(st.floats(0.01, 0.49)) * vdd
    if isinstance(vdd, int) and draw(st.booleans()):
        vth0 = 1
    params = IsfetParams(
        k_gain=draw(st.one_of(st.integers(1, 3), st.floats(1e-9, 1e3))),
        vth0=vth0,
        ph_ref=draw(_PH),
        sensitivity=draw(st.one_of(st.just(NERNST_SENSITIVITY), st.integers(0, 1),
                                   st.floats(0, 1))),
        vdd=vdd,
    )
    names = draw(st.lists(_NAMES, max_size=6, unique=True))
    gates = []
    for name in names:
        low, high = sorted(draw(st.lists(_PH, min_size=2, max_size=2, unique=True)))
        function = draw(st.sampled_from(TruthTable2))
        gates.append(CamoGateSpec(name, function, assignment_for(function), low, high))
    return CamoConfig(params, gates)


class TestConfigJson:
    @given(cfg=_configs())
    @settings(max_examples=300, deadline=None)
    def test_to_json_is_the_json_encoders_text(self, cfg):
        text = cfg.to_json()
        assert text == _reference_json(cfg)
        # json.loads joins an escaped surrogate pair into one character,
        # whatever wrote the text.
        if not re.search("[\ud800-\udfff]", "".join(g.name for g in cfg.gates)):
            assert CamoConfig.from_json(text) == cfg

    def test_to_json_of_leaves_the_template_does_not_write(self):
        # A float subclass and an empty gate list go through the json
        # encoder, indented as deep as the leaf sits.
        spec = CamoGateSpec(
            "x", TruthTable2.XOR, assignment_for(TruthTable2.XOR),
            np.float64(2.5), 10,
        )
        for cfg in (
            CamoConfig(IsfetParams(vdd=np.float64(1.8)), [spec]),
            CamoConfig(IsfetParams(), []),
        ):
            assert cfg.to_json() == _reference_json(cfg)

    @pytest.mark.parametrize("name", [16, None, 1.5, ("x", 1), b"x"])
    def test_spec_name_must_be_a_string(self, name):
        # to_json would write it as no name, which from_json rejects.
        with pytest.raises(DomainError) as exc:
            CamoGateSpec(name, TruthTable2.XOR, assignment_for(TruthTable2.XOR), 2.0, 10.0)
        assert str(exc.value) == f"gate name must be a string, got {name!r}"

    @pytest.mark.parametrize("low, high, message", [
        (10**5000, 10.0, "gate 'x': ph_low (an int of 5001 digits) must be below ph_high (10.0)"),
        (-(10**5000), 10.0, "pH a negative int of 5001 digits outside the valid range [0, 14]"),
        (2.0, 10**5000, "pH an int of 5001 digits outside the valid range [0, 14]"),
    ], ids=["low", "-low", "high"])
    def test_spec_ph_too_long_to_print_is_named_by_its_digits(self, low, high, message):
        with pytest.raises(DomainError) as exc:
            CamoGateSpec("x", TruthTable2.XOR, assignment_for(TruthTable2.XOR), low, high)
        assert str(exc.value) == message

    def test_exact_key_names(self, c17):
        _, cfg = camouflage(c17, gates=["16"])
        doc = json.loads(cfg.to_json())
        assert set(doc) == {"params", "gates"}
        assert set(doc["params"]) == {"k_gain", "vth0", "ph_ref", "sensitivity", "vdd"}
        (entry,) = doc["gates"]
        assert set(entry) == {
            "name",
            "function_name",
            "function_bits",
            "assignment",
            "ph_low",
            "ph_high",
        }
        assert entry["function_name"] == "NAND"
        assert entry["function_bits"] == 14
        # minterm order m = 2A + B; NAND has LVT on the OUT side except m=3
        assert entry["assignment"] == [True, True, True, False]

    def test_json_round_trip(self, c17):
        _, cfg = camouflage(c17, fraction=1.0, seed=5)
        again = CamoConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_malformed_json_rejected(self):
        with pytest.raises(DomainError):
            CamoConfig.from_json("{not json")

    def test_mismatched_name_bits_rejected(self, c17):
        _, cfg = camouflage(c17, gates=["16"])
        doc = json.loads(cfg.to_json())
        doc["gates"][0]["function_name"] = "AND"
        with pytest.raises(DomainError):
            CamoConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, key",
        [(lambda p: p.pop("vdd"), "vdd"), (lambda p: p.update(bogus=1.0), "bogus")],
        ids=["missing", "unknown"],
    )
    def test_params_key_set_must_match_isfet_params(self, c17, edit, key):
        _, cfg = camouflage(c17, gates=["16"])
        doc = json.loads(cfg.to_json())
        edit(doc["params"])
        with pytest.raises(DomainError, match=key):
            CamoConfig.from_json(json.dumps(doc))

    def test_invalid_params_value_is_domain_error(self, c17):
        _, cfg = camouflage(c17, gates=["16"])
        doc = json.loads(cfg.to_json())
        doc["params"]["k_gain"] = -1
        with pytest.raises(DomainError, match="k_gain") as exc:
            CamoConfig.from_json(json.dumps(doc))
        assert not isinstance(exc.value, UsageError)

    def test_impossible_ph_rejected(self, c17):
        _, cfg = camouflage(c17, gates=["16"])
        doc = json.loads(cfg.to_json())
        doc["gates"][0]["ph_high"] = 20.0
        with pytest.raises(PhRangeError):
            CamoConfig.from_json(json.dumps(doc))

    def test_inconsistent_assignment_rejected(self, c17):
        _, cfg = camouflage(c17, gates=["16"])
        doc = json.loads(cfg.to_json())
        doc["gates"][0]["assignment"] = [False, False, False, False]
        with pytest.raises(DomainError):
            CamoConfig.from_json(json.dumps(doc))


# Values of every type json.loads gives, for keys of the wrong type.
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-20, 20), st.floats(-20, 20), st.just(-0.0),
    st.sampled_from([float("nan"), float("inf"), 10**20]), st.text(max_size=3),
)
_JSON_VALUES = st.one_of(
    _JSON_LEAVES,
    st.lists(_JSON_LEAVES, max_size=5),
    st.dictionaries(st.text(max_size=3), _JSON_LEAVES, max_size=2),
)
_GATE_KEYS = ("name", "function_name", "function_bits", "assignment", "ph_low", "ph_high")


def _integral(draw, value):
    """An int, a float or (for zero) -0.0 of the same value as ``value``."""
    if value != int(value):
        return value
    forms = [int(value), float(value)] + ([-0.0] if value == 0 else [])
    return draw(st.sampled_from(forms))


# Edits of one entry of a config document: first the forms that from_json
# accepts and to_json does not write, then malformed ones.
_ENTRY_EDITS = {
    "int flags": lambda draw, e, doc: e.update(assignment=[int(f) for f in e["assignment"]]),
    "float flags": lambda draw, e, doc: e.update(assignment=[float(f) for f in e["assignment"]]),
    "other truthy flags": lambda draw, e, doc: e.update(
        assignment=[2 * f for f in e["assignment"]]
    ),
    "integral ph": lambda draw, e, doc: e.update(
        ph_low=_integral(draw, e["ph_low"]), ph_high=_integral(draw, e["ph_high"])
    ),
    "float bits": lambda draw, e, doc: e.update(function_bits=float(e["function_bits"])),
    "bool bits": lambda draw, e, doc: e.update(function_bits=draw(st.booleans())),
    "bool ph": lambda draw, e, doc: e.update(
        {draw(st.sampled_from(["ph_low", "ph_high"])): draw(st.booleans())}
    ),
    "missing key": lambda draw, e, doc: e.pop(draw(st.sampled_from(_GATE_KEYS))),
    "extra key": lambda draw, e, doc: e.update(
        {draw(st.sampled_from(("bogus", "function", "ph"))): draw(_JSON_VALUES)}
    ),
    "wrong type": lambda draw, e, doc: e.update(
        {draw(st.sampled_from(_GATE_KEYS)): draw(_JSON_VALUES)}
    ),
    "bits out of range": lambda draw, e, doc: e.update(
        function_bits=draw(st.sampled_from([16, -1, 255, 10**20]))
    ),
    "other bits": lambda draw, e, doc: e.update(function_bits=draw(st.integers(0, 15))),
    "other name": lambda draw, e, doc: e.update(
        function_name=draw(st.sampled_from([f.name for f in TruthTable2] + ["nand", ""]))
    ),
    "other assignment": lambda draw, e, doc: e.update(assignment=draw(st.one_of(
        st.sampled_from(TruthTable2).map(lambda f: list(assignment_for(f).lvt_on_out_side)),
        st.lists(st.booleans(), max_size=6),
    ))),
    "reversed ph": lambda draw, e, doc: e.update(ph_low=e["ph_high"], ph_high=e["ph_low"]),
    "equal ph": lambda draw, e, doc: e.update(ph_high=e["ph_low"]),
    "ph out of range": lambda draw, e, doc: e.update(
        {draw(st.sampled_from(["ph_low", "ph_high"])):
         draw(st.sampled_from([-1, -0.5, 14.5, 20, float("nan"), float("inf"), -float("inf")]))}
    ),
    "duplicate name": lambda draw, e, doc: e.update(
        name=draw(st.sampled_from(doc["gates"]))["name"]
    ),
    "not an object": lambda draw, e, doc: doc["gates"].__setitem__(
        doc["gates"].index(e), draw(_JSON_VALUES)
    ),
    "params value": lambda draw, e, doc: doc["params"].update(
        {draw(st.sampled_from(sorted(doc["params"]))): draw(_JSON_VALUES)}
    ),
}


@st.composite
def _config_documents(draw):
    """The text of a ``_configs()`` config with up to four of its entries
    edited, or with a ``gates`` that is not a list."""
    doc = json.loads(draw(_configs()).to_json())
    for _ in range(draw(st.integers(0, 4))):
        entries = [e for e in doc["gates"] if isinstance(e, dict)]
        if not entries:
            break
        edit = draw(st.sampled_from(sorted(_ENTRY_EDITS)))
        try:
            _ENTRY_EDITS[edit](draw, draw(st.sampled_from(entries)), doc)
        except (KeyError, TypeError, ValueError, OverflowError):
            pass  # an edit of a key that an earlier edit removed or retyped
    if draw(st.integers(0, 9)) == 0:
        doc["gates"] = draw(st.one_of(
            _JSON_LEAVES, st.just({str(k): e for k, e in enumerate(doc["gates"])}),
        ))
    return json.dumps(doc)


def _decoded(decode, text):
    """What ``decode(text)`` gives: the config's repr and text, or the
    exception's type and message."""
    try:
        cfg = decode(text)
    except Exception as exc:  # noqa: BLE001  (any type must match)
        return type(exc), str(exc)
    return repr(cfg), cfg.to_json()


class TestConfigTablePath:
    """``from_json`` takes an entry whose function fields are a row of the
    function table through that row and checks each distinct pH pair once;
    it decodes, accepts and rejects what ``reference_from_json`` does."""

    @given(text=_config_documents())
    @settings(max_examples=600, deadline=None)
    def test_matches_the_key_by_key_reference(self, text):
        got, want = _decoded(CamoConfig.from_json, text), _decoded(reference_from_json, text)
        assert got == want
        if isinstance(got[0], str) and "NaN" not in text:
            assert CamoConfig.from_json(text) == reference_from_json(text)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("ph_low", True, "gate '16': ph_low must be an int or a float, got True"),
            ("ph_high", False, "gate '16': ph_high must be an int or a float, got False"),
            ("ph_low", "2", "gate '16': ph_low must be an int or a float, got '2'"),
            ("function_bits", True, "gate '16': function_bits must be an int, got True"),
            ("function_bits", 14.0, "gate '16': function_bits must be an int, got 14.0"),
        ],
    )
    def test_rejects_a_bool_or_non_number(self, c17, key, value, message):
        _, cfg = camouflage(c17, gates=["16"])
        doc = json.loads(cfg.to_json())
        doc["gates"][0][key] = value
        with pytest.raises(DomainError) as exc:
            CamoConfig.from_json(json.dumps(doc))
        assert type(exc.value) is DomainError and str(exc.value) == message

    @pytest.mark.parametrize(
        "name, message",
        [
            (["16"], "gate name must be a string, got ['16']"),
            (16, "gate name must be a string, got 16"),
            (None, "gate name must be a string, got None"),
            ({"16": 1}, "gate name must be a string, got {'16': 1}"),
        ],
    )
    def test_rejects_a_name_that_is_not_a_string(self, c17, name, message):
        # A list name once raised TypeError from CamoConfig's duplicate
        # check, and an int name loaded and left gate '16' unprogrammed.
        _, cfg = camouflage(c17, gates=["16", "19"])
        doc = json.loads(cfg.to_json())
        doc["gates"][0]["name"] = name
        with pytest.raises(DomainError) as exc:
            CamoConfig.from_json(json.dumps(doc))
        assert type(exc.value) is DomainError and str(exc.value) == message

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("k_gain", True, "k_gain must be an int or a float, got True"),
            ("vdd", False, "vdd must be an int or a float, got False"),
            ("vth0", "0.3", "vth0 must be an int or a float, got '0.3'"),
            ("ph_ref", None, "ph_ref must be an int or a float, got None"),
            ("sensitivity", [0.059], "sensitivity must be an int or a float, got [0.059]"),
        ],
    )
    def test_rejects_a_params_value_that_is_a_bool_or_no_number(self, c17, key, value, message):
        _, cfg = camouflage(c17, gates=["16"])
        doc = json.loads(cfg.to_json())
        doc["params"][key] = value
        with pytest.raises(DomainError) as exc:
            CamoConfig.from_json(json.dumps(doc))
        assert type(exc.value) is DomainError
        assert str(exc.value) == f"camouflage config params: {message}"

    def test_int_params_keep_their_type(self, c17):
        _, cfg = camouflage(c17, gates=["16"])
        doc = json.loads(cfg.to_json())
        doc["params"].update(vdd=2, ph_ref=2)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        got = CamoConfig.from_json(text)
        assert got.params.vdd.__class__ is int and got.to_json() == text

    def test_accepts_what_the_table_does_not_hold(self, c17):
        # Truthy flags that are not 1 and floats of an int pH miss the
        # table's keys or checked pairs by type only, and are accepted.
        _, cfg = camouflage(c17, gates=["16", "19"])
        doc = json.loads(cfg.to_json())
        doc["gates"][0]["assignment"] = [2, "x", 0.5, 0]
        doc["gates"][1].update(ph_low=2, ph_high=10)
        got = CamoConfig.from_json(json.dumps(doc))
        assert got == cfg and repr(got) == repr(reference_from_json(json.dumps(doc)))
        assert repr(got.gates[1].ph_low) == "2"

    def test_specs_are_checked_once_per_distinct_value(self, monkeypatch):
        original = parse_bench(dag_text(random.Random(7), 20, 2000))
        # Several pH pairs, some equal by value in another type.
        pairs = [(2.0, 10.0), (3, 9), (2, 10), (-0.0, 14), (0.0, 14.0), (0, 14), (3.0, 9.0)]
        inits, checked = [], []
        for cls in (CamoGateSpec, BranchAssignment):
            monkeypatch.setattr(
                cls, "__post_init__",
                lambda self, real=cls.__post_init__: inits.append(self) or real(self),
            )
        check = camo_module._check_ph_pair
        monkeypatch.setattr(
            camo_module, "_check_ph_pair",
            lambda low, high, where: checked.append((low, high)) or check(low, high, where),
        )
        _, cfg = camouflage(original, fraction=0.1, seed=7)
        assert len(cfg.gates) == 200 and checked == [(2.0, 10.0)] and not inits
        doc = json.loads(cfg.to_json())
        for k, entry in enumerate(doc["gates"]):
            entry["ph_low"], entry["ph_high"] = pairs[k % len(pairs)]
        text = json.dumps(doc)
        checked.clear()
        got = CamoConfig.from_json(text)
        assert not inits
        assert [(repr(low), repr(high)) for low, high in checked] == [
            ("2.0", "10.0"), ("3", "9"), ("-0.0", "14"),
        ]
        assert [(repr(g.ph_low), repr(g.ph_high)) for g in got.gates] == [
            tuple(map(repr, pairs[k % len(pairs)])) for k in range(200)
        ]
        monkeypatch.undo()
        assert repr(got) == repr(reference_from_json(text))


class TestVerifyEquivalence:
    def test_c17_against_bound_camo_exhaustive(self, c17):
        camo, cfg = camouflage(c17, gates=["16", "19"])
        result = verify_equivalence(c17, camo, bindings=cfg.bindings())
        assert result.equivalent
        assert result.vectors_checked == 32
        assert result.vectors_total == 32

    def test_netlist_against_itself(self, c17):
        assert verify_equivalence(c17, c17).equivalent

    def test_wrong_binding_yields_counterexample(self, c17):
        camo, cfg = camouflage(c17, gates=["16"])
        wrong = {"16": TruthTable2.AND}
        result = verify_equivalence(c17, camo, bindings=wrong)
        assert not result.equivalent
        vec = result.counterexample
        assert eval_logic(c17, vec) != eval_logic(camo, vec, wrong)

    def test_signature_mismatch(self, c17):
        other = Netlist(["a"], ["a"], [])
        with pytest.raises(SignatureMismatchError):
            verify_equivalence(c17, other)

    def test_random_mode_deterministic(self, c17):
        camo, cfg = camouflage(c17, gates=["16"])
        r1 = verify_equivalence(
            c17, camo, bindings=cfg.bindings(), mode="random", n_vectors=64, seed=9
        )
        r2 = verify_equivalence(
            c17, camo, bindings=cfg.bindings(), mode="random", n_vectors=64, seed=9
        )
        assert r1 == r2
        assert r1.equivalent
        assert r1.vectors_checked == 64

    def test_random_mode_finds_gross_mismatch(self, c17):
        camo, _ = camouflage(c17, gates=["16", "19", "10", "22", "23", "11"])
        bindings = {name: TruthTable2.TRUE for name in camo.camo_gates}
        result = verify_equivalence(c17, camo, bindings=bindings, mode="random", n_vectors=256, seed=1)
        assert not result.equivalent

    def test_too_many_inputs_for_exhaustive(self):
        inputs = [f"i{k}" for k in range(25)]
        n = Netlist(inputs, [inputs[0]], [])
        with pytest.raises(UsageError):
            verify_equivalence(n, n)

    def test_correct_binding_equivalence_on_random_netlists(self):
        for seed in range(25):
            rng = random.Random(1000 + seed)
            n = random_netlist(rng, max_inputs=10, max_gates=20)
            fraction = rng.choice([0.25, 0.5, 1.0])
            camo, cfg = camouflage(n, fraction=fraction, seed=seed)
            result = verify_equivalence(n, camo, bindings=cfg.bindings())
            assert result.equivalent, f"seed {seed}: {result}"


def _wrong_binding_case(n_inputs: int, seed: int):
    """A netlist with exactly ``n_inputs`` inputs, its camouflaged copy, and
    a binding that flips one minterm of the camouflaged gate."""
    rng = random.Random(seed)
    while True:
        plain = random_netlist(rng, max_inputs=n_inputs, max_gates=25)
        eligible = [g.name for g in plain.gates if len(g.fanin) == 2]
        if len(plain.inputs) == n_inputs and eligible:
            break
    victim = rng.choice(eligible)
    if rng.random() < 0.5:
        # Observe the gate only where the first input (the index MSB) is 1,
        # so the first difference lies in the upper half of the index range.
        guard = Gate("guard", "AND", (plain.inputs[0], victim))
        plain = Netlist(plain.inputs, ["guard"], plain.gates + (guard,))
    else:
        outputs = [o for o in plain.outputs if o != victim] + [victim]
        plain = Netlist(plain.inputs, outputs, plain.gates)
    camo, cfg = camouflage(plain, gates=[victim])
    flipped = cfg.bindings()[victim] ^ (1 << rng.randrange(4))
    return plain, camo, {victim: TruthTable2(flipped)}


def _first_mismatch_by_brute_force(a, b, bindings):
    width = len(a.inputs)
    for index in range(1 << width):
        vec = tuple((index >> (width - 1 - j)) & 1 for j in range(width))
        outs_a, outs_b = naive_eval(a, vec, bindings), naive_eval(b, vec, bindings)
        if outs_a != outs_b:
            return index, vec, outs_a, outs_b
    return None


class TestVerifyWordChunks:
    @pytest.mark.parametrize("chunk_words", [1, 3, camo_module._CHUNK_WORDS])
    @pytest.mark.parametrize("n_inputs", range(1, 9))
    def test_exhaustive_first_counterexample_matches_brute_force(
        self, n_inputs, chunk_words, monkeypatch
    ):
        monkeypatch.setattr(camo_module, "_CHUNK_WORDS", chunk_words)
        for seed in range(8):
            n, camo, wrong = _wrong_binding_case(n_inputs, 100 * n_inputs + seed)
            expect = _first_mismatch_by_brute_force(n, camo, wrong)
            result = verify_equivalence(n, camo, bindings=wrong)
            assert result.vectors_total == 1 << n_inputs
            if expect is None:
                assert result.equivalent
                assert result.vectors_checked == 1 << n_inputs
                continue
            index, vec, outs_a, outs_b = expect
            assert not result.equivalent
            assert result.vectors_checked == index + 1
            assert result.counterexample == vec
            assert (result.outputs_a, result.outputs_b) == (outs_a, outs_b)

    def test_zero_inputs(self):
        empty = Netlist([], [], [])
        result = verify_equivalence(empty, empty)
        assert result.equivalent and result.vectors_checked == 1

    def test_first_counterexample_in_a_later_chunk(self):
        # The first input is the index MSB, so with one more input than a
        # chunk covers it selects the second chunk. The outputs differ only
        # when it is 1, the last input (bit 1 of a word) is 1 and i1 = i2 = 0.
        n_in = (camo_module._CHUNK_WORDS * 64).bit_length()
        inputs = [f"i{k}" for k in range(n_in)]
        gates = [
            Gate("z", "AND", ("i1", "i2")),
            Gate("y", "AND", ("i0", inputs[-1], "z")),
        ]
        plain = Netlist(inputs, ["y"], gates)
        camo, _ = camouflage(plain, gates=["z"])
        wrong = {"z": TruthTable2.NOR}
        result = verify_equivalence(plain, camo, bindings=wrong)
        assert result.vectors_checked == (1 << (n_in - 1)) + 2
        assert result.counterexample == (1,) + (0,) * (n_in - 2) + (1,)
        assert naive_eval(plain, result.counterexample) == result.outputs_a == (0,)
        assert naive_eval(camo, result.counterexample, wrong) == result.outputs_b == (1,)

    @pytest.mark.parametrize("chunk_words", [1, camo_module._CHUNK_WORDS])
    @pytest.mark.parametrize("n_vectors", [1, 63, 64, 65, 300])
    def test_random_first_counterexample_matches_brute_force(
        self, n_vectors, chunk_words, monkeypatch
    ):
        monkeypatch.setattr(camo_module, "_CHUNK_WORDS", chunk_words)
        # A rare difference (1 vector in 128) puts first hits past word 0.
        inputs = [f"i{k}" for k in range(8)]
        rare = Netlist(inputs, ["y"], [
            Gate("z", "AND", ("i6", "i7")),
            Gate("y", "AND", tuple(inputs[:6]) + ("z",)),
        ])
        rare_camo, _ = camouflage(rare, gates=["z"])
        cases = [_wrong_binding_case(6, 900 + seed) for seed in range(4)]
        cases.append((rare, rare_camo, {"z": TruthTable2.NOR}))
        for n, camo, wrong in cases:
            for seed in range(4):
                result = verify_equivalence(
                    n, camo, bindings=wrong, mode="random",
                    n_vectors=n_vectors, seed=seed,
                )
                matrix = np.random.default_rng(seed).integers(
                    0, 2, size=(n_vectors, len(n.inputs)), dtype=np.uint8
                )
                hits = [
                    k for k, row in enumerate(matrix)
                    if naive_eval(n, row, wrong) != naive_eval(camo, row, wrong)
                ]
                if not hits:
                    assert result.equivalent
                    assert result.vectors_checked == n_vectors
                    continue
                assert result.vectors_checked == hits[0] + 1
                assert result.counterexample == tuple(int(v) for v in matrix[hits[0]])


def _spy_word_types(monkeypatch) -> list:
    """The type of the first input word of each program run by verify."""
    word_types = []
    run = bench_module._eval_gates

    def spy(program, values, bindings):
        word_types.append(type(values[0]))
        return run(program, values, bindings)

    monkeypatch.setattr(camo_module, "_eval_gates", spy)
    return word_types


def _rare_case(n_inputs: int):
    """A netlist whose camouflaged copy, under a wrong binding, differs in 1
    of 2**(n_inputs - 1) vectors: where i0..i(n-3) are all 1 and the last two
    inputs are equal."""
    inputs = [f"i{k}" for k in range(n_inputs)]
    plain = Netlist(inputs, ["y"], [
        Gate("z", "AND", tuple(inputs[-2:])),
        Gate("y", "AND", (*inputs[:-2], "z")),
    ])
    camo, _ = camouflage(plain, gates=["z"])
    return plain, camo, {"z": TruthTable2.NOR}


class TestVerifyIntWords:
    """Every chunk runs on Python ints, all its words in one int, and gives
    the first counterexample on either side of a chunk boundary."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_random_around_a_chunk_boundary(self, offset, monkeypatch):
        # 4096 vectors are 64 words: one chunk of 64 words, or one and a
        # vector more.
        monkeypatch.setattr(camo_module, "_CHUNK_WORDS", 64)
        n_vectors = 64 * 64 + offset
        word_types = _spy_word_types(monkeypatch)
        cases = [_rare_case(12)] + [_wrong_binding_case(8, 40 + seed) for seed in range(3)]
        for a, b, bindings in cases:
            for seed in range(3):
                got = verify_equivalence(
                    a, b, bindings, mode="random", n_vectors=n_vectors, seed=seed
                )
                assert got == _brute_force_result(a, b, bindings, "random", n_vectors, seed)
        assert set(word_types) == {int}

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_exhaustive_around_a_chunk_boundary(self, offset, monkeypatch):
        # 10 inputs are 16 words: chunks of 17, 16 and 15 words. The rare
        # case first differs at vector 1020, in word 15.
        monkeypatch.setattr(camo_module, "_CHUNK_WORDS", 16 - offset)
        word_types = _spy_word_types(monkeypatch)
        cases = [_rare_case(10)] + [_wrong_binding_case(10, 60 + seed) for seed in range(3)]
        for k, (a, b, bindings) in enumerate(cases):
            got = verify_equivalence(a, b, bindings)
            assert got == _brute_force_result(a, b, bindings, "exhaustive")
            if k == 0:
                assert got.vectors_checked == 1021
                assert len(word_types) == 1 + (offset == 1)
        assert set(word_types) == {int}

    @pytest.mark.parametrize("chunk_words", [1, 3])
    def test_bits_past_an_int_chunk_are_no_difference(self, chunk_words, monkeypatch):
        # a and b differ only on the all-zero vector. Past a chunk, the bits
        # of Python-int words hold a and b on that vector, not vectors of
        # the next chunk, so they must not count as a difference.
        monkeypatch.setattr(camo_module, "_CHUNK_WORDS", chunk_words)
        inputs = [f"i{k}" for k in range(8)]
        a = Netlist(inputs, ["y"], [Gate("y", "NOR", tuple(inputs))])
        b = Netlist(inputs, ["y"], [
            Gate("n", "NOT", ("i0",)), Gate("y", "AND", ("i0", "n")),
        ])
        for seed in range(4):
            got = verify_equivalence(a, b, mode="random", n_vectors=1000, seed=seed)
            assert got == _brute_force_result(a, b, None, "random", 1000, seed)


def _brute_force_result(a, b, bindings, mode, n_vectors=0, seed=0):
    """The EquivalenceResult of evaluating a and b separately, vector by vector."""
    n_in = len(a.inputs)
    if mode == "exhaustive":
        vectors = list(product((0, 1), repeat=n_in))
    else:
        matrix = np.random.default_rng(seed).integers(
            0, 2, size=(n_vectors, n_in), dtype=np.uint8
        )
        vectors = [tuple(int(v) for v in row) for row in matrix]
    for k, vec in enumerate(vectors):
        outs_a, outs_b = naive_eval(a, vec, bindings), naive_eval(b, vec, bindings)
        if outs_a != outs_b:
            return EquivalenceResult(
                False, mode, k + 1, len(vectors), vec, outs_a, outs_b
            )
    return EquivalenceResult(True, mode, len(vectors), len(vectors))


def _rewrite(n: Netlist, rng: random.Random) -> Netlist:
    """An equivalent netlist of another structure: commuted fan-ins, De Morgan,
    BUF and NOT-NOT insertions, redundant n-ary fan-ins, n-ary gates split."""
    gates = []

    def helper(tag, kind, fanin):
        name = f"{owner}_{tag}{len(gates)}"
        gates.append(Gate(name, kind, tuple(fanin)))
        return name

    for g in n.gates:
        owner, kind, fanin = g.name, g.kind, list(g.fanin)
        if kind in ("NOT", "BUF", "CAMO"):
            gates.append(g)
            continue
        move = rng.randrange(6)
        if move == 0:
            fanin.reverse()
        elif move == 1 and kind in ("AND", "OR", "NAND", "NOR"):
            # De Morgan: AND = NOR of the complements, NAND = OR of them, ...
            dual = {"AND": "NOR", "NAND": "OR", "OR": "NAND", "NOR": "AND"}[kind]
            fanin = [helper("n", "NOT", [f]) for f in fanin]
            kind = dual
        elif move == 2:
            k = rng.randrange(len(fanin))
            if rng.random() < 0.5:
                fanin[k] = helper("b", "BUF", [fanin[k]])
            else:
                fanin[k] = helper("n", "NOT", [helper("n", "NOT", [fanin[k]])])
        elif move == 3:
            extra = rng.choice(fanin)
            # x AND x = x, and x XOR x = 0, so parity gates take the net twice.
            fanin += [extra, extra] if kind in ("XOR", "XNOR") else [extra]
        elif move == 4 and len(fanin) > 2:
            inner = {"NAND": "AND", "NOR": "OR", "XNOR": "XOR"}.get(kind, kind)
            fanin = [helper("t", inner, fanin[:-1]), fanin[-1]]
        gates.append(Gate(owner, kind, tuple(fanin)))
    return Netlist(n.inputs, n.outputs, gates)


def _unrelated(n: Netlist, rng: random.Random) -> Netlist:
    """A random netlist with n's inputs and output names."""
    nets = list(n.inputs)
    gates = []
    for j in range(rng.randint(1, 30)):
        kind = rng.choice(("AND", "OR", "NAND", "NOR", "XOR", "XNOR"))
        gates.append(Gate(f"h{j}", kind, (rng.choice(nets), rng.choice(nets))))
        nets.append(f"h{j}")
    gates += [
        Gate(o, "BUF", (rng.choice(nets),)) for o in n.outputs if o not in n.inputs
    ]
    return Netlist(n.inputs, n.outputs, gates)


def _miter_cases(seed: int):
    """(a, b, bindings) pairs of every kind the miter has to get right."""
    rng = random.Random(seed)
    n = random_netlist(rng, max_inputs=8, max_gates=30)
    cases = [(n, n, None), (n, _rewrite(n, rng), None), (n, _unrelated(n, rng), None)]
    if any(camo_module._eligible(g.kind, len(g.fanin)) is None for g in n.gates):
        camo, cfg = camouflage(n, fraction=rng.choice([0.3, 1.0]), seed=seed)
        true = cfg.bindings()
        flipped = dict(true)
        victim = rng.choice(sorted(flipped))
        flipped[victim] = flipped[victim].complement()
        scrambled = {name: TruthTable2(rng.randrange(16)) for name in true}
        rewritten = _rewrite(n, rng)
        for bindings in (true, flipped, scrambled):
            cases += [(camo, n, bindings), (n, camo, bindings), (camo, rewritten, bindings)]
    return cases


class TestVerifyMiter:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_separate_evaluation(self, seed):
        for a, b, bindings in _miter_cases(seed):
            assert verify_equivalence(a, b, bindings=bindings) == _brute_force_result(
                a, b, bindings, "exhaustive"
            )
            for n_vectors in (1, 70, 300):
                got = verify_equivalence(
                    a, b, bindings=bindings, mode="random", n_vectors=n_vectors, seed=seed
                )
                assert got == _brute_force_result(
                    a, b, bindings, "random", n_vectors, seed
                )

    def test_programs_hold_word_ops_and_run_unbound(self, monkeypatch):
        # Each bound CAMO gate enters the miter as its function's op, so
        # every program verify evaluates is word ops run with no bindings.
        runs = []
        run = bench_module._eval_gates

        def spy(program, values, bindings):
            runs.append(bindings)
            assert all(type(op) is int for op, _, _, _ in program)
            return run(program, values, bindings)

        monkeypatch.setattr(camo_module, "_eval_gates", spy)
        for seed in range(30):
            for a, b, bindings in _miter_cases(seed):
                verify_equivalence(a, b, bindings=bindings)
                verify_equivalence(a, b, bindings=bindings, mode="random", n_vectors=300)
        assert runs and all(bindings is None for bindings in runs)

    def test_rewrites_are_equivalent(self):
        for seed in range(40):
            n = random_netlist(random.Random(seed), max_inputs=8, max_gates=30)
            rewritten = _rewrite(n, random.Random(seed))
            assert rewritten != n
            assert _brute_force_result(n, rewritten, None, "exhaustive").equivalent
            assert verify_equivalence(n, rewritten).equivalent

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_unbound_camo_error_names_the_first_gate(self, c17, side):
        camo, cfg = camouflage(c17, gates=["10", "16", "22"])
        partial = {"16": cfg.bindings()["16"]}
        a, b = (camo, c17) if side == "a" else (c17, camo)
        expected = None
        for n in (a, b):
            try:
                eval_logic(n, [0] * 5, partial)
            except UnprogrammedGateError as exc:
                expected = str(exc)
                break
        with pytest.raises(UnprogrammedGateError) as exc:
            verify_equivalence(a, b, bindings=partial)
        assert str(exc.value) == expected
        with pytest.raises(UnprogrammedGateError) as exc:
            verify_equivalence(a, b, bindings=partial, mode="random")
        assert str(exc.value) == expected

    def test_merged_outputs_evaluate_nothing(self, c17, monkeypatch):
        camo, cfg = camouflage(c17, gates=["10", "16", "19", "23"])

        def fail(*args, **kwargs):
            raise AssertionError("evaluated a vector")

        monkeypatch.setattr(bench_module, "_eval_gates", fail)
        monkeypatch.setattr(camo_module, "_eval_gates", fail)
        result = verify_equivalence(c17, camo, bindings=cfg.bindings())
        assert result == EquivalenceResult(True, "exhaustive", 32, 32)

    def test_partly_merged_miter_evaluates_only_the_unshared_gates(self, c17, monkeypatch):
        evaluated = []

        def spy(program, values, bindings):
            evaluated.append((list(program), list(values[:5]), bindings))
            return bench_eval_gates(program, values, bindings)

        bench_eval_gates = bench_module._eval_gates
        monkeypatch.setattr(bench_module, "_eval_gates", spy)
        monkeypatch.setattr(camo_module, "_eval_gates", spy)
        camo, cfg = camouflage(c17, gates=["16"])
        flipped = cfg.bindings()["16"].complement()
        bindings = {"16": flipped}
        result = verify_equivalence(c17, camo, bindings=bindings)
        assert result == _brute_force_result(c17, camo, bindings, "exhaustive")
        [(program, inputs, run_bindings)] = evaluated
        # c17's gates first, as nodes 5-10 in file order, which is
        # topological (0-4 are its inputs); then copies of 16, 22 and 23, the
        # gates that read the flipped 16, as nodes 11-13. The copy of 16
        # carries its bound function as op.
        node = dict(zip(c17.inputs, range(5)))
        node.update((g.name, 5 + k) for k, g in enumerate(c17.gates))
        nand = TruthTable2.NAND
        assert len(program) == 9
        assert program[:6] == [
            (nand, node[g.name], node[g.fanin[0]], node[g.fanin[1]])
            for g in c17.gates
        ]
        assert program[6:] == [
            (TruthTable2.AND, 11, node["2"], node["11"]),
            (nand, 12, node["10"], 11),
            (nand, 13, 11, node["19"]),
        ]
        assert flipped == TruthTable2.AND and run_bindings is None
        assert all(type(word) is int for word in inputs)
        ops_c17, ops_camo = (camo_module._bound_ops(n, bindings) for n in (c17, camo))
        _, outs_a, outs_b = camo_module._miter(c17, ops_c17, camo, ops_camo)
        assert (outs_a, outs_b) == ([node["22"], node["23"]], [12, 13])

    def test_merged_random_verify_draws_nothing(self, c17, monkeypatch):
        rng = np.random.default_rng
        draws = []

        def spy(seed):
            draws.append(seed)
            return rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        camo, cfg = camouflage(c17, gates=["10", "16", "19", "23"])
        for a, b, bindings in ((c17, c17, None), (c17, camo, cfg.bindings())):
            result = verify_equivalence(a, b, bindings, mode="random", n_vectors=10**7)
            assert result == EquivalenceResult(True, "random", 10**7, 10**7)
        assert draws == []
        # A verify that evaluates vectors and reports a counterexample reads
        # both views of one draw.
        result = verify_equivalence(
            c17, camo, {**cfg.bindings(), "16": TruthTable2.AND}, mode="random", seed=4
        )
        assert not result.equivalent
        assert draws == [4]

    # Each case breaks every check listed after its expected error and passes
    # those before it: the I/O signature, the exhaustive input limit,
    # n_vectors, the mode, the random-cell ceiling, then an unbound CAMO gate.
    # ``pair`` is False for netlists of two signatures, True for a netlist
    # with itself and "kahn" for _kahn_pair, whose b has a's slots.
    @pytest.mark.parametrize("pair, kwargs, error, message", [
        (False, {"mode": "exhaustive"}, SignatureMismatchError, "I/O signatures differ"),
        (False, {"mode": "random", "n_vectors": 0}, SignatureMismatchError, "I/O signatures"),
        (False, {"mode": "sat"}, SignatureMismatchError, "I/O signatures differ"),
        (False, {"mode": "random", "n_vectors": 10**12}, SignatureMismatchError, "I/O"),
        (True, {"mode": "exhaustive"}, UsageError, "exhaustive mode supports at most 24"),
        (True, {"mode": "random", "n_vectors": 0}, UsageError, "n_vectors must be positive"),
        (True, {"mode": "sat"}, UsageError, "unknown equivalence mode 'sat'"),
        (True, {"mode": "random", "n_vectors": 10**12}, UsageError, "more than 268435456"),
        (True, {"mode": "random", "n_vectors": 10}, UnprogrammedGateError, "'g'"),
        (False, {"mode": "random", "n_vectors": None}, SignatureMismatchError, "I/O"),
        (True, {"mode": "random", "n_vectors": None}, UsageError, "n_vectors must be positive"),
        (False, {"mode": "random", "n_vectors": 10.5}, SignatureMismatchError, "I/O"),
        (True, {"mode": "random", "n_vectors": 10.5}, UsageError, "n_vectors must be an int"),
        (True, {"mode": "random", "n_vectors": True}, UsageError, "n_vectors must be an int"),
        (True, {"mode": "random", "n_vectors": "10"}, UsageError, "n_vectors must be an int"),
        (True, {"mode": "sat", "n_vectors": 10.5}, UsageError, "unknown equivalence mode"),
        # Bound in program order, a's CAMO gates w then y before b's x.
        ("kahn", {"mode": "random", "n_vectors": 10}, UnprogrammedGateError, "'w'"),
        ("kahn", {"mode": "random", "n_vectors": 10, "bindings": {"w": TruthTable2.AND}},
         UnprogrammedGateError, "'y'"),
        ("kahn", {"mode": "random", "n_vectors": 10, "bindings": {"x": TruthTable2.AND}},
         UnprogrammedGateError, "'w'"),
        ("kahn", {"mode": "random", "n_vectors": 10,
                  "bindings": {"w": TruthTable2.AND, "y": TruthTable2.OR}},
         UnprogrammedGateError, "'x'"),
        ("kahn", {"mode": "random", "n_vectors": 10, "bindings": {"w": 99, "x": TruthTable2.AND}},
         UsageError, "gate 'w' bound to 99, not a TruthTable2"),
        ("kahn", {"mode": "random", "n_vectors": 10, "bindings": {"w": TruthTable2.AND, "x": 99}},
         UnprogrammedGateError, "'y'"),
        ("kahn", {"mode": "random", "n_vectors": 10,
                  "bindings": {"w": TruthTable2.AND, "y": TruthTable2.OR, "x": "AND"}},
         UsageError, "gate 'x' bound to 'AND', not a TruthTable2"),
        # Ints too long to print are named by their digit counts.
        (True, {"mode": "random", "n_vectors": -(10**5000)}, UsageError,
         "n_vectors must be positive, got a negative int of 5001 digits"),
        (True, {"mode": "random", "n_vectors": 10**5000}, UsageError,
         "an int of 5001 digits random vectors of 25 inputs are an int of 5002 digits bits"),
    ])
    def test_error_order(self, monkeypatch, pair, kwargs, error, message):
        def fail(seed):
            raise AssertionError("drew random vectors")

        monkeypatch.setattr(np.random, "default_rng", fail)
        inputs = [f"i{k}" for k in range(25)]
        a = Netlist(inputs, ["g"], [Gate("g", "CAMO", ("i0", "i1"))])
        if pair == "kahn":
            a, b = _kahn_pair(inputs)
        else:
            b = a if pair else Netlist(inputs, ["i0"], [])
        with pytest.raises(error) as exc:
            verify_equivalence(a, b, **kwargs)
        assert type(exc.value) is error
        assert message in str(exc.value)

    def test_structural_matches_evaluate_nothing(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("evaluated a vector")

        monkeypatch.setattr(bench_module, "_eval_gates", fail)
        monkeypatch.setattr(camo_module, "_eval_gates", fail)
        inputs = ["x", "y", "z"]
        a = Netlist(inputs, ["p", "q", "r"], [
            Gate("p", "NAND", ("x", "y")),
            Gate("q", "XOR", ("x", "y", "z")),
            Gate("r", "CAMO", ("p", "z")),
        ])
        b = Netlist(inputs, ["p", "q", "r"], [
            Gate("y1", "BUF", ("y",)),
            Gate("p", "CAMO", ("y1", "x")),
            Gate("q", "XOR", ("z", "x", "y1")),
            Gate("p1", "BUF", ("p",)),
            Gate("r", "OR", ("z", "p1")),
        ])
        bindings = {"p": TruthTable2.NAND, "r": TruthTable2.OR}
        assert verify_equivalence(a, b, bindings=bindings) == EquivalenceResult(
            True, "exhaustive", 8, 8
        )

    def test_hash_program_and_output_nodes(self, monkeypatch):
        # The miter that verify hands to _first_mismatch, node for node: a
        # then b in program order, inputs x, y, z as nodes 0-2. A 3-input XOR
        # folds its sorted fan-in nodes, BUF and a CAMO gate bound to A or B
        # alias one, and a NOT reads its fan-in twice.
        miters = []
        first_mismatch = camo_module._first_mismatch

        def spy(miter, input_words, total):
            miters.append(miter)
            return first_mismatch(miter, input_words, total)

        monkeypatch.setattr(camo_module, "_first_mismatch", spy)
        inputs = ["x", "y", "z"]
        merged = (
            Netlist(inputs, ["p", "q", "r"], [
                Gate("p", "NAND", ("x", "y")),
                Gate("q", "XOR", ("x", "y", "z")),
                Gate("r", "CAMO", ("p", "z")),
            ]),
            Netlist(inputs, ["p", "q", "r"], [
                Gate("y1", "BUF", ("y",)),
                Gate("p", "CAMO", ("y1", "x")),
                Gate("q", "XOR", ("z", "x", "y1")),
                Gate("p1", "BUF", ("p",)),
                Gate("r", "OR", ("z", "p1")),
            ]),
            {"p": TruthTable2.NAND, "r": TruthTable2.OR},
        )
        apart = (
            Netlist(inputs, ["p", "q", "r"], [
                Gate("n", "NOT", ("x",)),
                Gate("q", "XOR", ("x", "y", "z")),
                Gate("r", "CAMO", ("z", "n")),
                Gate("p", "AND", ("n", "q")),
            ]),
            Netlist(inputs, ["p", "q", "r"], [
                Gate("q", "XOR", ("z", "y", "x")),
                Gate("n1", "NOT", ("x",)),
                Gate("p", "NOR", ("q", "x")),
                Gate("r", "CAMO", ("x", "n1")),
            ]),
            {"r": TruthTable2.B},
        )
        for a, b, bindings in (merged, apart):
            assert a._fanin != b._fanin
            verify_equivalence(a, b, bindings=bindings)
        nand, xor, op_or = (int(f) for f in (TruthTable2.NAND, TruthTable2.XOR, TruthTable2.OR))
        op_and, nor, not_a = (int(f) for f in (TruthTable2.AND, TruthTable2.NOR, TruthTable2.NOT_A))
        assert miters == [
            (
                [(nand, 3, 0, 1), (xor, 4, 0, 1), (xor, 5, 4, 2), (op_or, 6, 3, 2)],
                [3, 5, 6],
                [3, 5, 6],
            ),
            (
                [(not_a, 3, 0, 0), (xor, 4, 0, 1), (xor, 5, 4, 2), (op_and, 6, 3, 5),
                 (nor, 7, 5, 0)],
                [6, 5, 3],
                [7, 5, 3],
            ),
        ]

    def test_hash_compiles_no_slot_program(self, c17_text):
        # The hash reads gate order, fan-in slots and bound op columns, so a
        # verify of two netlists whose slots differ compiles neither program.
        c17 = parse_bench(c17_text)
        camo, cfg = camouflage(c17, gates=["10", "16", "22"])
        rng = random.Random(3)
        rewritten = _rewrite(c17, rng)
        for a, b, bindings in (
            (c17, rewritten, None),
            (camo, rewritten, cfg.bindings()),
            (_unrelated(c17, rng), camo, cfg.bindings()),
        ):
            assert a._fanin != b._fanin
            verify_equivalence(a, b, bindings=bindings)
            verify_equivalence(a, b, bindings=bindings, mode="random", n_vectors=10)
            assert "_program" not in vars(a) and "_program" not in vars(b)

    @pytest.mark.parametrize("pair", [
        # An asymmetric function of swapped fan-ins: x AND NOT y vs y AND NOT x.
        (("CAMO", ("x", "y")), ("CAMO", ("y", "x"))),
        # Parity of x, y, y is x; parity of x, x, y is y.
        (("XOR", ("x", "y", "y")), ("XOR", ("x", "x", "y"))),
    ])
    def test_look_alike_gates_stay_apart(self, pair):
        (kind_a, fanin_a), (kind_b, fanin_b) = pair
        a = Netlist(["x", "y"], ["g"], [Gate("g", kind_a, fanin_a)])
        b = Netlist(["x", "y"], ["g"], [Gate("g", kind_b, fanin_b)])
        bindings = {"g": TruthTable2.A_AND_NOT_B}
        assert verify_equivalence(a, b, bindings=bindings) == _brute_force_result(
            a, b, bindings, "exhaustive"
        )
        assert not verify_equivalence(a, b, bindings=bindings).equivalent


def _kahn_pair(inputs):
    """Two netlists with the same slots whose files list y, x, w while the
    program runs w, x, y: a camouflages w and y, b camouflages x."""
    def netlist(camo):
        gates = [("y", "NAND", ("x", "i2")), ("x", "AND", ("w", "i1")), ("w", "OR", ("i0", "i3"))]
        return Netlist(inputs, ["y"], [
            Gate(name, "CAMO" if name in camo else kind, fanin) for name, kind, fanin in gates
        ])

    a, b = netlist("wy"), netlist("x")
    assert a._order == b._order == (2, 1, 0) and a._fanin == b._fanin
    return a, b


def _rekind(n: Netlist, rng: random.Random) -> Netlist:
    """n with about a third of its plain gates turned into another kind of the
    same arity: NOT and BUF swap, any other takes another binary kind."""
    gates = []
    for g in n.gates:
        kind = g.kind
        if kind in ("NOT", "BUF") and rng.random() < 0.3:
            kind = "BUF" if kind == "NOT" else "NOT"
        elif kind in BINARY_KINDS and rng.random() < 0.3:
            kind = rng.choice([k for k in BINARY_KINDS if k != kind])
        gates.append(Gate(g.name, kind, g.fanin))
    return Netlist(n.inputs, n.outputs, gates)


def _renamed(n: Netlist, rng: random.Random) -> Netlist:
    """n with its gate names shuffled among its gates, every fan-in following
    its net: the same slots, but its output names read other slots."""
    names = [g.name for g in n.gates]
    new = dict(zip(names, rng.sample(names, len(names))))
    gates = [Gate(new[g.name], g.kind, tuple(new.get(f, f) for f in g.fanin)) for g in n.gates]
    return Netlist(n.inputs, n.outputs, gates)


def _slot_paired_cases(seed: int):
    """(a, b, bindings) pairs where b has a's slots: those of _miter_cases,
    then a netlist in shuffled file order with n-ary, NOT and BUF gates
    against copies with CAMO gates on a, b or both, with other kinds or
    with shuffled names, under true, flipped and scrambled bindings."""
    cases = [
        (a, b, bindings)
        for a, b, bindings in _miter_cases(seed)
        if a._fanin == b._fanin and a._order == b._order
    ]
    rng = random.Random(1000 + seed)
    n = slot_form_netlist(rng)
    other, renamed = _rekind(n, rng), _renamed(n, rng)
    cases += [(n, n, None), (n, other, None), (other, n, None), (n, renamed, None)]
    eligible = [g.name for g in n.gates if camo_module._eligible(g.kind, len(g.fanin)) is None]
    if eligible:
        one, cfg_one = camouflage(n, gates=rng.sample(eligible, -(-len(eligible) // 2)))
        two, cfg_two = camouflage(n, gates=rng.sample(eligible, -(-len(eligible) // 2)))
        true = {**cfg_one.bindings(), **cfg_two.bindings()}
        flipped = dict(true)
        victim = rng.choice(sorted(flipped))
        flipped[victim] = flipped[victim].complement()
        scrambled = {name: TruthTable2(rng.randrange(16)) for name in true}
        for bindings in (true, flipped, scrambled):
            cases += [
                (one, n, bindings), (n, one, bindings), (one, two, bindings),
                (two, one, bindings), (one, one, bindings), (other, two, bindings),
                (one, renamed, bindings),
            ]
    return cases


def _fan_out_cone(n: Netlist, name: str) -> set[str]:
    """The gate ``name`` and every gate that reads it, directly or not."""
    readers: dict[str, list[str]] = {}
    for g in n.gates:
        for f in g.fanin:
            readers.setdefault(f, []).append(g.name)
    cone, todo = set(), [name]
    while todo:
        net = todo.pop()
        if net not in cone:
            cone.add(net)
            todo += readers.get(net, [])
    return cone


class TestSlotPairedMiter:
    """A b with a's slots (same fan-in slots and program order) is paired
    with a slot by slot; the structural hash of ``_miter`` serves every
    other pair. Both find the same first counterexample."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_hash_and_separate_evaluation(self, seed, monkeypatch):
        hashed = camo_module._miter

        def fail(*args):
            raise AssertionError("hashed a pair that shares its slots")

        monkeypatch.setattr(camo_module, "_miter", fail)
        for a, b, bindings in _slot_paired_cases(seed):
            ops_a, ops_b = camo_module._bound_ops(a, bindings), camo_module._bound_ops(b, bindings)
            paired = camo_module._slot_miter(a, ops_a, ops_b, b._out_slots)
            miter = hashed(a, ops_a, b, ops_b)
            for mode, n_vectors in (("exhaustive", 1024), ("random", 1), ("random", 70), ("random", 300)):
                total, words, _ = bench_module._input_vectors(a.inputs, mode, n_vectors, seed)
                hit = camo_module._first_mismatch(paired, words, total)
                assert hit == camo_module._first_mismatch(miter, words, total)
                got = verify_equivalence(a, b, bindings, mode=mode, n_vectors=n_vectors, seed=seed)
                assert got == _brute_force_result(a, b, bindings, mode, n_vectors, seed)
                assert got.equivalent == (hit is None)

    def test_cases_cover_kahn_order_and_n_ary_cones(self):
        # Shuffled files whose program runs in Kahn's order, and n-ary gates
        # downstream of a differing op. Each gate of that cone is refolded on
        # fresh nodes, one entry per fan-in past the first.
        kahn = n_ary = 0
        for seed in range(30):
            for a, b, bindings in _slot_paired_cases(seed):
                ops_a = camo_module._bound_ops(a, bindings)
                ops_b = camo_module._bound_ops(b, bindings)
                cone = set().union(*(
                    _fan_out_cone(b, name)
                    for name, op_a, op_b in zip(b._names, ops_a, ops_b) if op_a != op_b
                ))
                fans = [len(g.fanin) for g in b.gates if g.name in cone]
                program, _, _ = camo_module._slot_miter(a, ops_a, ops_b, b._out_slots)
                if program:
                    assert len(program) == len(a._program) + sum(max(1, f - 1) for f in fans)
                kahn += a._order.__class__ is tuple
                n_ary += bool(program) and max(fans, default=0) > 2
        assert kahn > 300 and n_ary > 100

    @staticmethod
    def _signoff_pair():
        original = parse_bench(dag_text(random.Random(7), 20, 2000))
        camo, cfg = camouflage(original, fraction=0.1, seed=7)
        return original, camo, cfg

    def test_own_config_compiles_and_draws_nothing(self, monkeypatch):
        original, camo, cfg = self._signoff_pair()

        def fail(*args, **kwargs):
            raise AssertionError("hashed, compiled, evaluated or drew")

        for module, name in [
            (camo_module, "_miter"), (camo_module, "_slot_program"),
            (bench_module, "_slot_program"), (camo_module, "_eval_gates"),
            (np.random, "default_rng"),
        ]:
            monkeypatch.setattr(module, name, fail)
        for a, b in ((camo, original), (original, camo), (camo, camo)):
            assert verify_equivalence(a, b, cfg.bindings()) == EquivalenceResult(
                True, "exhaustive", 1 << 20, 1 << 20
            )
            assert verify_equivalence(a, b, cfg.bindings(), mode="random") == EquivalenceResult(
                True, "random", 1024, 1024
            )
        assert "_program" not in vars(camo) and "_program" not in vars(original)

    def test_flipped_gate_evaluates_a_and_its_fan_out_cone(self, monkeypatch):
        original, camo, cfg = self._signoff_pair()
        victim = next(
            name for name in camo.camo_gates
            if _fan_out_cone(original, name) & set(original.outputs)
        )
        cone = _fan_out_cone(original, victim)
        flipped = {**cfg.bindings(), victim: cfg.bindings()[victim].complement()}
        miter = camo_module._miter(
            camo, camo_module._bound_ops(camo, flipped),
            original, camo_module._bound_ops(original, flipped),
        )
        compiled, evaluated = [], []
        compile_program, run = bench_module._slot_program, bench_module._eval_gates

        def compile_spy(net, ops):
            compiled.append(net)
            return compile_program(net, ops)

        def run_spy(program, values, bindings):
            evaluated.append(list(program))
            return run(program, values, bindings)

        monkeypatch.setattr(bench_module, "_slot_program", compile_spy)
        monkeypatch.setattr(camo_module, "_slot_program", compile_spy)
        monkeypatch.setattr(camo_module, "_eval_gates", run_spy)
        result = verify_equivalence(camo, original, flipped, mode="random", seed=3)
        assert len(compiled) == 1 and compiled[0] is camo
        [program] = evaluated
        total, words, vector = bench_module._input_vectors(camo.inputs, "random", 1024, 3)
        index, outputs_a, outputs_b = camo_module._first_mismatch(miter, words, total)
        assert result == EquivalenceResult(
            False, "random", index + 1, 1024, vector(index), outputs_a, outputs_b
        )
        # a's slot program with its CAMO gates bound, then the cone of the
        # victim with the original's ops, in file order, on fresh nodes.
        n = len(camo.inputs)
        a_part = [
            (int(flipped[op]) if isinstance(op, str) else op, out, x, y)
            for op, out, x, y in camo._program
        ]
        assert program[: len(a_part)] == a_part
        cone_gates = [g for g in original.gates if g.name in cone]
        tail = program[len(a_part):]
        assert len(tail) == len(cone_gates) < 2000
        node = {g.name: n + k for k, g in enumerate(original.gates)}
        node.update((g.name, n + 2000 + j) for j, g in enumerate(cone_gates))
        node.update(zip(original.inputs, range(n)))
        assert tail == [
            (int(TruthTable2[g.kind]), node[g.name], node[g.fanin[0]], node[g.fanin[1]])
            for g in cone_gates
        ]


class TestMalformedBindings:
    @pytest.mark.parametrize(
        "value",
        [99, None, "AND", True, 1.0, np.int64(1), 10**5000],
        ids=["99", "None", "AND", "True", "1.0", "np.int64", "huge int"],
    )
    def test_every_entry_point_names_the_gate_and_value(self, c17, value):
        camo, _ = camouflage(c17, gates=["16"])
        bad = {"16": value}
        calls = [
            lambda: eval_logic(camo, [0] * 5, bad),
            lambda: verify_equivalence(c17, camo, bad),
            lambda: verify_equivalence(c17, camo, bad, mode="random"),
            lambda: oracle_attack(camo, camo, oracle_bindings=bad),
            lambda: oracle_attack(
                camo, camo, oracle_bindings=bad, joint_limit=1, marginal_fallback=True
            ),
        ]
        for call in calls:
            with pytest.raises(UsageError) as exc:
                call()
            assert type(exc.value) is UsageError
            assert str(exc.value) == f"gate '16' bound to {_shown(value)}, not a TruthTable2"

    def test_verify_rejects_per_lane_masks(self, c17):
        camo, _ = camouflage(c17, gates=["16"])
        masks = tuple(pack_words(np.ones(32, dtype=bool)) for _ in range(4))
        for a, b in ((c17, camo), (camo, c17), (camo, camo)):
            with pytest.raises(UsageError) as exc:
                verify_equivalence(a, b, {"16": masks})
            assert str(exc.value) == "gate '16' bound to per-lane masks, not a TruthTable2"
        # The word engine still runs them: all-ones masks are TRUE on every lane.
        arrays = dict(zip(c17.inputs, np.random.default_rng(0).integers(0, 2, (5, 32))))
        got = eval_vectors(camo, arrays, {"16": masks})
        want = eval_vectors(camo, arrays, {"16": TruthTable2.TRUE})
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestLayoutIndistinguishability:
    def test_same_structure_yields_identical_camo_text(self, c17):
        variant_gates = [
            Gate(g.name, "AND" if g.name in ("16", "19") else g.kind, g.fanin)
            for g in c17.gates
        ]
        variant = Netlist(c17.inputs, c17.outputs, variant_gates)
        camo_a, cfg_a = camouflage(c17, gates=["16", "19"])
        camo_b, cfg_b = camouflage(variant, gates=["16", "19"])
        # the serialized netlists leak nothing: byte-identical
        assert serialize_bench(camo_a) == serialize_bench(camo_b)
        # the secret lives only in the configs, which do differ
        assert cfg_a.to_json() != cfg_b.to_json()
        assert {s.function for s in cfg_a.gates} == {TruthTable2.NAND}
        assert {s.function for s in cfg_b.gates} == {TruthTable2.AND}
