import collections
import random
import re
from itertools import product
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dag_text,
    index_bit_words,
    naive_eval,
    random_netlist,
    reference_parse_bench,
    reference_query_vectors,
    reference_topo_order,
    slot_form_netlist,
)
from tvdcamo import bench
from tvdcamo.attack import oracle_attack
from tvdcamo.bench import (
    _MAX_RANDOM_CELLS,
    _input_vectors,
    Gate,
    Netlist,
    eval_logic,
    eval_vectors,
    eval_words,
    exhaustive_input_words,
    index_bit_rows,
    pack_words,
    parse_bench,
    serialize_bench,
    unpack_words,
)
from tvdcamo.camo import CamoConfig, _eligible, camouflage, decamouflage, reconstruct
from tvdcamo.errors import (
    BenchParseError,
    CycleError,
    NetlistError,
    UnprogrammedGateError,
    UsageError,
)
from tvdcamo.camo import verify_equivalence
from tvdcamo.gates import TruthTable2


class TestParse:
    def test_c17_counts(self, c17):
        assert c17.inputs == ("1", "2", "3", "6", "7")
        assert c17.outputs == ("22", "23")
        assert len(c17.gates) == 6
        assert all(g.kind == "NAND" for g in c17.gates)

    def test_passthrough_netlist(self):
        n = parse_bench("INPUT(a)\nOUTPUT(a)\n")
        assert n.inputs == ("a",)
        assert n.outputs == ("a",)
        assert n.gates == ()
        assert eval_logic(n, [1]) == (1,)
        assert eval_logic(n, [0]) == (0,)

    def test_comments_blank_lines_crlf(self):
        text = "# header\r\nINPUT(a)\r\n\r\nOUTPUT(y)\r\ny = NOT(a)  # inverter\r\n"
        n = parse_bench(text)
        assert n.gates == (Gate("y", "NOT", ("a",)),)

    def test_lowercase_kind_accepted(self):
        n = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = nand(a, b)\n")
        assert n.gates[0].kind == "NAND"

    def test_undefined_net_located(self):
        with pytest.raises(BenchParseError) as exc:
            parse_bench("INPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")
        assert "undefined net 'a'" in str(exc.value)
        assert exc.value.line == 3

    def test_duplicate_driver_located(self):
        with pytest.raises(BenchParseError) as exc:
            parse_bench("INPUT(a)\nINPUT(a)\n")
        assert exc.value.line == 2
        assert "multiple" in str(exc.value) or "already driven" in str(exc.value)

    def test_gate_redefining_input_rejected(self):
        with pytest.raises(BenchParseError):
            parse_bench("INPUT(a)\nINPUT(b)\na = AND(b, b)\n")

    def test_cycle_located(self):
        text = "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = AND(a, x)\n"
        with pytest.raises(BenchParseError) as exc:
            parse_bench(text)
        assert "cycle" in str(exc.value)
        assert exc.value.line == 3

    def test_arity_mismatch_located(self):
        with pytest.raises(BenchParseError) as exc:
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n")
        assert exc.value.line == 3
        assert "exactly 1" in str(exc.value)

    def test_nary_and_accepted(self):
        n = parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = AND(a, b, c)\n")
        assert eval_logic(n, [1, 1, 1]) == (1,)
        assert eval_logic(n, [1, 0, 1]) == (0,)

    def test_unknown_kind_located(self):
        with pytest.raises(BenchParseError) as exc:
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XAND(a, b)\n")
        assert "unknown gate kind 'XAND'" in str(exc.value)
        assert exc.value.line == 4

    def test_unrecognized_statement_located(self):
        with pytest.raises(BenchParseError) as exc:
            parse_bench("INPUT(a)\nwhat is this\n")
        assert exc.value.line == 2

    def test_camo_arity_enforced(self):
        with pytest.raises(BenchParseError):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = CAMO(a)\n")

    def test_duplicate_output_rejected(self):
        with pytest.raises(BenchParseError):
            parse_bench("INPUT(a)\nOUTPUT(a)\nOUTPUT(a)\n")

    def test_undefined_output_located(self):
        with pytest.raises(BenchParseError) as exc:
            parse_bench("INPUT(a)\nOUTPUT(z)\n")
        assert "undefined net 'z'" in str(exc.value)
        assert exc.value.line == 2


_PUNCT = "(),=#"
# ASCII and Unicode whitespace; \x85 and \u2028 also end a line.
_SPACES = " \t\f\v\xa0\x1f\x85\u2028"


def _mutate(text: str, rng: random.Random) -> str:
    """Serialized .bench text with one to three random edits."""
    lines = text.splitlines()
    gate_names = re.findall(r"^(\w+) =", text, flags=re.M)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines))
        line = lines[k]
        move = rng.randrange(10)
        if move == 0:
            spots = [i for i, c in enumerate(line) if c in _PUNCT or c.isspace()]
            if spots:
                i = rng.choice(spots)
                line = line[:i] + line[i + 1 :]
        elif move == 1:
            i = rng.randrange(len(line) + 1)
            line = line[:i] + rng.choice(_PUNCT + _SPACES) + line[i:]
        elif move == 2:
            lines.insert(k, line)
            continue
        elif move == 3:
            kind = re.search(r"= (\w+)\(", line)
            if kind:
                token = rng.choice(["XAND", "INPUT", kind[1].lower(), kind[1].title()])
                line = line.replace(kind[1], token, 1)
        elif move == 4:
            note = rng.choice(["", " x = AND(a, b)", " (", " # again"])
            if rng.random() < 0.5:
                line += rng.choice(["", "  ", "\t"]) + "#" + note
            else:
                lines.insert(k, rng.choice(["", "   ", "#" + note]))
                continue
        elif move == 5 and "(" in line:
            line = re.sub(r"\(\w+", f"(zz{k}", line, count=1)
        elif move == 6 and gate_names and " = " in line:
            target = rng.choice(gate_names)
            line = re.sub(r"(\(|, )\w+", lambda m: m[1] + target, line, count=1)
        elif move == 7:
            line = rng.choice(_SPACES[:4]) + line + rng.choice(["", " ", "\t"])
        elif move == 8:
            names = list(re.finditer(r"\w+", line))
            if names:
                i = rng.choice(names).end()
                line = line[:i] + rng.choice("-.$") + line[i:]
        elif move == 9 and "(" in line:
            # One fan-in fewer or one more: arity errors for NOT, BUF, CAMO.
            if ", " in line and rng.random() < 0.5:
                line = re.sub(r", \w+\)", ")", line)
            else:
                line = line.replace(")", ", i0)", 1)
        lines[k] = line
    sep = "\r\n" if rng.random() < 0.3 else "\n"
    return sep.join(lines) + (sep if rng.random() < 0.8 else "")


_PARSE_ERRORS = (
    "unrecognized statement", "already driven", "already listed", "undefined net",
    "invalid net name", "unknown gate kind", "combinational cycle", "takes exactly",
    "takes at least",
)


def _parse_outcome(parse, text):
    try:
        n = parse(text)
    except BenchParseError as exc:
        return ("error", str(exc), exc.line, exc.col)
    return ("netlist", n, n.topo_gates, n.gate_map)


class TestParserReference:
    def test_mutated_text_parses_like_the_reference(self):
        seen = collections.Counter()
        for seed in range(2000):
            rng = random.Random(seed)
            text = _mutate(serialize_bench(random_netlist(rng, max_gates=12)), rng)
            got = _parse_outcome(parse_bench, text)
            assert got == _parse_outcome(reference_parse_bench, text), repr(text)
            if got[0] == "netlist":
                assert got[2] == reference_topo_order(got[1])
                seen["netlist"] += 1
            else:
                seen[next(e for e in _PARSE_ERRORS if e in got[1])] += 1
        # Every outcome, and every error the parser can raise, shows up.
        assert seen["netlist"] > 400
        assert set(seen) == {"netlist", *_PARSE_ERRORS}, seen

    def test_topological_order_and_cycle_match_the_reference(self):
        cycles = 0
        for seed in range(300):
            rng = random.Random(seed)
            n = random_netlist(rng, max_gates=15)
            gates = list(n.gates)
            # Point one fan-in at a gate at or after it: a cycle or a
            # forward reference.
            k = rng.randrange(len(gates))
            g = gates[k]
            gates[k] = Gate(g.name, g.kind, (rng.choice(gates[k:]).name,) + g.fanin[1:])
            outcomes = []
            for order in (
                lambda: reference_topo_order(
                    SimpleNamespace(gates=gates, gate_map={g.name: g for g in gates})
                ),
                lambda: Netlist(n.inputs, [], gates).topo_gates,
            ):
                try:
                    outcomes.append(order())
                except CycleError as exc:
                    outcomes.append(exc.cycle)
            assert outcomes[0] == outcomes[1]
            cycles += isinstance(outcomes[0], list)
        assert 50 < cycles < 250


# Runs of spaces and tabs, the only blanks the whole-text path reads.
_BLANKS = st.text(" \t", max_size=3)


@st.composite
def _perturbed_bench(draw):
    """Serialized random netlist text, gate lines shuffled, with spaces and
    tabs around every token, kind tokens in any case, trailing comments,
    blank and comment lines, and line breaks of "\\n", CRLF or lone "\\r";
    sometimes with one of ``_mutate``'s edits first."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    text = serialize_bench(random_netlist(rng, max_gates=12, unary_weight=0.25, wide_weight=0.25))
    if draw(st.booleans()):
        text = _mutate(text, rng)
    lines = text.splitlines()
    at = [k for k, line in enumerate(lines) if "=" in line.split("#")[0]]
    for k, line in zip(at, draw(st.permutations([lines[k] for k in at]))):
        lines[k] = line
    out = []
    for line in lines:
        line = re.sub(r"[ \t]*([(),=])[ \t]*", lambda m: draw(_BLANKS) + m[1] + draw(_BLANKS), line)
        line = re.sub(
            r"(?<== )(\w+)(?=\()", lambda m: draw(st.sampled_from([m[1], m[1].lower(), m[1].title()])),
            line,
        )
        line = draw(_BLANKS) + line + draw(_BLANKS)
        if draw(st.booleans()):
            line += "#" + draw(st.text("ab =(),#\t", max_size=5))
        out.append(line)
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(["", " \t", "# note", "\t# x = AND(a, b)"])))
    breaks = st.sampled_from(["\n", "\r\n", "\r"]) if draw(st.booleans()) else st.just("\n")
    return "".join(line + draw(breaks) for line in out)[: -1 if draw(st.booleans()) else None]


class TestWholeTextParse:
    """``parse_bench`` reads well-formed text with one findall per line shape
    and sends everything else line by line; both agree with the reference."""

    @given(text=_perturbed_bench())
    @settings(max_examples=300, deadline=None)
    def test_perturbed_text_parses_like_the_reference(self, text):
        got = _parse_outcome(parse_bench, text)
        assert got == _parse_outcome(reference_parse_bench, text)
        fast = bench._parse_text(text)
        if got[0] == "error":
            assert fast is None
        else:
            assert got[2] == reference_topo_order(got[1])
            # Well-formed text whose only blanks are spaces, tabs and "\n"
            # takes the whole-text path.
            assert fast == got[1] or (fast is None and re.search(r"[^\S \t\n]", text))

    def test_signoff_chain_builds_no_gate(self, monkeypatch):
        text = dag_text(random.Random(7), 20, 2000)
        built = []
        unchecked = Gate._unchecked.__func__
        monkeypatch.setattr(
            Gate, "_unchecked", classmethod(lambda cls, *args: built.append(args) or unchecked(cls, *args))
        )
        original = parse_bench(text)
        round_trip = parse_bench(serialize_bench(original))
        assert round_trip == original
        camo, cfg = camouflage(round_trip, fraction=0.1, seed=7)
        cfg2 = CamoConfig.from_json(cfg.to_json())
        assert verify_equivalence(camo, original, bindings=cfg2.bindings()).equivalent
        flipped = cfg2.bindings()
        flipped[camo.camo_gates[0]] = flipped[camo.camo_gates[0]].complement()
        assert not verify_equivalence(
            camo, original, bindings=flipped, mode="random", n_vectors=1024
        ).equivalent
        assert built == []
        # File order is topological here, so the program follows it.
        assert tuple(original._order) == tuple(range(2000))
        assert len(original.gates) == 2000 and len(built) == 2000

    def test_shuffled_file_gets_kahns_order(self):
        rng = random.Random(8)
        lines = dag_text(rng, 20, 2000).splitlines()
        gate_lines = lines[40:]
        rng.shuffle(gate_lines)
        shuffled = parse_bench("\n".join(lines[:40] + gate_lines))
        position = {g.name: k for k, g in enumerate(shuffled.gates)}
        kahn = reference_topo_order(shuffled)
        assert shuffled._order == tuple(position[g.name] for g in kahn)
        assert shuffled.topo_gates == kahn
        original = parse_bench("\n".join(lines))
        assert tuple(original._order) == tuple(range(2000))
        assert verify_equivalence(shuffled, original).equivalent


# Edits of one gate line of serialize_bench's text that leave it in that
# spacing, so the strict gate scan still reads it, and edits that take it
# out, so the general scan must.
_IN_SPACING = {
    "lowercase kind": lambda line: re.sub(r"= (\w+)\(", lambda m: f"= {m[1].lower()}(", line),
    "CAMO kind": lambda line: re.sub(r"= \w+\(", "= CAMO(", line),
}
_OFF_SPACING = {
    "double space": lambda line: line.replace(" = ", "  = ", 1),
    "tab": lambda line: line.replace(" = ", "\t= ", 1),
    "trailing comment": lambda line: line + " # note",
    "NOT gate": lambda line: re.sub(r"= \w+\((\w+), \w+\)", r"= NOT(\1)", line),
    "3-input gate": lambda line: line.replace(")", ", i0)"),
    "no space after the comma": lambda line: line.replace(", ", ","),
}


@st.composite
def _near_canonical_bench(draw):
    """Text in serialize_bench's spacing, from dag_text or serialize_bench,
    with drawn near misses: up to three line edits, the gate g0 renamed
    INPUT, CRLF line breaks and no final line break."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        text = dag_text(rng, draw(st.integers(2, 12)), draw(st.integers(1, 40)))
    else:
        text = serialize_bench(random_netlist(rng, max_gates=12, unary_weight=0, wide_weight=0))
    lines = text.splitlines()
    at = [k for k, line in enumerate(lines) if " = " in line]
    edits = {**_IN_SPACING, **_OFF_SPACING}
    for edit in draw(st.lists(st.sampled_from(sorted(edits)), max_size=3)):
        k = draw(st.sampled_from(at))
        lines[k] = edits[edit](lines[k])
    if draw(st.booleans()):
        lines = [re.sub(r"\bg0\b", "INPUT", line) for line in lines]
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return sep.join(lines) + draw(st.sampled_from([sep, ""]))


class TestCanonicalGateScan:
    """``_parse_text`` reads 2-input gate lines in serialize_bench's spacing
    with the strict ``_PAIR_LINES`` scan and runs ``_GATE_LINES`` only when a
    gate line is in no such spacing; both give the netlist of the general
    scan alone."""

    @given(text=_near_canonical_bench())
    @settings(max_examples=300, deadline=None)
    def test_strict_scan_parses_like_the_general_scan(self, text):
        assert _parse_outcome(parse_bench, text) == _parse_outcome(reference_parse_bench, text)
        fast = bench._parse_text(text)
        with mock.patch.object(bench, "_PAIR_LINES", lambda text: []):
            general = bench._parse_text(text)
        assert (fast is None) == (general is None)
        if fast is not None:
            assert fast == general
            assert (fast._fanin, fast._out_slots) == (general._fanin, general._out_slots)
            assert tuple(fast._order) == tuple(general._order)

    def test_general_scan_runs_once_for_a_line_off_the_spacing(self, monkeypatch):
        calls = []
        general = bench._GATE_LINES
        monkeypatch.setattr(bench, "_GATE_LINES", lambda text: calls.append(text) or general(text))
        text = dag_text(random.Random(11), 20, 200)
        original = reference_parse_bench(text)
        camo, _ = camouflage(original, fraction=0.1, seed=11)
        for canonical in (text, serialize_bench(original), serialize_bench(camo)):
            assert parse_bench(canonical) == reference_parse_bench(canonical)
        assert calls == []
        lines = text.splitlines()
        k = next(k for k, line in enumerate(lines) if " = " in line)
        edits = {**_IN_SPACING, **_OFF_SPACING, "CRLF": lambda line: line + "\r"}
        for edit, change in edits.items():
            calls.clear()
            edited = "\n".join([*lines[:k], change(lines[k]), *lines[k + 1 :]]) + "\n"
            got = parse_bench(edited)
            assert got == reference_parse_bench(edited), edit
            assert len(calls) == (edit not in _IN_SPACING), edit
            # Only the stray "\r" sends the text line by line.
            assert (bench._parse_text(edited) is None) == (edit == "CRLF"), edit


class TestSlotForm:
    """Every netlist is compiled into integer slots: input i is slot i, file
    gate k slot n + k, and ``_program`` its topological slot program."""

    @pytest.mark.parametrize("seed", range(40))
    def test_camouflage_and_reconstruct_reuse_the_slot_form(self, seed):
        rng = random.Random(seed)
        n = slot_form_netlist(rng)
        eligible = [g.name for g in n.gates if _eligible(g.kind, len(g.fanin)) is None]
        camo, cfg = camouflage(n, gates=rng.sample(eligible, min(3, len(eligible))))
        partial = {name: f for name, f in cfg.bindings().items() if rng.random() < 0.5}
        rebuilt = reconstruct(camo, partial)
        restored = decamouflage(camo, cfg)
        assert restored == n
        for m in (n, camo, rebuilt, restored):
            assert m.topo_gates == reference_topo_order(m)
            assert m._program == parse_bench(serialize_bench(m))._program
        # Same nets and fan-ins in the same places: slots and order are
        # reused, not rebuilt.
        for m in (camo, rebuilt, restored):
            assert m._fanin is n._fanin and m._order is n._order

    @pytest.mark.parametrize("seed", range(40))
    def test_eval_words_matches_naive(self, seed):
        rng = random.Random(seed)
        n = slot_form_netlist(rng)
        eligible = [g.name for g in n.gates if _eligible(g.kind, len(g.fanin)) is None]
        camo, cfg = camouflage(n, gates=rng.sample(eligible, min(3, len(eligible))))
        bindings = {name: TruthTable2(rng.randrange(16)) for name in cfg.bindings()}
        width = len(n.inputs)
        vectors = [
            tuple((index >> (width - 1 - j)) & 1 for j in range(width))
            for index in range(1 << width)
        ]
        count = len(vectors)
        words = exhaustive_input_words(width, 0, -(-count // 64))
        int_words = [int.from_bytes(w.astype("<u8").tobytes(), "little") for w in words]
        for m in (n, camo):
            expect = [naive_eval(m, vec, bindings) for vec in vectors]
            outs = eval_words(m, words, bindings)
            got = [unpack_words(o, count).astype(int).tolist() for o in outs]
            assert list(zip(*got)) == expect
            outs = eval_words(m, int_words, bindings)
            got = [[o >> k & 1 for k in range(count)] for o in outs]
            assert list(zip(*got)) == expect


class TestNetlistValidation:
    def test_programmatic_duplicate_driver(self):
        with pytest.raises(NetlistError):
            Netlist(["a"], ["a"], [Gate("a", "NOT", ("a",))])

    def test_programmatic_cycle(self):
        with pytest.raises(CycleError):
            Netlist(
                ["a"],
                ["x"],
                [Gate("x", "AND", ("a", "y")), Gate("y", "AND", ("a", "x"))],
            )

    def test_bad_identifier(self):
        with pytest.raises(NetlistError):
            Netlist(["a-b"], ["a-b"], [])

    def test_topological_order_handles_reordered_gates(self):
        # Gate list deliberately not in dependency order.
        n = Netlist(
            ["a", "b"],
            ["y"],
            [Gate("y", "AND", ("x", "b")), Gate("x", "NOT", ("a",))],
        )
        assert eval_logic(n, [0, 1]) == (1,)


class TestSerialize:
    def test_c17_round_trip(self, c17):
        assert parse_bench(serialize_bench(c17)) == c17

    def test_empty_netlist_is_comment_only(self):
        text = serialize_bench(Netlist([], [], []))
        lines = text.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("#")
        assert parse_bench(text) == Netlist([], [], [])

    def test_camo_token_round_trips(self):
        n = Netlist(["a", "b"], ["y"], [Gate("y", "CAMO", ("a", "b"))])
        text = serialize_bench(n)
        assert "y = CAMO(a, b)" in text
        assert parse_bench(text) == n

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_netlists(self, seed):
        n = random_netlist(random.Random(seed))
        assert parse_bench(serialize_bench(n)) == n


class TestEval:
    def test_c17_all_zero_inputs(self, c17):
        # Hand evaluation of the six NANDs: 10=11=16=19=1, so 22=23=NAND(1,1)=0.
        assert naive_eval(c17, [0, 0, 0, 0, 0]) == (0, 0)
        assert eval_logic(c17, [0, 0, 0, 0, 0]) == (0, 0)

    def test_c17_exhaustive_against_naive(self, c17):
        for bits in product((0, 1), repeat=5):
            assert eval_logic(c17, bits) == naive_eval(c17, bits)

    def test_single_buf_identity(self):
        n = Netlist(["a"], ["y"], [Gate("y", "BUF", ("a",))])
        assert eval_logic(n, [0]) == (0,)
        assert eval_logic(n, [1]) == (1,)

    def test_camo_bound_to_xor_behaves_as_xor(self):
        camo = Netlist(["a", "b"], ["y"], [Gate("y", "CAMO", ("a", "b"))])
        plain = Netlist(["a", "b"], ["y"], [Gate("y", "XOR", ("a", "b"))])
        for bits in product((0, 1), repeat=2):
            bound = eval_logic(camo, bits, {"y": TruthTable2.XOR})
            assert bound == eval_logic(plain, bits)

    def test_unbound_camo_rejected(self):
        n = Netlist(["a", "b"], ["y"], [Gate("y", "CAMO", ("a", "b"))])
        with pytest.raises(UnprogrammedGateError) as exc:
            eval_logic(n, [0, 1])
        assert "unprogrammed camouflaged gate" in str(exc.value)

    def test_wrong_vector_length_rejected(self, c17):
        with pytest.raises(UsageError):
            eval_logic(c17, [0, 1])

    def test_non_bit_rejected(self, c17):
        with pytest.raises(UsageError):
            eval_logic(c17, [0, 1, 2, 0, 1])

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_vectorized_matches_naive_on_random_netlists(self, seed):
        rng = random.Random(seed)
        n = random_netlist(rng)
        vectors = [
            tuple(rng.randint(0, 1) for _ in n.inputs) for _ in range(16)
        ]
        arrays = {
            name: np.array([vec[j] for vec in vectors], dtype=bool)
            for j, name in enumerate(n.inputs)
        }
        outs = eval_vectors(n, arrays)
        for row, vec in enumerate(vectors):
            got = tuple(int(o[row]) for o in outs)
            assert got == naive_eval(n, vec)

    def test_exhaustive_input_words_first_input_is_msb(self):
        a, b = exhaustive_input_words(2, 0, 1)
        assert unpack_words(a, 4).tolist() == [False, False, True, True]
        assert unpack_words(b, 4).tolist() == [False, True, False, True]


class TestWordEngine:
    """The bit-packed engine against ``naive_eval``, one vector at a time."""

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 1000])
    def test_eval_vectors_matches_naive_across_word_widths(self, width):
        # Widths around a word boundary leave padding bits that NOT, NAND,
        # NOR and XNOR set; random_netlist also draws 3-input gates and
        # outputs that are primary inputs. Sixteen more outputs are CAMO
        # gates on random nets, one bound to each TruthTable2.
        bindings = {f"c{f.value}": f for f in TruthTable2}
        for seed in range(8):
            rng = random.Random(width * 100 + seed)
            plain = random_netlist(rng, unary_weight=0.25, wide_weight=0.2)
            nets = list(plain.inputs) + [g.name for g in plain.gates]
            camo = tuple(
                Gate(name, "CAMO", (rng.choice(nets), rng.choice(nets)))
                for name in bindings
            )
            n = Netlist(
                plain.inputs, plain.outputs + tuple(bindings), plain.gates + camo
            )
            vectors = [
                tuple(rng.randint(0, 1) for _ in n.inputs) for _ in range(width)
            ]
            arrays = {
                name: np.array([vec[j] for vec in vectors], dtype=bool)
                for j, name in enumerate(n.inputs)
            }
            outs = eval_vectors(n, arrays, bindings)
            assert all(o.dtype == bool and o.shape == (width,) for o in outs)
            for row, vec in enumerate(vectors):
                expect = naive_eval(n, vec, bindings)
                assert tuple(int(o[row]) for o in outs) == expect
                if row < 4:
                    assert eval_logic(n, vec, bindings) == expect

    @pytest.mark.parametrize("width", [1, 16, 65, 300])
    def test_per_lane_bindings_match_naive(self, width):
        for seed in range(6):
            rng = random.Random(width * 100 + seed)
            plain = random_netlist(rng, max_gates=20)
            picks = [
                g.name for g in plain.gates
                if len(g.fanin) == 2 and rng.random() < 0.4
            ]
            n = Netlist(
                plain.inputs,
                plain.outputs,
                [Gate(g.name, "CAMO", g.fanin) if g.name in picks else g
                 for g in plain.gates],
            )
            codes = {
                name: np.array([rng.randrange(16) for _ in range(width)], dtype=np.uint8)
                for name in picks
            }
            vectors = [
                tuple(rng.randint(0, 1) for _ in n.inputs) for _ in range(width)
            ]
            arrays = {
                name: np.array([vec[j] for vec in vectors], dtype=bool)
                for j, name in enumerate(n.inputs)
            }
            masks = {
                name: tuple(pack_words((c >> (3 - m)) & 1) for m in range(4))
                for name, c in codes.items()
            }
            outs = eval_vectors(n, arrays, masks)
            for lane, vec in enumerate(vectors):
                bound = {name: TruthTable2(int(c[lane])) for name, c in codes.items()}
                assert tuple(int(o[lane]) for o in outs) == naive_eval(n, vec, bound)

    def test_every_camo_function_matches_its_truth_table(self):
        n = Netlist(["a", "b"], ["y"], [Gate("y", "CAMO", ("a", "b"))])
        for f in TruthTable2:
            for a, b in product((0, 1), repeat=2):
                assert eval_logic(n, [a, b], {"y": f}) == (f.eval(a, b),)

    def test_eval_words_takes_one_word_per_input(self, c17):
        for count in (4, 6):
            with pytest.raises(UsageError, match="expected 5 input words"):
                eval_words(c17, [0] * count)

    def test_unequal_input_lengths_rejected(self):
        n = Netlist(["a", "b"], ["y"], [Gate("y", "AND", ("a", "b"))])
        with pytest.raises(UsageError):
            eval_vectors(n, {"a": np.zeros(3, dtype=bool), "b": np.zeros(4, dtype=bool)})


class TestIndexBitRows:
    """``index_bit_rows``, which builds every index-bit row in one array
    step, against the per-bit ``index_bit_words`` it replaced."""

    @pytest.mark.parametrize("n_words", [1, 4, 64, 1024])
    @pytest.mark.parametrize("start_word", [0, 1, 3, 1000, 2**20 + 5])
    def test_rows_equal_per_bit_words(self, n_words, start_word):
        rng = random.Random(n_words * 31 + start_word)
        for bits in (
            [],
            list(range(17)),
            list(range(16, -1, -1)),
            [k for k in range(17) if rng.random() < 0.5],
            [rng.randrange(17) for _ in range(9)],
        ):
            got = index_bit_rows(bits, start_word, n_words)
            assert got.dtype == np.uint64 and got.shape == (len(bits), n_words)
            for row, k in zip(got, bits):
                assert row.tolist() == index_bit_words(k, start_word, n_words).tolist()

    @pytest.mark.parametrize("n_words", [1, 4, 64])
    @pytest.mark.parametrize("start_word", [0, 7])
    def test_exhaustive_input_words_unchanged(self, n_words, start_word):
        for n_inputs in range(17):
            got = exhaustive_input_words(n_inputs, start_word, n_words)
            want = [
                index_bit_words(n_inputs - 1 - j, start_word, n_words)
                for j in range(n_inputs)
            ]
            assert [w.tolist() for w in got] == [w.tolist() for w in want]


class TestInputVectors:
    """``_input_vectors``, the one source of verification vectors and oracle
    queries: its word and tuple views against each other and against the
    attack's former query generator, ``reference_query_vectors``."""

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    @pytest.mark.parametrize("n_inputs", [0, 1, 7, 13])
    def test_words_and_vectors_agree(self, n_inputs, mode):
        names = tuple(f"i{j}" for j in range(n_inputs))
        total, words, vector = _input_vectors(names, mode, 300, 5)
        want = list(reference_query_vectors(n_inputs, mode, 300, 5))
        assert total == len(want)
        assert [vector(i) for i in range(total)] == want
        n_words = -(-total // 64)
        for start in sorted({0, 1, n_words // 2, n_words - 1}):
            for count in (1, n_words - start):
                block = words(start, count)
                assert len(block) == n_inputs
                width = min(64 * count, total - 64 * start)
                if width <= 0:
                    continue
                bits = [unpack_words(w, width) for w in block]
                got = [tuple(int(col[k]) for col in bits) for k in range(width)]
                assert got == want[64 * start : 64 * start + width]

    def test_random_ceiling_checked_before_drawing(self, monkeypatch):
        names = tuple(f"i{j}" for j in range(8))
        with pytest.raises(UsageError) as exc:
            _input_vectors(names, "random", 10**12, 0)
        assert str(exc.value) == (
            f"1000000000000 random vectors of 8 inputs are 8000000000000 bits, "
            f"more than {_MAX_RANDOM_CELLS}"
        )
        # The ceiling itself is allowed.
        monkeypatch.setattr(bench, "_MAX_RANDOM_CELLS", 80)
        assert _input_vectors(names, "random", 10, 0)[0] == 10
        with pytest.raises(UsageError):
            _input_vectors(names, "random", 11, 0)

    @pytest.mark.parametrize(
        "seed", [-1, True, 1.5, "3", np.int64(3), [1, 2]],
        ids=["negative", "bool", "float", "str", "np.int64", "list"],
    )
    def test_random_seed_checked_before_drawing(self, seed):
        names = ("i0", "i1")
        with pytest.raises(UsageError) as exc:
            _input_vectors(names, "random", 10, seed)
        assert str(exc.value) == f"seed must be a non-negative int, got {seed!r}"
        # Exhaustive mode ignores the seed; None draws from fresh entropy.
        assert _input_vectors(names, "exhaustive", 10, seed)[0] == 4
        total, _, vector = _input_vectors(names, "random", 10, None)
        assert total == 10 and set(vector(9)) <= {0, 1}

    @pytest.mark.parametrize("seed", range(6))
    def test_verify_and_attack_draw_the_same_rows(self, seed):
        # a and b differ only where all four inputs are 1, so verify stops at
        # the first such row. The CAMO gate drives no output, so the attack
        # keeps its 16 candidates and logs every query.
        inputs = ["i0", "i1", "i2", "i3"]
        a = Netlist(inputs, ["y"], [Gate("y", "AND", tuple(inputs))])
        b = Netlist(inputs, ["y"], [
            Gate("z", "NOT", ("i0",)),
            Gate("y", "AND", ("i0", "z")),
        ])
        rows = list(reference_query_vectors(4, "random", 200, seed))
        first = rows.index((1, 1, 1, 1))
        result = verify_equivalence(a, b, mode="random", n_vectors=200, seed=seed)
        assert (result.vectors_checked, result.counterexample) == (first + 1, rows[first])

        camo = Netlist(inputs, ["y"], [
            Gate("c", "CAMO", ("i0", "i1")),
            Gate("y", "AND", ("i2", "i3")),
        ])
        for joint_limit in (16, 1):
            state = oracle_attack(
                camo, camo, {"c": TruthTable2.AND}, strategy="random",
                n_queries=200, seed=seed, joint_limit=joint_limit,
                marginal_fallback=True,
            )
            assert [vec for vec, _ in state.query_log] == rows
