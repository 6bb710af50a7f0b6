import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotopt import (
    ARITY,
    Circuit,
    Gate,
    ParseError,
    circuit,
    equivalent_up_to_phase,
    parse_qc,
    unitary_of,
    write_qc,
)

from _helpers import gate_matrix, random_clifford_t_circuit


class TestGate:
    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            Gate("H", (0, 1))
        with pytest.raises(ValueError):
            Gate("CNOT", (0,))

    def test_distinct_qubits(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("RZ", (0,))

    def test_interned_gate_is_built_once(self):
        g = circuit._g("CNOT", 3, 70)
        assert g == Gate("CNOT", (3, 70))
        assert circuit._g("CNOT", 3, 70) is g

    def test_interning_never_memoizes_an_invalid_gate(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="repeated qubit"):
                circuit._g("CNOT", 1, 1)


class TestParse:
    def test_mod5_4(self, mod5_4_text):
        c = parse_qc(mod5_4_text)
        assert c.n == 5
        assert c.qubit_names == ("b", "c", "d", "e", "a")
        assert c.inputs == ("b", "c", "d", "e")
        assert c.outputs is None
        kinds = c.counts().by_kind
        assert kinds == {"CCZ": 4, "CNOT": 4, "X": 1, "H": 6}

    def test_empty_body(self):
        c = parse_qc(".v a\nBEGIN\nEND\n")
        assert c.n == 1 and c.gates == ()

    def test_ccz_operand_order(self):
        c = parse_qc(".v b c d e a\nBEGIN\nZ b e a\nEND\n")
        # controls {b, e}, rightmost identifier a is the target
        assert c.gates == (Gate("CCZ", (0, 3, 4)),)

    def test_cz_and_adjoints(self):
        c = parse_qc(".v p q\nBEGIN\nZ p q\nS* p\nT* q\ncnot p q\nEND\n")
        assert [g.kind for g in c.gates] == ["CZ", "Sdg", "Tdg", "CNOT"]

    def test_comments_and_blanks(self):
        c = parse_qc("# header\n.v a\n\nBEGIN\nH a  # flip\n\nEND\n")
        assert c.gates == (Gate("H", (0,)),)

    def test_rotation_gate_rejected(self):
        with pytest.raises(ParseError, match="rz"):
            parse_qc(".v a\nBEGIN\nrz a\nEND\n")

    def test_undeclared_qubit_with_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_qc(".v a\nBEGIN\nH b\nEND\n")

    def test_too_many_controls(self):
        with pytest.raises(ParseError, match="not supported"):
            parse_qc(".v a b c d\nBEGIN\nZ a b c d\nEND\n")
        with pytest.raises(ParseError, match="not supported"):
            parse_qc(".v a b c d e\nBEGIN\ntof a b c d e\nEND\n")

    def test_gate_line_without_operands_names_the_count_it_takes(self):
        for line, takes in [("Z", "1 to 3"), ("tof", "1 to 3"), ("H", "1"), ("cnot", "2")]:
            with pytest.raises(ParseError, match=rf"^line 3: {line} takes {takes} qubit\(s\), got 0$"):
                parse_qc(f".v a b\nBEGIN\n{line}\nEND\n")
        with pytest.raises(ParseError, match=r"^line 3: swap takes 2 qubit\(s\), got 3$"):
            parse_qc(".v a b c\nBEGIN\nswap a b c\nEND\n")
        with pytest.raises(ParseError, match="^line 3: unsupported gate mnemonic 'ccx'$"):
            parse_qc(".v a b c\nBEGIN\nccx a b c\nEND\n")

    def test_repeated_io_header_or_name_rejected(self):
        cases = [
            (".v a b\n.i a\n.i b\nBEGIN\nEND\n", "line 3: duplicate .i header"),
            (".v a b\n.o a\n.i a\n.o b\nBEGIN\nEND\n", "line 4: duplicate .o header"),
            (".v a b\n.i\n.i a\nBEGIN\nEND\n", "line 3: duplicate .i header"),
            (".v a b\n.o a a\nBEGIN\nEND\n", "line 2: duplicate qubit name in .o"),
            (".v a b\n.i b a b\nBEGIN\nEND\n", "line 2: duplicate qubit name in .i"),
        ]
        for text, message in cases:
            with pytest.raises(ParseError, match=f"^{message}$"):
                parse_qc(text)

    def test_structural_errors(self):
        cases = [
            ("BEGIN\nEND\n", "line 1: BEGIN before .v header"),
            (".v a\nH a\n", "line 2: unexpected directive or gate outside BEGIN/END: 'H'"),
            (".v a\nBEGIN\nH a\n", "missing END"),
            (".v a\nBEGIN\nEND\nH a\n", "line 4: content after END"),
            (".v a a\nBEGIN\nEND\n", "line 1: duplicate qubit name in .v"),
            (".v a b\nBEGIN\ntof a a\nEND\n", "line 3: repeated qubit operand"),
            (".v a\nBEGIN now\nEND\n", "line 2: BEGIN takes no arguments"),
            (".v a\nEND\n", "line 2: END without BEGIN"),
            (".v a\n.v b\nBEGIN\nEND\n", "line 2: duplicate .v header"),
            (".v\nBEGIN\nEND\n", "line 1: .v declares no qubits"),
            (".i a\n.v a\nBEGIN\nEND\n", "line 1: .i before .v header"),
            (".v a b\n.i a c\nBEGIN\nEND\n", "line 2: undeclared qubit(s) ['c'] in .i"),
            (".v a b\n.o d\nBEGIN\nEND\n", "line 2: undeclared qubit(s) ['d'] in .o"),
            ("", "missing .v header"),
            (".v a b\n.i a\n", "missing BEGIN/END body"),
        ]
        for text, message in cases:
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                parse_qc(text)

    def test_invalid_gate_or_circuit_built_in_code(self):
        with pytest.raises(ValueError, match=r"^negative qubit index in \(0, -1\)$"):
            Gate("CNOT", (0, -1))
        with pytest.raises(ValueError, match=r"^undeclared qubits in \.i/\.o: \['c'\]$"):
            Circuit(("a", "b"), (), inputs=("a", "c"))


class TestParseCache:
    """A gate line repeated in the body is tokenized once per ``parse_qc`` call."""

    def test_repeats_yield_the_same_interned_gate(self, monkeypatch):
        tokenized = []
        real = circuit._parse_gate_tokens
        monkeypatch.setattr(
            circuit, "_parse_gate_tokens",
            lambda *args: tokenized.append(args[0]) or real(*args),
        )
        text = ".v a b\nBEGIN\ntof a b\ntof a b # again\n  tof a b\t\ntof  a   b\nH b\ntof a b\nEND\n"
        gates = parse_qc(text).gates
        assert [g.kind for g in gates] == ["CNOT"] * 4 + ["H", "CNOT"]
        assert all(g is gates[0] for g in gates[:4] + gates[5:])
        assert tokenized == ["tof", "tof", "H"]  # "tof  a   b" is other text: parsed again

    def test_bad_line_after_repeats_keeps_its_line_number(self):
        good = "T a\n" * 5
        with pytest.raises(ParseError, match="^line 8: undeclared qubit 'c'$"):
            parse_qc(f".v a b\nBEGIN\n{good}T c\nEND\n")
        with pytest.raises(ParseError, match="^line 6: repeated qubit operand$"):
            parse_qc(".v a b\nBEGIN\ncnot a b\ncnot a b\ncnot a b\ncnot a a\nEND\n")

    def test_begin_and_end_inside_the_body_are_still_caught(self):
        with pytest.raises(ParseError, match="^line 5: duplicate BEGIN$"):
            parse_qc(".v a\nBEGIN\nT a\nT a\nBEGIN\nEND\n")
        with pytest.raises(ParseError, match="^line 5: content after END$"):
            parse_qc(".v a\nBEGIN\nT a\nEND\nT a\n")
        assert len(parse_qc(".v a\nBEGIN\nT a\nT a\nEND\n").gates) == 2


class TestExpand:
    def test_mod5_4_counts(self, mod5_4_text):
        c = parse_qc(mod5_4_text).expand()
        counts = c.counts()
        assert counts.t_count == 28
        assert counts.cnot_count == 28

    def test_plain_cnot_unchanged(self):
        c = Circuit.on_qubits(2, [Gate("CNOT", (0, 1))])
        assert c.expand() == c

    def test_circuit_without_ccz_or_toffoli_is_returned_as_it_is(self, rng):
        c = random_clifford_t_circuit(5, 60, rng)
        assert c.expand() is c
        with_toffoli = c.with_gates(c.gates + (Gate("TOFFOLI", (0, 1, 2)),))
        assert with_toffoli.expand() is not with_toffoli

    def test_ccz_unitary(self):
        c = Circuit.on_qubits(3, [Gate("CCZ", (0, 1, 2))]).expand()
        assert np.allclose(unitary_of(c), np.diag([1, 1, 1, 1, 1, 1, 1, -1]))

    def test_toffoli_unitary(self):
        c = Circuit.on_qubits(3, [Gate("TOFFOLI", (0, 1, 2))])
        direct = gate_matrix(Gate("TOFFOLI", (0, 1, 2)), 3)
        assert np.allclose(unitary_of(c.expand()), direct)
        expanded = c.expand().counts()
        assert expanded.t_count == 7
        assert expanded.cnot_count == 6
        assert expanded.h_count == 2

    def test_ccz_on_scrambled_qubits(self, rng):
        for _ in range(10):
            order = rng.sample(range(4), 3)
            g = Gate("CCZ", tuple(order))
            c = Circuit.on_qubits(4, [g])
            assert equivalent_up_to_phase(
                unitary_of(c.expand()), gate_matrix(g, 4)
            )

    def test_preserves_other_gates_in_order(self):
        gates = [Gate("H", (0,)), Gate("CCZ", (0, 1, 2)), Gate("S", (2,))]
        expanded = Circuit.on_qubits(3, gates).expand().gates
        others = [g for g in expanded if g.kind in ("H", "S")]
        assert others == [Gate("H", (0,)), Gate("S", (2,))]

    def test_t_count_formula(self, rng):
        for _ in range(20):
            n = rng.randint(3, 5)
            gates = []
            for _ in range(rng.randint(0, 15)):
                kind = rng.choice(["CCZ", "TOFFOLI", "T", "H", "CNOT"])
                if kind in ("CCZ", "TOFFOLI"):
                    gates.append(Gate(kind, tuple(rng.sample(range(n), 3))))
                elif kind == "CNOT":
                    gates.append(Gate(kind, tuple(rng.sample(range(n), 2))))
                else:
                    gates.append(Gate(kind, (rng.randrange(n),)))
            c = Circuit.on_qubits(n, gates)
            by_kind = c.counts().by_kind
            multi = by_kind.get("CCZ", 0) + by_kind.get("TOFFOLI", 0)
            assert c.expand().counts().t_count == 7 * multi + c.counts().t_count

    def test_expand_preserves_semantics(self, rng):
        for _ in range(15):
            n = rng.randint(3, 4)
            gates = []
            for _ in range(rng.randint(1, 10)):
                kind = rng.choice(["CCZ", "TOFFOLI", "T", "H", "CNOT", "S"])
                if kind in ("CCZ", "TOFFOLI"):
                    gates.append(Gate(kind, tuple(rng.sample(range(n), 3))))
                elif kind == "CNOT":
                    gates.append(Gate(kind, tuple(rng.sample(range(n), 2))))
                else:
                    gates.append(Gate(kind, (rng.randrange(n),)))
            c = Circuit.on_qubits(n, gates)
            assert equivalent_up_to_phase(unitary_of(c.expand()), unitary_of(c))


class TestConstructorChecks:
    def test_out_of_range_gate_rejected(self):
        gates = (Gate("T", (0,)), Gate("CNOT", (1, 2)))
        with pytest.raises(ValueError, match="outside register of 2"):
            Circuit(("a", "b"), gates)
        c = Circuit(("a", "b"), gates[:1])
        with pytest.raises(ValueError, match="outside register of 2"):
            c.with_gates(gates)

    def test_repeated_qubit_names_rejected(self):
        with pytest.raises(ValueError, match="^duplicate qubit names$"):
            Circuit(("a", "b", "a"))


class TestCounts:
    def test_empty(self):
        counts = Circuit.on_qubits(1).counts()
        assert counts.t_count == 0
        assert counts.cnot_count == 0
        assert counts.gate_count == 0

    def test_t_and_tdg_both_count(self):
        c = Circuit.on_qubits(1, [Gate("T", (0,)), Gate("Tdg", (0,)), Gate("S", (0,))])
        assert c.counts().t_count == 2

    def test_cz_reported_separately(self):
        c = Circuit.on_qubits(2, [Gate("CZ", (0, 1))])
        counts = c.counts()
        assert counts.cnot_count == 0
        assert counts.by_kind["CZ"] == 1


class TestWriteQc:
    def test_mod5_4_fixpoint(self, mod5_4_text):
        first = parse_qc(mod5_4_text)
        text = write_qc(first)
        second = parse_qc(text)
        assert second == first
        assert write_qc(second) == text

    def test_empty(self):
        c = Circuit(("a",))
        assert parse_qc(write_qc(c)) == c

    def test_repeated_io_name_rejected_at_construction(self):
        # parse_qc rejects ".i a a", so a Circuit that could write it must not exist
        for inputs, outputs in [(("a", "a"), None), (None, ("b", "a", "b"))]:
            with pytest.raises(ValueError, match=r"^repeated qubit name in \.i/\.o$"):
                Circuit(("a", "b"), (), inputs, outputs)
        c = Circuit(("a", "b"), (), ("b", "a"), ("a",))
        assert parse_qc(write_qc(c)) == c

    def test_adjoint_mnemonics(self):
        c = Circuit.on_qubits(1, [Gate("Sdg", (0,)), Gate("Tdg", (0,))])
        text = write_qc(c)
        assert "S* q0" in text and "T* q0" in text

    def test_random_round_trip(self):
        rng = random.Random(20250809)
        for _ in range(200):
            n = rng.randint(1, 6)
            c = random_clifford_t_circuit(n, rng.randint(0, 30), rng)
            if n >= 3 and rng.random() < 0.5:
                c = c.with_gates(
                    list(c.gates) + [Gate("CCZ", tuple(rng.sample(range(n), 3)))]
                )
            assert parse_qc(write_qc(c)) == Circuit(c.qubit_names, c.gates)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_round_trip_fuzz(self, data):
        c = data.draw(qc_circuits())
        assert parse_qc(write_qc(c)) == c


# Identifiers: no whitespace and no '#', the two characters the format reserves.
QUBIT_NAME = st.text(
    st.characters(codec="ascii", categories=("L", "N", "P", "S"), exclude_characters="#"),
    min_size=1,
    max_size=6,
)


@st.composite
def qc_circuits(draw):
    """Any circuit ``write_qc`` can express: every gate kind, .i/.o subsets."""
    names = draw(st.lists(QUBIT_NAME, min_size=1, max_size=6, unique=True))
    n = len(names)
    gate = st.sampled_from([k for k, a in ARITY.items() if a <= n]).flatmap(
        lambda kind: st.permutations(range(n)).map(
            lambda order: Gate(kind, tuple(order[: ARITY[kind]]))
        )
    )
    subset = st.none() | st.lists(st.sampled_from(names), unique=True).map(tuple)
    return Circuit(
        tuple(names), tuple(draw(st.lists(gate, max_size=40))), draw(subset), draw(subset)
    )
