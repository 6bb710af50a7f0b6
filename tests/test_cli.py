import argparse
import csv
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from trotopt import (
    Circuit,
    Gate,
    apply_edit_plan,
    build_tgraph,
    circuit,
    cli,
    equivalent_up_to_phase,
    parse_qc,
    unitary_of,
    write_qc,
)
from trotopt.cli import BENCH_COLUMNS, build_parser, main

from _helpers import (
    MOD5_4,
    cuccaro_adder,
    data_block_on_zero_ancillas,
    phase_polynomial,
    random_clifford_t_circuit,
)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def error_lines(stderr):
    return [line for line in stderr.splitlines() if line.startswith("error: ")]


NOT_UTF8 = b".v a\nBEGIN\nT a  # caf\xe9\nEND\n"


def wide_qc(n):
    """n qubits, T on each, so nothing folds and the width is the point."""
    names = [f"q{i}" for i in range(n)]
    body = "".join(f"T {q}\n" for q in names)
    return f".v {' '.join(names)}\nBEGIN\n{body}END\n"


@pytest.mark.parametrize("command", ["optimize", "stats", "tdepth", "verify"])
def test_undecodable_file_is_an_input_error(command, tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_bytes(NOT_UTF8)
    inputs = [str(MOD5_4), str(bad)] if command == "verify" else [str(bad)]
    code, stdout = run_cli(command, *inputs)
    assert code == 1 and stdout == ""
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text (invalid continuation byte at byte 21)\n"
    )


@pytest.mark.parametrize("command", ["optimize", "stats", "tdepth", "verify", "bench"])
def test_byte_order_mark_is_skipped(command, tmp_path):
    text = MOD5_4.read_text(encoding="utf-8")
    outputs = []
    for name, data in (("plain", text), ("bom", "\ufeff" + text)):
        path = tmp_path / name / "mod5_4.qc"
        path.parent.mkdir()
        path.write_text(data, encoding="utf-8")
        inputs = {"verify": [path, MOD5_4], "bench": [path.parent]}.get(command, [path])
        code, stdout = run_cli(command, *map(str, inputs))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(stdout))) if command == "bench" else [
            json.loads(stdout.replace(str(path), "IN"))]
        outputs.append([{k: v for k, v in row.items() if not k.endswith("_time_s")}
                        for row in rows])
    assert outputs[0] == outputs[1]
    assert outputs[0][0].get("status", "ok") == "ok"


def test_byte_order_mark_keeps_the_file_offset_of_bad_bytes(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_bytes("\ufeff".encode() + NOT_UTF8)
    assert run_cli("stats", str(bad)) == (1, "")
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text (invalid continuation byte at byte 24)\n"
    )


def test_malformed_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_text(".v a b\n.i a c\nBEGIN\nT a\nEND\n", encoding="utf-8")
    code, stdout = run_cli("optimize", str(bad))
    assert code == 1 and stdout == ""
    assert capsys.readouterr().err == "error: line 2: undeclared qubit(s) ['c'] in .i\n"


def test_bad_verify_cap_fails_before_optimizing(monkeypatch, capsys):
    def forbidden(form):
        raise AssertionError("optimize() called")

    monkeypatch.setattr("trotopt.cli.optimize", forbidden)
    assert main(["optimize", str(MOD5_4), "--max-verify-qubits", "-1"]) == 1
    assert error_lines(capsys.readouterr().err) == [
        "error: argument --max-verify-qubits: must not be negative: -1"
    ]


@pytest.mark.parametrize("argv", [
    ["optimize"],
    ["optimize", str(MOD5_4), "--mode", "sideways"],
    ["optimize", str(MOD5_4), "--max-verify-qubits", "abc"],
    ["verify", str(MOD5_4), str(MOD5_4), "--max-verify-qubits", "abc"],
], ids=["missing-input", "bad-mode", "optimize-cap-abc", "verify-cap-abc"])
def test_usage_errors_are_input_errors(argv, capsys):
    assert main(argv) == 1
    assert len(error_lines(capsys.readouterr().err)) == 1


@pytest.mark.parametrize("argv", [["--help"], ["optimize", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert "usage: trotopt" in capsys.readouterr().out


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert [main(["optimize"]), main(["--help"]), main(["optimize"])] == [1, 0, 1]
        assert main(["stats", str(MOD5_4)]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert len(error_lines(capsys.readouterr().err)) == 2


@pytest.mark.parametrize("argv", [
    ["tdepth", str(MOD5_4), "--ancilla", "-o"],
    ["optimize", str(MOD5_4), "--mode", "resynth", "-o"],
], ids=["tdepth-ancilla", "resynth"])
def test_emitted_gates_are_validated_once_each(argv, tmp_path, monkeypatch):
    """Interned gates: one ``Gate`` validation per distinct (kind, qubits),
    not one per emitted gate."""
    validated = []
    real = Gate.__post_init__

    def counted(self):
        validated.append((self.kind, tuple(self.qubits)))
        real(self)

    out = tmp_path / "out.qc"
    circuit._g.cache_clear()
    monkeypatch.setattr(Gate, "__post_init__", counted)
    code, _ = run_cli(*argv, str(out))
    monkeypatch.undo()
    assert code == 0
    assert len(validated) == len(set(validated))

    def distinct(c):
        return {(g.kind, g.qubits) for g in c.gates}

    source = parse_qc(MOD5_4.read_text(encoding="utf-8"))
    written = parse_qc(out.read_text(encoding="utf-8"))
    # The diagonalizer validates its CZ/SWAP/Sdg/Y before lowering them onto
    # the written CNOT/H/S/X/Z, so the written gates get a second allowance.
    bound = len(distinct(source) | distinct(source.expand())) + 2 * len(distinct(written))
    assert len(validated) <= bound < len(written.gates) + len(source.expand().gates)


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["optimize"], 1)],
                         ids=["help", "usage-error"])
def test_module_entry_point_exits_with_the_returned_code(argv, code):
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-m", "trotopt.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_unallocatable_oracle_is_an_input_error(command, tmp_path, capsys):
    # 32 qubits: the memory budget refuses the 2^32 x 2^32 unitary before allocating anything
    path = tmp_path / "wide.qc"
    path.write_text(wide_qc(32))
    argv = {"optimize": ["optimize", str(path), "--verify"],
            "verify": ["verify", str(path), str(path)]}[command]
    code, stdout = run_cli(*argv, "--max-verify-qubits", "64")
    assert code == 1 and stdout == ""
    assert capsys.readouterr().err == (
        "error: cannot allocate the 2^32 x 2^32 unitary\n"
    )


def test_oracle_over_memory_budget_is_refused_before_allocating(monkeypatch, tmp_path, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.eye called")

    path = tmp_path / "wide.qc"
    path.write_text(wide_qc(14))
    monkeypatch.setattr("numpy.eye", forbidden)
    code, stdout = run_cli("verify", str(path), str(path), "--max-verify-qubits", "64")
    assert code == 1 and stdout == ""
    assert capsys.readouterr().err == "error: cannot allocate the 2^14 x 2^14 unitary\n"


def test_unbuildable_oracle_fails_before_optimizing(monkeypatch, tmp_path, capsys):
    def forbidden(form):
        raise AssertionError("optimize() called")

    path = tmp_path / "wide.qc"
    path.write_text(wide_qc(14))
    out = tmp_path / "out.qc"
    monkeypatch.setattr("trotopt.cli.optimize", forbidden)
    code, stdout = run_cli("optimize", str(path), "--verify", "--max-verify-qubits", "20",
                           "-o", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert capsys.readouterr().err == "error: cannot allocate the 2^14 x 2^14 unitary\n"


CHAIN_QC = """.v a
BEGIN
T a
H a
T a
H a
T a
END
"""


class TestOptimize:
    def test_mod5_4(self, tmp_path):
        out = tmp_path / "opt.qc"
        code, stdout = run_cli("optimize", str(MOD5_4), "-o", str(out), "--verify")
        assert code == 0
        record = json.loads(stdout)
        assert record["t_before"] == 28
        assert record["t_after"] == 8
        assert record["cnot_before"] == 28
        assert record["cnot_after"] == 28
        assert record["reduction_percent"] == 71.43
        assert record["verified"] is True
        written = parse_qc(out.read_text())
        assert written.counts().t_count == 8

    def test_already_optimal_is_stable(self, tmp_path):
        first = tmp_path / "first.qc"
        second = tmp_path / "second.qc"
        code, _ = run_cli("optimize", str(MOD5_4), "-o", str(first))
        assert code == 0
        code, stdout = run_cli("optimize", str(first), "-o", str(second))
        assert code == 0
        assert json.loads(stdout)["reduction_percent"] == 0.0
        assert first.read_text() == second.read_text()

    def test_inplace_checks_a_clifford_t_circuit_once(self, tmp_path, monkeypatch):
        # parse_qc checks every gate; expand returns the parsed circuit and
        # the edit builds its result unchecked, so neither checks again.
        path = tmp_path / "c.qc"
        path.write_text(write_qc(random_clifford_t_circuit(5, 80, random.Random(3))))
        checked = []
        real = circuit.Circuit.__post_init__

        def counted(self):
            checked.append(len(self.gates))
            real(self)

        monkeypatch.setattr(circuit.Circuit, "__post_init__", counted)
        code, stdout = run_cli("optimize", str(path), "-o", str(tmp_path / "out.qc"))
        record = json.loads(stdout)
        assert code == 0 and record["t_after"] < record["t_before"]
        assert checked == [80]

    def test_rejects_rotation_gates(self, tmp_path):
        bad = tmp_path / "bad.qc"
        bad.write_text(".v a\nBEGIN\nrz a\nEND\n")
        code, _ = run_cli("optimize", str(bad))
        assert code == 1

    def test_missing_file(self):
        code, _ = run_cli("optimize", "/nonexistent/x.qc")
        assert code == 1

    def test_resynth_mode_verifies(self, tmp_path):
        out = tmp_path / "resynth.qc"
        code, stdout = run_cli(
            "optimize", str(MOD5_4), "--mode", "resynth", "-o", str(out), "--verify"
        )
        assert code == 0
        assert json.loads(stdout)["verified"] is True

    def test_resynth_keeps_qubit_names(self, tmp_path):
        out = tmp_path / "resynth.qc"
        code, _ = run_cli("optimize", str(MOD5_4), "--mode", "resynth", "-o", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith(".v b c d e a\n.i b c d e\n")
        result, source = parse_qc(text), parse_qc(MOD5_4.read_text())
        assert (result.qubit_names, result.inputs, result.outputs) == (
            source.qubit_names, source.inputs, source.outputs
        )

    def test_no_verify_skips_oracle(self):
        code, stdout = run_cli("optimize", str(MOD5_4), "--no-verify")
        assert code == 0
        assert json.loads(stdout)["verified"] is None
        assert json.loads(stdout)["verify_skipped"] == "disabled by --no-verify"

    def test_verified_record_has_no_skip_reason(self):
        code, stdout = run_cli("optimize", str(MOD5_4), "--verify")
        assert code == 0
        assert json.loads(stdout)["verify_skipped"] is None

    def test_verify_above_cap_gives_reason_and_note(self, tmp_path, capsys):
        path = tmp_path / "wide.qc"
        path.write_text(wide_qc(19))
        code, stdout = run_cli("optimize", str(path), "--verify")
        assert code == 0
        record = json.loads(stdout)
        assert record["verified"] is None
        assert record["verify_skipped"] == "19 qubits exceeds the verification cap of 10"
        assert "verification skipped: 19 qubits exceeds" in capsys.readouterr().err

    def test_verify_above_explicit_cap(self, capsys):
        code, stdout = run_cli("optimize", str(MOD5_4), "--max-verify-qubits", "4")
        assert code == 0
        assert json.loads(stdout)["verify_skipped"] == (
            "5 qubits exceeds the verification cap of 4"
        )
        assert "verification skipped" in capsys.readouterr().err

    def test_default_skip_above_six_qubits_is_quiet(self, tmp_path, capsys):
        path = tmp_path / "seven.qc"
        path.write_text(wide_qc(7))
        code, stdout = run_cli("optimize", str(path))
        assert code == 0
        assert json.loads(stdout)["verify_skipped"] == (
            "not requested: 7 qubits, the default verifies up to 6"
        )
        assert capsys.readouterr().err == ""

    def test_unwritable_output_is_an_input_error(self, tmp_path, capsys):
        code, stdout = run_cli("optimize", str(MOD5_4), "-o", str(tmp_path / "no" / "out.qc"))
        assert code == 1
        assert stdout == ""  # no record for a command that failed
        assert capsys.readouterr().err.startswith("error: ")

    def test_inplace_never_inverts(self, no_invert):
        code, stdout = run_cli("optimize", str(MOD5_4), "--verify")
        assert code == 0
        assert json.loads(stdout)["merges"] > 0
        with pytest.raises(AssertionError, match="invert"):
            run_cli("optimize", str(MOD5_4), "--mode", "resynth")


class TestStats:
    def test_mod5_4(self):
        code, stdout = run_cli("stats", str(MOD5_4))
        assert code == 0
        record = json.loads(stdout)
        assert record["qubits"] == 5
        assert record["expanded_t_count"] == 28
        assert record["raw_t_count"] == 0


class TestTdepth:
    def test_chain(self, tmp_path):
        path = tmp_path / "chain.qc"
        path.write_text(CHAIN_QC)
        code, stdout = run_cli("tdepth", str(path))
        assert code == 0
        record = json.loads(stdout)
        assert record["t_depth"] == 3
        assert record["layer_sizes"] == [1, 1, 1]

    def test_dot_export(self, tmp_path):
        path = tmp_path / "chain.qc"
        path.write_text(CHAIN_QC)
        dot = tmp_path / "graph.dot"
        code, _ = run_cli("tdepth", str(path), "--dot", str(dot))
        assert code == 0
        assert dot.read_text() == (
            "digraph tgraph {\n"
            '  r0 [label="+Z @0"];\n'
            '  r1 [label="+X @2"];\n'
            '  r2 [label="+Z @4"];\n'
            "  r0 -> r1;\n"
            "  r1 -> r2;\n"
            "}\n"
        )

    @pytest.mark.parametrize("flags", [["--ancilla", "-o"], ["--dot"]], ids=["ancilla", "dot"])
    def test_unwritable_output_is_an_input_error(self, flags, tmp_path, capsys):
        code, stdout = run_cli("tdepth", str(MOD5_4), *flags, str(tmp_path))
        assert code == 1
        assert stdout == ""  # no record for a command that failed
        assert capsys.readouterr().err.startswith("error: ")

    def test_plain_tdepth_builds_no_edge_list(self, monkeypatch, tmp_path):
        def forbidden(form):
            raise AssertionError("edge list built without --dot")

        monkeypatch.setattr(cli, "build_tgraph", forbidden)
        assert run_cli("tdepth", str(MOD5_4))[0] == 0
        assert run_cli("tdepth", str(MOD5_4), "--alap")[0] == 0
        assert run_cli("tdepth", str(MOD5_4), "--ancilla", "-o", str(tmp_path / "l.qc"))[0] == 0
        calls = []
        monkeypatch.setattr(cli, "build_tgraph", lambda form: calls.append(form) or build_tgraph(form))
        assert run_cli("tdepth", str(MOD5_4), "--dot", str(tmp_path / "g.dot"))[0] == 0
        assert len(calls) == 1

    def test_layered_circuit_is_equivalent(self, tmp_path):
        path = tmp_path / "chain.qc"
        path.write_text(CHAIN_QC)
        out = tmp_path / "layered.qc"
        code, stdout = run_cli("tdepth", str(path), "--ancilla", "-o", str(out))
        assert code == 0
        record = json.loads(stdout)
        layered = parse_qc(out.read_text())
        source = parse_qc(CHAIN_QC)
        t = layered.n - source.n
        assert t == record["ancillas"]
        block = data_block_on_zero_ancillas(unitary_of(layered), source.n, t)
        assert equivalent_up_to_phase(block, unitary_of(source.expand()))

    def test_mod5_4_layered_uses_rank_many_ancillas(self, tmp_path):
        out = tmp_path / "layered.qc"
        code, stdout = run_cli("tdepth", str(MOD5_4), "--ancilla", "-o", str(out))
        assert code == 0
        record = json.loads(stdout)
        assert record["layer_sizes"] == [8] and record["ancillas"] == 4
        layered, source = parse_qc(out.read_text()), parse_qc(MOD5_4.read_text())
        assert layered.qubit_names == source.qubit_names + ("anc0", "anc1", "anc2", "anc3")
        assert (layered.inputs, layered.outputs) == (source.inputs, source.outputs)
        block = data_block_on_zero_ancillas(unitary_of(layered), source.n, 4)
        assert equivalent_up_to_phase(block, unitary_of(source.expand()))

    def test_ancilla_names_skip_data_qubit_names(self, tmp_path):
        path = tmp_path / "dependent.qc"
        path.write_text(".v anc0 b\nBEGIN\nT anc0\nT b\ntof anc0 b\nT b\ntof anc0 b\nEND\n")
        out = tmp_path / "layered.qc"
        code, stdout = run_cli("tdepth", str(path), "--ancilla", "-o", str(out))
        assert code == 0
        assert json.loads(stdout)["layer_sizes"] == [3]
        layered = parse_qc(out.read_text())
        assert layered.qubit_names == ("anc0", "b", "anc1")
        assert layered.inputs == ("anc0", "b")

    def test_mod5_4_depth_one_after_optimization(self):
        code, stdout = run_cli("tdepth", str(MOD5_4))
        assert code == 0
        record = json.loads(stdout)
        assert record["t_count"] == 8
        assert record["t_depth"] == 1

    def test_no_optimize_flag(self):
        code, stdout = run_cli("tdepth", str(MOD5_4), "--no-optimize")
        assert code == 0
        assert json.loads(stdout)["t_count"] == 28

    def test_output_without_ancilla_is_a_usage_error(self, tmp_path, capsys):
        out, dot = tmp_path / "layered.qc", tmp_path / "graph.dot"
        code, stdout = run_cli("tdepth", str(MOD5_4), "-o", str(out), "--dot", str(dot))
        assert code == 1 and stdout == ""
        assert error_lines(capsys.readouterr().err) == [
            "error: -o/--output needs --ancilla, which emits the layered circuit"
        ]
        assert not out.exists() and not dot.exists()

    def test_plain_tdepth_never_inverts(self, no_invert, tmp_path):
        assert run_cli("tdepth", str(MOD5_4))[0] == 0
        assert run_cli("tdepth", str(MOD5_4), "--no-optimize")[0] == 0
        with pytest.raises(AssertionError, match="invert"):
            run_cli("tdepth", str(MOD5_4), "--ancilla", "-o", str(tmp_path / "l.qc"))


# sha256 of the synthesized .qc text per input and command form.  A change to
# the diagonalizer's gate order, the phase-layer synthesis or the ancilla
# tagging shows here first; a deliberate change updates these and says why.
SYNTHESIS_FORMS = {
    "asap": ("tdepth", "--ancilla"),
    "alap": ("tdepth", "--ancilla", "--alap"),
    "no-optimize": ("tdepth", "--ancilla", "--no-optimize"),
    "resynth": ("optimize", "--mode", "resynth", "--no-verify"),
}
# (seed, n, depth) of random_clifford_t_circuit; seed 5 needs one ancilla even after folding.
# cuccaro_4 (10 qubits, 8 Toffolis) schedules 7 layers over 2 ancillas folded and 14
# unfolded, so its layers go through the CZ and SWAP lowerings on many qubits.
# phase_poly_8 (CNOT+T+X, 100 T gates folded to 16) has only diagonal axes: one
# layer, no edges, and a fold whose scans meet no anticommuting entry.
SYNTHESIS_INPUTS = {"mod5_4": None, "r1": (1, 5, 40), "r2": (2, 7, 60), "r5": (5, 7, 46),
                    "cuccaro_4": cuccaro_adder(4),
                    "phase_poly_8": phase_polynomial(8, 160, random.Random(8))}
SYNTHESIS_SHA256 = {
    ("mod5_4", "asap"): "04d005936eeb5e69a448209b2cd28dff40378cac5e096b6dd6a914f791087680",
    ("mod5_4", "alap"): "04d005936eeb5e69a448209b2cd28dff40378cac5e096b6dd6a914f791087680",
    ("mod5_4", "no-optimize"): "6c44e50b4ae8b6ec21eef0b390b72d3708494915e3e3c6fd827b491ced14eb00",
    ("mod5_4", "resynth"): "813f2e2096d7b512b50eb63848da8117b13bf8adc41ad0ca34ed006999aa36ad",
    ("r1", "asap"): "d75652b1dbf3cea62a5b9227c472e512ee3cd2575186044745183d8e957c13e5",
    ("r1", "alap"): "2741561ba13e2a67926139367443b0c4056b5ba961e21be3ed2d40c67b5bbdec",
    ("r1", "no-optimize"): "bbba974bb70b21a3f551bea94e77babe196c13e135f78cec7b2e7ca0c9a3ac77",
    ("r1", "resynth"): "1f0a893ec153752c993698f28d6c9c6198a882a4beb79cdf299eae391832d575",
    ("r2", "asap"): "c03e2631b73bc3f3438135024343cf19cb5573afdaa2eab55c53b8fb07f3b630",
    ("r2", "alap"): "0dc3d1c824b63b6faefdf7e72db6089ea232934d22ca229270cf1a6ef5fe3da5",
    ("r2", "no-optimize"): "295a84a7fcaa5a2719fb74aa4f8d26bd66fd1ef7d46c216096f1dde5122cf4c6",
    ("r2", "resynth"): "ae9cb2f4939b12981a11a671daf0e9d495929917481791abc813c918aeda112b",
    ("r5", "asap"): "202c526446d64b63f196c3204da6a2af371f28337141cb9743d41a4f423b1181",
    ("r5", "alap"): "202c526446d64b63f196c3204da6a2af371f28337141cb9743d41a4f423b1181",
    ("r5", "no-optimize"): "556181af43f0e663627f4880ff9796c4336e47f75ed8310428f8d46268d26ed0",
    ("r5", "resynth"): "0086e4172acb6aeff5e5a3a120d1ac9600c4103f82fba2bbb03ccaeac13aff19",
    ("cuccaro_4", "asap"): "6461bae0f3ba1f9f019e2f8c03e9f5ac129610647a3d273fb04eb3a46f10a674",
    ("cuccaro_4", "alap"): "2f81c7e4e83cbfd4875654bd8aaebe2a2c042fbe66f93e850bd9eaf71cafea6a",
    ("cuccaro_4", "no-optimize"): "5ad927f6c7e46fb913b8b79b3c44c4f360be51955236f00e2593573e5d148d50",
    ("cuccaro_4", "resynth"): "6e5daedc5b91753e0378c7d808c05f7b6bdceb730afd3015dab8c6f2be2dbf2e",
    ("phase_poly_8", "asap"): "d37638db934228e09ac60552747d42cddd34dfcc6c4bce754569aee48255ea10",
    ("phase_poly_8", "alap"): "d37638db934228e09ac60552747d42cddd34dfcc6c4bce754569aee48255ea10",
    ("phase_poly_8", "no-optimize"): "8e0a3a0a16e03a4fc646e9c44c86ee447da2f132938a3dadf0a8b0e6545b14dc",
    ("phase_poly_8", "resynth"): "f33596cebb3c398a4539b498f85dd93e748a9e63445d91d9246dca3c4c7e15cc",
}

# sha256 of `tdepth --dot` per input, with and without folding: the only
# end-to-end guard of build_tgraph, which plain `tdepth` no longer calls.
DOT_SHA256 = {
    ("mod5_4", "asap"): "b16e8b375b1a21cb80284c780bab226d23a38f6418999672b518afbd8835ec03",
    ("mod5_4", "no-optimize"): "f4fcc702dcc5d363e887ec451d786e4549ce031db71f7c1a4a3d208679385f0d",
    ("r1", "asap"): "1d14e00a70310635287258f588ef59cfb59d359811c95b0fa8c20555c550378d",
    ("r1", "no-optimize"): "b7ad6340c29301665d4fe19d60b57d0063c132028e33f2334d2d2253962b7f2e",
    ("r2", "asap"): "52dc005708526227e20c54394810b84b7a1d961db783671fcf255850ccde9144",
    ("r2", "no-optimize"): "59e0c2ac39e181523db034a269dfdb309827a964087ba8c242b42345c34bc77d",
    ("r5", "asap"): "cf35a76293726b360e13602fcce02746bdb9c19fc0402b2553482e889a31f038",
    ("r5", "no-optimize"): "10b8452071aea5ae4e689faa4586ce4510f98f5f10be5c596d813e92d306d10c",
    ("cuccaro_4", "asap"): "4c6e3d5133dd6835fae1f9907c7ed6226f4aba1fe1d1ab1cc025b609c775079b",
    ("cuccaro_4", "no-optimize"): "a8cec703a6a9434702340d6467e888976fd1e6fb47fa02d2ad366754d088650b",
    ("phase_poly_8", "asap"): "12205c2a28ca79678a3bbbf45ddf915784c37eb0e61732380a1fe874e87977bd",
    ("phase_poly_8", "no-optimize"): "fe4d394c912e1486d14570cd371fe6c032161bd12092caf3f490c1a810ac2d91",
}


def synthesis_input(name, tmp_path):
    spec = SYNTHESIS_INPUTS[name]
    if spec is None:
        return MOD5_4
    if not isinstance(spec, Circuit):
        seed, n, depth = spec
        spec = random_clifford_t_circuit(n, depth, random.Random(seed))
    path = tmp_path / f"{name}.qc"
    path.write_text(write_qc(spec))
    return path


@pytest.mark.parametrize("name", SYNTHESIS_INPUTS)
def test_synthesized_outputs_are_pinned(name, tmp_path):
    path = synthesis_input(name, tmp_path)
    out = tmp_path / "out.qc"
    for form, (command, *flags) in SYNTHESIS_FORMS.items():
        code, _ = run_cli(command, str(path), *flags, "-o", str(out))
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == SYNTHESIS_SHA256[name, form], (name, form)


# sha256 of the in-place `optimize` .qc text and of its JSON record less
# `wall_time_s` (run from the input's directory, so `file` is its bare name),
# per input of SYNTHESIS_INPUTS: the edit plan and the fold counters.
INPLACE_SHA256 = {
    "mod5_4": ("6e609c333ca84bd1664408fc7c8c5d0cc61ba31653bda03552f6f5e03da43669",
               "8543bf92f792b60254f1fd53ce0ac6f835b786a12fd501ce9a3e6456b317f27f"),
    "r1": ("c53634f89cb6e4381c2dab97fb57871c62f4d7e2c758388077b0df40265a3e6c",
           "7ff279ab836f5ea675afe3040bfcf6b9aa6188f19a41a54e4ff6401782f8ea49"),
    "r2": ("27513ae61a15a557320b2e4939fa92b64c7410ea96c74a8b510838070fbdeaa1",
           "86d0358a2c405908efd62ec87f841daf157e447d9c86877effd9c3edce48dde1"),
    "r5": ("5fd51947add12defa8b7583ef393673dbb0ae87581b2cd8609eab6bf9bf8afb1",
           "5a4ecb6122a18c73636e04f80cb57a6de4c931ea8d59c4d450d53eff1d34fe4b"),
    "cuccaro_4": ("fe59a8bb15cee6d8e8e104d3ea862159c8f81defb830d3b9c8f6f826ea163db7",
                  "7d38151ad666ac67d8365637c7e0669602ed41552ab5fe0fc78d7f48dc9261f8"),
    "phase_poly_8": ("9a86e8dfb3fcfe34bf73a7d7e7aad607ea1076753dc9a80f1367876052e657a7",
                     "02d473ebbd67259a6399201a10e23e484088528a5da18b05e3bebddcdee26fdb"),
}


@pytest.mark.parametrize("name", SYNTHESIS_INPUTS)
def test_inplace_outputs_are_pinned(name, tmp_path, monkeypatch):
    path = tmp_path / f"{name}.qc"
    path.write_bytes(synthesis_input(name, tmp_path).read_bytes())
    monkeypatch.chdir(tmp_path)
    code, stdout = run_cli("optimize", path.name, "-o", "out.qc")
    assert code == 0
    record = json.loads(stdout)
    del record["wall_time_s"]
    digests = (
        hashlib.sha256((tmp_path / "out.qc").read_bytes()).hexdigest(),
        hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest(),
    )
    assert digests == INPLACE_SHA256[name], record


@pytest.mark.parametrize("name", SYNTHESIS_INPUTS)
def test_dot_outputs_are_pinned(name, tmp_path):
    path = synthesis_input(name, tmp_path)
    dot = tmp_path / "graph.dot"
    for form, flags in {"asap": (), "no-optimize": ("--no-optimize",)}.items():
        assert run_cli("tdepth", str(path), *flags, "--dot", str(dot))[0] == 0
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == DOT_SHA256[name, form], (name, form)


class TestVerify:
    def test_file_against_itself(self):
        code, stdout = run_cli("verify", str(MOD5_4), str(MOD5_4))
        assert code == 0
        assert json.loads(stdout)["equivalent"] is True

    def test_detects_inequivalence(self, tmp_path):
        other = tmp_path / "other.qc"
        other.write_text(".v b c d e a\nBEGIN\nH a\nEND\n")
        code, stdout = run_cli("verify", str(MOD5_4), str(other))
        assert code == 2
        assert json.loads(stdout)["equivalent"] is False

    def test_width_mismatch(self, tmp_path):
        other = tmp_path / "small.qc"
        other.write_text(".v a\nBEGIN\nH a\nEND\n")
        code, _ = run_cli("verify", str(MOD5_4), str(other))
        assert code == 1


TOFFOLI_QC = ".v a b c d\nBEGIN\nH a\ntof a b c\nT c\ntof d c a\nS b\ntof b a d\nEND\n"


def flip_first_t(c):
    """``c`` with its first T made a Tdg: a circuit the oracle must tell apart."""
    i = next(i for i, g in enumerate(c.gates) if g.kind == "T")
    return c.with_gates(c.gates[:i] + (Gate("Tdg", c.gates[i].qubits),) + c.gates[i + 1:])


class TestOracleTakesTheCircuitAsWritten:
    """Toffoli and CCZ reach the oracle as block ops, so the expansion is checked too."""

    @pytest.fixture
    def broken_expansion(self, monkeypatch):
        real = circuit._ccz_network

        def broken(a, b, t):
            gates = real(a, b, t)
            i = next(i for i, g in enumerate(gates) if g.kind == "Tdg")
            return gates[:i] + [Gate("T", gates[i].qubits)] + gates[i + 1:]

        monkeypatch.setattr(circuit, "_ccz_network", broken)

    def test_optimize_catches_a_broken_expansion(self, broken_expansion, tmp_path, capsys):
        out = tmp_path / "out.qc"
        code, stdout = run_cli("optimize", str(MOD5_4), "--verify", "-o", str(out))
        assert code == 2
        assert json.loads(stdout)["verified"] is False
        assert error_lines(capsys.readouterr().err) == [
            "error: optimized circuit is NOT equivalent to the input"
        ]
        code, stdout = run_cli("verify", str(MOD5_4), str(out))
        assert code == 2
        assert json.loads(stdout)["equivalent"] is False

    @pytest.mark.parametrize("text", [MOD5_4.read_text(encoding="utf-8"), TOFFOLI_QC],
                             ids=["mod5_4", "toffoli"])
    def test_verify_expands_nothing(self, text, tmp_path, monkeypatch):
        source = tmp_path / "source.qc"
        source.write_text(text)
        parsed = parse_qc(text)
        assert {"CCZ", "TOFFOLI"} & {g.kind for g in parsed.gates}
        expanded, flipped = tmp_path / "expanded.qc", tmp_path / "flipped.qc"
        expanded.write_text(write_qc(parsed.expand()))
        flipped.write_text(write_qc(flip_first_t(parsed.expand())))

        def forbidden(self):
            raise AssertionError("Circuit.expand called")

        monkeypatch.setattr(circuit.Circuit, "expand", forbidden)
        for other, code in ((source, 0), (expanded, 0), (flipped, 2)):
            got, stdout = run_cli("verify", str(source), str(other))
            assert (got, json.loads(stdout)["equivalent"]) == (code, code == 0), other.name

    def test_optimize_expands_once_for_the_pipeline(self, monkeypatch):
        calls = []
        real = circuit.Circuit.expand
        monkeypatch.setattr(circuit.Circuit, "expand", lambda self: calls.append(1) or real(self))
        code, stdout = run_cli("optimize", str(MOD5_4), "--verify")
        assert (code, json.loads(stdout)["verified"]) == (0, True)
        assert len(calls) == 1


class TestBench:
    def test_mod5_4_report(self, tmp_path):
        bench_dir = tmp_path / "suite"
        bench_dir.mkdir()
        shutil.copy(MOD5_4, bench_dir / "mod5_4.qc")
        report = tmp_path / "report.csv"
        code, _ = run_cli("bench", str(bench_dir), "--report", str(report))
        assert code == 0
        rows = list(csv.DictReader(report.read_text().splitlines()))
        by_name = {r["name"]: r for r in rows}
        assert by_name["mod5_4.qc"]["t_before"] == "28"
        assert by_name["mod5_4.qc"]["t_after"] == "8"
        assert by_name["mod5_4.qc"]["cnot_after"] == "28"
        assert by_name["MAXIMUM"]["reduction_percent"] == "71.43"
        assert by_name["AVERAGE"]["reduction_percent"] == "71.43"

    def test_unparseable_file_becomes_warning_row(self, tmp_path):
        bench_dir = tmp_path / "suite"
        bench_dir.mkdir()
        shutil.copy(MOD5_4, bench_dir / "mod5_4.qc")
        (bench_dir / "broken.qc").write_text(".v a\nBEGIN\nrz a\nEND\n")
        code, stdout = run_cli("bench", str(bench_dir))
        assert code == 0
        rows = list(csv.DictReader(stdout.splitlines()))
        by_name = {r["name"]: r for r in rows}
        assert by_name["broken.qc"]["status"].startswith("skip")
        assert by_name["AVERAGE"]["reduction_percent"] == "71.43"

    def test_undecodable_and_unreadable_files_become_skip_rows(self, tmp_path):
        bench_dir = tmp_path / "suite"
        bench_dir.mkdir()
        shutil.copy(MOD5_4, bench_dir / "mod5_4.qc")
        (bench_dir / "latin1.qc").write_bytes(NOT_UTF8)
        (bench_dir / "folder.qc").mkdir()
        code, stdout = run_cli("bench", str(bench_dir))
        assert code == 0
        by_name = {r["name"]: r for r in csv.DictReader(stdout.splitlines())}
        assert by_name["latin1.qc"]["status"].startswith("skip: ")
        assert "not UTF-8 text" in by_name["latin1.qc"]["status"]
        assert by_name["folder.qc"]["status"].startswith("skip: ")
        assert by_name["mod5_4.qc"]["status"] == "ok"
        assert by_name["AVERAGE"]["reduction_percent"] == "71.43"

    def test_empty_directory(self, tmp_path):
        code, _ = run_cli("bench", str(tmp_path))
        assert code == 1


def bench_mod5_4(tmp_path, *options):
    bench_dir = tmp_path / "suite"
    bench_dir.mkdir(exist_ok=True)
    shutil.copy(MOD5_4, bench_dir / "mod5_4.qc")
    code, stdout = run_cli("bench", str(bench_dir), *options)
    assert code == 0
    return next(r for r in csv.DictReader(stdout.splitlines()) if r["name"] == "mod5_4.qc")


class TestOneRecord:
    """``optimize`` and ``bench`` report one record of one pipeline."""

    @pytest.mark.parametrize("mode", ["inplace", "resynth"])
    def test_bench_row_is_the_optimize_record(self, mode, tmp_path):
        code, stdout = run_cli("optimize", str(MOD5_4), "--mode", mode)
        assert code == 0
        record = json.loads(stdout)
        row = bench_mod5_4(tmp_path, "--mode", mode)
        assert row["status"] == "ok"
        for column in BENCH_COLUMNS:
            if column not in ("name", "wall_time_s", "status"):
                assert row[column] == str(record[column]), column

    def test_wall_time_covers_the_whole_pipeline(self, tmp_path, monkeypatch):
        def slow_edit(circuit, plan):
            time.sleep(0.05)
            return apply_edit_plan(circuit, plan)

        monkeypatch.setattr("trotopt.cli.apply_edit_plan", slow_edit)
        code, stdout = run_cli("optimize", str(MOD5_4), "--no-verify")
        assert code == 0
        assert json.loads(stdout)["wall_time_s"] >= 0.05
        assert float(bench_mod5_4(tmp_path)["wall_time_s"]) >= 0.05


README = Path(__file__).parent.parent / "README.md"


def readme_synopses():
    """README's ``trotopt CMD ...`` synopsis lines by command, continuations joined."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    synopses = {}
    for line in block.splitlines():
        if line.startswith("trotopt "):
            command = line.split()[1]
            synopses[command] = line
        else:
            synopses[command] += line
    return synopses


def test_readme_synopsis_matches_parser():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    synopses = readme_synopses()
    assert set(synopses) == set(sub.choices)
    for command, parser in sub.choices.items():
        documented = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", synopses[command]))
        flags = [a.option_strings for a in parser._actions if a.option_strings]
        flags = [f for f in flags if "--help" not in f]
        undocumented = [f for f in flags if not documented & set(f)]
        assert not undocumented, f"README {command} synopsis lacks {undocumented}"
        assert documented <= {s for f in flags for s in f}, f"README {command} synopsis"


def test_readme_bench_header_is_bench_columns():
    header = re.search(r"`(name,[a-z_,]+)`", README.read_text(encoding="utf-8")).group(1)
    assert header.split(",") == BENCH_COLUMNS
