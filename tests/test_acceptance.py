"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on success; pytest shows captured output for failures regardless.
"""

import csv
import functools
import gc
import itertools
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from trotopt import (
    CliffordTableau,
    PauliProduct,
    Rotation,
    RotationForm,
    apply_edit_plan,
    build_tgraph,
    equivalent_up_to_phase,
    extend_with_ancillas,
    layerize,
    optimize,
    parse_qc,
    pauli_matrix,
    synthesize_layer,
    t_count_reduction,
    t_depth_bound,
    to_rotation_form,
    unitary_of,
)
from trotopt.cli import main as cli_main

from _helpers import (
    MOD5_4,
    brute_force_min_layers,
    check_independent,
    data_block_on_zero_ancillas,
    non_phase_gates,
    random_clifford_t_circuit,
    random_commuting_independent_rotations,
    random_pauli,
    random_tableau,
    rotations_product_matrix,
)

TOLERANCE = 1e-8


def criterion(num, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num} ({description}): FAIL")
                raise
            print(f"[acceptance] criterion {num} ({description}): PASS")

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# shared soundness sweep for criteria 3 and 4

N_SOUNDNESS_CASES = 500


@dataclass
class SoundnessSweep:
    elapsed: float = 0.0
    cases: int = 0
    failures: list = field(default_factory=list)
    non_phase_changes: int = 0
    odd_decrements: int = 0
    t_count_increases: int = 0


@pytest.fixture(scope="module")
def soundness_sweep():
    rng = random.Random(20250809)
    sweep = SoundnessSweep()
    started = time.perf_counter()
    for case in range(N_SOUNDNESS_CASES):
        n = rng.randint(1, 6)
        circuit = random_clifford_t_circuit(n, rng.randint(0, 60), rng)
        form, plan, stats = optimize(to_rotation_form(circuit))
        out = apply_edit_plan(circuit, plan)
        before, after = circuit.counts(), out.counts()
        if after.t_count > before.t_count:
            sweep.t_count_increases += 1
        if (before.t_count - after.t_count) % 2:
            sweep.odd_decrements += 1
        if non_phase_gates(out) != non_phase_gates(circuit):
            sweep.non_phase_changes += 1
        if not equivalent_up_to_phase(
            unitary_of(out), unitary_of(circuit), tol=TOLERANCE
        ):
            sweep.failures.append(case)
        sweep.cases += 1
    sweep.elapsed = time.perf_counter() - started
    return sweep


@criterion(1, "mod5_4 end to end")
def test_mod5_4_end_to_end():
    started = time.perf_counter()
    circuit = parse_qc(MOD5_4.read_text(encoding="utf-8"))
    expanded = circuit.expand()
    assert expanded.counts().t_count == 28

    form, plan, _ = optimize(to_rotation_form(expanded))
    out = apply_edit_plan(expanded, plan)
    counts = out.counts()
    assert counts.t_count == 8
    assert counts.cnot_count == 28
    assert non_phase_gates(out) == non_phase_gates(expanded)
    assert equivalent_up_to_phase(
        unitary_of(out), unitary_of(expanded), tol=TOLERANCE
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"end-to-end run took {elapsed:.3f}s"


@criterion(2, "maximum reduction 71.43%")
def test_maximum_reduction(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    shutil.copy(MOD5_4, suite / "mod5_4.qc")
    report = tmp_path / "report.csv"
    assert cli_main(["bench", str(suite), "--report", str(report)]) == 0
    rows = {r["name"]: r for r in csv.DictReader(report.read_text().splitlines())}
    assert rows["MAXIMUM"]["reduction_percent"] == "71.43"

    expanded = parse_qc(MOD5_4.read_text(encoding="utf-8")).expand()
    out = apply_edit_plan(expanded, optimize(to_rotation_form(expanded)).plan)
    assert round(t_count_reduction(expanded, out).percent, 2) == 71.43


@criterion(3, "soundness on 500 random circuits")
def test_soundness_suite(soundness_sweep):
    assert soundness_sweep.cases == N_SOUNDNESS_CASES
    assert soundness_sweep.failures == [], (
        f"inequivalent outputs for cases {soundness_sweep.failures}"
    )
    assert soundness_sweep.t_count_increases == 0
    assert soundness_sweep.odd_decrements == 0
    assert soundness_sweep.elapsed < 60.0, (
        f"soundness sweep took {soundness_sweep.elapsed:.1f}s"
    )


@criterion(4, "CNOT/CZ/H invariance in-place")
def test_cnot_invariance(soundness_sweep):
    assert soundness_sweep.non_phase_changes == 0


@criterion(5, "quadratic comparison envelope")
def test_complexity_envelope():
    n = 11  # enough distinct diagonal axes for k = 1024
    sizes = (256, 512, 1024)
    forms = {
        k: RotationForm(
            n,
            tuple(Rotation(PauliProduct(n, 0, value, 1), origin=i)
                  for i, value in enumerate(range(1, k + 1))),
            CliffordTableau.identity(n),
        )
        for k in sizes
    }

    comparisons = {}
    wall = {k: [] for k in sizes}
    # The sizes take turns within each round, so the three runs of a round
    # see the same host. Each ratio is taken within a round and its median
    # over the rounds is kept, so a slow spell of the host moves no ratio.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(9):
            for k in sizes:
                started = time.perf_counter()
                result = optimize(forms[k])
                wall[k].append(time.perf_counter() - started)
                comparisons[k] = result.stats.comparisons
                assert len(result.form.rotations) == k  # nothing folds: worst case
    finally:
        if gc_was_enabled:
            gc.enable()
    for k in (256, 512, 1024):
        assert comparisons[k] == k * (k - 1) // 2, "scan exceeded the pairwise bound"
    ratio = {k: statistics.median(b / a for a, b in zip(wall[k // 2], wall[k])) for k in (512, 1024)}
    assert ratio[512] <= 5.0
    assert ratio[1024] <= 5.0


@criterion(6, "T-graph depth, layers, ancilla invariance")
def test_tgraph_properties():
    rng = random.Random(0x76AF)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(0, 12)
        paulis = [random_pauli(n, rng) for _ in range(m)]
        rotations = [Rotation(p) for p in paulis]
        depth = t_depth_bound(rotations)
        assert depth == brute_force_min_layers(paulis)
        schedule = layerize(rotations)
        assert schedule.depth == depth
        for layer in schedule.layers:
            for a, b in itertools.combinations(layer, 2):
                assert paulis[a].commutes(paulis[b])
        if m:
            extended = extend_with_ancillas(rotations, m)
            assert build_tgraph(extended).edges == build_tgraph(rotations).edges


@criterion(7, "depth-1 layer synthesis")
def test_layer_synthesis():
    rng = random.Random(0x1A7E)

    def assert_one_t_cycle(circuit, expected):
        positions = [
            i for i, g in enumerate(circuit.gates) if g.kind in ("T", "Tdg")
        ]
        assert len(positions) == expected
        assert positions == list(range(positions[0], positions[0] + expected))
        assert len({circuit.gates[i].qubits for i in positions}) == expected

    independent_cases = dependent_cases = 0
    while independent_cases < 100:
        n = rng.randint(1, 4)
        m = rng.randint(1, n)
        layer = random_commuting_independent_rotations(n, m, rng)
        circuit = synthesize_layer(layer)
        assert_one_t_cycle(circuit, m)
        assert equivalent_up_to_phase(
            unitary_of(circuit), rotations_product_matrix(layer), tol=TOLERANCE
        )
        independent_cases += 1

    while dependent_cases < 30:
        n = rng.randint(2, 3)
        m = rng.randint(2, n)
        layer = random_commuting_independent_rotations(n, m, rng)
        # Append the product of everything so far: commuting but dependent.
        extra_x = extra_z = 0
        for r in layer:
            extra_x ^= r.pauli.x
            extra_z ^= r.pauli.z
        if extra_x == 0 and extra_z == 0:
            continue
        layer.append(
            Rotation(PauliProduct(n, extra_x, extra_z, rng.choice([1, -1])))
        )
        if n + len(layer) > 6:
            continue
        assert not check_independent([r.pauli for r in layer])
        extended = extend_with_ancillas(layer, len(layer))
        circuit = synthesize_layer(extended)
        assert_one_t_cycle(circuit, len(layer))
        block = data_block_on_zero_ancillas(unitary_of(circuit), n, len(layer))
        assert equivalent_up_to_phase(
            block, rotations_product_matrix(layer), tol=TOLERANCE
        )
        dependent_cases += 1


@criterion(8, "tableau conjugation and half-rotation law vs dense")
def test_algebra_oracles():
    rng = random.Random(0xA15E)
    for _ in range(1000):
        n = rng.randint(1, 4)
        tableau, circuit = random_tableau(n, rng, depth=rng.randint(0, 16))
        p = random_pauli(n, rng, allow_identity=True)
        u = unitary_of(circuit)
        assert np.allclose(
            u @ pauli_matrix(p) @ u.conj().T,
            pauli_matrix(tableau.conjugate(p)),
            atol=TOLERANCE,
        )

    # The squared quarter-rotation law on every 2-qubit (axis, operand) pair.
    two_qubit = [
        PauliProduct(2, x, z, sign)
        for x in range(4)
        for z in range(4)
        for sign in (1, -1)
    ]
    for axis in two_qubit:
        if axis.is_identity:
            continue
        v = CliffordTableau.s_rotation(axis)
        dense_v = (1 + 1j) / 2 * (np.eye(4) - 1j * pauli_matrix(axis))
        for s in two_qubit:
            if s.sign < 0:
                continue
            image = v.conjugate(s)
            assert np.allclose(
                dense_v @ pauli_matrix(s) @ dense_v.conj().T,
                pauli_matrix(image),
                atol=TOLERANCE,
            )
            if s.commutes(axis):
                assert image == s
            else:
                assert np.allclose(
                    pauli_matrix(image),
                    1j * pauli_matrix(s) @ pauli_matrix(axis),
                    atol=TOLERANCE,
                )


@criterion(9, "external benchmark rows need user-supplied inputs")
def test_bench_runs_on_supplied_files(tmp_path):
    # Only the one in-repo circuit ships with the package; the bench command
    # scales to whatever .qc files the user drops in a directory.
    suite = tmp_path / "suite"
    suite.mkdir()
    shutil.copy(MOD5_4, suite / "mod5_4.qc")
    shutil.copy(MOD5_4, suite / "mod5_4_copy.qc")
    report = tmp_path / "report.csv"
    assert cli_main(["bench", str(suite), "--report", str(report)]) == 0
    rows = list(csv.DictReader(report.read_text().splitlines()))
    names = [r["name"] for r in rows]
    assert names == ["mod5_4.qc", "mod5_4_copy.qc", "AVERAGE", "MAXIMUM"]
    data_rows = [r for r in rows if r["status"] == "ok"]
    assert len(data_rows) == 2
    average = {r["name"]: r for r in rows}["AVERAGE"]["reduction_percent"]
    assert average == "71.43"
