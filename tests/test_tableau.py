import random
import re

import numpy as np
import pytest

from trotopt import (
    Circuit,
    CliffordTableau,
    DependentSetError,
    Gate,
    InvariantError,
    NonCommutingError,
    PauliProduct,
    Rotation,
    UnsupportedGateError,
    from_rotation_form_resynth,
    pauli_matrix,
    synthesize,
    synthesize_layer,
    to_rotation_form,
    unitary_of,
)
from trotopt import ARITY, tableau
from trotopt.tableau import (
    _LOWERED_COUNTS,
    _dependent_indices,
    _diagonalize_with_gates,
    _exponent,
    _lower_gate,
    _lowerings,
    _pauli,
    _product,
    inverse_gate,
    synthesize_gates,
)

from _helpers import (
    ONE_QUBIT_CLIFFORD,
    TWO_QUBIT_CLIFFORD,
    gate_matrix,
    patch_forward_kernels,
    random_clifford_circuit,
    random_commuting_independent_rotations,
    random_pauli,
    random_tableau,
    reference_conjugate_rows,
    reference_precompose_inverse,
    unmasked_diagonalize,
)

P = PauliProduct.from_label
CLIFFORD = sorted(ONE_QUBIT_CLIFFORD + TWO_QUBIT_CLIFFORD)


def tableau_of(*gates: Gate) -> CliffordTableau:
    n = max(q for g in gates for q in g.qubits) + 1 if gates else 1
    return CliffordTableau.from_circuit(Circuit.on_qubits(n, gates))


def conjugate_by_gate(gate: Gate, p: PauliProduct) -> PauliProduct:
    """gate p gate^dagger, from the kind's forward kernel on a one-row list."""
    xs, zs, ks = [p.x], [p.z], [_exponent(p)]
    tableau._FORWARD_KERNELS[gate.kind](xs, zs, ks, gate.qubits, 0)
    return _pauli(p.n, xs[0], zs[0], ks[0])


def precompose_inverse(t: CliffordTableau, gate: Gate) -> None:
    """Make ``t`` into t composed with gate^-1 applied first, in place, by
    the kind's preimage kernel."""
    tableau._PREIMAGE_KERNELS[gate.kind](t._x, t._z, t._k, gate.qubits, t.n)


def no_update(xs, zs, ks, qubits, start) -> None:
    """A broken forward kernel: it changes no row."""


def diagonalize(paulis: list[PauliProduct]) -> list[Gate]:
    """``_diagonalize_with_gates`` on the Paulis' int rows, every row a pivot."""
    xs, zs, ks = [p.x for p in paulis], [p.z for p in paulis], [_exponent(p) for p in paulis]
    return _diagonalize_with_gates(xs, zs, ks, paulis[0].n, len(paulis))


def diagonalizer(paulis: list[PauliProduct]) -> CliffordTableau:
    """The tableau of the gates ``_diagonalize_with_gates`` emits."""
    return CliffordTableau.from_circuit(Circuit.on_qubits(paulis[0].n, diagonalize(paulis)))


class TestApplyGate:
    def test_h_swaps_x_and_z(self):
        t = tableau_of(Gate("H", (0,)))
        assert t.z_images[0] == P("X")
        assert t.x_images[0] == P("Z")

    def test_s_maps_x_to_y(self):
        t = tableau_of(Gate("S", (0,)))
        assert t.x_images[0] == P("Y")
        assert t.z_images[0] == P("Z")

    def test_cnot_propagation(self):
        t = tableau_of(Gate("CNOT", (0, 1)))
        assert t.x_images[0] == P("XX")
        assert t.z_images[1] == P("ZZ")
        assert t.x_images[1] == P("IX")
        assert t.z_images[0] == P("ZI")

    def test_non_clifford_rejected(self):
        with pytest.raises(UnsupportedGateError):
            tableau_of(Gate("T", (0,)))

    def test_recomputes_only_rows_meeting_the_gate(self, rng):
        written = set()

        class WriteLog(list):
            def __setitem__(self, r, value):
                written.add(r)
                list.__setitem__(self, r, value)

        for _ in range(60):
            n = rng.randint(2, 9)
            t, _ = random_tableau(n, rng, depth=rng.randint(0, 3 * n))
            g = random_clifford_circuit(n, 1, rng).gates[0]
            rows = t.x_images + t.z_images
            expected = CliffordTableau.from_circuit(Circuit.on_qubits(n, [g])).compose(t)
            mask = sum(1 << q for q in g.qubits)
            out = CliffordTableau(n, t.x_images, t.z_images)
            xs, zs, ks = WriteLog(out._x), WriteLog(out._z), WriteLog(out._k)
            written.clear()
            tableau._FORWARD_KERNELS[g.kind](xs, zs, ks, g.qubits, 0)
            assert written <= {r for r, row in enumerate(rows) if (row.x | row.z) & mask}
            out._x, out._z, out._k = list(xs), list(zs), list(ks)
            assert out == expected

    def test_start_leaves_the_rows_below_it(self, rng):
        for _ in range(60):
            n = rng.randint(1, 9)
            t, _ = random_tableau(n, rng)
            g = random_clifford_circuit(n, 1, rng).gates[0]
            start = rng.randint(0, 2 * n)
            full = CliffordTableau(n, t.x_images, t.z_images)
            kernel = tableau._FORWARD_KERNELS[g.kind]
            kernel(full._x, full._z, full._k, g.qubits, 0)
            out = CliffordTableau(n, t.x_images, t.z_images)
            kernel(out._x, out._z, out._k, g.qubits, start)
            for r in range(2 * n):
                source = t if r < start else full
                assert (out._x[r], out._z[r], out._k[r]) == (
                    source._x[r], source._z[r], source._k[r])

    def test_preserves_symplectic_validity(self, rng):
        for _ in range(50):
            t, _ = random_tableau(rng.randint(1, 5), rng)
            t.validate()

    def test_all_generators_match_dense(self, rng):
        assert set(tableau._GATE_IMAGES) == set(CLIFFORD)
        assert set(ARITY) - {"T", "Tdg", "CCZ", "TOFFOLI"} == set(tableau._GATE_IMAGES)
        for kind in ONE_QUBIT_CLIFFORD + TWO_QUBIT_CLIFFORD:
            n = ARITY[kind]
            g = Gate(kind, tuple(range(n)))
            c = Circuit.on_qubits(n, [g])
            t = CliffordTableau.from_circuit(c)
            u = unitary_of(c)
            for _ in range(20):
                p = random_pauli(n, rng)
                assert np.allclose(
                    u @ pauli_matrix(p) @ u.conj().T, pauli_matrix(t.conjugate(p))
                ), f"{kind} disagrees with dense conjugation"


def _place(bits: int, slots: tuple[int, ...]) -> int:
    """Local bit j moved to qubit ``slots[j]``."""
    return sum(1 << q for j, q in enumerate(slots) if bits >> j & 1)


class TestPlacedRule:
    """The per-kind rule each forward kernel places on a gate's qubits, on
    both operand orders and on qubits either side of bit 64."""

    @pytest.mark.parametrize("kind", CLIFFORD)
    @pytest.mark.parametrize("slots", [(0, 1), (1, 0), (3, 70), (70, 3)])
    def test_matches_the_local_tableau(self, kind, slots):
        # a 1-qubit kind sits on slots[0]; its local tableau fixes slot 1,
        # which lands on a qubit the gate does not touch
        local = tableau._LOCAL[kind]
        g = Gate(kind, slots[: ARITY[kind]])
        n = max(slots) + 1
        for key in range(16):
            lx, lz = key & 3, key >> 2
            for sign in (1, -1):
                image = local.conjugate(PauliProduct(2, lx, lz, sign))
                want = PauliProduct(n, _place(image.x, slots), _place(image.z, slots), image.sign)
                p = PauliProduct(n, _place(lx, slots), _place(lz, slots), sign)
                assert conjugate_by_gate(g, p) == want, f"{kind} on {g.qubits}: {p}"

    @pytest.mark.parametrize("kind", ONE_QUBIT_CLIFFORD)
    def test_one_qubit_kind_keeps_its_one_qubit_tables(self, kind):
        """The two-slot tables of a 1-qubit kind agree with the 4-entry rule
        and the plan on slots (0, 2) read off its 1-qubit tableau, and no
        entry touches slot 1: none writes it, and the rule never reads it,
        which lets the forward kernel's trees drop the slot-1 tests."""
        local = CliffordTableau(1, *([P(label)] for label in tableau._GATE_IMAGES[kind]))
        rule = tableau._RULES[kind]
        for x in (0, 1):
            for z in (0, 1):
                nx, nz, nk = local._conjugate(x, z, x & z)
                # a gate on p == q meets only keys whose slot 1 repeats slot 0
                assert rule[x * 3 | z * 12] == (x ^ nx, z ^ nz, (nk - (x & z)) & 3)
        assert all(not (dx | dz) & 2 for dx, dz, _ in rule)
        assert all(rule[key] == rule[key & 0b0101] for key in range(16))
        inverse, slot, plan = local.invert(), (0, 2), []
        for j in (0, 1):
            k = inverse._k[j]
            f, *rest = [slot[f] for f in (0, 1) if (inverse._x[j] | inverse._z[j] << 1) >> f & 1]
            if rest or f != slot[j] or k:
                plan.append((slot[j], f, *(rest or [0]), k))
        assert tableau._PREIMAGES[kind] == tuple(plan)
        assert all({d, f, g} <= {0, 2} for d, f, g, _ in tableau._PREIMAGES[kind])

    @pytest.mark.parametrize("kind", CLIFFORD)
    @pytest.mark.parametrize("slots", [(0, 1), (1, 0), (0, 2), (2, 0)])
    def test_matches_dense_conjugation(self, kind, slots):
        n = 3
        g = Gate(kind, slots[: ARITY[kind]])
        u = gate_matrix(g, n)
        for key in range(1 << 2 * n):
            p = PauliProduct(n, key & 7, key >> 3, -1 if key & 1 else 1)
            assert np.allclose(
                u @ pauli_matrix(p) @ u.conj().T, pauli_matrix(conjugate_by_gate(g, p))
            ), f"{kind} on {g.qubits} disagrees with dense conjugation of {p}"


class TestGateKernels:
    """The straight-line kernels generated from each kind's tables against
    the tables read by the reference loops, on both operand orders and on
    qubits either side of bit 64.  A 1-qubit kind also runs on a pair of
    qubits, whose last the rule never reads."""

    @staticmethod
    def placements(kind, n):
        pairs = [(0, n - 1), (n - 1, 0), (n // 2, n // 2 - 1), (n // 2 - 1, n // 2)]
        if ARITY[kind] == 1:
            pairs += [(0,), (n - 1,), (n // 2,)]
        return pairs

    @pytest.mark.parametrize("n", [2, 63, 64, 65])
    @pytest.mark.parametrize("kind", CLIFFORD)
    def test_forward_kernel_matches_the_rule_table(self, kind, n, rng):
        for qubits in self.placements(kind, n):
            p, q = qubits[0], qubits[-1]
            slots = 1 << p | 1 << q
            start = rng.randint(1, 5)
            rows = tuple([rng.getrandbits(bits) for _ in range(start)] for bits in (n, n, 2))
            for key in range(16):
                for _ in range(2):
                    rows[0].append(_place(key & 3, (p, q)) | rng.getrandbits(n) & ~slots)
                    rows[1].append(_place(key >> 2, (p, q)) | rng.getrandbits(n) & ~slots)
                    rows[2].append(rng.randrange(4))
            want = tuple(list(r) for r in rows)
            reference_conjugate_rows(*want, kind, qubits, start)
            got = tuple(list(r) for r in rows)
            tableau._FORWARD_KERNELS[kind](*got, qubits, start)
            assert got == want, f"{kind} on {qubits} from row {start}"
            assert all(g[:start] == r[:start] for g, r in zip(got, rows))

    @pytest.mark.parametrize("kind", CLIFFORD)
    def test_forward_prologue_binds_only_names_the_loop_reads(self, kind):
        _, prologue, loop, *body = tableau._forward_source(kind, tableau._RULES[kind]).splitlines()
        assert loop.lstrip().startswith("for r in")
        bound = re.findall(r"(\w+) = ", prologue)
        assert bound[0] == "P"
        unread = [name for name in bound if not re.search(rf"\b{name}\b", "\n".join(body))]
        assert unread == [], f"forward_{kind} binds {unread} and never reads them"

    @pytest.mark.parametrize("n", [2, 3, 64, 65])
    @pytest.mark.parametrize("kind", CLIFFORD)
    def test_preimage_kernel_matches_the_plan(self, kind, n, rng):
        for qubits in self.placements(kind, n):
            t, _ = random_tableau(n, rng, depth=2 * n)
            want = (list(t._x), list(t._z), list(t._k))
            reference_precompose_inverse(*want, kind, qubits, n)
            got = (list(t._x), list(t._z), list(t._k))
            tableau._PREIMAGE_KERNELS[kind](*got, qubits, n)
            assert got == want, f"{kind} on {qubits}"

    @pytest.mark.parametrize("kind", [kind for kind in CLIFFORD
                                      if any(g for _, _, g, _ in tableau._PREIMAGES[kind])])
    def test_preimage_kernel_raises_where_the_plan_does(self, kind, rng):
        """Rows that are not a tableau make some two-row products
        anti-Hermitian; the kernel raises the reference's error on exactly
        those and, like it, stores no row first."""
        raised = 0
        for _ in range(200):
            n = rng.randint(2, 5)
            qubits = tuple(rng.sample(range(n), 2))
            rows = [random_pauli(n, rng, allow_identity=True) for _ in range(2 * n)]
            want = ([r.x for r in rows], [r.z for r in rows], [_exponent(r) for r in rows])
            got = tuple(list(r) for r in want)
            try:
                reference_precompose_inverse(*want, kind, qubits, n)
            except InvariantError as error:
                raised += 1
                with pytest.raises(InvariantError, match=f"^{re.escape(str(error))}$"):
                    tableau._PREIMAGE_KERNELS[kind](*got, qubits, n)
            else:
                tableau._PREIMAGE_KERNELS[kind](*got, qubits, n)
            assert got == want
        assert 20 < raised < 180


class TestConjugate:
    def test_identity_fixes_everything(self):
        t = CliffordTableau.identity(2)
        assert t.conjugate(P("-ZX")) == P("-ZX")

    def test_h_on_z(self):
        assert tableau_of(Gate("H", (0,))).conjugate(P("Z")) == P("X")

    def test_x_flips_z_sign(self):
        assert tableau_of(Gate("X", (0,))).conjugate(P("Z")) == P("-Z")

    def test_sign_linearity(self, rng):
        for _ in range(50):
            n = rng.randint(1, 4)
            t, _ = random_tableau(n, rng)
            p = random_pauli(n, rng)
            assert t.conjugate(-p) == -t.conjugate(p)

    def test_preserves_commutation(self, rng):
        for _ in range(100):
            n = rng.randint(1, 5)
            t, _ = random_tableau(n, rng)
            p, q = random_pauli(n, rng), random_pauli(n, rng)
            assert p.commutes(q) == t.conjugate(p).commutes(t.conjugate(q))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CliffordTableau.identity(2).conjugate(P("X"))


class TestComposeInvert:
    def test_compose_with_inverse_is_identity(self, rng):
        for _ in range(30):
            n = rng.randint(1, 4)
            t, _ = random_tableau(n, rng)
            assert t.compose(t.invert()) == CliffordTableau.identity(n)
            assert t.invert().compose(t) == CliffordTableau.identity(n)

    def test_invert_matches_adjoint_circuit_across_byte_widths(self, rng):
        for n in (4, 5, 8, 9, 17, 33):
            t, circuit = random_tableau(n, rng)
            adjoint = [inverse_gate(g) for g in reversed(circuit.gates)]
            assert t.invert() == CliffordTableau.from_circuit(Circuit.on_qubits(n, adjoint))

    def test_invert_identity(self):
        assert CliffordTableau.identity(3).invert() == CliffordTableau.identity(3)

    def test_h_self_inverse(self):
        h = tableau_of(Gate("H", (0,)))
        assert h.compose(h) == CliffordTableau.identity(1)

    def test_inverse_gate(self):
        for kind in ("H", "X", "Y", "Z", "CNOT", "CZ", "SWAP"):
            g = Gate(kind, (1, 0)[: 2 if kind in ("CNOT", "CZ", "SWAP") else 1])
            assert inverse_gate(g) is g
        assert inverse_gate(Gate("S", (2,))) == Gate("Sdg", (2,))
        assert inverse_gate(Gate("Sdg", (2,))) == Gate("S", (2,))
        with pytest.raises(UnsupportedGateError, match="T has no Clifford inverse"):
            inverse_gate(Gate("T", (0,)))

    def test_invert_round_trips_paulis(self, rng):
        for _ in range(60):
            n = rng.randint(1, 4)
            t, _ = random_tableau(n, rng)
            p = random_pauli(n, rng)
            assert t.invert().conjugate(t.conjugate(p)) == p

    def test_compose_matches_dense(self, rng):
        for _ in range(40):
            n = rng.randint(1, 3)
            ta, ca = random_tableau(n, rng)
            tb, cb = random_tableau(n, rng)
            u = unitary_of(ca) @ unitary_of(cb)
            p = random_pauli(n, rng)
            assert np.allclose(
                u @ pauli_matrix(p) @ u.conj().T,
                pauli_matrix(ta.compose(tb).conjugate(p)),
            )

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CliffordTableau.identity(2).compose(CliffordTableau.identity(3))


class TestPrecomposeInverse:
    def test_matches_compose_with_inverted_gate_tableau(self, rng):
        for kind in CLIFFORD:
            for _ in range(12):
                n = rng.randint(ARITY[kind], 5)
                t, _ = random_tableau(n, rng)
                g = Gate(kind, tuple(rng.sample(range(n), ARITY[kind])))
                gate_tab = CliffordTableau.from_circuit(Circuit.on_qubits(n, [g]))
                rows = CliffordTableau(n, t.x_images, t.z_images)
                precompose_inverse(rows, g)
                assert rows == t.compose(gate_tab.invert())
                before, after = t.x_images + t.z_images, rows.x_images + rows.z_images
                changed = {r % n for r in range(2 * n) if after[r] != before[r]}
                assert changed <= set(g.qubits)

    @pytest.mark.parametrize("n", [3, 64, 65])
    @pytest.mark.parametrize("kind", sorted(tableau._GATE_IMAGES))
    def test_plan_matches_compose_with_the_inverse_gate(self, kind, n, rng):
        """The compiled plan against the generic product, across word widths."""
        for _ in range(4):
            t, _ = random_tableau(n, rng, depth=2 * n)
            g = Gate(kind, tuple(rng.sample(range(n), ARITY[kind])))
            inverse = CliffordTableau.from_circuit(Circuit.on_qubits(n, [inverse_gate(g)]))
            rows = CliffordTableau(n, t.x_images, t.z_images)
            precompose_inverse(rows, g)
            assert rows == t.compose(inverse)

    def test_plan_reads_at_most_two_rows_in_ascending_order(self):
        for kind, plan in tableau._PREIMAGES.items():
            for dst, a, b, k in plan:
                assert b == 0 or a < b, kind
                assert 0 <= k < 4

    def test_non_clifford_rejected(self):
        """Every Clifford kind has both kernels, and each caller that looks
        a kernel up for outside input refuses a kind without one by name."""
        assert set(tableau._FORWARD_KERNELS) == set(tableau._PREIMAGE_KERNELS)
        assert set(tableau._PREIMAGE_KERNELS) == set(tableau._GATE_IMAGES)
        for kind in ("T", "Tdg", "CCZ", "TOFFOLI"):
            circuit = Circuit.on_qubits(3, [Gate(kind, (0, 1, 2)[:ARITY[kind]])])
            message = f"^{kind} is not a Clifford tableau update$"
            with pytest.raises(UnsupportedGateError, match=message):
                CliffordTableau.from_circuit(circuit)
        for kind in ("CCZ", "TOFFOLI"):
            gates = [Gate("H", (0,)), Gate(kind, (0, 1, 2)), Gate("T", (2,))]
            with pytest.raises(UnsupportedGateError,
                               match=rf"^{kind} at index 1: expand\(\) the circuit first$"):
                to_rotation_form(Circuit.on_qubits(3, gates))


class TestSRotation:
    def test_fixes_commuting_axes(self):
        v = CliffordTableau.s_rotation(P("Z"))
        assert v.conjugate(P("Z")) == P("Z")

    def test_z_axis_acts_like_s(self):
        v = CliffordTableau.s_rotation(P("Z"))
        s = tableau_of(Gate("S", (0,)))
        assert v == s

    def test_anticommuting_law_against_dense(self, rng):
        # V S V^dag == i S Q whenever S anticommutes with the axis Q
        for _ in range(200):
            n = rng.randint(1, 3)
            axis = random_pauli(n, rng)
            s = random_pauli(n, rng, allow_identity=True)
            v = CliffordTableau.s_rotation(axis)
            image = v.conjugate(s)
            vd = (1 + 1j) / 2 * (np.eye(1 << n) - 1j * pauli_matrix(axis))
            assert np.allclose(
                vd @ pauli_matrix(s) @ vd.conj().T, pauli_matrix(image)
            )
            if s.commutes(axis):
                assert image == s
            else:
                assert np.allclose(
                    pauli_matrix(image), 1j * pauli_matrix(s) @ pauli_matrix(axis)
                )

    def test_identity_axis_rejected(self):
        with pytest.raises(ValueError):
            CliffordTableau.s_rotation(PauliProduct(2, 0, 0))

    def test_row_update_matches_compose(self, rng):
        for _ in range(120):
            n = rng.randint(1, 7)
            t, _ = random_tableau(n, rng)
            axis = random_pauli(n, rng)
            out = CliffordTableau.s_rotation(axis).compose(t)
            rows = CliffordTableau(n, t.x_images, t.z_images)
            rows._apply_s_rotation(axis.x, axis.z, _exponent(axis))
            assert rows == out
            # exactly the rows that anticommute with the axis change
            for r, row in enumerate(t.x_images + t.z_images):
                changed = (rows._x[r], rows._z[r], rows._k[r]) != (t._x[r], t._z[r], t._k[r])
                assert changed != row.commutes(axis)

    def test_rows_lists_the_rows_it_may_rewrite(self, rng):
        for _ in range(120):
            n = rng.randint(1, 7)
            t, _ = random_tableau(n, rng)
            axis = random_pauli(n, rng)
            k = _exponent(axis)
            full = CliffordTableau(n, t.x_images, t.z_images)
            full._apply_s_rotation(axis.x, axis.z, k)
            rows = rng.sample(range(2 * n), rng.randint(0, 2 * n))
            out = CliffordTableau(n, t.x_images, t.z_images)
            out._apply_s_rotation(axis.x, axis.z, k, rows)
            # a listed row equals the full update's; a row left out is unchanged
            for r in range(2 * n):
                source = full if r in rows else t
                assert (out._x[r], out._z[r], out._k[r]) == (
                    source._x[r], source._z[r], source._k[r])


class TestDiagonalize:
    def test_z_gives_identity(self):
        assert diagonalizer([P("Z")]) == CliffordTableau.identity(1)

    def test_x_gives_hadamard(self):
        assert diagonalizer([P("X")]) == tableau_of(Gate("H", (0,)))

    def test_zz_xx(self):
        paulis = [P("ZZ"), P("XX")]
        c = diagonalizer(paulis)
        assert c.conjugate(paulis[0]) == P("ZI")
        assert c.conjugate(paulis[1]) == P("IZ")

    def test_negative_signs_folded(self):
        c = diagonalizer([P("-Z"), ])
        assert c.conjugate(P("-Z")) == P("Z")

    def test_random_sets(self, rng):
        for _ in range(60):
            n = rng.randint(1, 5)
            m = rng.randint(1, n)
            rotations = random_commuting_independent_rotations(n, m, rng)
            paulis = [r.pauli for r in rotations]
            c = diagonalizer(paulis)
            for j, p in enumerate(paulis):
                assert c.conjugate(p) == PauliProduct(n, 0, 1 << j)

    def test_noncommuting_pair_named(self):
        with pytest.raises(NonCommutingError, match="0.*1"):
            diagonalizer([P("X"), P("Z")])

    def test_dependent_set_rejected(self):
        with pytest.raises(DependentSetError):
            diagonalizer([P("ZI"), P("IZ"), P("ZZ")])

    def test_identity_input_rejected(self):
        with pytest.raises(ValueError):
            diagonalizer([PauliProduct(2, 0, 0)])

    def test_post_check_catches_a_broken_gate_rule(self, monkeypatch):
        patch_forward_kernels(monkeypatch, lambda k, kernel: no_update if k == "H" else kernel)
        with pytest.raises(InvariantError, match="diagonalization post-check failed"):
            diagonalizer([P("X")])
        with pytest.raises(InvariantError, match="diagonalization post-check failed"):
            synthesize_layer([Rotation(P("X"))])


class TestPivotChecks:
    """Each caller error is raised at the pivot that meets it; the reference
    here is the whole-input pair and rank checks the pivots replace."""

    @staticmethod
    def first_defect(paulis):
        """(error class, indices named) at the first failing pivot, or None."""
        n = paulis[0].n
        for j, q in enumerate(paulis):
            for i, p in enumerate(paulis[:j]):
                if ((p.x & q.z) ^ (p.z & q.x)).bit_count() & 1:
                    return NonCommutingError, (i, j)
            if j in _dependent_indices([p.x | p.z << n for p in paulis[: j + 1]]):
                return DependentSetError, (j,)
        return None

    def test_random_row_sets_match_the_reference(self, rng):
        seen = {None: 0, NonCommutingError: 0, DependentSetError: 0}
        for _ in range(3000):
            n = rng.randint(1, 4)
            paulis = [
                PauliProduct(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 6))
            ]
            defect = self.first_defect(paulis)
            if defect is None:
                c = diagonalizer(paulis)
                for j, p in enumerate(paulis):
                    assert c.conjugate(p) == PauliProduct(n, 0, 1 << j)
                seen[None] += 1
                continue
            error, named = defect
            if error is NonCommutingError:
                i, j = named
                message = rf"^Paulis {i} \({re.escape(str(paulis[i]))}\) and {j} " \
                          rf"\({re.escape(str(paulis[j]))}\) anticommute$"
            else:
                message = rf"^Pauli {named[0]} is the identity or a product of earlier ones$"
            with pytest.raises(error, match=message):
                diagonalize(paulis)
            seen[error] += 1
        assert min(seen.values()) > 300, seen

    def test_noncommuting_message_prints_the_input_rows(self):
        # pivot 0's H has turned row 1 into +XZ by the time it is checked
        with pytest.raises(NonCommutingError, match=r"^Paulis 0 \(\+XI\) and 1 \(\+ZZ\) anticommute$"):
            diagonalize([P("XI"), P("ZZ")])

    def test_first_failing_pivot_decides(self):
        # Pauli 1 repeats Pauli 0 before Pauli 2 anticommutes with both
        with pytest.raises(DependentSetError, match="^Pauli 1 "):
            diagonalize([P("Z"), P("Z"), P("X")])

    @pytest.mark.parametrize("kind, paulis, message", [
        ("H", ["XI", "XX"], "^Paulis 0 and 1 commute, but their rows do not$"),
        ("SWAP", ["IZ", "ZI"], "^independent Pauli 1 reduced to the pivots$"),
    ])
    def test_a_broken_gate_rule_is_not_blamed_on_the_input(self, monkeypatch, kind, paulis,
                                                           message):
        patch_forward_kernels(monkeypatch, lambda k, kernel: no_update if k == kind else kernel)
        with pytest.raises(InvariantError, match=message):
            diagonalize([P(label) for label in paulis])


class TestFixedPivots:
    """While pivot j is eliminated, every emitted gate fixes the pivots
    0..j-1, already +Z_i, so the forward kernel visits none of them."""

    @staticmethod
    def record_starts(monkeypatch):
        starts = []  # (current pivot, first row visited) per call

        def recording(kind, kernel):
            def recorded(xs, zs, ks, qubits, start):
                # rows before the pivot are +Z_i; the pivot is not +Z_j
                # until its last gate has been applied
                pivot = next((r for r, (x, z, k) in enumerate(zip(xs, zs, ks))
                              if (x, z, k) != (0, 1 << r, 0)), len(xs))
                starts.append((pivot, start))
                skipped = xs[:start], zs[:start], ks[:start]
                kernel(*skipped, qubits, 0)
                assert skipped == (xs[:start], zs[:start], ks[:start])
                kernel(xs, zs, ks, qubits, start)

            return recorded

        patch_forward_kernels(monkeypatch, recording)
        return starts

    @staticmethod
    def assert_skips_only_fixed_pivots(starts):
        assert all(start >= pivot for pivot, start in starts)
        assert sum(start > 0 for _, start in starts) > len(starts) / 4

    def test_layer_synthesis(self, rng, monkeypatch):
        layers = []
        for _ in range(60):
            n = rng.randint(1, 9)
            layers.append(random_commuting_independent_rotations(n, rng.randint(1, n), rng))
        starts = self.record_starts(monkeypatch)
        for layer in layers:
            synthesize_layer(layer)
        self.assert_skips_only_fixed_pivots(starts)

    def test_tableau_synthesis(self, rng, monkeypatch):
        tableaux = [random_tableau(rng.randint(1, 7), rng)[0] for _ in range(60)]
        starts = self.record_starts(monkeypatch)
        circuits = [synthesize(t) for t in tableaux]
        monkeypatch.undo()
        self.assert_skips_only_fixed_pivots(starts)
        for t, c in zip(tableaux, circuits):
            assert CliffordTableau.from_circuit(c) == t


class TestPhaseLayerStarts:
    """The phase layer's S(i), CZ(i, j > i) and Z(i) meet no X row below i,
    so each call on its n rows starts at the gate's first qubit."""

    def test_skipped_rows_are_fixed_and_most_calls_skip(self, rng, monkeypatch):
        tableaux = [random_tableau(rng.randint(2, 9), rng)[0] for _ in range(60)]
        calls = []  # (row count, kind, qubits, first row visited) per call

        def recording(kind, kernel):
            def recorded(xs, zs, ks, qubits, start):
                calls.append((len(xs), kind, qubits, start))
                skipped = xs[:start], zs[:start], ks[:start]
                kernel(*skipped, qubits, 0)
                assert skipped == (xs[:start], zs[:start], ks[:start])
                kernel(xs, zs, ks, qubits, start)

            return recorded

        patch_forward_kernels(monkeypatch, recording)
        circuits, starts = [], []
        for t in tableaux:
            calls.clear()
            circuits.append(synthesize(t))
            # the phase layer's calls carry n rows, the diagonalizer's 2n
            starts += [call[1:] for call in calls if call[0] == t.n]
        monkeypatch.undo()
        assert starts and all(start == qubits[0] for _, qubits, start in starts)
        assert {kind for kind, _, _ in starts} == {"S", "CZ", "Z"}
        assert sum(start > 0 for _, _, start in starts) > len(starts) / 2
        for t, c in zip(tableaux, circuits):
            assert CliffordTableau.from_circuit(c) == t


class TestMaskedDiagonalize:
    def test_matches_unmasked_reference(self, rng):
        for _ in range(80):
            n = rng.randint(1, 9)
            m = rng.randint(1, n)
            paulis = [r.pauli for r in random_commuting_independent_rotations(n, m, rng)]
            assert diagonalize(paulis) == unmasked_diagonalize(paulis)


class TestSynthesize:
    def test_identity_is_empty(self):
        assert synthesize(CliffordTableau.identity(3)).gates == ()

    def test_zero_qubits(self):
        for circuit in (synthesize(CliffordTableau.identity(0)),
                        from_rotation_form_resynth(to_rotation_form(Circuit.on_qubits(0)))):
            assert (circuit.n, circuit.gates) == (0, ())

    def test_hadamard_round_trip(self):
        h = tableau_of(Gate("H", (0,)))
        assert CliffordTableau.from_circuit(synthesize(h)) == h

    def test_allowed_gate_set(self, rng):
        for _ in range(20):
            t, _ = random_tableau(rng.randint(1, 4), rng)
            for g in synthesize(t).gates:
                assert g.kind in {"H", "S", "CNOT", "X", "Z"}

    def test_random_round_trip(self, rng):
        for _ in range(200):
            n = rng.randint(1, 5)
            t, _ = random_tableau(n, rng)
            assert CliffordTableau.from_circuit(synthesize(t)) == t

    @staticmethod
    def diagonalizer(t, budget=None):
        """W, the elimination ``synthesize_gates(t)`` runs on t's Z rows,
        with t's X rows riding along."""
        n = t.n
        xs, zs, ks = (rows[n:] + rows[:n] for rows in (t._x, t._z, t._k))
        return _diagonalize_with_gates(xs, zs, ks, n, n, budget)

    @pytest.mark.parametrize("n", [0, 1, 2, 64, 65])
    def test_lowered_gates_rebuild_the_tableau(self, n):
        """The gates are over {H, S, CNOT, X, Z}, their tableau is ``t``, and
        a budget at or above W's lowered CNOTs changes nothing."""
        rng = random.Random(n)
        for _ in range(3):
            t = random_tableau(n, rng)[0] if n else CliffordTableau.identity(0)
            gates = synthesize_gates(t)
            assert {g.kind for g in gates} <= {"H", "S", "CNOT", "X", "Z"}
            assert CliffordTableau.from_circuit(Circuit.on_qubits(n, gates)) == t
            cnots = sum(_LOWERED_COUNTS[g.kind][0] for g in self.diagonalizer(t)) if n else 0
            for budget in (cnots, cnots + 1, 10 * cnots + 10):
                assert synthesize_gates(t, budget) == gates
        if not n:
            assert gates == []

    def test_phase_layer_then_the_diagonalizer_undone(self, rng):
        """The gates are a lowered phase layer P, which fixes every Z_i,
        then W's inverse lowered gate by gate from W's last."""
        for _ in range(100):
            n = rng.randint(1, 6)
            t, _ = random_tableau(n, rng)
            gates = synthesize_gates(t)
            undone = [low for g in reversed(self.diagonalizer(t))
                      for low in _lowerings(g.kind, *g.qubits)[1]]
            assert gates[len(gates) - len(undone):] == undone
            phase = gates[:len(gates) - len(undone)]
            assert {g.kind for g in phase} <= {"S", "H", "CNOT", "Z"}
            diagonal = CliffordTableau.from_circuit(Circuit.on_qubits(n, phase))
            assert diagonal.z_images == CliffordTableau.identity(n).z_images

    def test_a_budget_stops_only_past_it(self, rng):
        """With a budget, synthesis gives the unbudgeted gates, or None only
        when W, lowered, holds more CNOTs than the budget."""
        stopped = finished = 0
        for _ in range(100):
            n = rng.randint(1, 7)
            t, _ = random_tableau(n, rng)
            full = synthesize_gates(t)
            cnots = sum(_LOWERED_COUNTS[g.kind][0] for g in self.diagonalizer(t))
            for budget in {0, cnots // 2, cnots - 1, cnots, cnots + 1} - {-1}:
                got = synthesize_gates(t, budget)
                if got is None:
                    assert cnots > budget
                    stopped += 1
                else:
                    assert got == full
                    finished += 1
        assert stopped and finished

    def test_a_budget_stops_the_elimination_early(self, rng, monkeypatch):
        """A stopped elimination emits at most W's gates, mostly fewer, and
        stops only after the gates it did emit lower to more CNOTs than the
        budget."""
        emitted = []

        def wrap(kind, kernel):
            def logged(xs, zs, ks, qubits, start):
                emitted.append(kind)
                kernel(xs, zs, ks, qubits, start)

            return logged

        patch_forward_kernels(monkeypatch, wrap)
        stopped = early = 0
        for _ in range(50):
            t, _ = random_tableau(rng.randint(2, 7), rng)
            cnots = [0]  # the lowered CNOTs of each prefix of W
            for g in self.diagonalizer(t):
                cnots.append(cnots[-1] + _LOWERED_COUNTS[g.kind][0])
            emitted.clear()
            if self.diagonalizer(t, cnots[-1] // 2) is None:
                assert len(emitted) <= len(cnots) - 1
                assert cnots[len(emitted)] > cnots[-1] // 2
                stopped += 1
                early += len(emitted) < len(cnots) - 1
        assert early > stopped // 2

    def test_a_non_symplectic_tableau_raises_invariant_error(self):
        """Random images make mostly invalid tableaux; each raises
        InvariantError, never a caller error about Paulis it was not given,
        and each valid one round-trips."""
        rng = random.Random(65)
        valid = diagonalizer_refused = 0
        for _ in range(5000):
            n = rng.randint(1, 4)
            rows = [random_pauli(n, rng, allow_identity=True) for _ in range(2 * n)]
            t = CliffordTableau(n, rows[:n], rows[n:])
            try:
                t.validate()
            except InvariantError:
                with pytest.raises(InvariantError):
                    synthesize(t)
                try:
                    _diagonalize_with_gates(t._x[n:], t._z[n:], t._k[n:], n, n)
                except (NonCommutingError, DependentSetError):
                    diagonalizer_refused += 1
                except InvariantError:
                    pass
            else:
                valid += 1
                assert CliffordTableau.from_circuit(synthesize(t)) == t
        assert valid and diagonalizer_refused


class TestLoweringTable:
    @pytest.mark.parametrize("kind", CLIFFORD)
    def test_cached_lowerings_match_the_gate_and_its_inverse(self, kind):
        for qubits in [(0, 1), (1, 0)] if ARITY[kind] == 2 else [(0,), (1,)]:
            g = Gate(kind, qubits)
            forward, adjoint = _lowerings(kind, *qubits)
            assert forward == _lower_gate(g)
            assert adjoint == _lower_gate(inverse_gate(g))
            for lowering, gate in ((forward, g), (adjoint, inverse_gate(g))):
                assert {low.kind for low in lowering} <= {"H", "S", "CNOT", "X", "Z"}
                lowered = CliffordTableau.from_circuit(Circuit.on_qubits(2, lowering))
                assert lowered == CliffordTableau.from_circuit(Circuit.on_qubits(2, [gate]))

    @pytest.mark.parametrize("kind", CLIFFORD)
    def test_lowered_counts_match_the_lowerings(self, kind):
        qubits = (0, 1) if ARITY[kind] == 2 else (0,)
        for lowering in _lowerings(kind, *qubits):
            kinds = [low.kind for low in lowering]
            assert _LOWERED_COUNTS[kind] == (kinds.count("CNOT"), kinds.count("H"))

    def test_lowerings_are_interned(self):
        assert _lowerings("CZ", 0, 1) is _lowerings("CZ", 0, 1)


class TestValidate:
    def test_accepts_valid(self, rng):
        t, _ = random_tableau(3, rng)
        t.validate()

    def test_rejects_broken_rows(self):
        t = CliffordTableau.identity(2)
        broken = CliffordTableau(
            2, (t.x_images[0], t.x_images[0]), t.z_images
        )
        with pytest.raises(InvariantError):
            broken.validate()


class TestValueSemantics:
    def test_public_methods_leave_the_receiver_unchanged(self, rng):
        for _ in range(60):
            n = rng.randint(1, 9)
            t, _ = random_tableau(n, rng)
            other, _ = random_tableau(n, rng)
            snapshot = CliffordTableau(n, t.x_images, t.z_images)
            axis = random_pauli(n, rng)
            outputs = [
                t.compose(other),
                other.compose(t),
                t.invert(),
            ]
            t.conjugate(random_pauli(n, rng))
            assert t == snapshot and hash(t) == hash(snapshot)
            # no output shares rows with its input
            for out in outputs:
                out._apply_s_rotation(axis.x, axis.z, _exponent(axis))
            assert t == snapshot and str(t) == str(snapshot)

    def test_equal_tableaux_hash_equal_and_key_a_dict(self, rng):
        for _ in range(40):
            n = rng.randint(1, 9)
            t, circuit = random_tableau(n, rng)
            again = CliffordTableau.from_circuit(circuit)
            rebuilt = CliffordTableau(n, t.x_images, t.z_images)
            assert again is not t and again == t == rebuilt
            assert hash(again) == hash(t) == hash(rebuilt)
            seen = {t: "t"}
            assert seen[again] == seen[rebuilt] == seen[t.invert().invert()] == "t"
            flipped = CliffordTableau.from_circuit(circuit.with_gates(circuit.gates + (Gate("X", (0,)),)))
            assert flipped != t and flipped not in seen
            assert len({t, again, rebuilt, flipped}) == 2


def row_matrix(n: int, x: int, z: int, k: int) -> np.ndarray:
    """Dense i^k X^x Z^z, qubit 0 the leftmost Kronecker factor."""
    pauli_x, pauli_z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    m = np.eye(1)
    for q in range(n):
        m = np.kron(m, np.linalg.matrix_power(pauli_x, x >> q & 1)
                    @ np.linalg.matrix_power(pauli_z, z >> q & 1))
    return 1j**k * m


def letterwise_product(p: PauliProduct, q: PauliProduct) -> tuple[int, int, int]:
    """(x, z, k) with p q = i^k X^x Z^z, one qubit at a time: XY = iZ, YZ = iX
    and ZX = iY, the reverse orders take -i, equal letters give I, and
    Y = iXZ."""
    k = (2 - p.sign - q.sign) % 4
    letters = []
    for site in range(p.n):
        a, b = p.letter(site), q.letter(site)
        if a == b:
            letters.append("I")
        elif "I" in (a, b):
            letters.append(a if b == "I" else b)
        else:
            letters.append(({"X", "Y", "Z"} - {a, b}).pop())
            k += 1 if a + b in "XYZX" else 3
    image = P("".join(letters))
    return image.x, image.z, (k + (image.x & image.z).bit_count()) % 4


def y_heavy_pauli(n: int, rng) -> PauliProduct:
    """A signed Pauli with a Y on about five qubits in eight."""
    y = rng.getrandbits(n)
    x, z = rng.getrandbits(n) | y, rng.getrandbits(n) | y
    return PauliProduct(n, x, z, rng.choice((1, -1)))


class TestRowBoundary:
    """``_exponent`` and ``_pauli`` convert between a signed Pauli and the
    int row i^k X^x Z^z, the only place the two forms meet."""

    @staticmethod
    def signed_paulis(n, rng):
        if n <= 3:
            return [PauliProduct(n, key & (1 << n) - 1, key >> n, sign)
                    for key in range(1 << 2 * n) for sign in (1, -1)]
        return [y_heavy_pauli(n, rng) for _ in range(300)]

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65])
    def test_round_trip_and_tableau_rows(self, n, rng):
        paulis = self.signed_paulis(n, rng)
        for p in paulis:
            k = _exponent(p)
            assert 0 <= k < 4
            assert _pauli(n, p.x, p.z, k) == p
            if n <= 3:
                assert np.allclose(row_matrix(n, p.x, p.z, k), pauli_matrix(p)), p
        for start in range(0, len(paulis), 2 * n):
            rows = (paulis * 2)[start:start + 2 * n]
            t = CliffordTableau(n, rows[:n], rows[n:])
            assert t._k == [_exponent(p) for p in rows]
            assert t.x_images + t.z_images == tuple(rows)


class TestPhaseRule:
    """``tableau._product``, the S-rotation row update and the two-row
    product of a preimage kernel each spell out the Pauli product's
    phase; they must agree with a letter-by-letter rule."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65])
    def test_three_copies_agree(self, n, rng):
        for _ in range(300):
            p = random_pauli(n, rng, allow_identity=True)
            q = random_pauli(n, rng, allow_identity=True)
            kp, kq = _exponent(p), _exponent(q)
            x, z, k = letterwise_product(p, q)
            rows = CliffordTableau(n, [p] * n, [p] * n)
            rows._apply_s_rotation(q.x, q.z, kq)
            if p.commutes(q):
                assert _product([p.x, q.x], [p.z, q.z], [kp, kq], 0b11, 0) == (x, z, k)
                assert rows == CliffordTableau(n, [p] * n, [p] * n)
            else:
                # i * p * q, the image of an anticommuting row: every row changes
                ik = (k + 1) % 4
                assert _product([p.x, q.x], [p.z, q.z], [kp, kq], 0b11, 1) == (x, z, ik)
                assert {(rx, rz, rk) for rx, rz, rk in zip(rows._x, rows._z, rows._k)} == {
                    (x, z, ik)
                }
            if n >= 2:
                # precomposing CNOT(0, 1) makes the X_0 row the product X_0 X_1
                rows = CliffordTableau(n, [p, q] + [p] * (n - 2), [p] * n)
                if p.commutes(q):
                    precompose_inverse(rows, Gate("CNOT", (0, 1)))
                    assert (rows._x[0], rows._z[0], rows._k[0]) == (x, z, k)
                else:
                    with pytest.raises(InvariantError):
                        precompose_inverse(rows, Gate("CNOT", (0, 1)))
            if n <= 3:
                dense = pauli_matrix(p) @ pauli_matrix(q)
                assert np.allclose(dense, row_matrix(n, x, z, k))


class TestSafetyChecks:
    def test_anti_hermitian_row_product_raises(self):
        # X_0 and Z_0 images that commute: Y = iXZ maps to i times a Pauli
        broken = CliffordTableau(1, [P("X")], [P("X")])
        with pytest.raises(InvariantError, match="anti-Hermitian"):
            broken.conjugate(P("Y"))
        with pytest.raises(InvariantError, match="anti-Hermitian"):
            _product([1, 2], [0, 0], [0, 0], 0b11, 1)

    def test_anti_hermitian_s_rotation_raises(self):
        with pytest.raises(InvariantError, match="anti-Hermitian image in s_rotation"):
            CliffordTableau.identity(1)._apply_s_rotation(1, 0, 1)

    def test_invert_round_trip_check_raises(self):
        broken = CliffordTableau(2, [P("XI"), P("XI")], [P("ZI"), P("IZ")])
        with pytest.raises(InvariantError, match="does not round-trip"):
            broken.invert()

    @pytest.mark.parametrize("kind", ["S", "CZ", "Z"])
    def test_phase_layer_reconstruction_check_raises(self, monkeypatch, kind):
        t = tableau_of(Gate(kind, tuple(range(ARITY[kind]))))
        patch_forward_kernels(monkeypatch, lambda k, kernel: no_update if k == kind else kernel)
        with pytest.raises(InvariantError, match="phase-layer reconstruction failed"):
            synthesize(t)

    @pytest.mark.parametrize("x_images, z_images", [
        (["Z"], ["Z"]),  # an X image with no X
        (["XZ", "IX"], ["ZI", "IZ"]),  # a phase coupling one way only
    ])
    def test_phase_layer_compare_catches_a_bad_tableau(self, x_images, z_images):
        t = CliffordTableau(len(x_images), map(P, x_images), map(P, z_images))
        with pytest.raises(InvariantError, match="^phase-layer reconstruction failed$"):
            synthesize(t)
