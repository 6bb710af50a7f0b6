import pytest

from trotopt import (
    CliffordTableau,
    DependentSetError,
    PauliProduct,
    Rotation,
    RotationForm,
    ancilla_safe,
    build_tgraph,
    equivalent_up_to_phase,
    extend_with_ancillas,
    is_valid_reordering,
    layerize,
    synthesize_layer,
    t_depth_bound,
    to_dot,
    unitary_of,
)

from _helpers import (
    brute_force_min_layers,
    data_block_on_zero_ancillas,
    random_commuting_independent_rotations,
    random_pauli,
    rotations_product_matrix,
)

P = PauliProduct.from_label


def rots(*labels):
    return [Rotation(P(label)) for label in labels]


def form_of(rotations, n):
    return RotationForm(n, tuple(rotations), CliffordTableau.identity(n))


class TestBuild:
    def test_chain(self):
        g = build_tgraph(rots("Z", "X", "Z"))
        assert g.edges == ((0, 1), (1, 2))

    def test_diagonal_set_has_no_edges(self):
        g = build_tgraph(rots("ZI", "IZ", "ZZ"))
        assert g.edges == ()

    def test_signs_ignored(self):
        g = build_tgraph(rots("X", "-X"))
        assert g.edges == ()

    def test_accepts_rotation_form(self):
        g = build_tgraph(form_of(rots("Z", "X"), 1))
        assert g.edges == ((0, 1),)


class TestReordering:
    def test_identity_permutation(self):
        g = build_tgraph(rots("Z", "X"))
        assert is_valid_reordering(g, [0, 1])

    def test_edge_forbids_swap(self):
        g = build_tgraph(rots("Z", "X"))
        assert not is_valid_reordering(g, [1, 0])

    def test_commuting_swap_allowed(self):
        g = build_tgraph(rots("ZI", "IZ"))
        assert is_valid_reordering(g, [1, 0])

    def test_non_permutation_rejected(self):
        g = build_tgraph(rots("Z", "X"))
        with pytest.raises(ValueError):
            is_valid_reordering(g, [0, 0])


class TestDepthBound:
    def test_chain_of_three(self):
        assert t_depth_bound(build_tgraph(rots("Z", "X", "Z"))) == 3

    def test_edgeless(self):
        assert t_depth_bound(build_tgraph(rots("ZI", "IZ", "ZZ"))) == 1

    def test_empty(self):
        assert t_depth_bound(build_tgraph([])) == 0

    def test_matches_brute_force(self, rng):
        for _ in range(150):
            n = rng.randint(1, 4)
            m = rng.randint(0, 12)
            paulis = [random_pauli(n, rng) for _ in range(m)]
            g = build_tgraph([Rotation(p) for p in paulis])
            assert t_depth_bound(g) == brute_force_min_layers(paulis)


class TestLayerize:
    def test_chain_gives_singletons(self):
        schedule = layerize(build_tgraph(rots("Z", "X", "Z")))
        assert schedule.layers == ((0,), (1,), (2,))

    def test_edgeless_gives_one_layer(self):
        schedule = layerize(build_tgraph(rots("ZI", "IZ", "ZZ")))
        assert schedule.layers == ((0, 1, 2),)

    def test_empty(self):
        assert layerize(build_tgraph([])).layers == ()

    def test_layer_count_equals_bound(self, rng):
        for _ in range(100):
            n = rng.randint(1, 4)
            m = rng.randint(0, 14)
            g = build_tgraph([Rotation(random_pauli(n, rng)) for _ in range(m)])
            schedule = layerize(g)
            assert schedule.depth == t_depth_bound(g)

    def test_alap_same_depth(self, rng):
        for _ in range(50):
            n = rng.randint(1, 4)
            g = build_tgraph(
                [Rotation(random_pauli(n, rng)) for _ in range(rng.randint(0, 12))]
            )
            assert layerize(g, alap=True).depth == layerize(g).depth

    def test_flattened_schedule_is_topological(self, rng):
        for alap in (False, True):
            for _ in range(50):
                n = rng.randint(1, 4)
                g = build_tgraph(
                    [Rotation(random_pauli(n, rng)) for _ in range(rng.randint(1, 12))]
                )
                order = [v for layer in layerize(g, alap=alap).layers for v in layer]
                assert is_valid_reordering(g, order)


class TestAncillaExtension:
    def test_dependent_diagonal_set(self):
        extended = extend_with_ancillas(rots("ZI", "IZ", "ZZ"), 3)
        assert len(extended) == 3
        assert all(r.pauli.n == 5 for r in extended)
        paulis = [r.pauli for r in extended]
        for i in range(3):
            for j in range(i + 1, 3):
                assert paulis[i].commutes(paulis[j])
        # tags make the set independent outright
        from trotopt.tableau import check_independent

        assert check_independent(paulis)

    def test_empty_layer(self):
        assert extend_with_ancillas([], 4) == []

    def test_zero_ancillas_keeps_independent_set(self):
        layer = rots("ZI", "IZ")
        assert [r.pauli for r in extend_with_ancillas(layer, 0)] == [
            r.pauli for r in layer
        ]

    def test_too_few_ancillas_for_dependent_set(self):
        with pytest.raises(DependentSetError):
            extend_with_ancillas(rots("ZI", "IZ", "ZZ"), 0)

    def test_edge_set_unchanged(self, rng):
        for _ in range(80):
            n = rng.randint(1, 4)
            m = rng.randint(1, 10)
            layer = [Rotation(random_pauli(n, rng)) for _ in range(m)]
            before = build_tgraph(layer).edges
            after = build_tgraph(extend_with_ancillas(layer, m)).edges
            assert before == after

    def test_signs_survive(self):
        extended = extend_with_ancillas(rots("-ZI"), 1)
        assert extended[0].pauli.sign == -1


class TestAncillaSafe:
    def test_untouched_ancillas(self):
        form = form_of(rots("ZII", "IZI"), 3)
        assert ancilla_safe(form, 1)

    def test_x_on_ancilla(self):
        form = form_of(rots("ZIX"), 3)
        assert not ancilla_safe(form, 1)
        assert ancilla_safe(form, 0)

    def test_z_on_ancilla_is_safe(self):
        form = form_of(rots("ZIZ"), 3)
        assert ancilla_safe(form, 1)

    def test_extension_output_always_safe(self, rng):
        for _ in range(30):
            n = rng.randint(1, 3)
            m = rng.randint(1, 4)
            layer = [Rotation(random_pauli(n, rng)) for _ in range(m)]
            extended = extend_with_ancillas(layer, m)
            form = RotationForm(
                n + m, tuple(extended), CliffordTableau.identity(n + m)
            )
            assert ancilla_safe(form, m)

    def test_range_checked(self):
        form = form_of(rots("Z"), 1)
        with pytest.raises(ValueError):
            ancilla_safe(form, 2)


class TestSynthesizeLayer:
    def test_single_z_is_one_t(self):
        c = synthesize_layer(rots("Z"))
        assert [g.kind for g in c.gates] == ["T"]

    def test_single_x_is_hth(self):
        c = synthesize_layer(rots("X"))
        assert [(g.kind, g.qubits) for g in c.gates] == [
            ("H", (0,)),
            ("T", (0,)),
            ("H", (0,)),
        ]

    def test_negative_axis_emits_tdg(self):
        c = synthesize_layer(rots("-Z"))
        assert [g.kind for g in c.gates] == ["Tdg"]

    def test_zz_xx_oracle(self):
        layer = rots("ZZ", "XX")
        c = synthesize_layer(layer)
        assert equivalent_up_to_phase(
            unitary_of(c), rotations_product_matrix(layer)
        )

    def test_one_t_cycle(self, rng):
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, n)
            layer = random_commuting_independent_rotations(n, m, rng)
            c = synthesize_layer(layer)
            t_positions = [
                i for i, g in enumerate(c.gates) if g.kind in ("T", "Tdg")
            ]
            assert len(t_positions) == m
            assert t_positions == list(
                range(t_positions[0], t_positions[0] + m)
            ), "T gates are not contiguous"
            assert len({c.gates[i].qubits for i in t_positions}) == m

    def test_oracle_equivalence_random(self, rng):
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, n)
            layer = random_commuting_independent_rotations(n, m, rng)
            c = synthesize_layer(layer)
            assert equivalent_up_to_phase(
                unitary_of(c), rotations_product_matrix(layer)
            )

    def test_dependent_set_raises(self):
        with pytest.raises(DependentSetError):
            synthesize_layer(rots("ZI", "IZ", "ZZ"))

    def test_dependent_set_after_extension(self):
        layer = rots("ZI", "IZ", "ZZ")
        extended = extend_with_ancillas(layer, 3)
        c = synthesize_layer(extended)
        block = data_block_on_zero_ancillas(unitary_of(c), 2, 3)
        reference = rotations_product_matrix(layer)
        assert equivalent_up_to_phase(block, reference)

    def test_empty_layer(self):
        assert synthesize_layer([]).gates == ()


class TestDot:
    def test_labels_and_edges(self):
        g = build_tgraph(
            [Rotation(P("Z"), origin=3), Rotation(P("-X"), origin=7)]
        )
        dot = to_dot(g)
        assert '"+Z @3"' in dot
        assert '"-X @7"' in dot
        assert "r0 -> r1;" in dot
