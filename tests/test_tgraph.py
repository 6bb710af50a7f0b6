import io
from contextlib import redirect_stdout
from functools import reduce
from operator import xor

import numpy as np
import pytest

from trotopt import tgraph
from trotopt.cli import main
from trotopt.tableau import _dependent_indices
from trotopt import (
    CliffordTableau,
    DependentSetError,
    InvariantError,
    PauliProduct,
    Rotation,
    RotationForm,
    build_tgraph,
    equivalent_up_to_phase,
    extend_with_ancillas,
    layerize,
    optimize,
    parse_qc,
    synthesize_layer,
    synthesize_schedule,
    t_depth_bound,
    to_dot,
    to_rotation_form,
    unitary_of,
)

from _helpers import (
    MOD5_4,
    ancilla_safe,
    brute_force_min_layers,
    check_independent,
    count_tableau_calls,
    data_block_on_zero_ancillas,
    is_valid_reordering,
    random_clifford_circuit,
    random_commuting_independent_rotations,
    random_pauli,
    reference_layers,
    rotations_product_matrix,
)

P = PauliProduct.from_label


def rots(*labels):
    return [Rotation(P(label)) for label in labels]


def form_of(rotations, n):
    return RotationForm(n, tuple(rotations), CliffordTableau.identity(n))


def y_heavy_layer(n, dependents, rng):
    """Commuting rotations, mostly of Y letters, ``dependents`` of them products
    of others, in random order and with random signs and origins.

    Each qubit carries one letter, or I, in every member, so the members commute.
    """
    letters = [rng.choice("YYYXZ") for _ in range(n)]
    lx = sum(1 << q for q, letter in enumerate(letters) if letter != "Z")
    lz = sum(1 << q for q, letter in enumerate(letters) if letter != "X")
    supports = []
    for _ in range(rng.randint(1, min(n, 4))):
        s = rng.getrandbits(n) or 1
        if not _dependent_indices(supports + [s]):
            supports.append(s)
    independent = list(supports)
    for _ in range(dependents):
        supports.append(reduce(xor, rng.sample(independent, rng.randint(1, len(independent)))))
    rng.shuffle(supports)
    return [
        Rotation(PauliProduct(n, s & lx, s & lz, rng.choice((1, -1))), rng.choice((None, j)))
        for j, s in enumerate(supports)
    ]


def forbidden_construction(self):
    raise AssertionError(f"built a {type(self).__name__}")


MIXED_WIDTHS = {
    "CliffordTableau": lambda: CliffordTableau(2, [P("XI"), P("IX")], [P("ZI"), P("Z")]),
    "CliffordTableau.conjugate": lambda: CliffordTableau.identity(2).conjugate(P("X")),
    "CliffordTableau.compose": lambda: CliffordTableau.identity(2).compose(
        CliffordTableau.identity(1)
    ),
    "RotationForm": lambda: RotationForm(2, rots("ZI", "Z"), CliffordTableau.identity(2)),
    "extend_with_ancillas": lambda: extend_with_ancillas(rots("ZI", "Z"), 1),
    "synthesize_layer": lambda: synthesize_layer(rots("ZI", "Z")),
    "build_tgraph": lambda: build_tgraph(rots("ZI", "Z")),
    "layerize": lambda: layerize(rots("ZI", "Z")),
    "t_depth_bound": lambda: t_depth_bound(rots("ZI", "Z")),
}


@pytest.mark.parametrize("call", MIXED_WIDTHS.values(), ids=MIXED_WIDTHS.keys())
def test_mixed_widths_raise_one_message(call):
    with pytest.raises(ValueError, match="^qubit count mismatch: 2 vs 1$"):
        call()


def pairwise_edges(paulis):
    """Reference for the T-graph: every anticommuting i < j, ordered by j, then i."""
    return tuple(
        (i, j) for j in range(len(paulis)) for i in range(j) if not paulis[i].commutes(paulis[j])
    )


def first_anticommuting_pair(paulis):
    """Reference for the layer check: the pair a nested loop meets first."""
    for a in range(len(paulis)):
        for b in range(a + 1, len(paulis)):
            if not paulis[a].commutes(paulis[b]):
                return a, b
    return None


@pytest.fixture
def one_layer(monkeypatch):
    """Levels that put every rotation in one layer, as a broken pass would."""
    monkeypatch.setattr(tgraph, "_levels", lambda x, z: np.ones(x.shape[1], dtype=np.int64))


def span_rank(paulis):
    """GF(2) rank of the axes' bits by enumerating their span (small n only)."""
    span = {0}
    for p in paulis:
        v = p.x | (p.z << p.n)
        if v not in span:
            span |= {s ^ v for s in span}
    return len(span).bit_length() - 1


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

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_edges_match_pairwise_reference(self, n, rng):
        m = 400
        assert tgraph._tile(m)[0] < m  # more than one row of tiles
        paulis = [random_pauli(n, rng) for _ in range(m)]
        assert build_tgraph([Rotation(p) for p in paulis]).edges == pairwise_edges(paulis)

    @pytest.mark.parametrize("n", [1, 65])
    def test_column_tiles_keep_edge_order(self, n, rng, monkeypatch, one_layer):
        # a budget below m splits each row's columns, as m > 2^14 does
        monkeypatch.setattr(tgraph, "_BLOCK_WORDS", 64)
        m = 200
        assert tgraph._tile(m) == (1, 64)
        paulis = [random_pauli(n, rng) for _ in range(m)]
        assert build_tgraph([Rotation(p) for p in paulis]).edges == pairwise_edges(paulis)
        a, b = first_anticommuting_pair(paulis)
        with pytest.raises(InvariantError, match=rf"^vertices {a},{b} share"):
            layerize([Rotation(p) for p in paulis])

    def test_width_mismatch_rejected(self, one_layer):
        with pytest.raises(ValueError, match="qubit count mismatch: 1 vs 2"):
            build_tgraph(rots("Z", "X", "ZZ"))
        with pytest.raises(ValueError, match="qubit count mismatch: 1 vs 2"):
            layerize(rots("Z", "Z", "ZZ"))


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
        assert t_depth_bound(rots("Z", "X", "Z")) == 3

    def test_edgeless(self):
        assert t_depth_bound(rots("ZI", "IZ", "ZZ")) == 1

    def test_empty(self):
        assert t_depth_bound([]) == 0

    def test_matches_brute_force(self, rng):
        for _ in range(150):
            n = rng.randint(1, 4)
            m = rng.randint(0, 12)
            paulis = [random_pauli(n, rng) for _ in range(m)]
            assert t_depth_bound([Rotation(p) for p in paulis]) == brute_force_min_layers(paulis)


class TestLayerize:
    def test_chain_gives_singletons(self):
        schedule = layerize(rots("Z", "X", "Z"))
        assert schedule.layers == ((0,), (1,), (2,))

    def test_edgeless_gives_one_layer(self):
        schedule = layerize(rots("ZI", "IZ", "ZZ"))
        assert schedule.layers == ((0, 1, 2),)

    def test_empty(self):
        assert layerize([]).layers == ()

    @pytest.mark.parametrize("n", [3, 65])
    def test_stripped_graph_names_first_anticommuting_pair(self, n, rng, one_layer):
        raised = 0
        for _ in range(30):
            paulis = [random_pauli(n, rng) for _ in range(rng.randint(2, 40))]
            pair = first_anticommuting_pair(paulis)
            rotations = [Rotation(p) for p in paulis]
            if pair is None:
                assert layerize(rotations).depth == 1
                continue
            with pytest.raises(InvariantError, match=rf"^vertices {pair[0]},{pair[1]} share"):
                layerize(rotations)
            raised += 1
        assert raised > 20

    def test_stripped_check_reaches_the_last_row_block(self, one_layer):
        # 400 diagonal axes off qubit 0, then X and Z on qubit 0: the one
        # anticommuting pair is the last one, past the first row block
        n, m = 10, 402
        assert tgraph._tile(m)[0] < m - 2
        paulis = [PauliProduct(n, 0, (v % 511 + 1) << 1) for v in range(m - 2)]
        paulis += [PauliProduct(n, 1, 0), PauliProduct(n, 0, 1)]
        with pytest.raises(InvariantError, match=f"^vertices {m - 2},{m - 1} share"):
            layerize([Rotation(p) for p in paulis])

    def test_layer_count_equals_bound(self, rng):
        for _ in range(100):
            n = rng.randint(1, 4)
            m = rng.randint(0, 14)
            rotations = [Rotation(random_pauli(n, rng)) for _ in range(m)]
            assert layerize(rotations).depth == t_depth_bound(rotations)

    def test_alap_same_depth(self, rng):
        for _ in range(50):
            n = rng.randint(1, 4)
            rotations = [Rotation(random_pauli(n, rng)) for _ in range(rng.randint(0, 12))]
            assert layerize(rotations, alap=True).depth == layerize(rotations).depth

    def test_flattened_schedule_is_topological(self, rng):
        for alap in (False, True):
            for _ in range(50):
                n = rng.randint(1, 4)
                rotations = [Rotation(random_pauli(n, rng)) for _ in range(rng.randint(1, 12))]
                order = [v for layer in layerize(rotations, alap=alap).layers for v in layer]
                assert is_valid_reordering(build_tgraph(rotations), order)


class TestLongestPathPass:
    # (tile budget in words, m): row tiles with a diagonal part, then column
    # tiles of 64 and of 7 words, then single-word tiles
    BUDGETS = [(tgraph._BLOCK_WORDS, 400), (64, 400), (7, 120), (1, 40)]

    @pytest.mark.parametrize("n", [1, 3, 65])
    def test_matches_adjacency_list_reference(self, n, rng, monkeypatch):
        for words, m in self.BUDGETS:
            monkeypatch.setattr(tgraph, "_BLOCK_WORDS", words)
            rows, cols = tgraph._tile(m)
            assert rows < m and (cols < m) == (words < m), words
            rotations = [Rotation(random_pauli(n, rng)) for _ in range(m)]
            g = build_tgraph(rotations)
            asap = reference_layers(g)
            assert t_depth_bound(rotations) == len(asap), words
            assert layerize(rotations).layers == asap, words
            assert layerize(rotations, alap=True).layers == reference_layers(g, alap=True), words

    def test_tdepth_runs_one_pass(self, monkeypatch, tmp_path):
        calls = []
        one_pass = tgraph._levels

        def counted(*args, **kwargs):
            calls.append(args)
            return one_pass(*args, **kwargs)

        monkeypatch.setattr(tgraph, "_levels", counted)
        runs = [["--ancilla"], ["--alap"], ["--dot", str(tmp_path / "g.dot")]]
        for flags in runs:
            with redirect_stdout(io.StringIO()):
                assert main(["tdepth", str(MOD5_4), *flags]) == 0
        assert len(calls) == len(runs)


def diagonal_pauli(n, rng):
    return PauliProduct(n, 0, rng.randrange(1, 1 << n), rng.choice([1, -1]))


def diagonal_runs(n, m, rng):
    """m axes: runs of diagonal axes long enough to fill whole tiles, first and
    between short runs of random Paulis."""
    paulis = []
    while len(paulis) < m:
        paulis += [diagonal_pauli(n, rng) for _ in range(rng.randint(m // 8, m // 3))]
        paulis += [random_pauli(n, rng) for _ in range(rng.randint(1, max(1, m // 10)))]
    return paulis[:m]


class TestXFreeTiles:
    """Diagonal axes always commute: a tile whose rows and columns are all
    diagonal is never computed, and the answers stay the same."""

    def test_diagonal_axes_compute_no_tile(self, rng, monkeypatch):
        def forbidden(*args):
            raise AssertionError("tile computed")

        monkeypatch.setattr(tgraph, "_anticommute", forbidden)
        for n in (1, 10, 65):
            rotations = [Rotation(diagonal_pauli(n, rng)) for _ in range(400)]
            assert layerize(rotations).layers == (tuple(range(400)),)
            assert layerize(rotations, alap=True).layers == (tuple(range(400)),)
            assert t_depth_bound(rotations) == 1
            assert build_tgraph(rotations).edges == ()

    @pytest.mark.parametrize("n", [1, 3, 65])
    def test_runs_of_diagonal_axes_match_references(self, n, rng, monkeypatch):
        computed = []
        real = tgraph._anticommute

        def counted(x, z, rows, cols):
            computed.append(1)
            return real(x, z, rows, cols)

        monkeypatch.setattr(tgraph, "_anticommute", counted)
        for words, m in TestLongestPathPass.BUDGETS:
            monkeypatch.setattr(tgraph, "_BLOCK_WORDS", words)
            rows, cols = tgraph._tile(m)
            tiles = sum(-(-min(m, start + rows) // cols) for start in range(0, m, rows))
            paulis = diagonal_runs(n, m, rng)
            rotations = [Rotation(p) for p in paulis]
            computed.clear()
            g = build_tgraph(rotations)
            assert 0 < len(computed) < tiles, words  # some tiles, and not all, were X-free
            assert g.edges == pairwise_edges(paulis), words
            assert t_depth_bound(rotations) == len(reference_layers(g)), words
            assert layerize(rotations).layers == reference_layers(g), words
            assert layerize(rotations, alap=True).layers == reference_layers(g, alap=True), words

    @pytest.mark.parametrize("words", [tgraph._BLOCK_WORDS, 7])
    def test_check_names_the_first_layers_first_pair(self, words, rng, monkeypatch):
        # levels that put every third axis in one of three layers, each with
        # anticommuting pairs: the check names the first layer's first pair
        def three_layers(x, z):
            return 1 + np.arange(x.shape[1]) % 3

        monkeypatch.setattr(tgraph, "_levels", three_layers)
        monkeypatch.setattr(tgraph, "_BLOCK_WORDS", words)
        for n in (2, 65):
            paulis = diagonal_runs(n, 90, rng)
            m = len(paulis)
            rotations = [Rotation(p) for p in paulis]
            for alap in (False, True):
                level = 1 + np.arange(m) % 3
                if alap:  # ALAP reads the reversed axes' levels back to front, last level first
                    level = level[::-1]
                order = (3, 2, 1) if alap else (1, 2, 3)
                layers = [[v for v in range(m) if level[v] == k] for k in order]
                pairs = [first_anticommuting_pair([paulis[v] for v in layer]) for layer in layers]
                assert all(pairs)
                first, (a, b) = layers[0], pairs[0]
                with pytest.raises(InvariantError, match=rf"^vertices {first[a]},{first[b]} share"):
                    layerize(rotations, alap=alap)


def test_scans_make_no_per_pair_pauli_calls(monkeypatch, rng):
    """The fold scan, the T-graph build and the layer check read packed masks."""
    n = 70
    axes = [random_pauli(n, rng) for _ in range(60)]
    signed = axes + [-p for p in reversed(axes[-10:])]  # ten cancellations, no merge
    form = RotationForm(
        n, tuple(Rotation(p, origin=i) for i, p in enumerate(signed)), CliffordTableau.identity(n)
    )

    def forbidden(self, other):
        raise AssertionError("per-pair PauliProduct call")

    monkeypatch.setattr(PauliProduct, "commutes", forbidden)
    result = optimize(form)
    assert (result.stats.cancellations, result.stats.merges) == (10, 0)
    assert build_tgraph(result.form).edges
    assert max(len(layer) for layer in layerize(result.form).layers) > 1


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

    def test_independent_rotations_stay_untagged(self):
        extended = extend_with_ancillas(rots("ZI", "IZ", "ZZ", "ZI"), 3)
        assert [r.pauli for r in extended] == [P("ZIIII"), P("IZIII"), P("ZZZII"), P("ZIIZI")]

    @pytest.mark.parametrize("n", [1, 3, 63, 64, 65])
    def test_matches_the_widened_paulis(self, n, rng, monkeypatch):
        """Each axis becomes PauliProduct(n + t, x, z | tag, sign), with a tag
        only on the dependent ones, and t = 0 hands the rotations back."""
        for _ in range(30):
            layer = y_heavy_layer(n, rng.randint(0, 3), rng)
            dependent = _dependent_indices([r.pauli.x | r.pauli.z << n for r in layer])
            t = rng.randint(len(dependent), 3)
            tags = {j: 1 << (n + a) for a, j in enumerate(dependent)}
            want = [
                PauliProduct(n + t, r.pauli.x, r.pauli.z | tags.get(j, 0), r.pauli.sign)
                for j, r in enumerate(layer)
            ]
            extended = extend_with_ancillas(layer, t)
            assert [r.pauli for r in extended] == want
            assert [r.origin for r in extended] == [r.origin for r in layer]
            assert [j for j, r in enumerate(extended) if r.pauli.z >> n] == dependent
            if not dependent:
                with monkeypatch.context() as m:
                    for built in (PauliProduct, Rotation):
                        m.setattr(built, "__post_init__", forbidden_construction)
                    same = extend_with_ancillas(layer, 0)
                assert len(same) == len(layer)
                assert all(a is b for a, b in zip(same, layer))

    def test_tags_exactly_the_dependent_rotations(self, rng):
        for _ in range(80):
            n = rng.randint(1, 3)
            m = rng.randint(1, 8)
            layer = [Rotation(random_pauli(n, rng)) for _ in range(m)]
            extended = extend_with_ancillas(layer, m)
            ancilla_bits = [r.pauli.z >> n for r in extended]
            dependent = [
                j for j in range(m)
                if span_rank([r.pauli for r in layer[: j + 1]])
                == span_rank([r.pauli for r in layer[:j]])
            ]
            assert [j for j in range(m) if ancilla_bits[j]] == dependent
            assert [ancilla_bits[j] for j in dependent] == [1 << a for a in range(len(dependent))]
            if dependent:
                with pytest.raises(DependentSetError):
                    extend_with_ancillas(layer, len(dependent) - 1)


class TestSynthesizeSchedule:
    @pytest.mark.parametrize(
        "layers", [[(0,)], [(0,), (0, 1)], [(0, 1), (1,)], [(0, 1, 2)], [(0,), (-1,)], []]
    )
    def test_layers_must_list_every_rotation_once(self, layers):
        form = to_rotation_form(parse_qc(".v a b\nBEGIN\nT a\nT b\nEND\n"))
        with pytest.raises(ValueError, match="^layers must list every rotation index exactly once$"):
            synthesize_schedule(form, layers)
        assert synthesize_schedule(form, [(1,), (0,)]).counts().t_count == 2

    def test_width_and_equivalence_on_random_forms(self, rng):
        tagged = untagged = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            rotations = [Rotation(random_pauli(n, rng)) for _ in range(rng.randint(0, 6))]
            tail_circuit = random_clifford_circuit(n, rng.randint(0, 6), rng)
            form = RotationForm(n, tuple(rotations), CliffordTableau.from_circuit(tail_circuit))
            layers = layerize(form, alap=rng.random() < 0.5).layers
            t = max(
                (len(layer) - span_rank([rotations[v].pauli for v in layer]) for layer in layers),
                default=0,
            )
            out = synthesize_schedule(form, layers)
            assert out.n == n + t
            assert out.qubit_names[n:] == tuple(f"anc{i}" for i in range(t))
            assert out.counts().t_count == len(rotations)
            want = unitary_of(tail_circuit)
            if rotations:
                want = want @ rotations_product_matrix(rotations)
            block = data_block_on_zero_ancillas(unitary_of(out), n, t)
            assert equivalent_up_to_phase(block, want)
            tagged += t > 0
            untagged += t == 0
        assert tagged and untagged


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

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError, match="^qubit count mismatch: 2 vs 1$"):
            synthesize_layer(rots("ZI") + rots("Z"))

    def test_extension_rejects_mixed_widths(self):
        # the tag for the second rotation would land on its data qubit 1
        with pytest.raises(ValueError, match="^qubit count mismatch: 1 vs 2$"):
            extend_with_ancillas(rots("Z") + rots("ZI"), 1)

    def test_builds_no_tableau(self, monkeypatch, rng):
        form = optimize(to_rotation_form(parse_qc(MOD5_4.read_text()).expand())).form
        (layer,) = layerize(form).layers
        layers = [extend_with_ancillas([form.rotations[v] for v in layer], 4)]
        for n in (1, 2, 5, 17, 33, 64, 65):
            layers.append(random_commuting_independent_rotations(n, rng.randint(1, n), rng))
        calls = count_tableau_calls(monkeypatch, "__init__", "_from_rows")
        for layer in layers:
            synthesize_layer(layer)
        assert calls == []


class TestDot:
    def test_labels_and_edges(self):
        g = build_tgraph(
            [Rotation(P("Z"), origin=3), Rotation(P("-X"), origin=7)]
        )
        dot = to_dot(g)
        assert '"+Z @3"' in dot
        assert '"-X @7"' in dot
        assert "r0 -> r1;" in dot
