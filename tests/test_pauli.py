import pytest

from trotopt import PauliProduct

from _helpers import random_pauli


P = PauliProduct.from_label


class TestConstruction:
    def test_identity(self):
        p = PauliProduct(3, 0, 0)
        assert p.x == 0 and p.z == 0 and p.sign == 1
        assert p.is_identity
        assert str(p) == "+III"

    def test_label_round_trip(self):
        for label in ["+XIZ", "-YY", "+Z", "-IXYZ"]:
            assert P(label).label() == label

    def test_bare_label_is_positive(self):
        assert P("XZ") == P("+XZ")

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            PauliProduct(0, 0, 0)
        with pytest.raises(ValueError):
            PauliProduct(2, 1 << 2, 0)
        with pytest.raises(ValueError):
            PauliProduct(2, 0, 0, sign=2)
        with pytest.raises(ValueError):
            P("+AB")


class TestCommutes:
    def test_single_qubit_anticommutation(self):
        assert not P("X").commutes(P("Z"))

    def test_disjoint_supports(self):
        assert P("XI").commutes(P("IZ"))

    def test_even_anticommuting_sites(self):
        assert P("XX").commutes(P("ZZ"))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            P("X").commutes(P("XX"))

    def test_symmetric_and_sign_invariant(self, rng):
        for _ in range(300):
            n = rng.randint(1, 8)
            a, b = random_pauli(n, rng), random_pauli(n, rng)
            assert a.commutes(b) == b.commutes(a)
            assert a.commutes(b) == (-a).commutes(b) == a.commutes(-b)


class TestMisc:
    def test_negate(self):
        assert (-P("XZ")).sign == -1
        assert -(-P("XZ")) == P("XZ")
