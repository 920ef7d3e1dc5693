"""Generator soundness: each ensemble's defining property holds on samples."""

import numpy as np
import pytest

from opcheck.decompose import comodulus, modulus
from opcheck.ensembles import ENSEMBLES, generate_with_rng
from opcheck.linalg import loewner_leq, operator_norm


class TestInvariants:
    def test_haar_unitary(self):
        for seed in range(20):
            u = generate_with_rng("haar_unitary", 4, np.random.default_rng(seed))
            assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-10

    def test_contraction_norm(self):
        for seed in range(20):
            a = generate_with_rng("random_contraction", 5, np.random.default_rng(seed))
            assert operator_norm(a) <= 1 + 1e-12

    def test_wishart_psd(self):
        for seed in range(20):
            w = generate_with_rng("wishart_psd", 4, np.random.default_rng(seed))
            assert np.abs(w - w.conj().T).max() < 1e-14
            assert np.linalg.eigvalsh(w).min() > -1e-12

    def test_normal_commutator(self):
        for seed in range(20):
            n = generate_with_rng("random_normal_matrix", 4, np.random.default_rng(seed))
            comm = n @ n.conj().T - n.conj().T @ n
            assert np.abs(comm).max() < 1e-10 * (1 + np.abs(n).max() ** 2)

    def test_semi_hyponormal_moduli_order(self):
        for seed in range(20):
            z = generate_with_rng("random_semi_hyponormal", 4, np.random.default_rng(seed))
            assert loewner_leq(comodulus(z), modulus(z)).holds

    def test_ginibre_scale(self):
        g = generate_with_rng("ginibre", 50, np.random.default_rng(0))
        # entries are standard complex normal
        assert 0.8 < np.sqrt(np.mean(np.abs(g) ** 2)) < 1.2


class TestDeterminism:
    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    def test_seed_reproducibility(self, ensemble):
        a = generate_with_rng(ensemble, 3, np.random.default_rng(42))
        b = generate_with_rng(ensemble, 3, np.random.default_rng(42))
        assert np.array_equal(a, b)
        c = generate_with_rng(ensemble, 3, np.random.default_rng(43))
        assert not np.array_equal(a, c)


def test_unknown_ensemble_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unknown ensemble 'mystery'"):
        generate_with_rng("mystery", 3, rng)
    # nothing was drawn
    assert rng.standard_normal() == np.random.default_rng(0).standard_normal()
