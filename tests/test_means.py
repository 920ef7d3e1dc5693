"""Means and majorization tests.

The geometric mean is checked against two independent oracles: the Riccati
equation X A^-1 X = B it solves, and the determinant identity
det(A # B)^2 = det A det B.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opcheck.errors
import opcheck.linalg
import opcheck.means
from opcheck.errors import NoConvergence
from opcheck.linalg import eigh, hermitian_part, loewner_leq, operator_norm, sqrtm_psd
from opcheck.means import geometric_mean, geometric_mean_ex, weak_log_majorizes


def random_pd(rng, n, floor=0.2):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(g @ g.conj().T) / n + floor * np.eye(n)


def random_isometry(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
    return q[:, :k]


def agm_check(a, b):
    """The arithmetic-geometric mean inequality A # B <= (A + B) / 2."""
    return loewner_leq(geometric_mean(a, b), (hermitian_part(a) + hermitian_part(b)) / 2.0)


def ando_compression_check(a, b, s):
    """Ando's compression inequality S*(A # B)S <= (S*AS) # (S*BS) for an isometry S."""
    s = np.asarray(s, dtype=complex)

    def compress(h):
        return hermitian_part(s.conj().T @ h @ s)

    return loewner_leq(compress(geometric_mean(a, b)), geometric_mean(compress(a), compress(b)))


class TestGeometricMean:
    def test_commuting_diagonals(self):
        assert np.allclose(geometric_mean(np.diag([2.0, 8.0]), np.diag([8.0, 2.0])), 4 * np.eye(2))

    def test_identity_left_argument(self):
        b = np.diag([4.0, 9.0])
        assert np.allclose(geometric_mean(np.eye(2), b), np.diag([2.0, 3.0]))

    def test_idempotent(self):
        a = random_pd(np.random.default_rng(0), 4)
        assert np.abs(geometric_mean(a, a) - a).max() < 1e-10

    def test_riccati_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a, b = random_pd(rng, n), random_pd(rng, n)
            x = geometric_mean(a, b)
            assert np.abs(x @ np.linalg.inv(a) @ x - b).max() <= 1e-8

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = random_pd(rng, 5), random_pd(rng, 5)
        assert np.abs(geometric_mean(a, b) - geometric_mean(b, a)).max() < 1e-9

    def test_determinant_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            a, b = random_pd(rng, n), random_pd(rng, n)
            x = geometric_mean(a, b)
            want = np.linalg.det(a).real * np.linalg.det(b).real
            assert np.linalg.det(x).real ** 2 == pytest.approx(want, rel=1e-8)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(4)
        n = 4
        a, b = random_pd(rng, n), random_pd(rng, n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 2 * np.eye(n)
        lhs = geometric_mean(m.conj().T @ a @ m, m.conj().T @ b @ m)
        rhs = m.conj().T @ geometric_mean(a, b) @ m
        assert np.abs(lhs - rhs).max() < 1e-8 * (1 + np.abs(rhs).max())

    def test_maximality_block_characterization(self):
        # any Hermitian X with [[A, X], [X, B]] PSD sits below A # B;
        # the mean itself makes the block PSD
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            a, b = random_pd(rng, n), random_pd(rng, n)
            mean = geometric_mean(a, b)
            x = hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            binvh = sqrtm_psd(np.linalg.inv(b))
            mu = float(
                eigh(hermitian_part(binvh @ x @ np.linalg.inv(a) @ x @ binvh)).values[0]
            )
            x = x * (rng.uniform(0.1, 1.0) / np.sqrt(mu)) if mu > 0 else x
            block = np.block([[a, x], [x.conj().T, b]])
            assert np.linalg.eigvalsh(block).min() > -1e-9
            assert loewner_leq(x, mean).holds
            mean_block = np.block([[a, mean], [mean, b]])
            assert np.linalg.eigvalsh(mean_block).min() > -1e-8

    def test_singular_aligned_kernels_take_limit(self):
        mean, used_limit = geometric_mean_ex(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))
        assert used_limit
        assert np.abs(mean - np.diag([np.sqrt(2.0), 0.0])).max() < 1e-3

    def test_singular_misaligned_kernels_diverge(self):
        with pytest.raises(NoConvergence):
            geometric_mean(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_definite_route_reports_no_limit(self):
        rng = np.random.default_rng(6)
        _, used_limit = geometric_mean_ex(random_pd(rng, 3), random_pd(rng, 3))
        assert not used_limit

    def test_rejects_indefinite_argument(self):
        from opcheck.errors import NotPositiveSemidefinite

        with pytest.raises(NotPositiveSemidefinite):
            geometric_mean(np.diag([1.0, -0.5]), np.eye(2))


def reference_geometric_mean_ex(a, b, tol=None):
    """geometric_mean_ex as it was before the Cholesky screen: B's
    definiteness from the eigvalsh of B."""
    m = opcheck.means
    am = opcheck.linalg.require_hermitian(a, tol)
    bm = opcheck.linalg.require_hermitian(b, tol)
    es_a = eigh(am, tol)
    if m._is_definite(es_a.values, tol) and m._is_definite(opcheck.linalg.eigvalsh(bm, tol), tol):
        return m._definite_mean(es_a, bm), False
    eye = np.eye(am.shape[0])
    iterates = [m._definite_mean(eigh(am + e * eye, tol), bm + e * eye) for e in m._EPS_LADDER]
    gap = operator_norm(iterates[-1] - iterates[-2])
    if gap > m._LIMIT_AGREE * (1.0 + operator_norm(iterates[-1])):
        raise NoConvergence(f"singular-mean limit not Cauchy: gap {gap:.3e}")
    return iterates[-1], True


def mean_outcome(fn, a, b):
    try:
        mean, used_limit = fn(a, b)
    except opcheck.errors.OpcheckError as exc:
        return type(exc).__name__, str(exc)
    return mean.tobytes(), used_limit


class TestSingularLimit:
    """The limit's iterates at eps = 1e-6 and 1e-8 take A + eps I's
    eigensystem as (Lambda + eps, V) from A's one decomposition."""

    rng = np.random.default_rng(19)
    A = random_pd(rng, 4)
    G = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    B = hermitian_part(G @ G.conj().T)

    def test_a_definite_a_and_a_rank_two_b_run_the_jacobi_loop_six_times(self, sweep_runs):
        # A once, B's spectrum once, each iterate's inner root once and the
        # Cauchy test's two norms once each
        with pytest.raises(NoConvergence, match=r"^singular-mean limit not Cauchy: gap 2\.062e-03$"):
            geometric_mean_ex(self.A, self.B)
        assert len(sweep_runs) == 6

    def test_the_limit_leaves_a_given_eigensystem_unchanged(self):
        # the Cartesian check hands K's eigensystem to the mean: the shift forms new arrays
        a, b = np.diag([1.0, 0.0]) + 0j, np.diag([2.0, 0.0]) + 0j
        es = opcheck.linalg.EigenSystem(*opcheck.linalg._eig(a))
        for array in (es.values, es.vectors):
            array.setflags(write=False)
        mean, used_limit = opcheck.means._geometric_mean_es(es, b, None)
        assert used_limit and mean.tobytes() == geometric_mean_ex(a, b)[0].tobytes()

    def test_an_eigenvalue_the_shift_leaves_nonpositive_raises_a_domain_error(self, sweep_runs):
        # -1.5e-8 passes the PSD test at abs = 1e-8 but not the shift to
        # eps = 1e-8, whose iterate would take the inverse root of zero
        tol = opcheck.linalg.Tolerance(abs=1e-8, rel=1e-8, rank_cutoff=6e-12)
        a = np.diag([1.0, -1.5e-8]) + 0j
        message = r"^mean argument has eigenvalue -1\.500e-08, not positive after the shift 1e-08$"
        with pytest.raises(opcheck.errors.DomainError, match=message):
            geometric_mean_ex(a, np.eye(2), tol)
        # A's decomposition only: no iterate is formed
        assert len(sweep_runs) == 1
        # -0.5e-8 stays positive under both shifts, so the limit's iterates run
        with pytest.raises(NoConvergence, match="^singular-mean limit not Cauchy"):
            geometric_mean_ex(np.diag([1.0, -0.5e-8]) + 0j, np.eye(2), tol)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_b_definiteness_matches_the_reference_near_the_threshold(n, scale):
    rng = np.random.default_rng([n, 8])
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    others = scale * rng.uniform(0.1, 1.0, n - 1)
    a = random_pd(rng, n)
    # lambda_min(B) around _is_definite's 1e-10 max(1, lambda_max), the
    # screen's tau = 1e-10 max(1, n max|b_ij|) and 2 tau, where it flips
    unit = 1e-10 * max(1.0, float(others.max()))
    for r in (-1.0, 0.0, 0.5, 0.9, 1.0, 1.1, 1.5, 1.9, 2.0, 2.1, 3.0, 4.0, 2.0 * n, 4.0 * n):
        b = hermitian_part((q * np.concatenate([[r * unit], others])) @ q.conj().T)
        assert mean_outcome(geometric_mean_ex, a, b) == mean_outcome(reference_geometric_mean_ex, a, b)


class TestAgm:
    def test_equal_arguments_zero_slack(self):
        a = random_pd(np.random.default_rng(7), 3)
        dec = agm_check(a, a)
        assert dec.holds and abs(dec.slack) < 1e-10

    def test_commuting_example(self):
        dec = agm_check(np.diag([2.0, 8.0]), np.diag([8.0, 2.0]))
        assert dec.holds and dec.slack == pytest.approx(1.0, abs=1e-10)

    def test_random_campaign(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            assert agm_check(random_pd(rng, n), random_pd(rng, n)).holds


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_agm_property(seed, n, scale):
    rng = np.random.default_rng(seed)
    a = scale * random_pd(rng, n)
    b = random_pd(rng, n) / scale
    assert agm_check(a, b).holds


class TestWeakLogMajorization:
    def test_equal_spectra_both_directions(self):
        assert weak_log_majorizes(np.diag([1.0, 2.0]), np.diag([2.0, 1.0])).passed
        assert weak_log_majorizes(np.diag([2.0, 1.0]), np.diag([1.0, 2.0])).passed

    def test_top_eigenvalue_failure(self):
        rep = weak_log_majorizes(np.diag([3.0, 0.0]), np.diag([2.0, 2.0]))
        assert not rep.passed and rep.worst_ratio == pytest.approx(1.5)

    def test_determinant_failure(self):
        rep = weak_log_majorizes(np.diag([2.0, 2.0]), np.diag([3.0, 0.0]))
        assert not rep.passed
        assert rep.worst_ratio == np.inf

    def test_zero_against_zero_prefixes_pass(self):
        rep = weak_log_majorizes(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        assert rep.passed and rep.worst_ratio == pytest.approx(1.0)


class TestAndoCompression:
    def test_identity_basis_zero_slack(self):
        rng = np.random.default_rng(18)
        a, b = random_pd(rng, 3), random_pd(rng, 3)
        dec = ando_compression_check(a, b, np.eye(3))
        assert dec.holds and abs(dec.slack) < 1e-9

    def test_equal_arguments(self):
        rng = np.random.default_rng(19)
        a = random_pd(rng, 4)
        s = random_isometry(rng, 4, 2)
        dec = ando_compression_check(a, a, s)
        assert dec.holds and abs(dec.slack) < 1e-8

    def test_random_campaign(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n + 1))
            a, b = random_pd(rng, n), random_pd(rng, n)
            s = random_isometry(rng, n, k)
            assert ando_compression_check(a, b, s).holds


class TestValidatedOnce:
    def test_definite_mean_eigendecomposes_a_once(self, monkeypatch):
        calls = []
        original = opcheck.means._eig

        def counting(h, vectors=True):
            calls.append("eigh" if vectors else "eigvalsh")
            return original(h, vectors)

        monkeypatch.setattr(opcheck.means, "_eig", counting)
        rng = np.random.default_rng(22)
        mean, used_limit = geometric_mean_ex(random_pd(rng, 3), random_pd(rng, 3))
        assert not used_limit
        # A for its definiteness test and the formula, inner root; the
        # Cholesky screen answers B's definiteness test
        assert calls == ["eigh", "eigh"]


def test_geometric_mean_of_empty_matrices_is_empty():
    assert geometric_mean(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)
