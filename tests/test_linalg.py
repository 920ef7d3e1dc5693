"""Kernel tests: Jacobi eigensolver, matrix powers, order predicates.

Random-matrix assertions are checked against numpy.linalg as an independent
oracle for the Jacobi eigensolver, which does not call it, and against 50-digit
mpmath for the kernels that do (``spectral_radius`` runs LAPACK ``zgeev``
through ``np.linalg.eigvals``).
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opcheck.checks
import opcheck.linalg
from opcheck.checks import _images_dominated
from opcheck.errors import DimensionMismatch, DomainError, NoConvergence, NonHermitian
from opcheck.linalg import (
    Tolerance,
    _clears,
    eigh,
    eigvalsh,
    generalized_inverse,
    hermitian_defect,
    hermitian_part,
    loewner_leq,
    operator_norm,
    spectral_radius,
    spectral_radius_psd_product,
    sqrtm_psd,
)
from opcheck.means import geometric_mean, weak_log_majorizes
from opcheck.posmap import KrausSum, sample_positivity_falsifier


def random_hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * hermitian_part(g)


def random_psd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g @ g.conj().T) / n


class TestTolerance:
    def test_defaults_scale_with_dimension(self):
        t = Tolerance.for_dim(6)
        assert t.rank_cutoff == pytest.approx(6e-12)
        assert t.abs == 1e-9 and t.rel == 1e-9
        assert Tolerance.for_dim(6) is t and t == Tolerance(rank_cutoff=1e-12 * 6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerance(abs=0.0)

    def test_support_edges(self):
        t = Tolerance(rank_cutoff=0.25)
        assert t.support(np.array([])).shape == (0,)
        assert not t.support(np.zeros(3)).any()
        # 1.0 is exactly 0.25 * 4.0, so it is off the support; the next double is on it
        keep = t.support(np.array([4.0, 1.0, np.nextafter(1.0, 2.0), 0.0]))
        assert keep.tolist() == [True, False, True, False]


class TestEigh:
    def test_diagonal_matrix_is_exact(self):
        es = eigh(np.diag([1.0, 16.0]))
        assert np.array_equal(es.values, [16.0, 1.0])
        # eigenvectors are permuted identity columns
        assert np.allclose(np.abs(es.vectors), [[0, 1], [1, 0]])

    def test_two_by_two_against_characteristic_polynomial(self):
        # roots of t^2 - (a+d) t + (ad - |b|^2) for [[a, b], [conj(b), d]]
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, d = rng.standard_normal(2)
            b = complex(rng.standard_normal(), rng.standard_normal())
            h = np.array([[a, b], [np.conj(b), d]])
            half_tr = (a + d) / 2
            disc = math.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
            expected = [half_tr + disc, half_tr - disc]
            es = eigh(h)
            assert np.allclose(es.values, expected, atol=1e-12)
        es = eigh([[0, 5], [5, 0]])
        assert np.allclose(es.values, [5.0, -5.0])

    def test_identity_spectrum(self):
        es = eigh(np.eye(4))
        assert np.allclose(es.values, 1.0)
        assert np.allclose(es.vectors.conj().T @ es.vectors, np.eye(4))

    def test_reconstruction_and_orthonormality_random(self):
        rng = np.random.default_rng(1)
        for n in range(1, 13):
            h = random_hermitian(rng, n, scale=rng.uniform(0.1, 10))
            es = eigh(h)
            scale = 1.0 + np.abs(h).max()
            assert np.abs((es.vectors * es.values) @ es.vectors.conj().T - h).max() <= 1e-10 * scale
            assert np.abs(es.vectors.conj().T @ es.vectors - np.eye(n)).max() < 1e-12
            assert np.all(np.diff(es.values) <= 1e-14)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            h = random_hermitian(rng, n)
            got = eigh(h).values
            want = np.linalg.eigvalsh(h)[::-1]
            assert np.allclose(got, want, atol=1e-11 * (1 + np.abs(want).max()))

    def test_zero_matrix(self):
        es = eigh(np.zeros((3, 3)))
        assert np.array_equal(es.values, np.zeros(3))
        assert np.array_equal(es.vectors, np.eye(3))

    def test_entries_whose_squares_underflow(self):
        h = random_hermitian(np.random.default_rng(3), 3)
        ref = eigh(h).values
        for scale in (1e-170, 1e-200, 1e-250):
            vals = eigh(scale * h).values
            assert np.abs(vals - scale * ref).max() <= 1e-13 * scale * np.abs(ref).max()

    @pytest.mark.parametrize("exponent", [-300, -295, -290, -200, 154, 200, 300])
    def test_extreme_scales_match_unscaled(self, exponent):
        rng = np.random.default_rng(4)
        for n in (2, 3, 5):
            h = random_hermitian(rng, n)
            ref = eigh(h).values
            scale = 10.0**exponent
            vals = eigh(scale * h).values
            assert np.abs(vals / scale - ref).max() <= 1e-14 * np.abs(ref).max()
            assert operator_norm(scale * h) / scale == pytest.approx(np.abs(ref).max(), rel=1e-14)

    def test_power_of_two_rescaling_is_exact(self):
        # max|h_ij| in [0.5, 1): outside the norm range eigh runs the very same
        # sweeps on h and scales the eigenvalues back exactly
        h = random_hermitian(np.random.default_rng(5), 4)
        h = h * 2.0 ** -math.frexp(np.abs(h).max())[1]
        ref = eigh(h)
        for shift in (-600, -300, 300, 600):
            es = eigh(h * 2.0**shift)
            assert np.array_equal(es.values, np.ldexp(ref.values, shift))
            assert np.array_equal(es.vectors, ref.vectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            eigh([[0, 1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            eigh(np.ones((2, 3)))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 5)
        a = eigh(h)
        b = eigh(h)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_exhausted_sweep_budget_raises(self, monkeypatch):
        from opcheck.errors import NoConvergence

        rng = np.random.default_rng(100)
        h = random_hermitian(rng, 4)
        monkeypatch.setattr(opcheck.linalg, "_MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence, match=r"^Jacobi sweep budget \(0\) exhausted$"):
            eigh(h)

    def test_matches_mpmath_reference(self):
        mpmath = pytest.importorskip("mpmath")
        ctx = mpmath.MPContext()
        ctx.dps = 50
        rng = np.random.default_rng(16)
        for n in range(1, 9):
            g = rng.standard_normal((n, max(1, n // 2))) + 1j * rng.standard_normal((n, max(1, n // 2)))
            rank_deficient = hermitian_part(g @ g.conj().T)
            for h in (random_hermitian(rng, n), random_psd(rng, n), rank_deficient):
                ref = np.sort([float(x) for x in ctx.eighe(ctx.matrix(h.tolist()), eigvals_only=True)])[::-1]
                assert np.abs(eigh(h).values - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_tiny_pivots_are_skipped_exactly(self):
        # every off-diagonal entry is at or below the 1e-300 pivot threshold
        h = np.diag([1.0, 3.0, -2.0, 2.0]).astype(complex)
        h[0, 1] = h[1, 0] = 1e-300
        h[1, 3], h[3, 1] = 5e-324j, -5e-324j
        h[0, 2] = h[2, 0] = -1e-300
        es = eigh(h)
        assert np.array_equal(es.values, [3.0, 2.0, 1.0, -2.0])
        assert np.array_equal(es.vectors, np.eye(4)[:, [1, 3, 0, 2]])
        # zero pivots are skipped mid-sweep: the decoupled index stays exact
        es = eigh([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 3.0]])
        assert es.values[0] == 3.0
        assert np.array_equal(es.vectors[:, 0], [0, 0, 1])
        assert np.array_equal(es.vectors[2, 1:], [0, 0])

    def test_memory_layout_does_not_change_bits(self):
        rng = np.random.default_rng(17)
        for n in range(2, 9):
            h = random_hermitian(rng, n)
            c = eigh(np.ascontiguousarray(h))
            f = eigh(np.asfortranarray(h))
            assert np.array_equal(c.values, f.values)
            assert np.array_equal(c.vectors, f.vectors)

    def test_one_triangle_matches_full_update_bitwise(self):
        rng = np.random.default_rng(18)
        for n in range(2, 9):
            for h in (random_hermitian(rng, n), random_psd(rng, n)):
                values, vectors = full_update_eigh(h)
                es = eigh(h)
                assert np.array_equal(es.values, values)
                assert np.array_equal(es.vectors, vectors)

    def test_call_path_matches_the_reference_bitwise(self):
        # the cases the numpy glue around the rotations decides: the 2^shift
        # path, the zero matrix, signed zeros, n = 0 and n = 1
        rng = np.random.default_rng(19)
        cases = [np.zeros((0, 0)), np.array([[-0.0]]), np.array([[2.5]]), np.zeros((3, 3)), -np.zeros((2, 2))]
        for n in range(2, 7):
            h = random_hermitian(rng, n)
            signed = h.copy()
            signed.real[0, :] = signed.real[:, 0] = -0.0
            signed[0, 0] = -0.0
            cases += [h, h * 2.0**-300, h * 2.0**300, h * 2.0**-210, h * 2.0**210, signed, np.diag([0.0, -0.0, 1.0, -0.0, 0.0, -1.0][:n])]
        for h in cases:
            values, vectors = full_update_eigh(h)
            es = eigh(h)
            assert es.values.tobytes() == values.tobytes() and es.values.dtype == values.dtype
            assert es.vectors.tobytes() == vectors.tobytes()
            assert es.vectors.strides == vectors.strides and es.vectors.shape == vectors.shape
            assert eigvalsh(h).tobytes() == values.tobytes()


def full_update_eigh(h):
    """Reference eigh: the numpy glue the kernel had before it moved to
    Python lists, around the same rotations applied to every row and column
    of A. For finite Hermitian input only."""
    a = hermitian_part(h)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    if n <= 1:
        return a.real.diagonal().copy(), v
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(a))
    shift = 0
    if not 2.0**-256 < scale < 2.0**256:
        amax = float(np.abs(a).max())
        if amax == 0.0:
            return np.zeros(n), v
        shift = -math.frexp(amax)[1]
        a = np.ldexp(a.real, shift) + 1j * np.ldexp(a.imag, shift)
        scale = float(np.linalg.norm(a))
    rows, v = a.tolist(), v.tolist()
    stop = 1e-14 * scale
    while math.sqrt(2.0) * math.hypot(*[abs(x) for p, row in enumerate(rows) for x in row[p + 1 :]]) > stop:
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(rows[p][q])
                if r <= 1e-300:
                    continue
                phase = rows[p][q] / r
                theta = 0.5 * math.atan2(2.0 * r, (rows[q][q] - rows[p][p]).real)
                c, s = math.cos(theta), math.sin(theta)
                sp, spc = s * phase, s * phase.conjugate()
                for row in rows + v:
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - spc * y, sp * x + c * y
                rp, rq = rows[p], rows[q]
                rows[p] = [c * x - sp * y for x, y in zip(rp, rq)]
                rows[q] = [spc * x + c * y for x, y in zip(rp, rq)]
                rows[p][q] = rows[q][p] = 0j
                rows[p][p], rows[q][q] = rows[p][p].real, rows[q][q].real
    values = np.ldexp([rows[i][i].real for i in range(n)], -shift)
    order = np.argsort(-values, kind="stable")
    return values[order], np.array(v, dtype=complex)[:, order]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=8))
def test_eigh_reconstruction_property(seed, n):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n, scale=float(rng.uniform(0.01, 100)))
    es = eigh(h)
    assert np.abs((es.vectors * es.values) @ es.vectors.conj().T - h).max() <= 1e-10 * (1 + np.abs(h).max())


def reference_sqrtm_psd(h, tol=None):
    """Reference square root: the generic functional calculus sqrtm_psd used
    before it became eigh(h).power(0.5) - np.sqrt on the eigenvalues, after
    the rank-cutoff domain test and an in-place clamp at zero."""
    es = eigh(h, tol)
    t = tol if tol is not None else Tolerance.for_dim(es.values.size)
    lam = es.values.copy()
    slack = t.rank_cutoff * max(1.0, float(np.abs(lam).max()) if lam.size else 0.0)
    if np.any(lam < 0.0 - slack):
        raise DomainError(f"eigenvalue {float(lam.min()):.3e} below function domain [0.0, inf)")
    np.clip(lam, 0.0, None, out=lam)
    vals = np.asarray(np.sqrt(lam), dtype=float)
    return hermitian_part((es.vectors * vals) @ es.vectors.conj().T)


class TestSqrtmPsd:
    def test_sqrt_on_diagonal(self):
        assert np.allclose(sqrtm_psd(np.diag([1.0, 16.0])), np.diag([1.0, 4.0]))

    def test_square_is_matrix_product(self):
        rng = np.random.default_rng(4)
        p = random_psd(rng, 5)
        assert np.abs(generalized_inverse(p, 2.0) - p @ p).max() < 1e-10 * (1 + np.abs(p @ p).max())

    def test_sqrt_square_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_psd(rng, int(rng.integers(2, 7)))
            rt = sqrtm_psd(p)
            assert np.abs(rt @ rt - p).max() < 1e-10 * (1 + np.abs(p).max())

    def test_commuting_product_homomorphism(self):
        rng = np.random.default_rng(6)
        h = random_psd(rng, 4)
        assert np.abs(sqrtm_psd(h) @ generalized_inverse(h, 1.5) - h @ h).max() < 1e-9

    def test_domain_violation_raises(self):
        with pytest.raises(DomainError, match=r"eigenvalue -5.000e-01 below function domain \[0.0, inf\)"):
            sqrtm_psd(np.diag([1.0, -0.5]))

    def test_domain_dust_is_clamped(self):
        out = sqrtm_psd(np.diag([1.0, -1e-15]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_matches_the_functional_calculus_bitwise(self):
        rng = np.random.default_rng(26)
        cases = [np.zeros((0, 0)), np.zeros((3, 3)), np.diag([1.0, -1e-15]), np.diag([4.0, 0.0, -0.0])]
        for n in range(1, 7):
            for _ in range(8):
                p = random_psd(rng, n)
                g = rng.standard_normal((n, max(n - 2, 1))) + 1j * rng.standard_normal((n, max(n - 2, 1)))
                low_rank = hermitian_part(g @ g.conj().T)
                cases += [p, low_rank, 1e-5 * p, 1e5 * p, 1e-5 * low_rank, 1e5 * low_rank]
        for h in cases:
            assert sqrtm_psd(h).tobytes() == reference_sqrtm_psd(h).tobytes()
        for h in cases[4:20]:
            tol = Tolerance(rank_cutoff=1e-6)
            assert sqrtm_psd(h, tol).tobytes() == reference_sqrtm_psd(h, tol).tobytes()


class TestGeneralizedInverse:
    def test_inverse_with_kernel(self):
        assert np.allclose(generalized_inverse(np.diag([4.0, 0.0]), -1), np.diag([0.25, 0.0]))

    def test_zeroth_power_is_support_projection(self):
        assert np.allclose(generalized_inverse(np.diag([4.0, 0.0]), 0), np.diag([1.0, 0.0]))

    def test_definite_inverse_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p = random_psd(rng, n) + 0.1 * np.eye(n)
            inv = generalized_inverse(p, -1)
            assert np.abs(p @ inv - np.eye(n)).max() < 1e-9

    def test_fractional_power_composition(self):
        rng = np.random.default_rng(8)
        p = random_psd(rng, 4) + 0.1 * np.eye(4)
        half = generalized_inverse(p, 0.5)
        assert np.abs(half @ half - p).max() < 1e-10

    def test_zero_matrix_maps_to_zero(self):
        assert np.allclose(generalized_inverse(np.zeros((2, 2)), -1), 0)
        assert np.allclose(generalized_inverse(np.zeros((2, 2)), 0), 0)


class TestLoewner:
    def test_trivial_orderings(self):
        assert loewner_leq(np.eye(2), 2 * np.eye(2)) == (True, pytest.approx(1.0))
        dec = loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
        assert not dec.holds and dec.slack == pytest.approx(-1.0)

    def test_reflexive(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, 4)
        dec = loewner_leq(h, h)
        assert dec.holds and abs(dec.slack) < 1e-12

    def test_transitive_on_psd_chains(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            a = random_hermitian(rng, n)
            b = a + random_psd(rng, n)
            c = b + random_psd(rng, n)
            assert loewner_leq(a, b).holds
            assert loewner_leq(b, c).holds
            assert loewner_leq(a, c).holds

    def test_antisymmetric_within_tolerance(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 3)
        k = h + 1e-13 * np.eye(3)
        assert loewner_leq(h, k).holds and loewner_leq(k, h).holds

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            loewner_leq(np.eye(2), np.eye(3))


class TestOperatorNorm:
    def test_unitary_has_norm_one(self):
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert operator_norm(q) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert operator_norm(np.diag([1.0, 4.0])) == pytest.approx(4.0)

    def test_svd_oracle(self):
        # gram spectrum of [[0, 4], [1, 0]] is diag(1, 16), largest root 4
        assert operator_norm([[0, 4], [1, 0]]) == pytest.approx(4.0, abs=1e-12)
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            want = float(np.linalg.svd(z, compute_uv=False)[0])
            assert operator_norm(z) == pytest.approx(want, rel=1e-10)

    def test_submultiplicative_and_unitarily_invariant(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10
            q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            assert operator_norm(q @ a @ q.conj().T) == pytest.approx(operator_norm(a), rel=1e-10)

    def test_non_square(self):
        assert operator_norm(np.array([[3.0, 0.0]])) == pytest.approx(3.0)


class TestSpectralRadius:
    def test_psd_product_sharpness_matrices(self):
        # moduli of the weighted shift: diag(1, k) times diag(1/k, 1) has top eigenvalue k
        assert spectral_radius_psd_product(np.diag([1.0, 4.0]), np.diag([0.25, 1.0])) == pytest.approx(4.0)

    def test_psd_product_identity(self):
        assert spectral_radius_psd_product(np.eye(3), np.eye(3)) == pytest.approx(1.0)

    def test_psd_product_commuting_diagonals(self):
        a = np.diag([2.0, 3.0, 5.0])
        b = np.diag([1.0, 4.0, 0.5])
        assert spectral_radius_psd_product(a, b) == pytest.approx(12.0)

    def test_general_radius_against_mpmath(self):
        rng = np.random.default_rng(15)
        for n in range(1, 7):
            for _ in range(5):
                z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                want = mp_spectral_radius(z)
                assert abs(spectral_radius(z) - want) <= 1e-12 * want

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0

    def test_triangular_and_nilpotent_against_mpmath(self):
        rng = np.random.default_rng(26)
        for n in range(1, 7):
            # the eigenvalues of a triangular matrix are its diagonal
            for t in (np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))),
                      np.tril(rng.standard_normal((n, n)))):
                want = mp_spectral_radius(t)
                assert abs(spectral_radius(t) - want) <= 1e-12 * want
        for zero_spectrum in (np.zeros((3, 3)), np.triu(np.ones((4, 4)), 1)):
            assert mp_spectral_radius(zero_spectrum) == 0.0
            assert spectral_radius(zero_spectrum) == 0.0
        # N^2 = 0 with no zero entry: a 2 x 2 Jordan block's eigenvalues move
        # by sqrt(eps ||N||) under rounding, so only that much is promised
        nilpotent = np.array([[1.0, 1.0], [-1.0, -1.0]])
        assert mp_spectral_radius(nilpotent) < 1e-20
        assert spectral_radius(nilpotent) <= 1e-7

    @pytest.mark.parametrize("n, delta", [(3, 1e-6), (4, 1e-8), (5, 1e-10)])
    def test_perturbed_jordan_block_against_mpmath(self, n, delta):
        # J_n(1/2) + delta e_n e_1^T has eigenvalues 1/2 + delta^(1/n) w over
        # the n-th roots of unity w; a relative perturbation eps moves them
        # by about eps / (n delta^(1 - 1/n)), and the test allows 100 times that
        j = 0.5 * np.eye(n) + np.eye(n, k=1)
        j[-1, 0] = delta
        want = mp_spectral_radius(j)
        assert want == pytest.approx(0.5 + delta ** (1 / n), rel=1e-14)
        bound = 100 * np.finfo(float).eps / (n * delta ** (1 - 1 / n))
        assert abs(spectral_radius(j) - want) <= bound * want

    def test_memory_layout_does_not_change_bits(self):
        rng = np.random.default_rng(27)
        for n in range(1, 7):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            want = spectral_radius(z).hex()
            wide = np.zeros((n, 2 * n), dtype=complex)
            wide[:, ::2] = z
            for m in (np.asfortranarray(z), wide[:, ::2], np.flipud(np.flipud(z).copy())):
                assert spectral_radius(m).hex() == want

    @pytest.mark.parametrize(
        "m, want",
        [
            (1e200 * np.eye(2), 1e200),
            (1e-200 * np.eye(2), 1e-200),
            (2.0**600 * np.triu(np.ones((3, 3))), 2.0**600),
            (2.0**-600 * np.triu(np.ones((3, 3))), 2.0**-600),
        ],
        ids=["1e200", "1e-200", "2^600-triangular", "2^-600-triangular"],
    )
    def test_far_from_one_keeps_the_radius(self, m, want):
        assert spectral_radius(m) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "m",
        [np.full((2, 2), 1e308), np.diag([1.5e308 + 1.5e308j, 1.0])],
        ids=["eigenvalue_overflows", "entry_modulus_overflows"],
    )
    def test_radius_above_the_largest_double_raises(self, m):
        with pytest.raises(ValueError, match="spectral radius overflows"):
            spectral_radius(m)


def mp_spectral_radius(m) -> float:
    """The largest eigenvalue modulus of ``m``, from 50-digit mpmath.eig."""
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.MPContext()
    ctx.dps = 50
    a = np.asarray(m, dtype=complex)
    # mpmath 1.3.0's eig returns a (values, left, right) tuple for 1 x 1
    # input whatever it is asked for, so the one eigenvalue is read directly
    values = ctx.eig(ctx.matrix(a.tolist()), left=False, right=False) if a.shape[0] > 1 else [ctx.mpc(a[0, 0])]
    return float(max(abs(v) for v in values))


NON_FINITE = [
    complex(math.nan, 0.0),
    complex(math.inf, 0.0),
    complex(-math.inf, 0.0),
    complex(0.0, math.nan),
    complex(0.0, math.inf),
    complex(0.0, -math.inf),
]
NON_FINITE_IDS = ["nan", "inf", "-inf", "nan-imag", "inf-imag", "-inf-imag"]


def with_entry(value, n=3):
    """A symmetric n x n matrix with ``value`` at (0, 1) and (1, 0) and 1 on the diagonal."""
    m = np.eye(n, dtype=complex)
    m[0, 1] = m[1, 0] = value
    return m


class TestNonFiniteRejected:
    """Each public matrix argument is validated once, in every route into the kernel."""

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_eigh(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            eigh(with_entry(value))

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_operator_norm(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            operator_norm(with_entry(value))
        with pytest.raises(ValueError, match="non-finite"):
            operator_norm(with_entry(value)[:, :2])

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_loewner_leq_either_side(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            loewner_leq(with_entry(value), np.eye(3))
        with pytest.raises(ValueError, match="non-finite"):
            loewner_leq(np.eye(3), with_entry(value))


class TestArithmeticHelpers:
    def test_hermitian_part_and_defect_validate_nothing(self):
        m = with_entry(complex(math.nan, 0.0))
        assert np.isnan(hermitian_part(m)[0, 1])
        assert math.isnan(hermitian_defect(np.array([[0.0, math.nan], [0.0, 0.0]])))

    def test_power_of_a_spectrum_is_generalized_inverse_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for n in range(1, 6):
            h = random_psd(rng, n)
            h[:, 0] = h[0, :] = 0.0  # a kernel, so p <= 0 meets the support rule
            es = eigh(h)
            for p in (-1.0, -0.5, 0.0, 0.5, 2.0):
                assert np.array_equal(es.power(p), generalized_inverse(h, p))

    def test_powers_share_the_clamped_spectrum_and_only_p_at_most_0_reads_the_support(self, monkeypatch):
        supports = []
        original = Tolerance.support
        monkeypatch.setattr(Tolerance, "support", lambda t, values: supports.append(1) or original(t, values))
        es = eigh(random_psd(np.random.default_rng(22), 3))
        es.power(0.5)
        es.power(2.0)
        assert supports == []
        clamped = es._clamped
        es.power(-0.5)
        es.power(0.0)
        assert len(supports) == 2 and es._clamped is clamped


def eigvalsh_cases():
    """Seeded Hermitian matrices for the values-only contract: random, graded,
    scaled by 2^-300 and 2^300, 1 x 1, zero, diagonal and degenerate."""
    rng = np.random.default_rng(23)
    cases = [np.zeros((1, 1)), np.array([[-2.5]]), np.zeros((4, 4)), np.eye(3)]
    for n in range(1, 8):
        h = random_hermitian(rng, n)
        d = np.logspace(0, -12, n)
        q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        degenerate = hermitian_part((q * np.repeat([2.0, -1.0], [n - n // 2, n // 2])) @ q.conj().T)
        cases += [
            h,
            random_psd(rng, n),
            hermitian_part(d[:, None] * random_psd(rng, n) * d[None, :]),
            h * 2.0**-300,
            h * 2.0**300,
            np.diag(rng.standard_normal(n)),
            degenerate,
        ]
    return cases


def count_calls(monkeypatch, vectors):
    """Counts calls of the Jacobi kernel ``opcheck.linalg._eig`` with its
    ``vectors`` flag as given, through every opcheck module that binds it.
    eigh and eigvalsh each make one such call, and internal code calls it
    directly."""
    calls = []
    original = opcheck.linalg._eig

    def counting(h, vectors=True, _wanted=vectors):
        if vectors == _wanted:
            calls.append(1)
        return original(h, vectors)

    for name, module in list(sys.modules.items()):
        if name.startswith("opcheck") and getattr(module, "_eig", None) is original:
            monkeypatch.setattr(module, "_eig", counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts eigenvector runs of the kernel: eigh's work."""
    return count_calls(monkeypatch, vectors=True)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Counts values-only runs of the kernel: eigvalsh's work."""
    return count_calls(monkeypatch, vectors=False)


class TestEigvalsh:
    def test_values_equal_eigh_bit_for_bit(self):
        for h in eigvalsh_cases():
            values = eigvalsh(h)
            assert values.dtype == np.float64
            assert values.tobytes() == eigh(h).values.tobytes()

    def test_same_errors_as_eigh(self, monkeypatch):
        h = random_hermitian(np.random.default_rng(100), 4)
        for fn in (eigh, eigvalsh):
            with pytest.raises(NonHermitian):
                fn([[0, 1], [0, 0]])
            with pytest.raises(DimensionMismatch):
                fn(np.ones((2, 3)))
            with monkeypatch.context() as patch:
                patch.setattr(opcheck.linalg, "_MAX_SWEEPS", 0)
                with pytest.raises(NoConvergence):
                    fn(h)
            for value in NON_FINITE:
                with pytest.raises(ValueError, match="non-finite"):
                    fn(with_entry(value))

    def test_values_only_callers_make_no_eigh_call(self, eigh_calls):
        rng = np.random.default_rng(24)
        a, b = random_psd(rng, 4), random_psd(rng, 4)
        loewner_leq(a, a + b)
        operator_norm(a - b)
        operator_norm(rng.standard_normal((3, 4)))
        weak_log_majorizes(a, b)
        _images_dominated(a + b, a, b, None)
        kraus = KrausSum(kraus=(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),))
        assert sample_positivity_falsifier(kraus, level=2, trials=4, seed=3) is None
        assert eigh_calls == []


def with_min_eigenvalue(rng, n, target):
    """A random Hermitian D whose smallest eigenvalue is ``target`` and the
    others are at least 0.1."""
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    d = np.concatenate([[target], 0.1 + rng.uniform(0.0, 1.0, n - 1)])
    return hermitian_part((q * d) @ q.conj().T)


# slack targets with a norm scale of 10 and the default abs = 1e-9: at or above
# -abs, between -abs * (1 + 10) and -abs, and below -abs * (1 + 10)
SLACK_BANDS = {"clears_abs": -1e-10, "within_scaled": -5e-9, "below_scaled": -1e-6}


class TestLazyLoewnerTolerance:
    """loewner_leq evaluates ||B|| only for a slack below -abs, and decides as
    the eager rule slack >= -abs * (1 + ||B||) does."""

    @staticmethod
    def pair(band, n=4, seed=40):
        rng = np.random.default_rng(seed)
        b = random_psd(rng, n)
        b *= 10.0 / np.linalg.norm(b, 2)
        return b - with_min_eigenvalue(rng, n, SLACK_BANDS[band]), b

    @pytest.mark.parametrize("band", SLACK_BANDS)
    def test_matches_the_eager_rule_in_every_band(self, band):
        a, b = self.pair(band)
        t = Tolerance.for_dim(4)
        dec = loewner_leq(a, b)
        assert dec.slack == pytest.approx(SLACK_BANDS[band], abs=1e-13)
        assert dec.holds == (dec.slack >= -t.abs * (1.0 + operator_norm(b)))
        assert dec.holds == (band != "below_scaled")

    @pytest.mark.parametrize("band", SLACK_BANDS)
    def test_norm_is_computed_only_below_abs(self, band, eigvalsh_calls):
        a, b = self.pair(band)
        loewner_leq(a, b)
        assert len(eigvalsh_calls) == (1 if band == "clears_abs" else 2)


class TestLazyDominationTolerance:
    """_images_dominated evaluates ||J|| only when a slack falls below -abs,
    and decides as the eager rule does."""

    @staticmethod
    def images(band_f, band_g, n=4, seed=41):
        rng = np.random.default_rng(seed)
        j = random_psd(rng, n)
        j *= 10.0 / np.linalg.norm(j, 2)
        return (j, j - with_min_eigenvalue(rng, n, SLACK_BANDS[band_f]),
                j - with_min_eigenvalue(rng, n, SLACK_BANDS[band_g]))

    @pytest.mark.parametrize("band_g", SLACK_BANDS)
    @pytest.mark.parametrize("band_f", SLACK_BANDS)
    def test_matches_the_eager_rule_in_every_band(self, band_f, band_g):
        j, f_mod, g_comod = self.images(band_f, band_g)
        threshold = -Tolerance.for_dim(4).abs * (1.0 + float(np.abs(eigvalsh(j)).max()))
        eager = eigvalsh(j - f_mod)[-1] >= threshold and eigvalsh(j - g_comod)[-1] >= threshold
        assert _images_dominated(j, f_mod, g_comod, None) == eager
        assert eager == (band_f != "below_scaled" and band_g != "below_scaled")

    @pytest.mark.parametrize(
        "band_f, band_g, calls",
        [
            # the eager rule makes 3 calls when both images hold; an image
            # the Cholesky screen clears makes none
            ("clears_abs", "clears_abs", 0),
            ("clears_abs", "within_scaled", 2),
            ("within_scaled", "clears_abs", 2),
            ("below_scaled", "clears_abs", 2),
        ],
    )
    def test_norm_is_computed_only_below_abs(self, band_f, band_g, calls, eigvalsh_calls):
        _images_dominated(*self.images(band_f, band_g), None)
        assert len(eigvalsh_calls) == calls

    def test_loewner_leq_decides_what_the_screen_leaves_open(self, monkeypatch):
        verdicts = []
        original = opcheck.checks._loewner_leq

        def spy(a, b, tol):
            dec = original(a, b, tol)
            verdicts.append((dec.slack, dec.holds))
            return dec

        monkeypatch.setattr(opcheck.checks, "_loewner_leq", spy)
        for band in ("within_scaled", "below_scaled"):
            j, f_mod, g_comod = self.images(band, "clears_abs")
            assert _images_dominated(j, f_mod, g_comod, None) == (band == "within_scaled")
        # one call for each f_mod; the screen clears each g_comod
        assert [holds for _, holds in verdicts] == [True, False]
        assert [slack for slack, _ in verdicts] == pytest.approx([-5e-9, -1e-6], abs=1e-13)

    # slack / (abs (1 + ||J||)) around the screen's margin, which is
    # 0.5 (1 + max|J_ij|) / (1 + ||J||) of it, and around the rule's -1
    NEAR_THRESHOLD = (-0.1, -0.2, -0.3, -0.4, -0.45, -0.5, -0.6, -0.75, -0.9, -0.99, -1.01, -1.1)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_eigvalsh_rule_near_both_thresholds(self, seed):
        rng = np.random.default_rng(seed)
        for scale in (1e-3, 1.0, 1e3):
            j = random_psd(rng, 4)
            j *= scale / np.linalg.norm(j, 2)
            unit = Tolerance.for_dim(4).abs * (1.0 + scale)
            images = [j - with_min_eigenvalue(rng, 4, r * unit) for r in self.NEAR_THRESHOLD]
            for f_mod, g_comod in zip(images, images[::-1] + images[:1]):
                assert _images_dominated(j, f_mod, g_comod, None) == lazy_images_dominated(j, f_mod, g_comod)


def lazy_images_dominated(jm, f_mod, g_comod):
    """``_images_dominated`` as it was before the Cholesky screen, at the
    default tolerance: an eigvalsh of J - image for each image, and of J for
    a slack below -abs."""
    abs_tol = Tolerance.for_dim(jm.shape[0]).abs
    threshold = None
    for image in (f_mod, g_comod):
        slack = float(eigvalsh(jm - image)[-1])
        if slack >= -abs_tol:
            continue
        if threshold is None:
            threshold = -abs_tol * (1.0 + float(np.abs(eigvalsh(jm)).max()))
        if not slack >= threshold:
            return False
    return True


def mp_lambda_min(h) -> float:
    """The smallest eigenvalue of the Hermitian ``h``, from 50-digit mpmath.eighe."""
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.MPContext()
    ctx.dps = 50
    if h.shape[0] == 1:
        return float(h[0, 0].real)
    return float(min(ctx.eighe(ctx.matrix(h.tolist()), eigvals_only=True)))


def with_jacobi_lambda_min(rng, n, target, scale):
    """A Hermitian matrix with eigenvalues spread over [0, scale], shifted
    so that eigvalsh's smallest eigenvalue is ``target`` up to the rounding
    of the shift."""
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    h = hermitian_part((q * (scale * rng.uniform(0.0, 1.0, n))) @ q.conj().T)
    return h + (target - eigvalsh(h)[-1]) * np.eye(n)


class TestCholeskyScreen:
    """_clears(h, margin) is True only when lambda_min(h) >= -margin holds to
    within margin / 2, for both eigvalsh's value and the exact one."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 6),
        k=st.sampled_from([0.25, 0.5, 0.9, 1.01, 1.5, 2.0, 3.0]),
        exponent=st.integers(-6, 6),
        relative_margin=st.sampled_from([1e-9, 1e-7, 1e-4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_pass_bounds_lambda_min(self, n, k, exponent, relative_margin, seed):
        scale = 10.0**exponent
        margin = relative_margin * scale
        h = with_jacobi_lambda_min(np.random.default_rng(seed), n, -k * margin, scale)
        cleared = _clears(h, margin)
        if cleared:
            assert eigvalsh(h)[-1] >= -1.5 * margin
            assert mp_lambda_min(h) >= -1.5 * margin
        if k < 1.0:
            # lambda_min(h + margin I) >= 0.1 margin, far above the rounding
            assert cleared

    @pytest.mark.parametrize("exponent", range(-6, 7, 2))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_clears_psd_inputs(self, n, exponent):
        rng = np.random.default_rng([n, exponent + 6])
        scale = 10.0**exponent
        v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(scale)
        wishart = hermitian_part(random_psd(rng, n, scale))
        for h in (wishart, hermitian_part(np.outer(v, v.conj())), np.zeros((n, n), complex)):
            # the smallest relative margin a caller passes
            assert _clears(h, 0.5e-9 * (float(np.abs(h).max()) or scale))

    def test_small_inputs(self):
        assert _clears(np.zeros((0, 0), complex), 1e-7)
        assert _clears(np.array([[-0.5]], complex), 1.0)
        assert not _clears(np.array([[-1.0]], complex), 1.0)
        assert not _clears(np.array([[2.0]], complex), 0.0)
        assert not _clears(np.array([[2.0]], complex), math.nan)

    @pytest.mark.parametrize(
        "h",
        [
            np.array([[1.0, 1.0], [0.0, 1.0]], complex),
            np.array([[1.0, 0.5j], [0.5j, 1.0]]),
            np.array([[complex(1.0, 1e-300)]]),
            with_entry(complex(math.nan, 0.0)),
            with_entry(complex(0.0, math.nan)),
            np.array([[math.nan]], complex),
            np.array([[math.inf]], complex),
            with_entry(complex(math.inf, 0.0)),
            with_entry(complex(0.0, -math.inf)),
        ],
        ids=["triangular", "symmetric_not_hermitian", "complex_diagonal", "nan", "nan-imag", "nan-diagonal",
             "inf-diagonal", "inf", "-inf-imag"],
    )
    def test_non_hermitian_and_non_finite_input_gives_false(self, h):
        assert not _clears(h, 1.0)

    @pytest.mark.parametrize("magnitude", [1e-300, 1e300, 8.9e307, 1.5e308], ids=["1e-300", "1e300", "8.9e307", "1.5e308"])
    def test_extreme_entries_are_decided_quietly(self, magnitude):
        # warnings are errors here: the screen must neither warn nor raise
        rng = np.random.default_rng(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in (magnitude * np.eye(3, dtype=complex), with_entry(magnitude), with_entry(magnitude * 1j),
                      np.full((3, 3), magnitude, dtype=complex), random_hermitian(rng, 3, magnitude / 4)):
                for margin in (1e-7 * magnitude, 1.0, 1e-7):
                    cleared = _clears(h, margin)
                    assert isinstance(cleared, bool)
                    if cleared:
                        assert mp_lambda_min(h) >= -1.5 * margin

    @pytest.mark.parametrize("entry", [1e150, 1e199], ids=["square_near_max", "square_overflows"])
    def test_a_large_off_diagonal_entry_fails_without_overflow_error(self, entry):
        assert not _clears(with_entry(entry), 1.0)


OVERFLOWING = np.array([[1.5e308, 7.5e307], [7.5e307, 1.5e308]])

# each input with the error that require_hermitian, eigh and eigvalsh raise
# for it; finiteness is decided before squareness
VALIDATION_ERRORS = {
    "nan": (with_entry(complex(math.nan, 0.0)), ValueError, "matrix contains non-finite entries"),
    "inf": (with_entry(complex(math.inf, 0.0)), ValueError, "matrix contains non-finite entries"),
    # |a_ij| overflows, so the defect is tested on A / 4: it is not Hermitian
    "abs_overflows": (with_entry(1.5e308 + 1.5e308j), NonHermitian, "Hermitian defect inf exceeds tolerance"),
    "hermitian_part_overflows": (
        OVERFLOWING,
        ValueError,
        "Hermitian part overflows: entries exceed half the largest double",
    ),
    "non_square_nan": (np.array([[1.0, math.nan, 0.0], [0.0, 1.0, 0.0]]), ValueError,
                       "matrix contains non-finite entries"),
    "non_square": (np.ones((2, 3)), DimensionMismatch, "expected a square matrix, got shape (2, 3)"),
    "vector": (np.ones(3), DimensionMismatch, "expected a 2-d array, got ndim=1"),
    "non_hermitian": ([[0, 1], [0, 0]], NonHermitian, "Hermitian defect 1.000e+00 exceeds tolerance"),
}


@pytest.mark.parametrize("fn", [eigh, eigvalsh, opcheck.linalg.require_hermitian],
                         ids=["eigh", "eigvalsh", "require_hermitian"])
@pytest.mark.parametrize("case", VALIDATION_ERRORS)
def test_validation_errors_and_messages(fn, case):
    m, error, message = VALIDATION_ERRORS[case]
    with pytest.raises(error) as info:
        fn(m)
    assert type(info.value) is error and str(info.value) == message


class TestOverflowingHermitianPart:
    """Finite input whose Hermitian part H + H* overflows raises ValueError at
    once, not NoConvergence after the whole sweep budget."""

    @pytest.mark.parametrize("fn", [eigh, eigvalsh, sqrtm_psd], ids=["eigh", "eigvalsh", "sqrtm_psd"])
    def test_raises_value_error(self, fn):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflows"):
            fn(OVERFLOWING)

    def test_half_the_largest_double_still_works(self):
        assert eigvalsh(OVERFLOWING / 2) == pytest.approx([1.125e308, 0.375e308], rel=1e-14)

    @pytest.mark.parametrize(
        "fn",
        [
            eigh,
            lambda h: loewner_leq(h, np.eye(2)),
            lambda h: geometric_mean(np.eye(2), h),
            lambda h: weak_log_majorizes(h, np.eye(2)),
            lambda h: opcheck.linalg.require_hermitian(h),
        ],
        ids=["eigh", "loewner_leq", "geometric_mean", "weak_log_majorizes", "require_hermitian"],
    )
    @pytest.mark.parametrize(
        "h",
        [OVERFLOWING, [[0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0]], np.diag([1e308, 1.0])],
        ids=["real", "complex", "diagonal"],
    )
    def test_every_require_hermitian_caller_raises_without_a_warning(self, fn, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Hermitian part overflows"):
                fn(h)

    def test_non_hermitian_input_above_the_bound_is_non_hermitian(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHermitian):
                eigvalsh([[0, 1.5e308], [-1.5e308, 0]])

    @pytest.mark.parametrize("defect, hermitian", [(1e297, True), (1e300, False)], ids=["within", "beyond"])
    def test_defect_above_the_bound_is_measured_against_the_largest_entry(self, defect, hermitian):
        # |a_01| = 1.13e308 lies above half the largest double, but H + H*
        # does not overflow; the defect bound is 1e-9 * (1 + 1.13e308)
        m = np.array([[1.0, 8e307 + 8e307j], [8e307 - 8e307j + defect, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if hermitian:
                assert np.isfinite(opcheck.linalg.require_hermitian(m)).all()
            else:
                with pytest.raises(NonHermitian, match="Hermitian defect 1.000e\\+300 exceeds tolerance"):
                    opcheck.linalg.require_hermitian(m)


class TestEmptyMatrix:
    """0 x 0 input gives empty results, not numpy's zero-size reduction error."""

    EMPTY = np.zeros((0, 0))

    def test_spectra_are_empty(self):
        es = eigh(self.EMPTY)
        assert es.values.shape == (0,) and es.vectors.shape == (0, 0)
        assert eigvalsh(self.EMPTY).shape == (0,)

    def test_functions_of_an_empty_matrix_are_empty(self):
        assert sqrtm_psd(self.EMPTY).shape == (0, 0)
        for p in (-1.0, 0.0, 0.5):
            assert generalized_inverse(self.EMPTY, p).shape == (0, 0)

    def test_scalars_and_decisions(self):
        assert loewner_leq(self.EMPTY, self.EMPTY) == (True, 0.0)
        assert operator_norm(self.EMPTY) == 0.0
        assert spectral_radius_psd_product(self.EMPTY, self.EMPTY) == 0.0
        assert spectral_radius(self.EMPTY) == 0.0
        assert Tolerance().support(np.zeros(0)).shape == (0,)
