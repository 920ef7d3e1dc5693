"""Kernel tests: Jacobi eigensolver, functional calculus, order predicates.

Random-matrix assertions are checked against numpy.linalg as an independent
oracle; the production path never calls it.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opcheck.linalg
from opcheck.checks import _images_dominated
from opcheck.decompose import svd_square
from opcheck.errors import DimensionMismatch, DomainError, NoConvergence, NonHermitian
from opcheck.linalg import (
    Tolerance,
    _with_memo,
    eigh,
    eigvalsh,
    generalized_inverse,
    hermitian_defect,
    hermitian_part,
    loewner_leq,
    matrix_function,
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
            assert np.abs(es.reconstruct() - h).max() <= 1e-10 * scale
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

    def test_exhausted_sweep_budget_raises(self):
        from opcheck.errors import NoConvergence

        rng = np.random.default_rng(100)
        h = random_hermitian(rng, 4)
        with pytest.raises(NoConvergence):
            eigh(h, max_sweeps=0)

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
        # reference: the same rotations applied to every row and column of A
        def full_update_eigh(h):
            a = hermitian_part(h)
            n = a.shape[0]
            rows, v = a.tolist(), np.eye(n, dtype=complex).tolist()
            stop = 1e-14 * float(np.linalg.norm(a))
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
            values = np.array([rows[i][i].real for i in range(n)])
            order = np.argsort(-values, kind="stable")
            return values[order], np.array(v)[:, order]

        rng = np.random.default_rng(18)
        for n in range(2, 9):
            for h in (random_hermitian(rng, n), random_psd(rng, n)):
                values, vectors = full_update_eigh(h)
                es = eigh(h)
                assert np.array_equal(es.values, values)
                assert np.array_equal(es.vectors, vectors)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=8))
def test_eigh_reconstruction_property(seed, n):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n, scale=float(rng.uniform(0.01, 100)))
    es = eigh(h)
    assert np.abs(es.reconstruct() - h).max() <= 1e-10 * (1 + np.abs(h).max())


class TestMatrixFunction:
    def test_sqrt_on_diagonal(self):
        out = matrix_function(np.diag([1.0, 16.0]), np.sqrt, domain_min=0.0)
        assert np.allclose(out, np.diag([1.0, 4.0]))

    def test_square_is_matrix_product(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 5)
        assert np.abs(matrix_function(h, lambda t: t**2) - h @ h).max() < 1e-10

    def test_sqrt_square_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_psd(rng, int(rng.integers(2, 7)))
            rt = matrix_function(sqrtm_psd(p), lambda t: t**2)
            assert np.abs(rt - p).max() < 1e-10 * (1 + np.abs(p).max())

    def test_commuting_product_homomorphism(self):
        rng = np.random.default_rng(6)
        h = random_psd(rng, 4)
        f = matrix_function(h, np.sqrt, domain_min=0.0)
        g = matrix_function(h, lambda t: t**1.5, domain_min=0.0)
        fg = matrix_function(h, lambda t: t**2)
        assert np.abs(f @ g - fg).max() < 1e-9

    def test_domain_violation_raises(self):
        with pytest.raises(DomainError):
            matrix_function(np.diag([1.0, -0.5]), np.sqrt, domain_min=0.0)

    def test_domain_dust_is_clamped(self):
        out = matrix_function(np.diag([1.0, -1e-15]), np.sqrt, domain_min=0.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


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

    def test_general_radius_against_numpy(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            want = float(np.abs(np.linalg.eigvals(z)).max())
            assert spectral_radius(z) == pytest.approx(want, rel=1e-7, abs=1e-9)

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0


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


def count_calls(monkeypatch, fname):
    """Counts calls of ``opcheck.linalg.<fname>`` through every opcheck module that binds it."""
    calls = []
    original = getattr(opcheck.linalg, fname)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("opcheck") and getattr(module, fname, None) is original:
            monkeypatch.setattr(module, fname, counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts calls of eigh through every opcheck module that binds it."""
    return count_calls(monkeypatch, "eigh")


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Counts calls of eigvalsh through every opcheck module that binds it."""
    return count_calls(monkeypatch, "eigvalsh")


class TestEigvalsh:
    def test_values_equal_eigh_bit_for_bit(self):
        for h in eigvalsh_cases():
            values = eigvalsh(h)
            assert values.dtype == np.float64
            assert values.tobytes() == eigh(h).values.tobytes()

    def test_same_errors_as_eigh(self):
        h = random_hermitian(np.random.default_rng(100), 4)
        for fn in (eigh, eigvalsh):
            with pytest.raises(NonHermitian):
                fn([[0, 1], [0, 0]])
            with pytest.raises(DimensionMismatch):
                fn(np.ones((2, 3)))
            with pytest.raises(NoConvergence):
                fn(h, max_sweeps=0)
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
            # the eager rule makes 3 calls when both images hold
            ("clears_abs", "clears_abs", 2),
            ("clears_abs", "within_scaled", 3),
            ("within_scaled", "clears_abs", 3),
            ("below_scaled", "clears_abs", 2),
        ],
    )
    def test_norm_is_computed_only_below_abs(self, band_f, band_g, calls, eigvalsh_calls):
        _images_dominated(*self.images(band_f, band_g), None)
        assert len(eigvalsh_calls) == calls


OVERFLOWING = np.array([[1.5e308, 7.5e307], [7.5e307, 1.5e308]])


class TestOverflowingHermitianPart:
    """Finite input whose Hermitian part H + H* overflows raises ValueError at
    once, not NoConvergence after the whole sweep budget."""

    @pytest.mark.parametrize("fn", [eigh, eigvalsh, lambda h: matrix_function(h, np.sqrt)],
                             ids=["eigh", "eigvalsh", "matrix_function"])
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
        assert Tolerance().support(np.zeros(0)).shape == (0,)


class TestTrialMemo:
    """Inside a campaign trial (``_with_memo``) each matrix is factored once;
    outside one nothing is kept."""

    H = random_hermitian(np.random.default_rng(300), 4)
    Z = np.random.default_rng(301).standard_normal((4, 4)) + 0j

    def test_outside_a_trial_every_call_sweeps(self, sweep_runs):
        first, second = eigh(self.H), eigh(self.H)
        assert len(sweep_runs) == 2 and first.values is not second.values
        svd_square(self.Z)
        svd_square(self.Z)
        assert len(sweep_runs) == 4
        first.values[0] = 0.0  # arrays stay writable outside a trial

    def test_a_repeat_in_a_trial_sweeps_once(self, sweep_runs):
        def twice():
            return eigh(self.H), eigh(self.H.copy()), svd_square(self.Z), svd_square(self.Z)

        es1, es2, svd1, svd2 = _with_memo({}, twice)
        assert es1.values is es2.values and es1.vectors is es2.vectors and svd1 is svd2
        assert len(sweep_runs) == 2  # H once, Z*Z once
        assert es1.values.tobytes() == eigh(self.H).values.tobytes()
        assert es1.vectors.tobytes() == eigh(self.H).vectors.tobytes()

    def test_values_only_requests_reuse_an_eigh_entry(self, sweep_runs):
        memo: dict = {}
        values = _with_memo(memo, lambda: (eigh(self.H), eigvalsh(self.H))[1])
        assert len(sweep_runs) == 1 and values.tobytes() == eigvalsh(self.H).tobytes()
        # an eigvalsh entry has no vectors, so eigh must sweep
        _with_memo({}, lambda: (eigvalsh(self.H), eigh(self.H)))
        assert len(sweep_runs) == 4

    def test_the_key_is_the_full_input(self, sweep_runs):
        bumped = self.H.copy()
        bumped[0, 0] = np.nextafter(bumped[0, 0].real, np.inf)

        def variants():
            eigvalsh(self.H)
            eigvalsh(bumped)
            eigvalsh(self.H, Tolerance(abs=1e-8))
            eigvalsh(self.H, max_sweeps=50)
            eigvalsh(self.H[:2, :2])

        _with_memo({}, variants)
        assert len(sweep_runs) == 5

    def test_cached_arrays_are_read_only(self):
        def factor():
            return eigh(self.H), svd_square(self.Z)

        es, parts = _with_memo({}, factor)
        for array in (es.values, es.vectors, parts.left, parts.values, parts.right):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_errors_are_not_cached(self, sweep_runs):
        memo: dict = {}

        def fails_twice():
            for _ in range(2):
                with pytest.raises(NonHermitian):
                    eigh([[0, 1], [0, 0]])
                with pytest.raises(NoConvergence):
                    eigh(self.H, max_sweeps=0)

        _with_memo(memo, fails_twice)
        assert memo == {} and len(sweep_runs) == 2
