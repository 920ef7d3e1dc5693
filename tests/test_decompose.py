"""Decomposition tests: moduli, polar factors, Cartesian parts, projections."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opcheck.checks import check_cartesian_suite
from opcheck.decompose import (
    cartesian,
    comodulus,
    modulus,
    polar,
    svd_square,
)
from opcheck.means import weak_log_majorizes
from opcheck.posmap import IdentityMap

SHIFT = np.array([[0.0, 4.0], [1.0, 0.0]], dtype=complex)


def random_square(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def haar(rng, n):
    q, r = np.linalg.qr(random_square(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestModuli:
    def test_weighted_shift(self):
        # gram of the shift is diag(1, 16); entrywise square root gives diag(1, 4)
        assert np.allclose(modulus(SHIFT), np.diag([1.0, 4.0]), atol=1e-12)
        assert np.allclose(comodulus(SHIFT), np.diag([4.0, 1.0]), atol=1e-12)

    def test_unitary_has_identity_modulus(self):
        u = haar(np.random.default_rng(0), 4)
        assert np.abs(modulus(u) - np.eye(4)).max() < 1e-10

    def test_psd_fixed_point(self):
        rng = np.random.default_rng(1)
        g = random_square(rng, 3)
        h = g @ g.conj().T
        assert np.abs(modulus(h) - h).max() < 1e-9 * (1 + np.abs(h).max())

    def test_moduli_agree_for_normal(self):
        rng = np.random.default_rng(2)
        q = haar(rng, 4)
        n = (q * (rng.standard_normal(4) + 1j * rng.standard_normal(4))) @ q.conj().T
        assert np.abs(modulus(n) - comodulus(n)).max() < 1e-9

    def test_small_cross_shift(self):
        z = np.array([[0.0, 1.0], [4.0, 0.0]])
        assert np.allclose(comodulus(z), np.diag([1.0, 4.0]), atol=1e-12)


class TestPolar:
    def test_weighted_shift_factors(self):
        parts = polar(SHIFT)
        assert np.allclose(parts.unitary, [[0, 1], [1, 0]], atol=1e-12)
        assert np.allclose(parts.modulus, np.diag([1.0, 4.0]), atol=1e-12)
        assert np.abs(parts.unitary @ parts.modulus - SHIFT).max() < 1e-12

    def test_positive_definite_input(self):
        rng = np.random.default_rng(3)
        g = random_square(rng, 4)
        h = g @ g.conj().T + 0.5 * np.eye(4)
        parts = polar(h)
        assert np.abs(parts.unitary - np.eye(4)).max() < 1e-9
        assert np.abs(parts.modulus - h).max() < 1e-9

    def test_zero_matrix_completion_convention(self):
        parts = polar(np.zeros((3, 3)))
        assert np.array_equal(parts.unitary, np.eye(3))
        assert np.allclose(parts.modulus, 0)

    def test_consistency_including_rank_deficient(self):
        rng = np.random.default_rng(4)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            z = random_square(rng, n)
            if trial % 3 == 0 and n > 1:
                z[:, : n // 2] = 0
            parts = polar(z)
            scale = 1 + np.abs(z).max()
            u, m = parts.unitary, parts.modulus
            assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-9
            assert np.abs(u @ m - z).max() < 1e-9 * scale
            assert np.abs(comodulus(z) @ u - z).max() < 1e-9 * scale
            assert np.linalg.eigvalsh(m).min() > -1e-10 * scale

    def test_svd_reconstruction(self):
        rng = np.random.default_rng(5)
        z = random_square(rng, 5)
        parts = svd_square(z)
        re = (parts.left * parts.values) @ parts.right.conj().T
        assert np.abs(re - z).max() < 1e-10 * (1 + np.abs(z).max())
        assert np.all(np.diff(parts.values) <= 1e-12)


# rank one, so its unitary polar factor completes two columns (tools/ab.py's POLAR_Z)
POLAR_Z = np.array([[1, 2, 0], [1j, 2j, 0], [0, 0, 0]])


def graded(rng, n, values):
    """U diag(values) V* for Haar U and V."""
    return (haar(rng, n) * values) @ haar(rng, n).conj().T


class TestCompletion:
    """A rank-deficient Z's left factor is completed from the coordinate
    basis, with no factorization beyond the one of Z*Z."""

    @pytest.mark.parametrize(
        "z",
        [POLAR_Z, graded(np.random.default_rng(9), 4, [1.0, 0.1, 1e-8, 1e-9])],
        ids=["polar_z", "graded_below_the_cutoff"],
    )
    def test_a_rank_deficient_svd_runs_the_jacobi_loop_once(self, z, sweep_runs):
        parts = svd_square(z)
        assert parts.rank == (1 if z is POLAR_Z else 2)
        assert len(sweep_runs) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
        st.sampled_from(["zeroed_columns", "sigma_below_the_cutoff"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_the_completed_factor_is_unitary_and_reproduces_z(self, shape, build, seed):
        n, r = shape
        rng = np.random.default_rng(seed)
        if build == "zeroed_columns":
            z = random_square(rng, n)
            z[:, r:] = 0.0
        else:
            kept = rng.uniform(0.1, 1.0, r)
            # at most 1e-9 times the largest, far below the rank cutoff's
            # sqrt(1e-12 n); all zero when r = 0
            cut = rng.uniform(0.0, 1e-9, n - r) * (kept.max() if r else 0.0)
            z = graded(rng, n, np.concatenate([kept, cut]))
        parts = svd_square(z)
        u = parts.unitary
        assert parts.rank == r
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12
        largest_cut = np.linalg.svd(z, compute_uv=False)[r:].max(initial=0.0)
        error = np.linalg.norm((parts.left * parts.values) @ parts.right.conj().T - z, 2)
        assert error <= 4.0 * largest_cut + 1e-12 * np.linalg.norm(z, 2)
        if r == 0:  # the zero matrix
            assert np.array_equal(u, np.eye(n))


class TestCartesian:
    def test_hermitian_input(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]])
        parts = cartesian(h)
        assert np.allclose(parts.re_part, h)
        assert np.allclose(parts.im_part, 0)

    def test_skew_direction(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]])
        parts = cartesian(1j * h)
        assert np.allclose(parts.re_part, 0, atol=1e-15)
        assert np.allclose(parts.im_part, h)

    def test_weighted_shift_parts(self):
        parts = cartesian(SHIFT)
        assert np.allclose(parts.re_part, [[0, 2.5], [2.5, 0]])
        assert np.allclose(parts.im_part, [[0, -1.5j], [1.5j, 0]])
        assert np.abs(parts.re_part + 1j * parts.im_part - SHIFT).max() < 1e-15

    def test_triangle_substitute_in_weak_log_majorization(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            z = random_square(rng, n)
            parts = cartesian(z)
            bound = modulus(parts.re_part) + modulus(parts.im_part)
            assert weak_log_majorizes(modulus(z), bound).passed


def range_projection(z):
    """The projection onto the column space of Z: the indicator of sigma > 0
    in the left singular basis, as the range pair's g(|Z*|) forms it."""
    parts = svd_square(z)
    return parts.comodulus((parts.values > 0).astype(float))


def support_projection(z):
    """The projection onto the range of Z*: the same indicator in the right basis."""
    parts = svd_square(z)
    return parts.modulus((parts.values > 0).astype(float))


class TestProjections:
    def test_diagonal_with_kernel(self):
        assert np.allclose(range_projection(np.diag([3.0, 0.0])), np.diag([1.0, 0.0]))
        assert np.allclose(support_projection(np.diag([3.0, 0.0])), np.diag([1.0, 0.0]))

    def test_invertible_gives_identity(self):
        rng = np.random.default_rng(9)
        z = random_square(rng, 4) + 3 * np.eye(4)
        assert np.abs(range_projection(z) - np.eye(4)).max() < 1e-9

    def test_rank_one_cross_unit(self):
        e12 = np.zeros((2, 2))
        e12[0, 1] = 1.0
        assert np.allclose(range_projection(e12), np.diag([1.0, 0.0]))
        assert np.allclose(support_projection(e12), np.diag([0.0, 1.0]))

    def test_idempotent_hermitian(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            n = int(rng.integers(2, 7))
            z = random_square(rng, n)
            if trial % 2 == 0:
                z[:, 0] = 0
            p = range_projection(z)
            assert np.abs(p @ p - p).max() < 1e-9
            assert np.abs(p - p.conj().T).max() < 1e-12

    def test_normal_matrices_share_projections(self):
        rng = np.random.default_rng(11)
        q = haar(rng, 4)
        eigs = np.array([1.5, -0.5 + 1j, 0.0, 2j])
        n = (q * eigs) @ q.conj().T
        assert np.abs(range_projection(n) - support_projection(n)).max() < 1e-9


def test_cartesian_rejects_an_overflowing_part():
    big = 1.5e308
    with np.errstate(over="ignore", invalid="ignore"):
        for z in ([[0, big], [-big, 0]], [[0, big], [big, 0]]):
            with pytest.raises(ValueError, match="non-finite"):
                cartesian(z)
    # entries up to half the largest double cannot overflow either part
    half = np.finfo(float).max / 2
    parts = cartesian([[half, half], [-half, half * 1j]])
    assert np.isfinite(parts.re_part).all() and np.isfinite(parts.im_part).all()


def test_an_overflowing_part_raises_without_a_warning():
    # the parts are formed quietly, as a map's image is: only the error tells
    z = [[1e308, 1e308], [-1e308, 1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (cartesian, lambda x: check_cartesian_suite(IdentityMap(2), x)):
            with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
                fn(z)


def test_empty_matrix_gives_empty_factors():
    empty = np.zeros((0, 0))
    parts = svd_square(empty)
    assert parts.values.shape == (0,) and parts.rank == 0
    assert parts.left.shape == parts.right.shape == (0, 0)
    pol = polar(empty)
    assert pol.unitary.shape == pol.modulus.shape == (0, 0)
