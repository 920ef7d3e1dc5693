"""Accuracy of the moduli on ill-conditioned input.

|X| of a Hermitian X comes from one eigendecomposition, against a 50-digit
mpmath reference computed from the very float matrix handed in; the Cartesian
suite passes on graded Z; and the spectrum an SVD gives for |W| is the one an
eigendecomposition of the modulus it forms would give.
"""

import mpmath
import numpy as np
import pytest

from opcheck.campaign import _CAMPAIGN_TOLERANCES
from opcheck.checks import _hermitian_modulus, check_cartesian_suite
from opcheck.decompose import _svd
from opcheck.linalg import hermitian_part
from opcheck.means import _clamped_spectrum
from opcheck.posmap import IdentityMap

DIGITS = 50


def haar(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def graded_hermitian(n, d, rng):
    """U diag(lam) U*, |lam| = logspace(0, -d, n) with random signs, made exactly Hermitian."""
    lam = np.logspace(0, -d, n) * rng.choice([-1.0, 1.0], n)
    u = haar(n, rng)
    return hermitian_part((u * lam) @ u.conj().T)


def to_mp(x):
    return mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in x])


def mp_eigenvalues(x):
    """The exact eigenvalues of the float Hermitian x, to DIGITS digits."""
    return [mpmath.re(v) for v in mpmath.eighe(to_mp(x), eigvals_only=True)]


def mp_modulus(x):
    """|x| = Q |E| Q* of the float Hermitian x, to DIGITS digits."""
    e, q = mpmath.eighe(to_mp(x))
    return q * mpmath.diag([abs(v) for v in e]) * q.transpose_conj()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hermitian_modulus_against_mpmath(n):
    rng = np.random.default_rng(170 + n)
    with mpmath.workdps(DIGITS):
        for d in range(11):
            x = graded_hermitian(n, d, rng)
            got = _hermitian_modulus(x)
            ref = mp_modulus(x)
            err = mpmath.mnorm(to_mp(got) - ref, "f") / mpmath.mnorm(ref, "f")
            assert err <= 1e-13, (d, float(err))
            # the smallest eigenvalue of the float |X| returned, exactly, against
            # the smallest |lambda| of the float X handed in
            lmin_ref = min(abs(v) for v in mp_eigenvalues(x))
            lmin_got = min(mp_eigenvalues(got))
            assert abs(lmin_got - lmin_ref) <= 1e-5 * lmin_ref, (d, float(lmin_got), float(lmin_ref))


@pytest.mark.parametrize("d", [3, 6, 9, 12])
def test_cartesian_suite_passes_on_graded_z(d):
    # the Gram route |X| = (X*X)^1/2 failed 3 of these at d = 9 and 15 at d = 12
    for n in (2, 3, 4, 5, 6):
        for seed in range(6):
            rng = np.random.default_rng([seed, n, d])
            z = (haar(n, rng) * np.logspace(0, -d, n)) @ haar(n, rng).conj().T
            assert check_cartesian_suite(IdentityMap(n), z, _CAMPAIGN_TOLERANCES).passed, (n, seed)


@pytest.mark.parametrize("tol", [None, _CAMPAIGN_TOLERANCES], ids=["default", "campaign"])
def test_svd_values_are_the_clamped_spectrum_of_the_modulus(tol):
    """On rank-deficient W the SVD zeroes sigma below sqrt(rank_cutoff) sigma_max;
    the eigenvalues of the |W| it forms agree to 1e-15 sigma_max, with the
    same zeros."""
    rng = np.random.default_rng(17)
    cases = []
    for n in (2, 3, 4, 5, 6):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cases += [
            g * (np.arange(n) < n // 2),  # exactly rank-deficient
            (haar(n, rng) * np.r_[np.logspace(0, -3, n - 1), 0.0]) @ haar(n, rng).conj().T,
            # sigma = 1e-7 lies between rank_cutoff and sqrt(rank_cutoff)
            (haar(n, rng) * np.r_[1.0, np.full(n - 1, 1e-7)]) @ haar(n, rng).conj().T,
        ]
    for w in cases:
        parts = _svd(w, tol)
        spectrum = _clamped_spectrum(parts.modulus(), tol)
        assert parts.rank < w.shape[0]
        assert np.array_equal(parts.values > 0, spectrum > 0)
        assert np.abs(parts.values - spectrum).max() <= 1e-15 * parts.values[0]
