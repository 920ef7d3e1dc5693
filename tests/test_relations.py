"""Exact metamorphic relations of the kernels, bit for bit.

Away from overflow and underflow, multiplying by 2^k is exact in IEEE
arithmetic, and every rule of the Jacobi sweeps and the SVD is relative, so
f(2^k x) = 2^k f(x) with the same vectors. Conjugating every entry commutes
with + - * / and the square root, and with each rotation, so f(conj x) is
the conjugate of f(x), except for the sign of a zero: conjugating turns an
imaginary part +0.0 into -0.0, where the kernel run on the conjugate
computes +0.0 again. Neither relation needs a tolerance or a reference.

    kernel          scaling x -> 2^k x               conjugation x -> conj x
    _eig            values 2^k times, same vectors   same values, conj vectors
    _eig_stack      as _eig, per matrix              as _eig, per matrix
    _svd            values 2^k times, same factors   same values, conj factors
    _clears         same verdict, h and margin 4^j   same verdict
    _clears_stack   same verdict, per matrix         same verdict, per matrix
    _hermitian_modulus  |H| 2^k times, per matrix    conj |H|, per matrix
    _cartesian_sum  K and values 2^k, K^-1/2 2^-k/2, none: Y of conj Z is -conj Y
                    K^-1 2^-k, same vectors,         and |-H| need not have the
                    congruence norm and rho          bits of |H|
    _spectral_radius                                 same radius, per matrix

The Cholesky screen scales by 4^j, an even power of two, so that its square
roots, the pivots, scale exactly too; every test it makes compares
quantities that scale alike, while top + margin stays inside its range
(2^-200, 2^200). Conjugation conjugates the factor and leaves the pivots.
_clears_stack runs LAPACK's Cholesky, whose verdict can differ from
_clears' at a pivot of rounding dust, so its relations compare it with
itself.

The geometric mean's scale relation fails today, through the absolute
floors of its singular-input handling, and is not listed here.
"""

import numpy as np
import pytest

from opcheck.checks import _cartesian_sum, _hermitian_modulus
from opcheck.decompose import _svd
from opcheck.linalg import _clears, _clears_stack, _eig, _eig_stack, _spectral_radius, hermitian_part

EXPONENTS = [20, -20, 40, -40, 80, -80]
SIZES = [2, 3, 4, 5, 6]


def ginibre(shape, rng):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def scaled(x, k):
    """2^k x, part by part, which keeps every bit of the mantissas and every zero's sign."""
    out = np.empty_like(x)
    out.real = np.ldexp(x.real, k)
    out.imag = np.ldexp(x.imag, k)
    return out


def unsigned(x):
    """The bytes of ``x`` with every -0.0 made +0.0 and every other bit kept."""
    return (x + 0.0).tobytes()


def hermitians(n, seed):
    """A Wishart matrix, a general Hermitian part, a graded D A D and a
    rank-one matrix, all exactly Hermitian."""
    rng = np.random.default_rng(seed)
    g = ginibre((n, n), rng)
    d = np.logspace(0, -6, n)
    v = ginibre((n, 1), rng)
    wishart = hermitian_part(g @ g.conj().T)
    return [wishart, hermitian_part(ginibre((n, n), rng)), hermitian_part(d[:, None] * wishart * d),
            hermitian_part(v @ v.conj().T)]


def squares(n, seed):
    """A Ginibre matrix, a rank-deficient one and a graded one."""
    rng = np.random.default_rng(seed)
    g = ginibre((n, n), rng)
    low = ginibre((n, n - 1), rng) @ ginibre((n - 1, n), rng)
    return [g, low, g * np.logspace(0, -6, n)]


@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("n", SIZES)
def test_eig_scales_exactly(n, exponent):
    for h in hermitians(n, n):
        values, vectors = _eig(h)
        got_values, got_vectors = _eig(scaled(h, exponent))
        assert got_values.tobytes() == np.ldexp(values, exponent).tobytes()
        assert got_vectors.tobytes() == vectors.tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_eig_commutes_with_conjugation(n):
    for h in hermitians(n, n):
        values, vectors = _eig(h)
        got_values, got_vectors = _eig(h.conj())
        assert got_values.tobytes() == values.tobytes()
        assert unsigned(got_vectors) == unsigned(vectors.conj())


@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("n", SIZES)
def test_eig_stack_scales_exactly(n, exponent):
    hs = np.array(hermitians(n, n) + hermitians(n, n + 10))
    values, vectors = _eig_stack(hs)
    got_values, got_vectors = _eig_stack(scaled(hs, exponent))
    assert got_values.tobytes() == np.ldexp(values, exponent).tobytes()
    assert got_vectors.tobytes() == vectors.tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_eig_stack_commutes_with_conjugation(n):
    hs = np.array(hermitians(n, n) + hermitians(n, n + 10))
    values, vectors = _eig_stack(hs)
    got_values, got_vectors = _eig_stack(hs.conj())
    assert got_values.tobytes() == values.tobytes()
    assert unsigned(got_vectors) == unsigned(vectors.conj())


@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("n", SIZES)
def test_svd_scales_exactly(n, exponent):
    for z in squares(n, n):
        parts = _svd(z, None)
        got = _svd(scaled(z, exponent), None)
        assert got.values.tobytes() == np.ldexp(parts.values, exponent).tobytes()
        assert got.left.tobytes() == parts.left.tobytes() and got.right.tobytes() == parts.right.tobytes()
        assert got.rank == parts.rank


@pytest.mark.parametrize("n", SIZES)
def test_svd_commutes_with_conjugation(n):
    for z in squares(n, n):
        parts = _svd(z, None)
        got = _svd(z.conj(), None)
        assert got.values.tobytes() == parts.values.tobytes() and got.rank == parts.rank
        assert unsigned(got.left) == unsigned(parts.left.conj())
        assert unsigned(got.right) == unsigned(parts.right.conj())


def screen_inputs(n, seed):
    """Hermitian matrices with their margins: lambda_min on both sides of
    -margin, and h = G G* - margin I with G of rank n - 1, whose last pivot
    is rounding dust of either sign."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in (0.25, 0.9, 1.01, 1.5, 3.0):
        for h in hermitians(n, seed + int(100 * k)):
            margin = 1e-7 * float(np.abs(h).max())
            cases.append((h - (k * margin + np.linalg.eigvalsh(h)[0]) * np.eye(n), margin))
    for _ in range(10):
        g = ginibre((n, n - 1), rng)
        gram = hermitian_part(g @ g.conj().T)
        margin = 1e-7 * float(np.abs(gram).max())
        cases.append((gram - margin * np.eye(n), margin))
    return np.array([h for h, _ in cases]), np.array([margin for _, margin in cases])


@pytest.mark.parametrize("j", [10, -10, 40, -40, 80, -80])
@pytest.mark.parametrize("n", SIZES)
def test_the_screen_verdict_scales_exactly(n, j):
    hs, margins = screen_inputs(n, n)
    verdicts = [_clears(h, margin) for h, margin in zip(hs, margins.tolist())]
    assert set(verdicts) == {True, False}
    big, big_margins = scaled(hs, 2 * j), np.ldexp(margins, 2 * j)
    assert [_clears(h, margin) for h, margin in zip(big, big_margins.tolist())] == verdicts
    stacked = _clears_stack(hs, margins).tolist()
    assert set(stacked) == {True, False}
    assert _clears_stack(big, big_margins).tolist() == stacked


@pytest.mark.parametrize("n", SIZES)
def test_the_screen_verdict_commutes_with_conjugation(n):
    hs, margins = screen_inputs(n, n + 10)
    verdicts = [_clears(h, margin) for h, margin in zip(hs, margins.tolist())]
    assert set(verdicts) == {True, False}
    assert [_clears(h.conj(), margin) for h, margin in zip(hs, margins.tolist())] == verdicts
    assert _clears_stack(hs.conj(), margins).tolist() == _clears_stack(hs, margins).tolist()


# the search's stacked kernels, on stacks of one and of seven
STACKS = [1, 7]


def hermitian_stack(n, size):
    return np.array(hermitians(n, n) + hermitians(n, n + 10))[:size]


def square_stack(n, size):
    return np.array(squares(n, n) + squares(n, n + 10) + squares(n, n + 20))[:size]


@pytest.mark.parametrize("exponent", [20, -20, 40, -40])
@pytest.mark.parametrize("size", STACKS)
@pytest.mark.parametrize("n", SIZES)
def test_hermitian_modulus_scales_exactly(n, size, exponent):
    hs = hermitian_stack(n, size)
    assert _hermitian_modulus(scaled(hs, exponent)).tobytes() == scaled(_hermitian_modulus(hs), exponent).tobytes()


@pytest.mark.parametrize("size", STACKS)
@pytest.mark.parametrize("n", SIZES)
def test_hermitian_modulus_commutes_with_conjugation(n, size):
    hs = hermitian_stack(n, size)
    assert unsigned(_hermitian_modulus(hs.conj())) == unsigned(_hermitian_modulus(hs).conj())


@pytest.mark.parametrize("exponent", [20, -20, 40, -40])
@pytest.mark.parametrize("size", STACKS)
@pytest.mark.parametrize("n", SIZES)
def test_cartesian_sum_scales_exactly(n, size, exponent):
    """K, its values and 2^k Z's K^-1/2 and K^-1 scale by 2^k, 2^k, 2^-k/2
    and 2^-k; K's vectors, the congruence norm and rho stay. Conjugation is
    no relation here: Y of conj Z is -conj Y, and |-H| need not have the bits
    of |H|, since the Jacobi angle is not odd under H -> -H."""
    zs = square_stack(n, size)
    for got, want in zip(_cartesian_sum(scaled(zs, exponent), None), _cartesian_sum(zs, None)):
        assert got.matrix.tobytes() == scaled(want.matrix, exponent).tobytes()
        assert got.values.tobytes() == np.ldexp(want.values, exponent).tobytes()
        assert got.vectors.tobytes() == want.vectors.tobytes()
        assert got.inv_half.tobytes() == scaled(want.inv_half, -exponent // 2).tobytes()
        assert got.inv.tobytes() == scaled(want.inv, -exponent).tobytes()
        assert (got.congruence_norm, got.rho) == (want.congruence_norm, want.rho)


@pytest.mark.parametrize("size", STACKS)
@pytest.mark.parametrize("n", SIZES)
def test_spectral_radius_commutes_with_conjugation(n, size):
    zs = square_stack(n, size)
    assert _spectral_radius(zs.conj()) == _spectral_radius(zs)
