"""Stacked evaluation gives every matrix and every trial the bits it has
alone: maps on the last two axes, the amplified map on the block view, the
Jacobi sweeps, the operator norms and the Frobenius norms against the
per-matrix kernels, and the positivity falsifier and the counterexample
search against copies of their one-trial-at-a-time loops. The stacked
Cholesky screen runs LAPACK, so it is held to the per-matrix screen's
guarantee, and to its verdicts away from a pivot of rounding dust."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import opcheck.checks as C
import opcheck.linalg
import opcheck.posmap
from opcheck.campaign import CHECK_IDS, CampaignSpec, make_instance, run_instance
from opcheck.decompose import _cartesian
from opcheck.errors import OpcheckError, SearchExhausted
from opcheck.linalg import (
    EigenSystem,
    _clears,
    _clears_stack,
    _eig,
    _eig_stack,
    _frobenius,
    _frobenius_stack,
    _operator_norm,
    _operator_norms,
    _spectral_radius,
    hermitian_part,
)
from opcheck.posmap import (
    Congruence,
    IdentityMap,
    KrausSum,
    MapCompose,
    MapSum,
    PartialTrace2x2,
    SchurMultiplier,
    TransposeMap,
    _amplified_apply,
    sample_positivity_falsifier,
)


def ginibre(shape, rng):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def psd(n, rng):
    g = ginibre((n, n), rng)
    return g @ g.conj().T


def families(rng):
    """Every family, Kraus and congruence maps between unequal dimensions,
    and sums and compositions nested in each other."""
    transpose_plus = MapSum(terms=(IdentityMap(3), TransposeMap(3)))
    twisted = MapCompose(outer=Congruence(ginibre((3, 3), rng)), inner=TransposeMap(3))
    return [
        KrausSum(kraus=(ginibre((3, 3), rng),)),
        KrausSum(kraus=(ginibre((2, 3), rng), ginibre((2, 3), rng), ginibre((2, 3), rng))),
        SchurMultiplier(psd(3, rng)),
        TransposeMap(3),
        PartialTrace2x2(block_dim=2),
        Congruence(ginibre((2, 3), rng)),
        IdentityMap(3),
        transpose_plus,
        twisted,
        MapSum(terms=(twisted, MapSum(terms=(transpose_plus, KrausSum(kraus=(ginibre((3, 3), rng),)))))),
        MapCompose(outer=MapSum(terms=(IdentityMap(2), TransposeMap(2))),
                   inner=MapCompose(outer=PartialTrace2x2(block_dim=2), inner=Congruence(ginibre((4, 3), rng)))),
    ]


FAMILIES = families(np.random.default_rng(41))


@pytest.mark.parametrize("phi", FAMILIES, ids=lambda phi: phi.family)
@pytest.mark.parametrize("lead", [(5,), (3, 4)], ids=["k", "k1_k2"])
def test_a_stack_maps_each_matrix_as_alone(phi, lead):
    n, m = phi.dims
    x = ginibre(lead + (n, n), np.random.default_rng(42))
    out = phi.apply(x)
    assert out.shape == lead + (m, m) and out.dtype == complex
    for index in np.ndindex(*lead):
        alone = phi.apply(x[index].copy())
        assert out[index].tobytes() == alone.tobytes()


def reference_amplified_apply(phi, w, level):
    """The amplified map as it was before stacking: one call per block."""
    n, m = phi.in_dim, phi.out_dim
    out = np.zeros((level * m, level * m), dtype=complex)
    for bi in range(level):
        for bj in range(level):
            block = phi.apply(w[bi * n : (bi + 1) * n, bj * n : (bj + 1) * n])
            out[bi * m : (bi + 1) * m, bj * m : (bj + 1) * m] = block
    return out


@pytest.mark.parametrize("phi", FAMILIES, ids=lambda phi: phi.family)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_amplified_apply_equals_the_block_loop(phi, level):
    rng = np.random.default_rng(43)
    d = level * phi.in_dim
    w = psd(d, rng)
    assert _amplified_apply(phi, w, level).tobytes() == reference_amplified_apply(phi, w, level).tobytes()
    stack = np.array([psd(d, rng) for _ in range(6)])
    out = _amplified_apply(phi, stack, level)
    for i, wi in enumerate(stack):
        assert out[i].tobytes() == reference_amplified_apply(phi, wi, level).tobytes()


def reference_falsifier(phi, level, trials, seed):
    """sample_positivity_falsifier as it was before stacking, one trial at a
    time; the witness as (trial, input bytes, lambda_min hex), or None."""
    rng = np.random.default_rng(seed)
    d = level * phi.in_dim
    with np.errstate(over="ignore", invalid="ignore"):
        for trial in range(trials):
            if trial % 2 == 0:
                v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                w = np.outer(v, v.conj())
            else:
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                w = g @ g.conj().T
            h = hermitian_part(reference_amplified_apply(phi, w, level))
            top = float(np.abs(h).max()) if h.size else 0.0
            if _clears(h, 0.5e-7 * (1.0 + top)):
                continue
            if not math.isfinite(top):
                raise ValueError("map output overflows")
            lam = _eig(h, vectors=False)[0]
            lam_min = float(lam[-1])
            scale = float(np.abs(lam).max()) if lam.size else 0.0
            if lam_min < -1e-7 * (1.0 + scale):
                return trial, w.tobytes(), lam_min.hex()
    return None


def falsifier_outcome(phi, level, trials, seed):
    w = sample_positivity_falsifier(phi, level, trials, seed)
    if w is None:
        return None
    assert w.level == level and w.input_matrix.flags.owndata
    return w.trial_index, w.input_matrix.tobytes(), w.min_output_eigenvalue.hex()


def leaky_identity(n, c):
    """X -> X + c X^T: positive; at level 2 a witness is rare for c near 2e-7."""
    return MapSum(terms=(IdentityMap(n), MapCompose(outer=Congruence(np.sqrt(c) * np.eye(n)), inner=TransposeMap(n))))


def falsifier_maps(n):
    rng = np.random.default_rng(44 + n)
    kraus = KrausSum(kraus=tuple(ginibre((n - 1, n), rng) for _ in range(2)))
    return {"transpose": TransposeMap(n), "kraus": kraus, "leaky": leaky_identity(n, 2.2e-7)}


@pytest.mark.parametrize("trials", [1, 2, 25, 37, 99, 100, 101, 137, 250, 3000])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("level", [1, 2])
def test_falsifier_equals_the_per_trial_loop(trials, n, level):
    for name, phi in falsifier_maps(n).items():
        assert falsifier_outcome(phi, level, trials, 3) == reference_falsifier(phi, level, trials, 3), name


def test_falsifier_witnesses_in_later_blocks():
    later = set()
    for n in (2, 3):
        for seed in range(8):
            phi = leaky_identity(n, 2.2e-7)
            got = falsifier_outcome(phi, 2, 3000, seed)
            assert got == reference_falsifier(phi, 2, 3000, seed)
            if got is not None and got[0] >= 100:
                later.add(got[0])
    # witnesses in the second block and in blocks far past it
    assert min(later) < 200 and max(later) >= 1000


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("level", [1, 2])
def test_falsifier_witnesses_do_not_depend_on_the_block_size(monkeypatch, n, level):
    """Any even block gives every witness: _psd_draws pairs the trials, so a
    block must start at an even trial, and an odd one moves the witnesses."""
    maps = {**falsifier_maps(n), "transpose_plus_identity": MapSum(terms=(IdentityMap(n), TransposeMap(n)))}
    for trials in (1, 137, 3000):
        for name, phi in maps.items():
            expected = reference_falsifier(phi, level, trials, 3)
            for block in (2, 8, 1000):
                monkeypatch.setattr(opcheck.posmap, "_BLOCK", block)
                assert falsifier_outcome(phi, level, trials, 3) == expected, (name, trials, block)
    if level == 2:
        monkeypatch.setattr(opcheck.posmap, "_BLOCK", 7)
        assert falsifier_outcome(maps["leaky"], level, 3000, 3) != reference_falsifier(maps["leaky"], level, 3000, 3)


def reference_cartesian_sum(zm):
    """K, K^-1/2, K^-1, ||K^-1/2 Z K^-1/2|| and rho(Z K^-1) of one Z, as
    computed before stacking."""
    parts = _cartesian(zm)

    def modulus(h):
        values, vectors = _eig(h)
        return hermitian_part((vectors * np.abs(values)) @ vectors.conj().T)

    k = modulus(parts.re_part) + modulus(parts.im_part)
    es = EigenSystem(*_eig(k))
    inv_half = es.power(-0.5, None)
    inv = es.power(-1.0, None)
    return k, inv_half, inv, _operator_norm(inv_half @ zm @ inv_half), _spectral_radius(zm @ inv)


def reference_search(trials, seed, dim):
    """find_counterexamples_remarks as it was before stacking, one trial at
    a time; its outcome as search_outcome gives it."""
    rng = np.random.default_rng(seed)
    found = {"loewner": None, "half_power": None, "plain_norm": None}
    consistency_ok = True
    worst_rho = 0.0
    worst_norm = 0.0
    margin = 1e-6
    try:
        for trial in range(trials):
            zm = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
            k, inv_half, inv, congruence_norm, rho = reference_cartesian_sum(zm)
            parts = C._svd(zm, None) if found["loewner"] is None or found["half_power"] is None else None
            if found["loewner"] is None:
                dec = C._loewner_leq(parts.modulus(), k, None)
                if dec.slack < -margin:
                    found["loewner"] = (trial, zm.tobytes(), (-dec.slack).hex())
            if found["half_power"] is None:
                half_norm = _operator_norm(parts.modulus(np.sqrt(parts.values)) @ inv_half)
                if half_norm > 1.0 + margin:
                    found["half_power"] = (trial, zm.tobytes(), (half_norm - 1.0).hex())
            if found["plain_norm"] is None:
                plain_norm = _operator_norm(zm @ inv)
                if plain_norm > 1.0 + margin:
                    found["plain_norm"] = (trial, zm.tobytes(), (plain_norm - 1.0).hex())
            worst_rho = max(worst_rho, rho)
            worst_norm = max(worst_norm, congruence_norm)
            if congruence_norm > 1.0 + margin or rho > 1.0 + margin:
                consistency_ok = False
            if all(w is not None for w in found.values()) and trial >= 99:
                break
    except Exception as exc:
        return type(exc), str(exc)
    if any(w is None for w in found.values()):
        missing = [name for name, w in found.items() if w is None]
        return SearchExhausted, f"targets not found within {trials} trials: {', '.join(missing)}"
    return found, consistency_ok, repr(worst_rho), repr(worst_norm)


def search_outcome(trials, seed, dim):
    try:
        rep = C.find_counterexamples_remarks(trials, seed, dim)
    except Exception as exc:
        return type(exc), str(exc)
    found = {name: (w.trial_index, w.matrix.tobytes(), w.margin.hex()) for name, w in rep.witnesses.items()}
    assert type(rep.worst_rho) is float and type(rep.worst_congruence_norm) is float
    return found, rep.consistency_ok, repr(rep.worst_rho), repr(rep.worst_congruence_norm)


@pytest.mark.parametrize("trials", [1, 25, 99, 100, 101, 3000])
@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("seed", [1, 6])
def test_search_equals_the_per_trial_loop(trials, dim, seed):
    assert search_outcome(trials, seed, dim) == reference_search(trials, seed, dim)


class HermitianFirst:
    """A generator that draws as default_rng(seed) does, except that in the
    first ``hermitian`` trials X is made symmetric and Y antisymmetric, so
    that Z = (X + iY) / sqrt(2) is exactly Hermitian: K = |Z|, and no target
    fires. In trial ``poisoned`` one entry of X is NaN."""

    draw = staticmethod(np.random.default_rng)

    def __init__(self, seed, dim, hermitian=150, poisoned=None):
        self.rng = self.draw(seed)
        self.dim, self.hermitian, self.poisoned = dim, hermitian, poisoned
        self.drawn = 0  # (dim, dim) matrices drawn so far, two per trial

    def standard_normal(self, shape):
        x = self.rng.standard_normal(shape)
        for m in x.reshape(-1, self.dim, self.dim):
            trial, part = divmod(self.drawn, 2)
            if trial < self.hermitian:
                m[...] = (m - m.T) / 2 if part else (m + m.T) / 2
            if trial == self.poisoned and not part:
                m[0, 0] = math.nan
            self.drawn += 1
        return x


@pytest.mark.parametrize("dim", [2, 3])
def test_search_whose_targets_fire_past_the_stack(monkeypatch, dim):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: HermitianFirst(seed, dim))
    got = search_outcome(3000, 5, dim)
    assert got == reference_search(3000, 5, dim)
    found = got[0]
    assert min(trial for trial, _, _ in found.values()) >= 150


@pytest.mark.parametrize("block", [1, 7, 1000])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("hermitian_first", [False, True], ids=["ginibre", "hermitian_first"])
def test_the_search_does_not_depend_on_the_block_size(monkeypatch, block, dim, hermitian_first):
    """The search runs at least 100 trials whatever its block size, and every
    trial it walks has the bits of the per-trial loop; under HermitianFirst
    draws the targets fire past the first block."""
    if hermitian_first:
        monkeypatch.setattr(np.random, "default_rng", lambda seed: HermitianFirst(seed, dim))
    expected = {trials: reference_search(trials, 5, dim) for trials in (1, 99, 100, 101, 3000)}
    monkeypatch.setattr(C, "_BLOCK", block)
    assert {trials: search_outcome(trials, 5, dim) for trials in expected} == expected


@pytest.mark.parametrize("failing_svd", [None, 11, 60], ids=["none", "before", "after"])
def test_a_failing_stack_raises_the_first_error_in_trial_order(monkeypatch, failing_svd):
    """Trial 40's NaN makes the stacked K raise; the target code of an
    earlier trial, made to raise here, must still raise first."""
    monkeypatch.setattr(np.random, "default_rng", lambda seed: HermitianFirst(seed, 2, poisoned=40))
    svd = C._svd
    calls = []

    def counting_svd(*args):
        calls.append(1)
        if len(calls) == failing_svd:
            raise ValueError(f"svd call {len(calls)}")
        return svd(*args)

    monkeypatch.setattr(C, "_svd", counting_svd)
    got = search_outcome(3000, 5, 2)
    calls.clear()
    expected = reference_search(3000, 5, 2)
    assert got == expected
    if failing_svd == 11:
        assert expected == (ValueError, "svd call 11")
    else:
        assert expected == (ValueError, "matrix contains non-finite entries")


@pytest.mark.parametrize("dim", [1, 0, -1])
def test_the_search_needs_dimension_two(monkeypatch, dim):
    def no_draws(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=f"^dim must be >= 2, got {dim}: "):
        C.find_counterexamples_remarks(10, 1, dim)


def test_the_search_needs_a_nonnegative_seed(monkeypatch):
    def no_draws(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -3$"):
        C.find_counterexamples_remarks(10, -3, 2)


def reference_eig_stack(hs, vectors=True):
    """_eig_stack as it was before the stacked kernel: _eig on each matrix,
    the values stacked and each matrix's vectors kept in Fortran order."""
    out = [_eig(h, vectors) for h in hs]
    values = np.array([v for v, _ in out])
    if not vectors:
        return values, None
    return values, np.array([v.T for _, v in out]).swapaxes(-1, -2)


def wishart(rng, k, n):
    g = ginibre((k, n, n), rng)
    return hermitian_part(g @ g.conj().swapaxes(-1, -2))


def graded_stack(rng, k, n):
    """D A D with D = diag(logspace(0, -8)): eigenvalues from 1 down to about 1e-16."""
    d = np.logspace(0, -8, n)
    return hermitian_part(d[:, None] * wishart(rng, k, n) * d)


def diagonal_stack(rng, k, n):
    """Diagonal matrices: every pivot is skipped, no rotation runs."""
    return np.array([np.diag(rng.standard_normal(n)) for _ in range(k)], dtype=complex)


def tied_stack(rng, k, n):
    """Identity blocks, so repeated eigenvalues, mixed by a unitary in half of them."""
    out = []
    for i in range(k):
        h = np.eye(n, dtype=complex)
        h[: n // 2, : n // 2] *= 2.0
        if i % 2:
            u = np.linalg.qr(ginibre((n, n), rng))[0]
            h = hermitian_part(u @ h @ u.conj().T)
        out.append(h)
    return np.array(out)


def product_stack(rng, k, n):
    """Entrywise products of Hermitian parts with negative diagonals, so
    the diagonal imaginary parts are -0.0."""
    a = hermitian_part(ginibre((k, n, n), rng)) - 3.0 * np.eye(n)
    b = hermitian_part(ginibre((k, n, n), rng)) - 3.0 * np.eye(n)
    return a * b


def signed_zero_stack(rng, k, n):
    """Exactly Hermitian matrices whose parts are small dyadic numbers or
    +-0.0: their rotations meet the signed zeros of CPython's complex
    arithmetic, and some of their pivots are zero."""
    parts = np.array([-0.0, 0.0, -0.0, 0.0, -1.0, 1.0, 2.0, -0.5])
    h = np.empty((k, n, n), dtype=complex)
    h.real = rng.choice(parts, (k, n, n))
    h.imag = rng.choice(parts, (k, n, n))
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    h = np.where(upper, h, h.conj().swapaxes(-1, -2))
    i = np.arange(n)
    h.imag[:, i, i] = rng.choice([-0.0, 0.0], (k, n))
    h.real[:, i, i] = rng.choice([-1.0, 0.5, 3.0], (k, n))
    return h


def mixed_stack(rng, k, n):
    """Fast and slow convergers in one stack: diagonal, nearly diagonal,
    2 x 2-block and full matrices, interleaved."""
    kinds = [diagonal_stack(rng, k, n), wishart(rng, k, n), tied_stack(rng, k, n)]
    near = diagonal_stack(rng, k, n) + 1e-9 * hermitian_part(ginibre((k, n, n), rng))
    blocks = wishart(rng, k, n)
    blocks[:, 2:, :2] = blocks[:, :2, 2:] = 0.0
    kinds += [near, blocks]
    return np.array([kinds[i % len(kinds)][i] for i in range(k)])


STACK_KINDS = {
    "wishart": wishart,
    "graded": graded_stack,
    "diagonal": diagonal_stack,
    "tied": tied_stack,
    "product": product_stack,
    "signed_zero": signed_zero_stack,
    "mixed": mixed_stack,
}


def test_the_stacks_hold_negative_zeros_and_are_exactly_hermitian():
    rng = np.random.default_rng(0)
    assert np.signbit(product_stack(rng, 7, 3).imag.diagonal(axis1=1, axis2=2)).any()
    hs = signed_zero_stack(rng, 7, 3)
    assert (np.signbit(hs.real) & (hs.real == 0)).any() and (np.signbit(hs.imag) & (hs.imag == 0)).any()
    for kind in STACK_KINDS.values():
        hs = kind(rng, 7, 4)
        assert (hs == hs.conj().swapaxes(-1, -2)).all()


@pytest.mark.parametrize("kind", STACK_KINDS)
@pytest.mark.parametrize("k", [2, 7, 100])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_eig_stack_equals_the_per_matrix_loop(kind, k, n):
    hs = STACK_KINDS[kind](np.random.default_rng(1000 * n + k), k, n)
    values, vectors = _eig_stack(hs)
    ref_values, ref_vectors = reference_eig_stack(hs)
    assert values.tobytes() == ref_values.tobytes() and values.strides == ref_values.strides
    assert vectors.tobytes() == ref_vectors.tobytes() and vectors.strides == ref_vectors.strides
    only, none = _eig_stack(hs, vectors=False)
    assert none is None and only.tobytes() == ref_values.tobytes() and only.strides == ref_values.strides


def test_eig_stack_keeps_the_lead_shape():
    hs = wishart(np.random.default_rng(2), 12, 3).reshape(3, 4, 3, 3)
    values, vectors = _eig_stack(hs)
    ref_values, ref_vectors = reference_eig_stack(hs.reshape(12, 3, 3))
    assert values.shape == (3, 4, 3) and vectors.shape == (3, 4, 3, 3)
    assert values.tobytes() == ref_values.tobytes() and vectors.tobytes() == ref_vectors.tobytes()
    assert vectors[1, 2].strides == ref_vectors[6].strides


def test_a_stack_runs_the_stacked_kernel_and_a_lone_matrix_the_scalar_one(monkeypatch):
    hs = wishart(np.random.default_rng(3), 5, 4)
    ref_values = reference_eig_stack(hs)[0]

    def refuse(*args):
        raise AssertionError("the scalar kernel ran")

    monkeypatch.setattr(opcheck.linalg, "_sweeps", refuse)
    assert _eig_stack(hs)[0].tobytes() == ref_values.tobytes()
    with pytest.raises(AssertionError, match="the scalar kernel ran"):
        _eig_stack(hs[:1])


def outcome(fn, hs):
    """fn(hs)'s values and vectors bytes, or its error as (type, message)."""
    try:
        values, vectors = fn(hs)
    except Exception as exc:
        return type(exc), str(exc)
    return values.tobytes(), vectors.tobytes()


@pytest.mark.parametrize("exponent", [210, -210])
def test_a_matrix_off_the_scaled_range_sends_the_stack_through_the_loop(exponent):
    hs = wishart(np.random.default_rng(4), 7, 3)
    hs[4].real *= 2.0**exponent
    hs[4].imag *= 2.0**exponent
    assert outcome(_eig_stack, hs) == outcome(reference_eig_stack, hs)


def test_a_failing_stack_raises_the_first_error_of_the_loop():
    hs = wishart(np.random.default_rng(5), 6, 3)
    hs[2, 0, 0] = 1e308  # its Hermitian part overflows
    hs[4, 1, 1] = math.nan
    assert outcome(_eig_stack, hs) == outcome(reference_eig_stack, hs)
    assert outcome(_eig_stack, hs)[1].startswith("Hermitian part overflows")
    assert outcome(_eig_stack, hs[::-1]) == outcome(reference_eig_stack, hs[::-1])
    assert outcome(_eig_stack, hs[::-1])[1] == "matrix contains non-finite entries"


def norm_stacks(rng, k, n):
    """Hermitian, nearly Hermitian, general and mixed stacks, and one with a
    zero matrix, which sends its values-only run through the loop."""
    general = ginibre((k, n, n), rng)
    hermitian = hermitian_part(general)
    nearly = hermitian + 1e-14 * ginibre((k, n, n), rng)
    mixed = np.where(np.arange(k)[:, None, None] % 2, hermitian, general)
    zero = general.copy()
    zero[k // 2] = 0.0
    return {"hermitian": hermitian, "nearly": nearly, "general": general, "mixed": mixed, "zero": zero,
            "wide": ginibre((k, n, n + 1), rng)}


@pytest.mark.parametrize("k", [1, 2, 7, 100])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_operator_norms_equal_the_per_matrix_norms(k, n):
    for name, cs in norm_stacks(np.random.default_rng(10 * n + k), k, n).items():
        assert [x.hex() for x in _operator_norms(cs)] == [_operator_norm(c).hex() for c in cs], name


def test_the_congruence_norms_are_the_per_matrix_norms():
    zs = ginibre((100, 3, 3), np.random.default_rng(6))
    sums = C._cartesian_sum(zs, None)
    inv_half = np.array([s.inv_half for s in sums])
    assert [s.congruence_norm.hex() for s in sums] == [_operator_norm(c).hex() for c in inv_half @ zs @ inv_half]


def record_bits(record):
    """A _CartesianSum's arrays as bytes and its two bounds as hex."""
    return [x.tobytes() for x in record[:5]] + [record.congruence_norm.hex(), record.rho.hex()]


def stack_sizes(monkeypatch):
    """The size of each stack _sweeps_stack is called on, in call order."""
    sizes = []
    original = opcheck.linalg._sweeps_stack

    def recording(a, *args):
        sizes.append(len(a))
        return original(a, *args)

    monkeypatch.setattr(opcheck.linalg, "_sweeps_stack", recording)
    return sizes


@pytest.mark.parametrize("mix", ["ginibre", "hermitian", "skew", "both"])
@pytest.mark.parametrize("k", [2, 7, 100])
@pytest.mark.parametrize("n", [2, 3])
def test_a_block_forms_x_and_y_in_one_stack(monkeypatch, sweep_runs, mix, k, n):
    """A block's |X| and |Y| come from one stack [X; Y] of 2k matrices. A
    Hermitian Z has Y = 0 and a skew-Hermitian Z has X = 0, outside the
    stacked kernel's range, so either sends the whole 2k stack through the
    per-matrix loop. Each record has the bits, and the block the sweep
    runs, of its Z as a stack of one."""
    zs = ginibre((k, n, n), np.random.default_rng(100 * n + k))
    if mix in ("hermitian", "both"):
        zs[0] = hermitian_part(zs[0])
    if mix in ("skew", "both"):
        zs[-1] = 1j * hermitian_part(zs[-1])
    parts = _cartesian(zs)
    assert (parts.im_part[0] == 0).all() == (mix in ("hermitian", "both"))
    assert (parts.re_part[-1] == 0).all() == (mix in ("skew", "both"))
    sizes = stack_sizes(monkeypatch)
    got = C._cartesian_sum(zs, None)
    assert sizes == ([2 * k, k, k] if mix == "ginibre" else [k, k])
    runs = len(sweep_runs)
    sweep_runs.clear()
    alone = [C._cartesian_sum(zm[None], None)[0] for zm in zs]
    assert len(sweep_runs) == runs == 4 * k
    assert sizes == ([2 * k, k, k] if mix == "ginibre" else [k, k])  # none of a stack of one
    for i, (record, expected) in enumerate(zip(got, alone)):
        assert record_bits(record) == record_bits(expected), i


def haar(n, rng):
    q, r = np.linalg.qr(ginibre((n, n), rng))
    return q * (r.diagonal() / np.abs(r.diagonal()))


@pytest.mark.parametrize("check_id", CHECK_IDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_a_campaign_trial_never_runs_the_stacked_kernel(monkeypatch, check_id, n):
    """A campaign checks one instance at a time, so each stack it forms is
    a stack of one, which runs the scalar kernel: at these sizes a stack of
    two costs several times two scalar runs. The split and Cartesian checks
    also run on graded Z, with singular values logspace(0, -d)."""
    sizes = stack_sizes(monkeypatch)
    spec = CampaignSpec(check_id=check_id, n_dims=(n,), seed=2026)
    instances = [make_instance(spec, trial) for trial in range(3)]
    if check_id in ("check_two_positive_split", "check_cartesian_suite"):
        rng = np.random.default_rng(n)
        for d in (3, 6, 9, 12):
            z = (haar(n, rng) * np.logspace(0, -d, n)) @ haar(n, rng).conj().T
            instances.append(replace(instances[d % 3], z=z))
    for inst in instances:
        try:
            run_instance(inst, spec.tolerances)
        except OpcheckError:
            pass  # a graded Z may fail a check; the kernel it ran is what counts here
    assert sizes == []


@pytest.mark.parametrize("vectors", [True, False])
def test_an_empty_stack_has_empty_spectra(vectors):
    values, vecs = _eig_stack(np.zeros((0, 3, 3), dtype=complex), vectors)
    assert values.shape == (0, 3) and values.dtype == float
    assert vecs is None if not vectors else (vecs.shape == (0, 3, 3) and vecs.dtype == complex)
    assert _operator_norms(np.zeros((0, 2, 2), dtype=complex)) == []
    assert C._cartesian_sum(np.zeros((0, 2, 2), dtype=complex), None) == []


def test_the_search_does_the_kernel_work_of_the_per_trial_loop(sweep_runs):
    """A stacked matrix counts as one sweep run, as the per-trial loop ran it."""
    C.find_counterexamples_remarks(3000, 5, 2)
    assert len(sweep_runs) == 408


def with_entry(value, n):
    """The n x n identity with ``value`` at (0, 1) and (1, 0)."""
    m = np.eye(n, dtype=complex)
    m[0, 1] = m[1, 0] = value
    return m


def with_lambda_min(rng, n, target, scale):
    """Q diag(0, scale u_1, ...) Q* + target I: its smallest eigenvalue is
    ``target`` up to rounding."""
    q = np.linalg.qr(ginibre((n, n), rng))[0]
    values = scale * rng.uniform(0.0, 1.0, n)
    values[0] = 0.0
    return hermitian_part((q * values) @ q.conj().T) + target * np.eye(n)


def screen_cases(n):
    """(h, margin) pairs of size n for the Cholesky screen, after the tables
    of tests/test_linalg.py's TestCholeskyScreen: lambda_min on both sides
    of -margin at several scales, PSD, zero and rank-one inputs, inputs
    whose last pivot is rounding dust, NaN, zero, negative and infinite
    margins, scales at 2^+-200, non-Hermitian input, NaN and inf entries,
    extreme magnitudes and large off-diagonal entries."""
    rng = np.random.default_rng(70 + n)
    zero = np.zeros((n, n), dtype=complex)
    if n == 0:
        return [(zero, 1e-7), (zero, 1.0), (zero, 0.0), (zero, math.nan), (zero, -1.0)]
    cases = []
    for exponent in (-6, 0, 6):
        scale = 10.0**exponent
        for k in (0.25, 0.9, 1.01, 1.5, 3.0):
            cases.append((with_lambda_min(rng, n, -k * 1e-7 * scale, scale), 1e-7 * scale))
    wishart = psd(n, rng)
    v = ginibre((n, 1), rng)
    rank_one = hermitian_part(v @ v.conj().T)
    top = float(np.abs(wishart).max())
    cases += [(wishart, 0.5e-9 * top), (rank_one, 0.5e-9 * float(np.abs(rank_one).max())), (zero, 1e-7)]
    # h + margin I = G G* has rank n - 1: the last pivot is rounding dust of
    # either sign, and it depends on every subtraction before it
    for _ in range(12):
        g = ginibre((n, max(n - 1, 1)), rng)
        gram = hermitian_part(g @ g.conj().T)
        margin = 1e-7 * float(np.abs(gram).max())
        cases.append((gram - margin * np.eye(n), margin))
    cases += [(wishart, margin) for margin in (math.nan, 0.0, -0.0, -top, math.inf)]
    for exponent in (200, -200):
        big = 2.0**exponent
        cases += [(big * np.eye(n), 1e-7 * big), (0.99 * big * np.eye(n), 1e-9 * big), (zero, big), (zero, 2.0 * big)]
    for value in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0), complex(-math.inf, 0.0),
                  complex(1.0, 1e-300)):
        diagonal = np.eye(n, dtype=complex)
        diagonal[-1, -1] = value
        cases.append((diagonal, 1.0))
    for magnitude in (1e-300, 1e300, 8.9e307, 1.5e308):
        for margin in (1e-7 * magnitude, 1.0, 1e-7):
            for h in (magnitude * np.eye(n, dtype=complex), np.full((n, n), magnitude, dtype=complex),
                      magnitude / 4 * hermitian_part(ginibre((n, n), rng))):
                cases.append((h, margin))
    if n >= 2:
        triangular = np.eye(n, dtype=complex)
        triangular[0, 1] = 1.0
        symmetric = with_entry(0.5j, n)
        symmetric[1, 0] = 0.5j
        cases += [(triangular, 1.0), (symmetric, 1.0)]
        for value in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0), complex(0.0, -math.inf),
                      1e150, 1e199, 1e-300, 1e300, 1e300j, 8.9e307, 1.5e308):
            cases += [(with_entry(value, n), 1.0), (with_entry(value, n), 1e-7)]
    return cases


@pytest.mark.parametrize("n", range(7))
def test_the_screen_table_decides_both_ways(n):
    verdicts = {_clears(h, margin) for h, margin in screen_cases(n)}
    assert verdicts == {True, False}


def screen_stacks(n, k):
    """The cases of screen_cases(n) in stacks of k: every case once, the
    last stack filled up from the start of the table."""
    cases = screen_cases(n)
    if k == 0:
        return [(np.zeros((0, n, n), dtype=complex), np.zeros(0))]
    stacks = []
    for start in range(0, len(cases), k):
        chosen = [cases[(start + i) % len(cases)] for i in range(k)]
        stacks.append((np.array([h for h, _ in chosen]), np.array([margin for _, margin in chosen])))
    return stacks


def boundary_stacks(n, k):
    """Stacks of k matrices of size n >= 1 at margin 1e-7 scale, scale 10^-6
    to 10^6, whose lambda_min is uniform in [-3 margin, margin]: about 200
    matrices in all."""
    rng = np.random.default_rng([n, k])
    stacks = []
    for _ in range(-(-200 // k)):
        scales = 10.0 ** rng.integers(-6, 7, k)
        margins = 1e-7 * scales
        hs = [with_lambda_min(rng, n, rng.uniform(-3.0, 1.0) * m, s) for s, m in zip(scales, margins)]
        stacks.append((np.array(hs), margins))
    return stacks


def all_screen_stacks(n, k):
    return screen_stacks(n, k) + (boundary_stacks(n, k) if n and k else [])


def mp_lambda_min(h) -> float:
    """The smallest eigenvalue of the Hermitian ``h``, from 50-digit mpmath.eighe."""
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.MPContext()
    ctx.dps = 50
    if h.shape[0] == 1:
        return float(h[0, 0].real)
    return float(min(ctx.eighe(ctx.matrix(h.tolist()), eigvals_only=True)))


@pytest.mark.parametrize("k", [0, 1, 2, 25, 100])
@pytest.mark.parametrize("n", range(7))
def test_every_stacked_clear_keeps_the_guarantee(n, k):
    """Every True of the stacked screen, on the table and on stacks whose
    lambda_min lies near -margin, has _eig's lambda_min >= -1.5 margin; the
    three nearest that bound have a 50-digit lambda_min above it too."""
    cleared = []
    for hs, margins in all_screen_stacks(n, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _clears_stack(hs, margins)
        assert got.dtype == bool and got.shape == (k,)
        for h, margin in zip(hs[got], margins[got].tolist()):
            if n:
                lam = float(_eig(h, vectors=False)[0][-1])
                assert lam >= -1.5 * margin
                cleared.append(((lam + 1.5 * margin) / margin, h, margin))
    for _, h, margin in sorted(cleared, key=lambda case: case[0])[:3]:
        assert mp_lambda_min(h) >= -1.5 * margin


def on_the_edge(h, margin):
    """True for a finite, exactly Hermitian ``h`` and a positive margin where
    LAPACK's lambda_min(h) lies within 1e-6 margin of -margin: there the
    last pivot is rounding dust, and LAPACK's Cholesky and _clears' can
    round it to either sign."""
    if not (h.size and np.isfinite(h).all() and (h == h.conj().T).all() and margin > 0.0):
        return False
    with np.errstate(all="ignore"):
        lam = float(np.linalg.eigvalsh(h)[0])
    return abs(lam + margin) <= 1e-6 * margin


@pytest.mark.parametrize("k", [0, 1, 2, 25, 100])
@pytest.mark.parametrize("n", range(7))
def test_the_stacked_screen_agrees_with_the_per_matrix_screen_off_the_edge(n, k):
    verdicts = set()
    for hs, margins in all_screen_stacks(n, k):
        for h, margin, verdict in zip(hs, margins.tolist(), _clears_stack(hs, margins).tolist()):
            if not on_the_edge(h, margin):
                assert verdict == _clears(h, margin)
                verdicts.add(verdict)
    assert verdicts == ({True, False} if k else set())


def test_the_stacked_screen_is_quiet_on_failing_pivots():
    """Zero, negative, -inf and NaN pivots and a NaN margin, in one block:
    each gives False without a warning, and the identity still clears.
    OpenBLAS returns a factor with a NaN pivot and raises no error, from an
    infinite entry or from finite ones, so a stack whose other pivots all
    hold is tested too."""
    # finite, and inside the a-priori bound at margin 2e5
    nan_pivot = np.diag([1.0, 1e16, 1.0]).astype(complex)
    nan_pivot[1, 0], nan_pivot[2, 0] = 1e10 + 1e10j, 1e304 + 1e304j
    nan_pivot += np.tril(nan_pivot, -1).conj().T
    blocks = [
        (np.diag([-1.0, 1.0, 1.0]).astype(complex), 1.0),  # pivot 0 is zero
        (np.diag([1.0, -3.0, 1.0]).astype(complex), 1.0),  # pivot 1 is negative
        (with_entry(1e199, 3), 1.0),  # |l_10|^2 overflows: pivot 1 is -inf
        (with_entry(complex(math.inf, 0.0), 3), 1.0),  # l_10 = (inf, nan): pivot 1 is NaN
        (nan_pivot, 2e5),  # l_20 conj(l_10) is (inf, inf - inf): pivot 2 is NaN
        (np.eye(3, dtype=complex), math.nan),
        (np.eye(3, dtype=complex), 1.0),
    ]
    hs = np.array([h for h, _ in blocks])
    margins = np.array([margin for _, margin in blocks])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _clears_stack(hs, margins).tolist() == [False] * 6 + [True]
        assert _clears_stack(hs[3:], margins[3:]).tolist() == [False, False, False, True]


def layouts(rng, k, n):
    """Stacks in several layouts: C-ordered, F-ordered as a whole, each
    matrix F-ordered, every other matrix of a larger stack, strided entries
    of a larger one, reversed rows, and transposed strided columns."""
    a = ginibre((k, n, n), rng)
    big = ginibre((2 * k, 2 * n, 2 * n), rng)
    per_matrix_f = np.empty((k, n, n), dtype=complex, order="C").swapaxes(-1, -2)
    per_matrix_f[...] = a
    return {"c": a, "f": np.asfortranarray(a), "matrix_f": per_matrix_f, "every_other": big[::2, :n, :n],
            "strided": big[:k, ::2, ::2], "reversed": a[:, ::-1, :],
            "transposed": big[:k, :n, 1 : 2 * n : 2].swapaxes(-1, -2)}


@pytest.mark.parametrize("k", [1, 2, 7, 100])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_stacked_frobenius_norms_equal_the_per_matrix_norms(k, n):
    for name, a in layouts(np.random.default_rng(20 * n + k), k, n).items():
        got = _frobenius_stack(a)
        assert got.tobytes() == np.array([_frobenius(x) for x in a]).tobytes(), name
    assert _frobenius_stack(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)
