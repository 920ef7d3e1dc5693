"""Positive-map family tests: evaluation, class algebra, Choi diagnostics,
positivity falsification."""

import warnings
from dataclasses import fields

import numpy as np
import pytest

from opcheck.errors import DimensionMismatch, NotPositiveSemidefinite
from opcheck.linalg import eigvalsh, hermitian_part, operator_norm, require_hermitian, sqrtm_psd
from opcheck.posmap import (
    COMPLETELY_POSITIVE,
    POSITIVE,
    Congruence,
    IdentityMap,
    KrausSum,
    MapCompose,
    MapSum,
    PartialTrace2x2,
    SchurMultiplier,
    TransposeMap,
    _amplified_apply,
    apply,
    map_from_json,
    map_to_json,
    sample_positivity_falsifier,
)

RNG = np.random.default_rng(0)


def ginibre(n, rng=RNG):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def random_psd(n, rng=RNG):
    g = ginibre(n, rng)
    return g @ g.conj().T


def compress_map(phi, j):
    """X -> phi(J^1/2 X J^1/2), built from the map families."""
    return MapCompose(outer=phi, inner=Congruence(sqrtm_psd(j)))


def choi_matrix(phi):
    """The block matrix [phi(E_ij)] over the matrix units; PSD iff phi is CP."""
    n, m = phi.in_dim, phi.out_dim
    out = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            out[i * m : (i + 1) * m, j * m : (j + 1) * m] = apply(phi, unit)
    return hermitian_part(out)


def example_map(n=2):
    return MapSum(terms=(IdentityMap(n), TransposeMap(n)))


def family_zoo(rng):
    k1 = ginibre(2, rng)
    k2 = (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))) / 2
    return [
        KrausSum(kraus=(k1,)),
        KrausSum(kraus=(k1, ginibre(2, rng))),
        KrausSum(kraus=(k2,)),
        SchurMultiplier(random_psd(3, rng)),
        TransposeMap(2),
        PartialTrace2x2(block_dim=2),
        Congruence(ginibre(2, rng)),
        IdentityMap(3),
        example_map(),
        MapCompose(outer=Congruence(ginibre(2, rng)), inner=TransposeMap(2)),
    ]


class TestApply:
    def test_schur_is_entrywise(self):
        s = random_psd(3)
        phi = SchurMultiplier(s)
        x = ginibre(3)
        assert np.allclose(apply(phi, x), s * x)

    def test_partial_trace_blocks(self):
        phi = PartialTrace2x2(block_dim=2)
        x = ginibre(4)
        assert np.allclose(apply(phi, x), x[:2, :2] + x[2:, 2:])

    def test_transpose_plus_identity_on_shift(self):
        z = np.array([[0.0, 4.0], [1.0, 0.0]])
        assert np.allclose(apply(example_map(), z), [[0, 5], [5, 0]])

    def test_linearity(self):
        rng = np.random.default_rng(1)
        for phi in family_zoo(rng):
            n = phi.in_dim
            x, y = ginibre(n, rng), ginibre(n, rng)
            c = complex(rng.standard_normal(), rng.standard_normal())
            lhs = apply(phi, c * x + y)
            rhs = c * apply(phi, x) + apply(phi, y)
            scale = 1 + np.abs(rhs).max()
            assert np.abs(lhs - rhs).max() < 1e-11 * scale

    def test_hermiticity_preserving(self):
        rng = np.random.default_rng(2)
        for phi in family_zoo(rng):
            x = ginibre(phi.in_dim, rng)
            lhs = apply(phi, x.conj().T)
            rhs = apply(phi, x).conj().T
            assert np.abs(lhs - rhs).max() < 1e-11 * (1 + np.abs(rhs).max())

    def test_identity_images_are_psd(self):
        rng = np.random.default_rng(3)
        for phi in family_zoo(rng):
            out = apply(phi, np.eye(phi.in_dim))
            assert np.linalg.eigvalsh(hermitian_part(out)).min() > -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply(IdentityMap(2), np.eye(3))


class TestClassAlgebra:
    def test_transpose_is_merely_positive(self):
        assert TransposeMap(3).declared_class == POSITIVE

    def test_cp_families(self):
        rng = np.random.default_rng(4)
        for phi in family_zoo(rng):
            if isinstance(phi, (KrausSum, SchurMultiplier, PartialTrace2x2, Congruence, IdentityMap)):
                assert phi.declared_class == COMPLETELY_POSITIVE

    def test_sum_and_compose_take_weakest(self):
        assert example_map().declared_class == POSITIVE
        comp = MapCompose(outer=Congruence(ginibre(2)), inner=TransposeMap(2))
        assert comp.declared_class == POSITIVE
        cp = MapCompose(outer=Congruence(ginibre(2)), inner=IdentityMap(2))
        assert cp.declared_class == COMPLETELY_POSITIVE

    def test_compose_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            MapCompose(outer=IdentityMap(3), inner=IdentityMap(2))


class TestCompressMap:
    def test_identity_weight_is_same_map(self):
        rng = np.random.default_rng(5)
        phi = KrausSum(kraus=(ginibre(3, rng), ginibre(3, rng)))
        psi = compress_map(phi, np.eye(3))
        x = ginibre(3, rng)
        assert np.abs(apply(psi, x) - apply(phi, x)).max() < 1e-10

    def test_identity_map_squeezes_weight(self):
        j = np.diag([2.0, 3.0])
        psi = compress_map(IdentityMap(2), j)
        x = ginibre(2)
        jh = np.diag(np.sqrt([2.0, 3.0]))
        assert np.abs(apply(psi, x) - jh @ x @ jh).max() < 1e-10

    def test_unit_is_weight_image(self):
        rng = np.random.default_rng(6)
        phi = SchurMultiplier(random_psd(3, rng))
        j = random_psd(3, rng)
        psi = compress_map(phi, j)
        assert np.abs(apply(psi, np.eye(3)) - apply(phi, j)).max() < 1e-9

    def test_reconstructs_on_weight_support(self):
        rng = np.random.default_rng(7)
        phi = KrausSum(kraus=(ginibre(3, rng),))
        j = random_psd(3, rng)  # full support almost surely
        from opcheck.linalg import generalized_inverse

        inv_half = generalized_inverse(j, -0.5)
        z = ginibre(3, rng)
        psi = compress_map(phi, j)
        assert np.abs(apply(psi, inv_half @ z @ inv_half) - apply(phi, z)).max() < 1e-8


class TestChoi:
    def test_identity_choi_is_rank_one_projector(self):
        c = choi_matrix(IdentityMap(2))
        assert np.allclose(c, [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]])
        vals = np.linalg.eigvalsh(c)
        assert vals.min() > -1e-12 and np.trace(c).real == pytest.approx(2.0)
        assert np.sum(vals > 1e-9) == 1

    def test_transpose_choi_is_swap(self):
        c = choi_matrix(TransposeMap(2))
        assert np.allclose(c, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert np.allclose(np.sort(np.linalg.eigvalsh(c)), [-1, 1, 1, 1])

    def test_single_kraus_choi_is_rank_one(self):
        rng = np.random.default_rng(8)
        k = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        c = choi_matrix(KrausSum(kraus=(k,)))
        vals = np.linalg.eigvalsh(c)
        assert vals.min() > -1e-10
        assert np.sum(vals > 1e-9 * vals.max()) == 1
        # trace equals the squared Frobenius norm of the operator
        assert np.trace(c).real == pytest.approx(np.linalg.norm(k) ** 2)

    def test_choi_psd_iff_declared_cp(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            zoo = family_zoo(rng)
            phi = zoo[int(rng.integers(len(zoo)))]
            vals = np.linalg.eigvalsh(choi_matrix(phi))
            scale = 1 + np.abs(vals).max()
            is_psd = vals.min() > -1e-9 * scale
            assert is_psd == (phi.declared_class == COMPLETELY_POSITIVE), type(phi)


class TestFalsifier:
    def test_transpose_fails_at_level_two(self):
        w = sample_positivity_falsifier(TransposeMap(2), level=2, trials=10_000, seed=0)
        assert w is not None and w.min_output_eigenvalue < -1e-3

    def test_transpose_passes_level_one(self):
        assert sample_positivity_falsifier(TransposeMap(2), level=1, trials=300, seed=1) is None

    def test_transpose_plus_identity_fails_at_level_two(self):
        w = sample_positivity_falsifier(example_map(), level=2, trials=10_000, seed=2)
        assert w is not None
        # the witness really is PSD input mapped to non-PSD output
        assert np.linalg.eigvalsh(w.input_matrix).min() > -1e-9

    def test_kraus_maps_never_fail(self):
        rng = np.random.default_rng(10)
        for seed in range(20):
            ops = tuple(ginibre(2, rng) for _ in range(int(rng.integers(1, 4))))
            phi = KrausSum(kraus=ops)
            assert sample_positivity_falsifier(phi, level=2, trials=40, seed=seed) is None

    def test_map_onto_empty_matrices_has_no_witness(self):
        # its images are 0 x 0, so there is no eigenvalue to be negative
        assert sample_positivity_falsifier(KrausSum(kraus=(np.zeros((0, 2)),)), level=2, trials=3, seed=0) is None

    def test_a_negative_seed_is_rejected_before_any_draw(self, monkeypatch):
        def no_draws(seed):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            sample_positivity_falsifier(TransposeMap(2), level=2, trials=10, seed=-1)

    def test_deterministic_in_seed(self):
        a = sample_positivity_falsifier(TransposeMap(2), level=2, trials=50, seed=5)
        b = sample_positivity_falsifier(TransposeMap(2), level=2, trials=50, seed=5)
        assert a.trial_index == b.trial_index
        assert np.array_equal(a.input_matrix, b.input_matrix)


def reference_falsifier(phi, level, trials, seed):
    """sample_positivity_falsifier as it was before the Cholesky screen, for
    finite outputs: an eigvalsh of every trial's output."""
    rng = np.random.default_rng(seed)
    d = level * phi.in_dim
    for trial in range(trials):
        if trial % 2 == 0:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            w = np.outer(v, v.conj())
        else:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            w = g @ g.conj().T
        lam = eigvalsh(hermitian_part(_amplified_apply(phi, w, level)))
        lam_min = float(lam[-1])
        if lam_min < -1e-7 * (1.0 + float(np.abs(lam).max())):
            return trial, w, lam_min
    return None


def leaky_identity(n, c):
    """X -> X + c X^T: positive, and at level 2 the output's lambda_min is
    about c times a negative eigenvalue of the partial transpose."""
    return MapSum(terms=(IdentityMap(n), MapCompose(outer=Congruence(np.sqrt(c) * np.eye(n)), inner=TransposeMap(n))))


def cp_maps(count=100):
    rng = np.random.default_rng(2027)
    for _ in range(count):
        n, m, k = (int(x) for x in rng.integers((2, 2, 1), (4, 4, 4)))
        yield KrausSum(kraus=tuple(
            (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(n) for _ in range(k)))


class TestFalsifierScreen:
    """The Cholesky screen skips only eigvalsh runs whose result cannot make
    a witness: every outcome equals the eigvalsh-only reference."""

    def test_matches_the_reference_near_the_threshold(self):
        # c sweeps the level-2 outputs from well inside the screen's margin
        # to well past the witness threshold
        found = set()
        for c in np.geomspace(3e-8, 1e-6, 8):
            for n in (2, 3):
                for seed in range(4):
                    phi = leaky_identity(n, c)
                    got = sample_positivity_falsifier(phi, level=2, trials=12, seed=seed)
                    ref = reference_falsifier(phi, 2, 12, seed)
                    if ref is None:
                        assert got is None
                    else:
                        trial, w, lam_min = ref
                        assert (got.trial_index, got.min_output_eigenvalue.hex()) == (trial, lam_min.hex())
                        assert got.input_matrix.tobytes() == w.tobytes() and got.level == 2
                    found.add(None if ref is None else ref[0])
        # no witness, a witness at the first trial and a later one all occur
        assert None in found and 0 in found and len(found) >= 3

    def test_cp_maps_have_no_witness(self):
        # pinned at the parent of the screen
        for i, phi in enumerate(cp_maps()):
            assert sample_positivity_falsifier(phi, level=1 + i % 2, trials=25, seed=i) is None

    @pytest.mark.parametrize(
        "family, n, level, pinned",
        [
            ("transpose", 2, 1, None),
            ("transpose", 2, 2, (0, "-0x1.52d2272117c3fp+2")),
            ("transpose", 3, 1, None),
            ("transpose", 3, 2, (0, "-0x1.60bb46f504afbp+3")),
            ("transpose_plus_identity", 2, 1, None),
            ("transpose_plus_identity", 2, 2, (0, "-0x1.3fe297776d8bbp+2")),
            ("transpose_plus_identity", 3, 1, None),
            ("transpose_plus_identity", 3, 2, (0, "-0x1.581474b43351bp+3")),
        ],
    )
    def test_witnesses_are_pinned(self, family, n, level, pinned):
        phi = TransposeMap(n) if family == "transpose" else example_map(n)
        w = sample_positivity_falsifier(phi, level=level, trials=200, seed=3)
        assert (None if w is None else (w.trial_index, w.min_output_eigenvalue.hex())) == pinned


def reference_schur_rejects(s) -> bool:
    """SchurMultiplier's PSD test as it was before the Cholesky screen."""
    lam = eigvalsh(require_hermitian(s))
    return bool(lam.size and float(lam[-1]) < -1e-9 * (1.0 + float(lam[0])))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_schur_factor_test_matches_the_reference_near_the_threshold(scale):
    rng = np.random.default_rng(7)
    q = np.linalg.qr(ginibre(3, rng))[0]
    for r in (0.0, 0.2, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99, 1.01, 1.1, 2.0):
        # lambda_min at r times the threshold -1e-9 (1 + lambda_max)
        s = hermitian_part((q * np.array([-r * 1e-9 * (1.0 + 2.0 * scale), scale, 2.0 * scale])) @ q.conj().T)
        try:
            SchurMultiplier(s)
            rejected = False
        except NotPositiveSemidefinite:
            rejected = True
        assert rejected == reference_schur_rejects(s)


class TestOverflowingImage:
    """Finite input whose image overflows raises ValueError, without a warning."""

    PHI = KrausSum(kraus=(1e160 * np.eye(2),))

    def test_apply(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="map output overflows"):
                apply(self.PHI, np.eye(2))

    @pytest.mark.parametrize("level", [1, 2])
    def test_falsifier(self, level):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="map output overflows"):
                sample_positivity_falsifier(self.PHI, level=level, trials=3, seed=0)

    def test_large_finite_image_is_kept(self):
        out = apply(KrausSum(kraus=(1e150 * np.eye(2),)), np.eye(2))
        assert np.allclose(out, 1e300 * np.eye(2), rtol=1e-15, atol=0.0)


class TestNormAttainedAtIdentity:
    def test_over_families_and_contractions(self):
        rng = np.random.default_rng(11)
        for phi in family_zoo(rng):
            n = phi.in_dim
            bound = operator_norm(apply(phi, np.eye(n)))
            for _ in range(20):
                g = ginibre(n, rng)
                a = g / (operator_norm(g) * (1 + rng.uniform(0, 1)))
                assert operator_norm(apply(phi, a)) <= bound + 1e-9 * (1 + bound)


class TestJson:
    def test_round_trip_every_family(self):
        rng = np.random.default_rng(12)
        for phi in family_zoo(rng):
            back = map_from_json(map_to_json(phi))
            assert back.declared_class == phi.declared_class
            assert (back.in_dim, back.out_dim) == (phi.in_dim, phi.out_dim)
            x = ginibre(phi.in_dim, rng)
            assert np.abs(apply(back, x) - apply(phi, x)).max() < 1e-14

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            map_from_json({"family": "mystery", "params": {}})

    @pytest.mark.parametrize(
        "payload",
        [
            {"family": "identity", "params": {"dim": 2, "size": 3}},
            {"family": "identity", "params": {}},
            {"family": "identity", "params": {"dim": 2.5}},
            {"family": "transpose", "params": {"dim": "3"}},
            {"family": "partial_trace_2x2", "params": {"block_dim": True}},
            {
                "family": "compose",
                "params": {
                    "outer": {"family": "identity", "params": {"dim": 2}},
                    "inner": {"family": "identity", "params": {"dim": 2.0}},
                },
            },
        ],
    )
    def test_malformed_params_rejected(self, payload):
        with pytest.raises(ValueError):
            map_from_json(payload)

    def test_params_are_constructor_fields(self):
        phi = MapCompose(outer=IdentityMap(2), inner=PartialTrace2x2(block_dim=2))
        payload = map_to_json(phi)
        assert payload["family"] == "compose"
        assert payload["params"]["inner"]["params"] == {"block_dim": 2}
        assert payload["in_dim"] == 4 and payload["out_dim"] == 2
        assert payload["class"] == COMPLETELY_POSITIVE

    def test_a_kraus_sum_shows_only_its_operators(self):
        # the stacked operators and adjoints that apply uses are not fields,
        # so neither JSON nor repr nor == reads them
        phi = KrausSum(kraus=(np.eye(2), np.array([[0, 1j], [2, 0]])))
        assert [f.name for f in fields(phi)] == ["kraus"]
        assert list(map_to_json(phi)["params"]) == ["kraus"]
        assert repr(phi) == f"KrausSum(kraus={phi.kraus!r})"


@pytest.mark.parametrize(
    "value",
    [complex(np.nan, 0), complex(np.inf, 0), complex(-np.inf, 0),
     complex(0, np.nan), complex(0, np.inf), complex(0, -np.inf)],
    ids=["nan", "inf", "-inf", "nan-imag", "inf-imag", "-inf-imag"],
)
def test_apply_rejects_non_finite_input(value):
    x = np.eye(2, dtype=complex)
    x[0, 1] = value
    with pytest.raises(ValueError, match="non-finite"):
        apply(IdentityMap(2), x)


IDENTITY_2 = {"family": "identity", "params": {"dim": 2}}
EYE_2 = {"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}


@pytest.mark.parametrize(
    "payload",
    [
        [IDENTITY_2],
        {"family": ["identity"], "params": {"dim": 2}},
        {"family": "identity", "params": ["dim"]},
        {"family": "identity", "params": {"dim": EYE_2}},
        {"family": "identity", "params": {"dim": [2]}},
        {"family": "congruence", "params": {"operator": 2}},
        {"family": "kraus_sum", "params": {"kraus": EYE_2}},
        {"family": "schur_multiplier", "params": {"factor": [[1, 0], [0, 1]]}},
        {"family": "sum", "params": {"terms": [1, 2]}},
        {"family": "compose", "params": {"outer": 1, "inner": IDENTITY_2}},
    ],
    ids=["top-level-list", "family-list", "params-list", "dim-matrix", "dim-list", "operator-int",
         "kraus-not-list", "factor-nested-list", "terms-ints", "outer-int"],
)
def test_params_decoded_by_declared_field_type(payload):
    with pytest.raises(ValueError):
        map_from_json(payload)


@pytest.mark.parametrize(
    "family, params, build",
    [
        ("transpose", {"dim": -2}, lambda: TransposeMap(-2)),
        ("identity", {"dim": 0}, lambda: IdentityMap(0)),
        ("partial_trace_2x2", {"block_dim": 0}, lambda: PartialTrace2x2(block_dim=0)),
    ],
    ids=["transpose-dim", "identity-dim", "partial-trace-block-dim"],
)
def test_integer_params_are_range_checked(family, params, build):
    with pytest.raises(ValueError, match="must be >= 1"):
        build()
    with pytest.raises(ValueError, match="must be >= 1"):
        map_from_json({"family": family, "params": params})


def test_map_rejects_unknown_top_level_keys():
    with pytest.raises(ValueError, match="unknown map keys"):
        map_from_json({**IDENTITY_2, "parms": {"dim": 3}})
