"""Tests for the certificate-producing checks and the named reproductions."""

import math

import numpy as np
import pytest

import opcheck.checks
from opcheck.checks import (
    FunPair,
    _images_dominated,
    _polar_witness_and_modulus,
    check_arithmetic_domination,
    check_cartesian_suite,
    check_eigenvalue_gaps,
    check_geometric_domination,
    check_log_majorization,
    check_reverse_product,
    check_russo_dye,
    check_schur_remarks,
    check_two_positive_split,
    domination_holds,
    find_counterexamples_remarks,
    moduli_images,
    reproduce_counterexample_2_8,
    reproduce_sharpness_cor2_5,
)
from opcheck.campaign import _CHECK_ARGS
from opcheck.decompose import comodulus, modulus, svd_square
from opcheck.errors import ClassViolation, HypothesisViolated, NotContraction, SearchExhausted
from opcheck.linalg import _eig, generalized_inverse, hermitian_part, loewner_leq, operator_norm
from opcheck.posmap import (
    IdentityMap,
    KrausSum,
    MapSum,
    SchurMultiplier,
    TransposeMap,
    apply,
)

SHIFT = np.array([[0.0, 4.0], [1.0, 0.0]], dtype=complex)
RNG = np.random.default_rng(0)


def ginibre(n, rng=RNG):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def wishart(n, rng=RNG):
    g = ginibre(n, rng)
    return hermitian_part(g @ g.conj().T)


def haar(n, rng=RNG):
    q, r = np.linalg.qr(ginibre(n, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def graded(n, sigma, rng=RNG):
    """U diag(sigma) V* with Haar-random U and V."""
    return haar(n, rng) @ np.diag(sigma) @ haar(n, rng).conj().T


def contraction(n, rng=RNG):
    g = ginibre(n, rng)
    return g / (operator_norm(g) * (1 + rng.uniform(0, 1)))


def range_projection(z):
    """(Z Z*)^0, the projection onto the column space of Z."""
    return generalized_inverse(hermitian_part(z @ z.conj().T), 0)


def witness_unitary(phi, z):
    """The checks' witness: the adjoint polar unitary V of phi(Z), so V phi(Z) = |phi(Z)|."""
    return _polar_witness_and_modulus(svd_square(apply(phi, z)))[0]


def kato_supremum(z):
    """Least upper bound |Z| v |Z*| of the two moduli, a tight weight for the
    plain pair: sweeping the shared singular values downward, each level
    adds its value on the new directions its eigenvectors of |Z| and |Z*|
    add to the running span."""
    parts = svd_square(z)
    n = parts.right.shape[0]
    sig = parts.values
    cluster = 1e-9 * sig.max()
    basis, out, i = [], np.zeros((n, n), dtype=complex), 0
    while i < n and len(basis) < n and sig[i] > 0.0:
        j = i
        while j < n and sig[j] > sig[i] - cluster:
            j += 1
        for source in (parts.right, parts.left):
            for col in range(i, j):
                cand = source[:, col].copy()
                for b in basis:
                    cand -= b * np.vdot(b, cand)
                norm = np.linalg.norm(cand)
                if norm > 1e-8:
                    basis.append(cand / norm)
                    out += sig[i] * np.outer(basis[-1], basis[-1].conj())
        i = j
    return hermitian_part(out)


class TestFunPair:
    def test_product_is_t_squared_on_grid(self):
        grid = np.linspace(0.0, 5.0, 41)
        for fp in (FunPair.power(0.0), FunPair.power(0.7), FunPair.power(-1.0),
                   FunPair.range_pair(), FunPair.scaled(3.0)):
            product = fp.f_sigma(grid) * fp.g_sigma(grid)
            assert product[0] == 0.0
            assert product[1:] == pytest.approx(grid[1:] ** 2, rel=1e-12)

    def test_power_pair_matrix_images(self):
        rng = np.random.default_rng(1)
        z = ginibre(4, rng)
        fp = FunPair.power(0.5)
        f_img, g_img = moduli_images(z, fp)
        assert np.abs(f_img - generalized_inverse(modulus(z), 1.5)).max() < 1e-9
        assert np.abs(g_img - generalized_inverse(comodulus(z), 0.5)).max() < 1e-9

    def test_range_pair_matrix_images(self):
        z = np.diag([2.0, 0.0]).astype(complex)
        f_img, g_img = moduli_images(z, FunPair.range_pair())
        assert np.allclose(f_img, np.diag([4.0, 0.0]))
        assert np.allclose(g_img, range_projection(z))

    def test_range_pair_is_power_one_bitwise(self):
        rng = np.random.default_rng(5)
        for z in (ginibre(3, rng), graded(4, [1.0, 0.5, 0.0, 0.0], rng), SHIFT):
            for a, b in zip(moduli_images(z, FunPair.range_pair()), moduli_images(z, FunPair.power(1.0))):
                assert a.tobytes() == b.tobytes()

    def test_scaled_pair_rescales_the_moduli(self):
        rng = np.random.default_rng(6)
        z = ginibre(4, rng)
        for rho in (0.25, 3.0):
            f_img, g_img = moduli_images(z, FunPair.scaled(rho))
            assert np.abs(f_img - math.sqrt(rho) * modulus(z)).max() <= 1e-12 * math.sqrt(rho)
            assert np.abs(g_img - comodulus(z) / math.sqrt(rho)).max() <= 1e-12 / math.sqrt(rho)

    @pytest.mark.parametrize(
        "sigma, rank",
        [
            ([1.0, 0.5, 0.2, 0.0], 3),
            ([1.0, 0.5, 0.0, 0.0], 2),
            ([1.0, 0.3, 0.1, 1e-5], 4),
            ([1.0, 0.3, 0.1, 1e-7], 3),
        ],
    )
    def test_zeroth_powers_share_the_svd_rank(self, sigma, rank):
        """Every p = 0 projection has trace svd_square(z).rank: the rank rule
        acts once, on sigma^2, so sigma_min/sigma_max = 1e-7 is off the support."""
        z = graded(4, sigma, np.random.default_rng(7))
        assert svd_square(z).rank == rank
        projections = (
            moduli_images(z, FunPair.power(-1.0))[0],
            moduli_images(z, FunPair.power(1.0))[1],
            moduli_images(z, FunPair.range_pair())[1],
            range_projection(z),
            range_projection(z.conj().T),
        )
        for proj in projections:
            assert np.trace(proj).real == pytest.approx(rank, abs=1e-9)

    def test_json_round_trip(self):
        for fp in (FunPair.power(-0.25), FunPair.range_pair(), FunPair.scaled(2.0)):
            assert FunPair.from_json(fp.to_json()) == fp

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FunPair(kind="mystery")


class TestDomination:
    def test_contraction_under_identity(self):
        a = contraction(3)
        assert domination_holds(a, np.eye(3), FunPair.power(0.0))

    def test_scaled_pair_on_own_modulus(self):
        z = np.array([[0.0, 1.0], [4.0, 0.0]])
        fp = FunPair.scaled(4.0)
        j = hermitian_part(2.0 * modulus(z))
        assert domination_holds(z, j, fp)

    def test_violated_hypothesis_detected(self):
        z = 2.0 * np.eye(2)  # |Z|^2 = 4 I is not below the range projection
        assert not domination_holds(z, range_projection(z), FunPair.range_pair())

    def test_empty_matrices_are_dominated(self):
        empty = np.zeros((0, 0))
        assert domination_holds(empty, empty, FunPair.power(0.5))
        assert _images_dominated(empty, empty, empty, None)


class TestWitness:
    def test_positive_definite_gives_identity(self):
        rng = np.random.default_rng(2)
        h = wishart(3, rng) + 0.5 * np.eye(3)
        v = witness_unitary(IdentityMap(3), h)
        assert np.abs(v - np.eye(3)).max() < 1e-9

    def test_off_diagonal_swap(self):
        phi = MapSum(terms=(IdentityMap(2), TransposeMap(2)))
        v = witness_unitary(phi, SHIFT)  # phi(Z) = [[0, 5], [5, 0]]
        assert np.allclose(v, [[0, 1], [1, 0]], atol=1e-12)

    def test_zero_image_defaults_to_identity(self):
        v = witness_unitary(KrausSum(kraus=(np.zeros((2, 2)),)), np.eye(2))
        assert np.allclose(v, np.eye(2))

    def test_witness_straightens_image(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            phi = KrausSum(kraus=(ginibre(n, rng), ginibre(n, rng)))
            z = ginibre(n, rng)
            v = witness_unitary(phi, z)
            img = apply(phi, z)
            assert np.abs(v @ img - modulus(img)).max() < 1e-9 * (1 + np.abs(img).max())


class TestRussoDye:
    def test_identity_map_reduces_to_contraction_norm(self):
        a = contraction(3)
        cert = check_russo_dye(IdentityMap(3), a)
        assert cert.passed
        assert cert.rhs[0, 0].real == pytest.approx(1.0)

    def test_schur_map_identity_input_is_equality(self):
        rng = np.random.default_rng(4)
        phi = SchurMultiplier(wishart(3, rng))
        cert = check_russo_dye(phi, np.eye(3))
        assert cert.passed and abs(cert.slack) < 1e-9

    def test_rejects_expansions(self):
        with pytest.raises(NotContraction):
            check_russo_dye(IdentityMap(2), 2 * np.eye(2))


class TestDominationCertificates:
    def test_identity_map_contraction_passes(self):
        a = contraction(3)
        fp = FunPair.power(0.0)
        cert = check_arithmetic_domination(IdentityMap(3), a, np.eye(3), fp)
        assert cert.passed
        cert = check_geometric_domination(IdentityMap(3), a, np.eye(3), fp)
        assert cert.passed and not cert.used_singular_mean_limit

    def test_unitary_input_is_tight(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(ginibre(3, rng))
        cert = check_geometric_domination(IdentityMap(3), q, np.eye(3), FunPair.power(0.0))
        assert cert.passed and abs(cert.slack) < 1e-9
        assert np.abs(cert.rhs - np.eye(3)).max() < 1e-9

    def test_shift_with_supremum_weight(self):
        phi = MapSum(terms=(IdentityMap(2), TransposeMap(2)))
        j = 4.0 * np.eye(2)  # supremum of the two moduli of SHIFT
        cert = check_arithmetic_domination(phi, SHIFT, j, FunPair.power(0.0))
        assert cert.passed
        # phi(J) = 8I and |phi(Z)| = 5I, so the margin is exactly 3
        assert cert.slack == pytest.approx(3.0, abs=1e-9)

    def test_hypothesis_violation_raises(self):
        with pytest.raises(HypothesisViolated):
            check_arithmetic_domination(
                IdentityMap(2), 3 * np.eye(2), np.eye(2), FunPair.power(0.0)
            )
        with pytest.raises(HypothesisViolated):
            check_geometric_domination(
                IdentityMap(2), 3 * np.eye(2), np.eye(2), FunPair.power(0.0)
            )

    def test_geometric_sharpens_arithmetic(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            phi = KrausSum(kraus=(ginibre(n, rng), ginibre(n, rng)))
            z = ginibre(n, rng)
            fp = FunPair.power(float(rng.uniform(-0.5, 0.5)))
            f_img, g_img = moduli_images(z, fp)
            j = hermitian_part(f_img + g_img)
            ca = check_arithmetic_domination(phi, z, j, fp)
            cg = check_geometric_domination(phi, z, j, fp)
            assert ca.passed and cg.passed
            assert loewner_leq(cg.rhs, ca.rhs).holds

    def test_certificate_json_shape(self):
        a = contraction(2)
        cert = check_geometric_domination(IdentityMap(2), a, np.eye(2), FunPair.power(0.0))
        payload = cert.to_json()
        assert set(payload) >= {
            "check_id", "pass", "slack", "witness_V", "used_singular_mean_limit", "inputs", "notes",
        }
        assert payload["pass"] is True
        assert payload["witness_V"]["rows"] == 2
        assert len(payload["inputs_digest"]) == 64

    def test_certificate_witness_is_unitary(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            phi = KrausSum(kraus=(ginibre(n, rng), ginibre(n, rng)))
            z = ginibre(n, rng)
            fp = FunPair.power(0.0)
            f_img, g_img = moduli_images(z, fp)
            cert = check_geometric_domination(phi, z, hermitian_part(f_img + g_img), fp)
            v = cert.witness_v
            assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-9


class TestTwoPositiveSplit:
    def test_normal_matrix_is_tight_at_zero_exponent(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(ginibre(3, rng))
        z = (q * (rng.standard_normal(3) + 1j * rng.standard_normal(3))) @ q.conj().T
        cert = check_two_positive_split(IdentityMap(3), z, 0.0)
        assert cert.passed and abs(cert.slack) < 1e-8

    def test_exponent_sweep_on_cp_maps(self):
        rng = np.random.default_rng(8)
        for p in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for _ in range(10):
                n = int(rng.integers(2, 5))
                phi = KrausSum(kraus=(ginibre(n, rng), ginibre(n, rng)))
                cert = check_two_positive_split(phi, ginibre(n, rng), p)
                assert cert.passed, (p, cert.slack)

    def test_refuses_merely_positive_maps(self):
        with pytest.raises(ClassViolation):
            check_two_positive_split(TransposeMap(2), SHIFT, 0.0)
        with pytest.raises(ClassViolation):
            check_two_positive_split(
                MapSum(terms=(IdentityMap(2), TransposeMap(2))), SHIFT, 0.0
            )


class TestSpectralReports:
    def _instance(self, rng, kind="power"):
        n = int(rng.integers(2, 6))
        phi = KrausSum(kraus=(ginibre(n, rng), ginibre(n, rng)))
        z = ginibre(n, rng)
        fp = FunPair.power(float(rng.uniform(-0.5, 0.5))) if kind == "power" else FunPair.range_pair()
        f_img, g_img = moduli_images(z, fp)
        j = hermitian_part(f_img + g_img)
        return phi, z, j, fp

    def test_log_majorization_equality_for_normal(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(ginibre(3, rng))
        z = (q * (rng.standard_normal(3) + 1j * rng.standard_normal(3))) @ q.conj().T
        rep = check_log_majorization(IdentityMap(3), z, modulus(z), FunPair.power(0.0))
        assert rep.passed
        assert np.allclose(rep.k_products_lhs, rep.k_products_rhs, rtol=1e-9)

    def test_log_majorization_campaign(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            phi, z, j, fp = self._instance(rng)
            assert check_log_majorization(phi, z, j, fp).passed

    def test_gap_grid_diagonal_case(self):
        # with phi = id and Z = J = diag the bound is sorted-value monotonicity
        d = np.diag([5.0, 4.0, 3.0, 2.0])
        rep = check_eigenvalue_gaps(IdentityMap(4), d, d, FunPair.power(0.0))
        assert rep.passed and rep.checked > 0

    def test_gap_grid_keeps_weights_below_the_rank_cutoff(self):
        # lam_1(J) = 1e-13 is below rank_cutoff * lam_0 but still bounds sigma_1 by
        # sqrt(lam_0 lam_1): the right-hand spectrum is clamped at 0, not cut at the rank rule
        j = np.diag([1.0, 1e-13])
        rep = check_eigenvalue_gaps(IdentityMap(2), np.diag([0.5, 0.0]), j, FunPair.power(0.0))
        assert rep.passed
        assert rep.worst_margin == pytest.approx(math.sqrt(1e-13), rel=1e-9)

    def test_gap_grid_schur_contraction(self):
        # third singular value of S o A under the second diagonal entry, n = 5
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = wishart(5, rng)
            phi = SchurMultiplier(s)
            a = contraction(5, rng)
            rep = check_eigenvalue_gaps(phi, a, np.eye(5), FunPair.power(0.0))
            # the 15 index pairs of the grid against eig phi(I), and the two remarks
            assert rep.passed and rep.checked == 17
            assert "schur factor variants included" in rep.notes
            svals = np.linalg.svd(s * a, compute_uv=False)
            diag_sorted = np.sort(np.diag(s).real)[::-1]
            assert svals[2] <= diag_sorted[1] + 1e-9

    def test_gap_grid_at_a_scalar_weight_is_the_schur_specialization(self):
        # phi(I) = diag(S) is diagonal, and the kernel returns its entries without a
        # rotation, so the grid against eig phi(J) is the one against the sorted
        # diagonal of S: it runs once, 10 index pairs at n = 4, plus the two remarks
        rng = np.random.default_rng(13)
        s = wishart(4, rng)
        phi = SchurMultiplier(s)
        spectrum = _eig(hermitian_part(apply(phi, np.eye(4))), vectors=False)[0]
        assert np.array_equal(spectrum, np.sort(np.diag(s).real)[::-1])
        rep = check_eigenvalue_gaps(phi, contraction(4, rng), np.eye(4), FunPair.power(0.0))
        assert rep.passed and rep.checked == 12
        assert rep.notes == "schur factor variants included"

    def test_reverse_product_determinant_identity(self):
        # with Z = J the full-length products coincide: both are det(J)^2
        rng = np.random.default_rng(12)
        j = wishart(4, rng)
        rep = check_reverse_product(IdentityMap(4), j, j, FunPair.power(0.0))
        assert rep.passed
        assert rep.products_lhs_squared[-1] == pytest.approx(rep.products_mixed[-1], rel=1e-8)
        assert rep.worst_ratio == pytest.approx(1.0, abs=1e-9)

    def test_reverse_product_campaign(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            phi, z, j, fp = self._instance(rng, kind="range" if rng.uniform() < 0.3 else "power")
            assert check_reverse_product(phi, z, j, fp).passed

    def test_schur_remark_bounds(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            rep = check_schur_remarks(wishart(int(rng.integers(2, 7)), rng))
            assert rep.passed

    def test_schur_remarks_on_an_empty_factor(self):
        rep = check_schur_remarks(np.zeros((0, 0)))
        assert rep.passed
        assert rep.worst_margin_expansive == rep.worst_margin_contractive == math.inf


EMPTY_ARGS = {"contraction": np.zeros((0, 0)), "z": np.zeros((0, 0)), "j": np.zeros((0, 0)),
              "funpair": FunPair.power(0.0), "split_exponent": 0.5}


@pytest.mark.parametrize("phi", [KrausSum(kraus=(np.zeros((0, 0)),)), SchurMultiplier(np.zeros((0, 0)))],
                         ids=["kraus_sum", "schur_multiplier"])
@pytest.mark.parametrize("check_id", list(_CHECK_ARGS))
def test_every_check_takes_empty_input(phi, check_id):
    check = getattr(opcheck.checks, check_id)
    outcome = check(phi, *[EMPTY_ARGS[name] for name in _CHECK_ARGS[check_id]])
    assert outcome.passed
    assert outcome.to_json()["pass"] is True


class TestCartesianSuite:
    def test_hermitian_input_reduces_to_identities(self):
        rng = np.random.default_rng(15)
        h = hermitian_part(ginibre(3, rng))
        rep = check_cartesian_suite(IdentityMap(3), h)
        assert rep.passed
        assert rep.norm_value <= 1 + 1e-9
        assert np.abs(rep.mean_certificate.lhs - modulus(h)).max() < 1e-9

    def test_commuting_parts_dominate_exactly(self):
        x = np.diag([1.0, -2.0])
        y = np.diag([3.0, 0.5])
        z = x + 1j * y
        rep = check_cartesian_suite(IdentityMap(2), z)
        assert rep.passed
        k = modulus(x) + modulus(y)
        assert loewner_leq(modulus(z), k).holds

    def test_random_campaign(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            phi = KrausSum(kraus=(ginibre(n, rng),  ginibre(n, rng)))
            rep = check_cartesian_suite(phi, ginibre(n, rng))
            assert rep.passed
            assert rep.rho_value <= 1 + 1e-6
            assert rep.norm_value <= 1 + 1e-6


class TestWitnessSufficiency:
    def test_constructed_witness_never_fails_but_random_can(self):
        # across seeds, the polar-based witness always certifies; a Haar
        # replacement witness violates the bound on at least one instance
        from opcheck.means import geometric_mean

        rng = np.random.default_rng(17)
        random_v_failed = False
        for _ in range(40):
            n = int(rng.integers(2, 5))
            phi = IdentityMap(n)
            z = ginibre(n, rng)
            fp = FunPair.power(0.0)
            j = kato_supremum(z)  # tight weight, so the witness choice matters
            cert = check_geometric_domination(phi, z, j, fp)
            assert cert.passed
            q, _ = np.linalg.qr(ginibre(n, rng))
            phj = hermitian_part(apply(phi, j))
            rhs_rand = geometric_mean(phj, hermitian_part(q @ phj @ q.conj().T))
            if not loewner_leq(cert.lhs, rhs_rand).holds:
                random_v_failed = True
        assert random_v_failed


class TestSpecializationConsistency:
    def test_normal_input_with_own_modulus_weight(self):
        # the general bound at J = |N| with the plain pair is the normal-matrix
        # statement; the certificate's rhs is the direct construction
        rng = np.random.default_rng(18)
        from opcheck.means import geometric_mean

        for _ in range(10):
            q, _ = np.linalg.qr(ginibre(3, rng))
            z = (q * (rng.standard_normal(3) + 1j * rng.standard_normal(3))) @ q.conj().T
            phi = KrausSum(kraus=(ginibre(3, rng), ginibre(3, rng)))
            cert = check_geometric_domination(phi, z, modulus(z), FunPair.power(0.0))
            assert cert.passed
            v = cert.witness_v
            assert np.array_equal(v, witness_unitary(phi, z))
            phm = hermitian_part(apply(phi, modulus(z)))
            direct = geometric_mean(phm, hermitian_part(v @ phm @ v.conj().T))
            assert np.abs(cert.rhs - direct).max() < 1e-9 * (1 + np.abs(direct).max())

    def test_contraction_with_identity_weight(self):
        rng = np.random.default_rng(19)
        from opcheck.means import geometric_mean

        for _ in range(10):
            a = contraction(3, rng)
            phi = SchurMultiplier(wishart(3, rng))
            cert = check_geometric_domination(phi, a, np.eye(3), FunPair.power(0.0))
            assert cert.passed
            v = cert.witness_v
            phi_eye = hermitian_part(apply(phi, np.eye(3)))
            direct = geometric_mean(phi_eye, hermitian_part(v @ phi_eye @ v.conj().T))
            assert np.abs(cert.rhs - direct).max() < 1e-9 * (1 + np.abs(direct).max())


class TestReproductions:
    def test_example_2_8_exact_determinants(self):
        rep = reproduce_counterexample_2_8()
        assert rep.passed
        assert rep.det_lhs == pytest.approx(25.0, rel=1e-12)
        assert rep.det_rhs_min == pytest.approx(16.0, rel=1e-9)
        assert rep.det_rhs_max == pytest.approx(16.0, rel=1e-9)

    @pytest.mark.parametrize("k", [1.0, 4.0, 100.0])
    def test_sharpness_values(self, k):
        rep = reproduce_sharpness_cor2_5(k)
        assert rep.passed
        assert rep.rho == pytest.approx(k, abs=1e-10 * max(1.0, k))
        assert rep.bracket_lhs == pytest.approx(k, rel=1e-9)
        assert rep.required_constant >= math.sqrt(k) * (1 - 1e-6)

    @pytest.mark.parametrize("k", [0.0, 0.5, math.inf, math.nan])
    def test_sharpness_needs_a_finite_weight_of_at_least_one(self, k):
        # at k = 0.5, rho(|Z*| |Z|^-1) = 1 / k = 2: the example shows nothing
        with pytest.raises(ValueError, match="finite number >= 1"):
            reproduce_sharpness_cor2_5(k)


class TestCounterexampleSearch:
    def test_finds_all_three_and_validates(self):
        rep = find_counterexamples_remarks(trials=10_000, seed=5, dim=2)
        assert rep.all_found
        assert rep.loewner_witness.margin > 1e-3
        assert rep.consistency_ok
        assert rep.worst_rho <= 1 + 1e-6
        assert rep.worst_congruence_norm <= 1 + 1e-6

    def test_pinned_witnesses_and_worst_rho(self):
        rep = find_counterexamples_remarks(trials=3000, seed=5, dim=2)
        witnesses = {name: (w.trial_index, w.margin.hex()) for name, w in rep.witnesses.items()}
        assert witnesses == {
            "loewner": (1, "0x1.25b4f058d18b7p-4"),
            "half_power": (1, "0x1.7128917d7a240p-6"),
            "plain_norm": (0, "0x1.2fb57b23dac00p-9"),
        }
        # the largest eigenvalue modulus; the norm-of-powers loop it replaced
        # gave 0x1.f7bd8bf03e5e6p-1, an upper bound 1.5e-14 above it
        assert rep.worst_rho == pytest.approx(float.fromhex("0x1.f7bd8bf03e5e6p-1"), rel=1e-10)
        assert rep.consistency_ok

    def test_dimension_three_also_works(self):
        rep = find_counterexamples_remarks(trials=5000, seed=6, dim=3)
        assert rep.all_found and rep.consistency_ok

    def test_exhaustion_raises(self):
        # seed 1's first draw satisfies all three bounds, so one trial cannot succeed
        with pytest.raises(SearchExhausted):
            find_counterexamples_remarks(trials=1, seed=1, dim=2)
