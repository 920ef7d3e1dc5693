"""The validation boundary: each public function checks its arguments, then
calls a private core that trusts them, and internal code calls the cores.

Each core gives its public function's bytes on the kinds of matrices that
internal code builds, every public function raises the errors it raised
before the split, and an internal matrix that overflows still raises the
validation error, not LAPACK's LinAlgError.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import opcheck.checks as C
import opcheck.decompose as D
import opcheck.linalg as L
import opcheck.means as M
import opcheck.posmap as P
from opcheck.errors import ClassViolation, DimensionMismatch, HypothesisViolated, NonHermitian, NotContraction


def fingerprint(x):
    """Arrays as dtype, shape and bytes, containers and dataclasses item by
    item, anything else by repr."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(fingerprint(v) for v in x)
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(fingerprint(getattr(x, f.name)) for f in dataclasses.fields(x))
    return repr(x)


def outcome(fn, *args):
    """The fingerprint of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return fingerprint(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def signed_zeros(rng, n):
    """Entries drawn from +0, -0 and a few small values, in both parts."""
    m = np.empty((n, n), dtype=complex)
    m.real = rng.choice([0.0, -0.0, 1.0, -2.5], (n, n))
    m.imag = rng.choice([0.0, -0.0, 0.5, -0.5], (n, n))
    return m


def square_cases():
    """Seeded square matrices for n = 1..5: random; graded, with singular
    values logspace(0, -12, n); rank-deficient; scaled by 2^-100 and 2^100;
    real; diagonal; purely imaginary; and with +0 and -0 entries."""
    rng = np.random.default_rng(140)
    cases = []
    for n in range(1, 6):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        cases += [
            g,
            (u * np.logspace(0, -12, n)) @ v.conj().T,
            g * (np.arange(n) < n // 2),
            g * 2.0**-100,
            g * 2.0**100,
            rng.standard_normal((n, n)) + 0j,
            np.diag(rng.standard_normal(n)) + 0j,
            1j * rng.standard_normal((n, n)),
            signed_zeros(rng, n),
        ]
    return cases


SQUARE = square_cases()
# what internal code hands the Hermitian cores: Hermitian parts, PSD Gram
# matrices, and differences of Hermitian parts
HERMITIAN = [L.hermitian_part(z) for z in SQUARE] + [L.hermitian_part(z @ z.conj().T) for z in SQUARE]
DIFFERENCES = [L.hermitian_part(a) - L.hermitian_part(b) for a, b in zip(SQUARE, SQUARE[1:]) if a.shape == b.shape]
PAIRS = [(a, b) for a, b in zip(HERMITIAN, HERMITIAN[1:]) if a.shape == b.shape]
PSD = HERMITIAN[len(SQUARE):]
PSD_PAIRS = [(a, b) for a, b in zip(PSD, PSD[1:]) if a.shape == b.shape]


class TestCoresGiveThePublicBytes:
    def test_eig_sweeps_what_require_hermitian_returns(self):
        for h in HERMITIAN + DIFFERENCES:
            for vectors in (True, False):
                reference = L._sweeps(L.require_hermitian(h), vectors)
                assert fingerprint(L._eig(h, vectors=vectors)) == fingerprint(reference)
            assert outcome(L._eig, h) == outcome(lambda x: tuple(dataclasses.astuple(L.eigh(x))), h)
            assert outcome(lambda x: L._eig(x, vectors=False)[0], h) == outcome(L.eigvalsh, h)

    def test_svd(self):
        for z in SQUARE:
            assert outcome(D._svd, z, None) == outcome(D.svd_square, z)

    def test_operator_norm(self):
        for z in SQUARE + HERMITIAN + [z[:, :-1] for z in SQUARE if z.shape[0] > 1]:
            assert outcome(L._operator_norm, z) == outcome(L.operator_norm, z)

    def test_spectral_radius(self):
        for z in SQUARE:
            assert outcome(L._spectral_radius, z) == outcome(L.spectral_radius, z)

    def test_cartesian(self):
        for z in SQUARE:
            assert outcome(D._cartesian, z) == outcome(D.cartesian, z)

    def test_apply(self):
        for z in SQUARE:
            n = z.shape[0]
            kraus = (np.arange(2 * n * n).reshape(2 * n, n) + 1j) / n
            for phi in (P.IdentityMap(n), P.TransposeMap(n), P.KrausSum(kraus=(kraus,))):
                assert outcome(P._apply, phi, z) == outcome(P.apply, phi, z)

    def test_loewner_leq(self):
        for a, b in PAIRS:
            assert outcome(L._loewner_leq, a, b, None) == outcome(L.loewner_leq, a, b)

    def test_geometric_mean(self):
        for a, b in PSD_PAIRS:
            assert outcome(M._geometric_mean, a, b, None) == outcome(M.geometric_mean_ex, a, b)

    def test_weak_log_majorizes(self):
        for a, b in PAIRS:
            spectra = (M._clamped_spectrum(a, None), M._clamped_spectrum(b, None))
            assert outcome(M._weak_log_majorizes, *spectra, None) == outcome(M.weak_log_majorizes, a, b)

    def test_square_root_and_psd_radius(self):
        for a, b in PSD_PAIRS:
            assert (outcome(L._spectral_radius_psd_product, a, L.sqrtm_psd(b))
                    == outcome(L.spectral_radius_psd_product, a, b))

    def test_schur_remarks(self):
        for s in PSD:
            assert outcome(C._schur_remarks, s, None) == outcome(C.check_schur_remarks, s)


I2 = np.eye(2, dtype=complex)
Z2 = np.array([[0.25, 0.1j], [0.05, -0.15]])
PHI = P.IdentityMap(2)
FP = C.FunPair.power(0.25)

# one bad input of each kind for a 2 x 2 argument
BAD = {
    "nan": np.array([[1.0, math.nan], [0.0, 1.0]]),
    "inf": np.array([[1.0, 0.0], [0.0, math.inf]]),
    "neg_inf_imag": np.array([[1.0, complex(0.0, -math.inf)], [0.0, 1.0]]),
    "non_square": np.ones((2, 3)),
    "vector": np.ones(2),
    "wrong_size": np.eye(3),
    "non_hermitian": np.array([[1.0, 1.0], [0.0, 1.0]]),
    "hermitian_part_overflows": np.array([[1.5e308, 7.5e307], [7.5e307, 1.5e308]]),
    "gram_overflows": 1e160 * np.array([[1.0, 2.0j], [0.5, -1.0]]),
}

# a call of a public function with one argument replaced by the bad input
ONE_ARG = {
    "as_matrix": lambda x: L.as_matrix(x),
    "require_square": lambda x: L.require_square(x),
    "require_hermitian": lambda x: L.require_hermitian(x),
    "eigh": lambda x: L.eigh(x),
    "eigvalsh": lambda x: L.eigvalsh(x),
    "sqrtm_psd": lambda x: L.sqrtm_psd(x),
    "generalized_inverse": lambda x: L.generalized_inverse(x, -0.5),
    "loewner_leq_a": lambda x: L.loewner_leq(x, I2),
    "loewner_leq_b": lambda x: L.loewner_leq(I2, x),
    "operator_norm": lambda x: L.operator_norm(x),
    "spectral_radius_psd_product_a": lambda x: L.spectral_radius_psd_product(x, I2),
    "spectral_radius_psd_product_b": lambda x: L.spectral_radius_psd_product(I2, x),
    "spectral_radius": lambda x: L.spectral_radius(x),
    "svd_square": lambda x: D.svd_square(x),
    "modulus": lambda x: D.modulus(x),
    "comodulus": lambda x: D.comodulus(x),
    "polar": lambda x: D.polar(x),
    "cartesian": lambda x: D.cartesian(x),
    "geometric_mean_a": lambda x: M.geometric_mean(x, I2),
    "geometric_mean_ex_b": lambda x: M.geometric_mean_ex(I2, x),
    "weak_log_majorizes_a": lambda x: M.weak_log_majorizes(x, I2),
    "weak_log_majorizes_b": lambda x: M.weak_log_majorizes(I2, x),
    "apply": lambda x: P.apply(PHI, x),
    "schur_multiplier": lambda x: P.SchurMultiplier(x),
    "domination_holds_z": lambda x: C.domination_holds(x, I2, FP),
    "domination_holds_j": lambda x: C.domination_holds(Z2, x, FP),
    "moduli_images": lambda x: C.moduli_images(x, FP),
    "check_russo_dye": lambda x: C.check_russo_dye(PHI, x),
    "check_two_positive_split": lambda x: C.check_two_positive_split(PHI, x, 0.5),
    "check_cartesian_suite": lambda x: C.check_cartesian_suite(PHI, x),
    "check_schur_remarks": lambda x: C.check_schur_remarks(x),
    **{f"{name}_{arg}": (lambda x, fn=getattr(C, name), arg=arg: fn(PHI, x, I2, FP) if arg == "z" else fn(PHI, Z2, x, FP))
       for name in ("check_arithmetic_domination", "check_geometric_domination", "check_log_majorization",
                    "check_eigenvalue_gaps", "check_reverse_product")
       for arg in ("z", "j")},
}

# a call of a check with its map replaced by a bad one
MAP_ARG = {
    "check_russo_dye": lambda phi: C.check_russo_dye(phi, Z2),
    "check_two_positive_split": lambda phi: C.check_two_positive_split(phi, Z2, 0.5),
    "check_cartesian_suite": lambda phi: C.check_cartesian_suite(phi, Z2),
    **{name: (lambda phi, fn=getattr(C, name): fn(phi, Z2, I2, FP))
       for name in ("check_arithmetic_domination", "check_geometric_domination", "check_log_majorization",
                    "check_eigenvalue_gaps", "check_reverse_product")},
}
BAD_MAPS = {
    "wrong_size": P.IdentityMap(3),
    "output_overflows": P.Congruence(1e200 * np.eye(2)),
    "not_two_positive": P.TransposeMap(2),
}

ERRORS = {
    "finite": (ValueError, "matrix contains non-finite entries"),
    "2d": (DimensionMismatch, "expected a 2-d array, got ndim=1"),
    "square": (DimensionMismatch, "expected a square matrix, got shape (2, 3)"),
    "defect": (NonHermitian, "Hermitian defect 1.000e+00 exceeds tolerance"),
    "defect_1e160": (NonHermitian, "Hermitian defect 2.062e+160 exceeds tolerance"),
    "part_overflows": (ValueError, "Hermitian part overflows: entries exceed half the largest double"),
    "hypothesis": (HypothesisViolated, "f(|Z|) <= J and g(|Z*|) <= J required"),
    "map_33": (DimensionMismatch, "map expects 2x2 input, got (3, 3)"),
    "map_23": (DimensionMismatch, "map expects 2x2 input, got (2, 3)"),
    "map3_22": (DimensionMismatch, "map expects 3x3 input, got (2, 2)"),
    "shapes_32": (DimensionMismatch, "shapes (3, 3) and (2, 2) differ"),
    "shapes_23": (DimensionMismatch, "shapes (2, 2) and (3, 3) differ"),
    "norm_1.6": (NotContraction, "operator norm 1.61803 exceeds 1"),
    "rho_overflows": (ValueError, "spectral radius overflows: it exceeds the largest double"),
    "map_overflows": (ValueError, "map output overflows"),
    "class": (ClassViolation, "map declared 'positive'; the split bound needs 2-positivity"),
}

# each call's outcome on the inputs of BAD, in BAD's order, as the program
# gave them before its public functions and cores were split; but a Z and a J
# of different sizes raise DimensionMismatch, not numpy's broadcast error,
# and check_russo_dye tests A's shape before its norm
ONE_ARG_OUTCOMES = {
    "as_matrix": ("finite", "finite", "finite", "ok", "2d", "ok", "ok", "ok", "ok"),
    "require_square": ("finite", "finite", "finite", "square", "2d", "ok", "ok", "ok", "ok"),
    "require_hermitian": ("finite", "finite", "finite", "square", "2d", "ok", "defect", "part_overflows", "defect_1e160"),
    "eigh": ("finite", "finite", "finite", "square", "2d", "ok", "defect", "part_overflows", "defect_1e160"),
    "eigvalsh": ("finite", "finite", "finite", "square", "2d", "ok", "defect", "part_overflows", "defect_1e160"),
    "sqrtm_psd": ("finite", "finite", "finite", "square", "2d", "ok", "defect", "part_overflows", "defect_1e160"),
    "generalized_inverse": ("finite", "finite", "finite", "square", "2d", "ok", "defect", "part_overflows",
                            "defect_1e160"),
    "loewner_leq_a": ("finite", "finite", "finite", "square", "2d", "shapes_32", "defect", "part_overflows",
                      "defect_1e160"),
    "loewner_leq_b": ("finite", "finite", "finite", "square", "2d", "shapes_23", "defect", "part_overflows",
                      "defect_1e160"),
    "operator_norm": ("finite", "finite", "finite", "ok", "2d", "ok", "ok", "finite", "finite"),
    "spectral_radius_psd_product_a": ("finite", "finite", "finite", "square", "2d", "shapes_32", "defect",
                                      "part_overflows", "defect_1e160"),
    "spectral_radius_psd_product_b": ("finite", "finite", "finite", "square", "2d", "shapes_23", "defect",
                                      "part_overflows", "defect_1e160"),
    "spectral_radius": ("finite", "finite", "finite", "square", "2d", "ok", "ok", "rho_overflows", "ok"),
    "svd_square": ("finite", "finite", "finite", "square", "2d", "ok", "ok", "finite", "finite"),
    "modulus": ("finite", "finite", "finite", "square", "2d", "ok", "ok", "finite", "finite"),
    "comodulus": ("finite", "finite", "finite", "square", "2d", "ok", "ok", "finite", "finite"),
    "polar": ("finite", "finite", "finite", "square", "2d", "ok", "ok", "finite", "finite"),
    "cartesian": ("finite", "finite", "finite", "square", "2d", "ok", "ok", "finite", "ok"),
    "geometric_mean_a": ("finite", "finite", "finite", "square", "2d", "shapes_32", "defect", "part_overflows",
                         "defect_1e160"),
    "geometric_mean_ex_b": ("finite", "finite", "finite", "square", "2d", "shapes_23", "defect", "part_overflows",
                            "defect_1e160"),
    "weak_log_majorizes_a": ("finite", "finite", "finite", "square", "2d", "shapes_32", "defect", "part_overflows",
                             "defect_1e160"),
    "weak_log_majorizes_b": ("finite", "finite", "finite", "square", "2d", "shapes_23", "defect", "part_overflows",
                             "defect_1e160"),
    "apply": ("finite", "finite", "finite", "map_23", "2d", "map_33", "ok", "ok", "ok"),
    "schur_multiplier": ("finite", "finite", "finite", "square", "2d", "ok", "defect", "part_overflows",
                         "defect_1e160"),
    "domination_holds_z": ("finite", "finite", "finite", "square", "2d", "shapes_32", "ok", "finite", "finite"),
    "domination_holds_j": ("finite", "finite", "finite", "square", "2d", "shapes_23", "defect", "part_overflows",
                           "defect_1e160"),
    "moduli_images": ("finite", "finite", "finite", "square", "2d", "ok", "ok", "finite", "finite"),
    "check_russo_dye": ("finite", "finite", "finite", "map_23", "2d", "map_33", "norm_1.6", "finite", "finite"),
    "check_two_positive_split": ("finite", "finite", "finite", "map_23", "2d", "map_33", "ok", "finite", "finite"),
    "check_cartesian_suite": ("finite", "finite", "finite", "square", "2d", "map_33", "ok", "finite", "finite"),
    "check_schur_remarks": ("finite", "finite", "finite", "square", "2d", "ok", "defect", "part_overflows",
                            "defect_1e160"),
    **{f"check_{name}_z": ("finite", "finite", "finite", "square", "2d", "shapes_32", "hypothesis", "finite",
                           "finite")
       for name in ("arithmetic_domination", "geometric_domination", "log_majorization", "eigenvalue_gaps",
                    "reverse_product")},
    **{f"check_{name}_j": ("finite", "finite", "finite", "square", "2d", "shapes_23", "defect", "part_overflows",
                           "defect_1e160")
       for name in ("arithmetic_domination", "geometric_domination", "log_majorization", "eigenvalue_gaps",
                    "reverse_product")},
}
MAP_ARG_OUTCOMES = {
    **{name: ("map3_22", "map_overflows", "ok") for name in MAP_ARG},
    "check_two_positive_split": ("map3_22", "map_overflows", "class"),
}


def expected(codes):
    return [code if code == "ok" else (ERRORS[code][0].__name__, ERRORS[code][1]) for code in codes]


def error_or_ok(fn, x):
    with np.errstate(all="ignore"):
        try:
            fn(x)
        except Exception as exc:
            return type(exc).__name__, str(exc)
    return "ok"


@pytest.mark.parametrize("name", ONE_ARG)
def test_public_functions_raise_as_before_on_bad_arguments(name):
    assert [error_or_ok(ONE_ARG[name], x) for x in BAD.values()] == expected(ONE_ARG_OUTCOMES[name])


@pytest.mark.parametrize(
    "fn",
    [lambda x: C.check_russo_dye(PHI, x), lambda x: C.check_two_positive_split(PHI, x, 0.5),
     lambda x: C.check_cartesian_suite(PHI, x)],
    ids=["check_russo_dye", "check_two_positive_split", "check_cartesian_suite"],
)
def test_checks_reject_a_0d_matrix_argument(fn):
    assert error_or_ok(fn, np.array(1.0)) == ("DimensionMismatch", "expected a 2-d array, got ndim=0")


@pytest.mark.parametrize("name", MAP_ARG)
def test_checks_raise_as_before_on_bad_maps(name):
    assert [error_or_ok(MAP_ARG[name], phi) for phi in BAD_MAPS.values()] == expected(MAP_ARG_OUTCOMES[name])


# what numpy says when a product overflows, and when a Hermitian part of a
# matrix holding an inf multiplies 0 by it
OVERFLOW_WARNINGS = {
    "overflow encountered in matmul",
    "invalid value encountered in matmul",
    "invalid value encountered in multiply",
}


def raises_the_validation_error(fn, *args):
    """``fn(*args)`` raises as_matrix's ValueError, not LinAlgError (a
    ValueError subclass), and no warning other than those of the overflow."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as info:
            fn(*args)
    assert type(info.value) is ValueError and str(info.value) == "matrix contains non-finite entries"
    assert {str(w.message) for w in caught} <= OVERFLOW_WARNINGS


@pytest.mark.parametrize(
    "fn",
    [D.svd_square, D.modulus, L.operator_norm, lambda z: C.check_cartesian_suite(P.IdentityMap(z.shape[0]), z)],
    ids=["svd_square", "modulus", "operator_norm", "check_cartesian_suite"],
)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_overflowing_gram_matrix_raises_the_validation_error(fn, n):
    z = 1e160 * (np.arange(n * n).reshape(n, n) + 1.0 + 0.5j)
    raises_the_validation_error(fn, z)


def test_the_search_on_overflowing_draws_raises_the_validation_error(monkeypatch):
    draw = np.random.default_rng

    class Scaled:
        """A generator whose normal draws are 1e160 times the seeded ones."""

        def __init__(self, seed):
            self.rng = draw(seed)

        def standard_normal(self, shape):
            return 1e160 * self.rng.standard_normal(shape)

    monkeypatch.setattr(np.random, "default_rng", Scaled)
    raises_the_validation_error(C.find_counterexamples_remarks, 5, 1)


@pytest.mark.parametrize(
    "h",
    [[[math.nan]], [[math.inf]], [[1.0, 0.0], [0.0, math.nan]], [[math.nan, 0.0], [0.0, 1.0]],
     [[1.0, math.inf], [math.inf, 1.0]], [[1.0, complex(0.0, math.nan)], [complex(0.0, math.nan), 1.0]]],
    ids=["nan_1x1", "inf_1x1", "nan_last", "nan_first", "inf_off_diagonal", "nan_imaginary"],
)
@pytest.mark.parametrize("vectors", [True, False])
def test_the_kernel_raises_the_validation_error_on_non_finite_input(h, vectors):
    raises_the_validation_error(L._eig, np.array(h, dtype=complex), vectors)
