"""The settable surface: the parameter names of every public function.

A new parameter, or a new public function, fails here until this table is
edited, so every added setting is seen in review. Only keep a parameter that
some non-test caller sets to more than one value: a value that one caller
sets, or that only tests set, belongs in a constant.
"""

import inspect

import opcheck
import opcheck.linalg

PUBLIC_PARAMETERS = {
    "apply": ("phi", "x"),
    "cartesian": ("z",),
    "check_arithmetic_domination": ("phi", "z", "j", "fp", "tol"),
    "check_cartesian_suite": ("phi", "z", "tol"),
    "check_eigenvalue_gaps": ("phi", "z", "j", "fp", "tol"),
    "check_geometric_domination": ("phi", "z", "j", "fp", "tol"),
    "check_log_majorization": ("phi", "z", "j", "fp", "tol"),
    "check_reverse_product": ("phi", "z", "j", "fp", "tol"),
    "check_russo_dye": ("phi", "a", "tol"),
    "check_schur_remarks": ("s", "tol"),
    "check_two_positive_split": ("phi", "z", "p", "tol"),
    "comodulus": ("z", "tol"),
    "domination_holds": ("z", "j", "fp", "tol"),
    "eigh": ("h", "tol"),
    "eigvalsh": ("h", "tol"),
    "find_counterexamples_remarks": ("trials", "seed", "dim"),
    "generalized_inverse": ("h", "p", "tol"),
    "geometric_mean": ("a", "b", "tol"),
    "geometric_mean_ex": ("a", "b", "tol"),
    "loewner_leq": ("a", "b", "tol"),
    "map_from_json": ("data",),
    "map_to_json": ("phi",),
    "modulus": ("z", "tol"),
    "operator_norm": ("m",),
    "polar": ("z", "tol"),
    "reproduce_counterexample_2_8": (),
    "reproduce_sharpness_cor2_5": ("k",),
    "run_campaign": ("spec",),
    "run_instance": ("inst", "tol"),
    "sample_positivity_falsifier": ("phi", "level", "trials", "seed"),
    "spectral_radius": ("m",),
    "spectral_radius_psd_product": ("a", "b", "tol"),
    "sqrtm_psd": ("h", "tol"),
    "weak_log_majorizes": ("a", "b", "tol"),
}


def parameters(fn) -> tuple:
    return tuple(inspect.signature(fn).parameters)


def test_every_public_function_has_the_pinned_parameters():
    public = {name: getattr(opcheck, name) for name in opcheck.__all__}
    assert {name: parameters(fn) for name, fn in public.items() if inspect.isfunction(fn)} == PUBLIC_PARAMETERS


def test_the_jacobi_kernel_takes_a_matrix_and_no_tolerance():
    params = inspect.signature(opcheck.linalg._eig).parameters
    assert tuple(params) == ("h", "vectors") and params["vectors"].default is True
