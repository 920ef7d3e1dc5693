"""Wire-format tests: matrix JSON round trips and rejection rules."""

import json
import math

import numpy as np
import pytest

from opcheck.campaign import CampaignSpec, Instance, make_instance
from opcheck.checks import FunPair
from opcheck.errors import InvalidSpec
from opcheck.io import (
    dump_json,
    matrix_from_json,
    matrix_to_json,
    tolerance_from_json,
    tolerance_to_json,
)
from opcheck.linalg import Tolerance


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for shape in [(1, 1), (2, 3), (4, 4)]:
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            back = matrix_from_json(matrix_to_json(m))
            assert np.array_equal(back, m)

    def test_row_major_layout(self):
        payload = matrix_to_json(np.array([[1 + 2j, 3.0], [4.0, 5 - 1j]]))
        assert payload["rows"] == 2 and payload["cols"] == 2
        assert payload["data"] == [[1.0, 2.0], [3.0, 0.0], [4.0, 0.0], [5.0, -1.0]]

    def test_data_matches_the_numpy_scalar_walk(self):
        # reference: float() of the real and imaginary part of each numpy scalar
        m = np.array([[-0.0 + 5e-324j, 1e308 - 0.0j, -5e-324 + 1e308j], [0.5, -1e308 - 1e-300j, 0j]])
        for a in (m, m.T, np.asfortranarray(m)):
            payload = matrix_to_json(a)
            ref = [[float(x.real), float(x.imag)] for x in np.asarray(a, dtype=complex).reshape(-1)]
            assert json.dumps(payload["data"]) == json.dumps(ref)
            assert all(type(x) is float for pair in payload["data"] for x in pair)

    def test_rejects_non_finite(self):
        bad = {"rows": 1, "cols": 2, "data": [[1.0, 0.0], [float("nan"), 0.0]]}
        with pytest.raises(ValueError):
            matrix_from_json(bad)
        bad = {"rows": 1, "cols": 1, "data": [[float("inf"), 0.0]]}
        with pytest.raises(ValueError):
            matrix_from_json(bad)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})


# a default no field of which is Tolerance's own default
DEFAULT = Tolerance(abs=2e-9, rel=3e-9, rank_cutoff=4e-12)


class TestToleranceJson:
    def test_round_trip(self):
        t = Tolerance(abs=1e-8, rel=2e-8, rank_cutoff=3e-12)
        assert tolerance_from_json(tolerance_to_json(t), DEFAULT) == t

    def test_the_default_fills_missing_fields(self):
        assert tolerance_from_json({"abs": 1e-7}, DEFAULT) == Tolerance(abs=1e-7, rel=3e-9, rank_cutoff=4e-12)
        assert tolerance_from_json({"rel": 1e-7, "rank_cutoff": 1e-11}, DEFAULT) == Tolerance(
            abs=2e-9, rel=1e-7, rank_cutoff=1e-11)

    def test_an_empty_object_gives_the_default(self):
        assert tolerance_from_json({}, DEFAULT) == DEFAULT


class TestDumpJson:
    def test_canonical_bytes(self, tmp_path):
        obj = {"b": [1.5, 2.25], "a": {"y": True, "x": None}}
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        dump_json(obj, str(p1))
        dump_json(json.loads(p1.read_text()), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().endswith("\n")


class TestJsonTypes:
    @pytest.mark.parametrize(
        "payload",
        [
            [[1.0, 0.0]],
            {"rows": 1.0, "cols": 1, "data": [[1.0, 0.0]]},
            {"rows": True, "cols": 1, "data": [[1.0, 0.0]]},
            {"rows": 1, "cols": 1, "data": "x"},
            {"rows": 1, "cols": 1, "data": [1.0]},
            {"rows": 1, "cols": 1, "data": [[1.0]]},
            {"rows": 1, "cols": 1, "data": [[1.0, 0.0, 0.0]]},
            {"rows": 1, "cols": 1, "data": [[True, 0.0]]},
            {"rows": 1, "cols": 1, "data": [["1", 0.0]]},
            {"rows": -1, "cols": -1, "data": [[1.0, 0.0]]},
        ],
        ids=["list", "float-rows", "bool-rows", "string-data", "bare-number", "short-pair", "long-pair",
             "bool-entry", "string-entry", "negative-shape"],
    )
    def test_malformed_matrix_rejected(self, payload):
        with pytest.raises(ValueError):
            matrix_from_json(payload)

    def test_integer_entries_are_numbers(self):
        m = matrix_from_json({"rows": 1, "cols": 2, "data": [[1, 0], [2, -3]]})
        assert np.array_equal(m, [[1 + 0j, 2 - 3j]])

    @pytest.mark.parametrize("payload", [[1e-8], {"abs": None}, {"rel": True}, {"rank_cutoff": "1e-12"}])
    def test_malformed_tolerance_rejected(self, payload):
        with pytest.raises(ValueError):
            tolerance_from_json(payload, DEFAULT)


def test_readers_reject_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown tolerances keys \['rank_cuttoff'\]"):
        tolerance_from_json({"abs": 1e-7, "rank_cuttoff": 1.0}, DEFAULT)
    with pytest.raises(ValueError, match=r"unknown matrix keys \['row'\]"):
        matrix_from_json({"rows": 1, "cols": 1, "row": 1, "data": [[1.0, 0.0]]})
    assert tolerance_from_json(tolerance_to_json(Tolerance(abs=1e-7)), DEFAULT) == Tolerance(abs=1e-7)


# what Python's json reads from NaN, Infinity, -Infinity and 1e400, and an
# integer that no double holds
NON_FINITE = [math.nan, math.inf, -math.inf, 10**400]
NON_FINITE_IDS = ["nan", "inf", "-inf", "huge-int"]


class TestNonFiniteNumbers:
    def test_python_json_reads_them(self):
        assert [repr(json.loads(text)) for text in ("NaN", "Infinity", "-Infinity", "1e400")] == [
            "nan", "inf", "-inf", "inf"]

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_tolerance_fields(self, value):
        for key in ("abs", "rel", "rank_cutoff"):
            with pytest.raises(ValueError, match=f"^tolerance {key} must be a finite number, got "):
                tolerance_from_json({key: value}, DEFAULT)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "huge-int"])
    def test_tolerance_constructor(self, value):
        for key in ("abs", "rel", "rank_cutoff"):
            with pytest.raises(ValueError, match="^tolerances must be finite and strictly positive$"):
                Tolerance(**{key: value})

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_funpair_p_and_rho(self, value):
        for key in ("p", "rho"):
            with pytest.raises(ValueError, match=f"^funpair {key} must be a finite number, got "):
                FunPair.from_json({"kind": "power", key: value})

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_instance_split_exponent(self, value):
        payload = make_instance(CampaignSpec(check_id="check_two_positive_split", seed=3), 0).to_json()
        with pytest.raises(ValueError, match="^p must be a finite number, got "):
            Instance.from_json({**payload, "p": value})

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_spec_numbers(self, value):
        spec = {"check_id": "check_two_positive_split"}
        with pytest.raises(InvalidSpec, match="^tolerance abs must be a finite number, got "):
            CampaignSpec.from_json({**spec, "tolerances": {"abs": value}})
        with pytest.raises(InvalidSpec, match="^split_exponent must be a finite number, got "):
            CampaignSpec.from_json({**spec, "split_exponent": value})

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_matrix_entries_keep_their_message(self, value):
        for pair in ([value, 0.0], [0.0, value]):
            with pytest.raises(ValueError, match="^non-finite entry at index 1$"):
                matrix_from_json({"rows": 1, "cols": 2, "data": [[1.0, 0.0], pair]})

    def test_the_largest_numbers_pass(self):
        big = float(np.finfo(float).max)
        assert tolerance_from_json({"abs": big}, DEFAULT).abs == big
        assert FunPair.from_json({"kind": "power", "p": -big}).p == -big
        assert matrix_from_json({"rows": 1, "cols": 1, "data": [[big, -big]]})[0, 0] == complex(big, -big)
