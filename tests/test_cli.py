from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import operator
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qccdts import cli, reflect
from qccdts.cli import main
from qccdts.dts import DtsClass, DtsFamily, SupportSet, search_strong_dts

# `qccdts distance --json` on the 14 catalogue rows and on three colliding
# (not self-orthogonal) rows under --budget 4, 5 and 6, recorded before the
# distance searches became shift registers. Each case holds the input JSON,
# the argv without --input, the exit code and the exact stdout.
DISTANCE_CASES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "distance_cli.json").read_text()
)

# `qccdts verify` (text and --json) on every catalogue row three ways
# (explicit Z, m and w; X only; reversed pi with wrong m and w), on
# colliding, non-strong and random families, some with a wrong explicit Z
# or a Z of another memory, and `qccdts tables` (text and --json) under
# every --table and --row filter, recorded before the verification
# pipeline became one library function. Each case holds the input JSON
# (verify only), the argv without --input, the exit code, stdout and stderr.
VERIFY_TABLES_CASES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "verify_tables_cli.json").read_text()
)

# Usage, help, version and argument errors of `qccdts` (exit code, stdout
# and stderr), recorded with Python 3.11's argparse at COLUMNS=80 while
# `build_parser` still built all six subparsers for every command.
USAGE_CASES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "usage_cli.json").read_text()
)

# `qccdts search` (exit code, stdout and stderr) on one shape for each
# r in 1..4 and w in 2..4, each plain and with --full-strong, under
# --limit 0, 1, 5 and 100, on an empty stream, and on the engine, --limit
# and guard errors, recorded while each line was still rendered by
# json.dumps of a dict. Stdout is stored verbatim up to 4 KiB, above that
# as its sha256 and line count.
SEARCH_CASES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "search_cli.json").read_text()
)

# `qccdts build` and `qccdts reflect` (text and --json) on every catalogue
# row with the identity and the reversed pi, and on an unnormalized, a
# weight-1, a non-strong and an explicit-Z input. Recorded before the CLI
# took one (X, Z) path; the reversed-pi `reflect` cases were re-recorded
# when `reflect` began printing the family of the Z it prints.
BUILD_REFLECT_CASES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "build_reflect_cli.json").read_text()
)


@pytest.fixture
def example_input(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(
        json.dumps(
            {"n": 3, "T": [[1, 2], [1, 3]], "pi": [2, 1], "one_based": True}
        )
    )
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_running_example(self, capsys, example_input):
        code, out, _ = run_cli(capsys, "build", "--input", example_input)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "X(D) = (1+D, 1+D^2, 1)"
        assert lines[1] == "Z(D) = (1+D^2, D+D^2, 1)"
        assert lines[2] == "n = 3, memory = 2, w = 2, rate = 1/3"

    def test_table_two_row_five(self, capsys, tmp_path):
        path = tmp_path / "t2r5.json"
        path.write_text(
            json.dumps({"T": [[1, 2], [1, 3], [1, 10]], "one_based": True})
        )
        code, out, _ = run_cli(capsys, "build", "--input", str(path))
        assert code == 0
        assert out.splitlines()[0] == "X(D) = (1+D, 1+D^2, 1+D^9, 1)"

    def test_zero_based_flag(self, capsys, tmp_path):
        path = tmp_path / "zb.json"
        path.write_text(json.dumps({"T": [[0, 1], [0, 2]], "one_based": False}))
        code, out, _ = run_cli(capsys, "build", "--input", str(path))
        assert code == 0
        assert "X(D) = (1+D, 1+D^2, 1)" in out

    def test_flag_overrides_file_convention(self, capsys, tmp_path):
        path = tmp_path / "amb.json"
        path.write_text(json.dumps({"T": [[1, 2], [1, 3]]}))  # default 1-based
        code, out, _ = run_cli(capsys, "build", "--input", str(path), "--zero-based")
        assert code == 0
        assert "X(D) = (D+D^2, D+D^3, 1)" in out

    def test_empty_sets_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"T": []}))
        code, _, err = run_cli(capsys, "build", "--input", str(path))
        assert code == 2
        assert "error" in err

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "build", "--input", str(path))
        assert code == 2
        assert "malformed JSON" in err

    def test_non_strong_family_warns_but_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "weak.json"
        path.write_text(json.dumps({"T": [[0, 1], [0, 1]], "one_based": False}))
        code, out, _ = run_cli(capsys, "build", "--input", str(path))
        assert code == 0
        assert out.startswith("warning:")

    def test_json_output(self, capsys, example_input):
        code, out, _ = run_cli(capsys, "build", "--input", example_input, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["X"] == "(1+D, 1+D^2, 1)"
        assert payload["rate"] == "1/3"


class TestReflect:
    def test_emits_both_conventions(self, capsys, example_input):
        code, out, _ = run_cli(capsys, "reflect", "--input", example_input)
        assert code == 0
        assert "X(D) = (1+D, 1+D^2, 1)" in out
        assert "Z(D) = (1+D^2, D+D^2, 1)" in out
        assert "Z family (0-based): {0, 2}; {1, 2}" in out
        assert "Z family (1-based): {1, 3}; {2, 3}" in out


class TestVerify:
    def test_running_example_passes(self, capsys, example_input):
        code, out, _ = run_cli(capsys, "verify", "--input", example_input)
        assert code == 0
        assert "verdict: PASS" in out

    def test_json_report_keys(self, capsys, example_input):
        code, out, _ = run_cli(capsys, "verify", "--input", example_input, "--json")
        assert code == 0
        report = json.loads(out)
        for key in (
            "commuting",
            "csoc_x",
            "csoc_z",
            "strong_dts",
            "memory",
            "a7_symmetry",
            "violations",
        ):
            assert key in report
        assert report["commuting"] is True
        assert report["violations"] == []

    def test_corrupted_z_fails_commutation(self, capsys, tmp_path):
        # one exponent perturbed in the Z family of the running example
        path = tmp_path / "badz.json"
        path.write_text(
            json.dumps(
                {
                    "T": [[1, 2], [1, 3]],
                    "Z": [[1, 3], [2, 4]],
                    "one_based": True,
                }
            )
        )
        code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--json")
        assert code == 1
        report = json.loads(out)
        assert report["commuting"] is False
        assert any(v["check"] == "commutation" for v in report["violations"])

    def test_repeated_difference_family_rejected(self, capsys, tmp_path):
        path = tmp_path / "nondts.json"
        path.write_text(json.dumps({"T": [[0, 1], [0, 1]], "one_based": False}))
        code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--json")
        assert code == 1
        report = json.loads(out)
        assert report["strong_dts"] is False
        assert any(v["check"] == "strong_dts" for v in report["violations"])

    def test_x_only_input_reflects_with_identity(self, capsys, tmp_path):
        # the default path reflects with the identity permutation, whose
        # pair does not commute here; the report says so honestly
        path = tmp_path / "xonly.json"
        path.write_text(json.dumps({"T": [[1, 2], [1, 3]], "one_based": True}))
        code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--json")
        report = json.loads(out)
        assert report["csoc_x"] is True and report["csoc_z"] is True
        assert report["commuting"] is False
        assert code == 1

    def test_declared_memory_checked(self, capsys, tmp_path):
        path = tmp_path / "badm.json"
        path.write_text(
            json.dumps(
                {"T": [[1, 2], [1, 3]], "pi": [2, 1], "one_based": True, "m": 4}
            )
        )
        code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--json")
        assert code == 1
        report = json.loads(out)
        assert any(v["check"] == "memory" for v in report["violations"])

    def test_golden_file_format_with_z_expected(self, capsys, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text(
            json.dumps(
                {
                    "n": 3,
                    "m": 2,
                    "w": 2,
                    "T": [[1, 2], [1, 3]],
                    "Z_expected": [[1, 3], [2, 3]],
                    "one_based": True,
                }
            )
        )
        code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["commuting"] is True
        assert report["d_free"] == 3

    def test_bad_pi_exit_2(self, capsys, tmp_path):
        path = tmp_path / "badpi.json"
        path.write_text(
            json.dumps({"T": [[1, 2], [1, 3]], "pi": [1, 1], "one_based": True})
        )
        code, _, err = run_cli(capsys, "verify", "--input", str(path))
        assert code == 2
        assert "not a permutation" in err

    def test_declared_n_checked(self, capsys, tmp_path):
        path = tmp_path / "badn.json"
        path.write_text(json.dumps({"n": 5, "T": [[1, 2], [1, 3]]}))
        code, _, err = run_cli(capsys, "build", "--input", str(path))
        assert code == 2
        assert "implies n = 3" in err


class TestInputTypes:
    """Each field of the input schema is type-checked in load_code_input."""

    @staticmethod
    def _run(capsys, tmp_path, **fields) -> tuple[int, str, str]:
        payload = {"n": 3, "T": [[1, 2], [1, 3]], "pi": [2, 1], "one_based": True}
        payload.update(fields)
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(payload))
        return run_cli(capsys, "verify", "--input", str(path))

    @staticmethod
    def _assert_input_error(code, out, err, field):
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f'"{field}"' in err

    @pytest.mark.parametrize("field", ["m", "w", "n"])
    def test_string_integer_exit_2(self, capsys, tmp_path, field):
        # "m": "2" used to exit 1 as a memory mismatch, "w": "2" to raise a
        # TypeError, and "n": "3" to report that 3 differs from 3.
        value = {"m": "2", "w": "2", "n": "3"}[field]
        code, out, err = self._run(capsys, tmp_path, **{field: value})
        self._assert_input_error(code, out, err, field)
        assert "must be an integer, not string" in err

    def test_string_one_based_exit_2(self, capsys, tmp_path):
        # "false" is truthy; it used to read the sets as 1-based.
        code, out, err = self._run(capsys, tmp_path, one_based="false")
        self._assert_input_error(code, out, err, "one_based")
        assert "must be true or false, not string" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("T", [[True, 2], [1, 3]]),
            ("Z", [[1, 3], [2, True]]),
            ("pi", [2, True]),
        ],
    )
    def test_boolean_as_integer_exit_2(self, capsys, tmp_path, field, value):
        code, out, err = self._run(capsys, tmp_path, **{field: value})
        self._assert_input_error(code, out, err, field)

    def test_null_optional_fields_are_absent(self, capsys, tmp_path):
        code, out, _ = self._run(capsys, tmp_path, n=None, m=None, w=None)
        assert code == 0
        assert "verdict: PASS" in out

    def test_null_z_reads_z_expected(self, capsys, tmp_path):
        # "Z": null used to hide Z_expected: verify checked the reflected Z
        # and printed PASS.
        code, out, _ = self._run(
            capsys, tmp_path, Z=None, Z_expected=[[9, 10], [9, 11]]
        )
        assert code == 1
        assert "memory: X=2 Z=10 FAIL" in out
        assert out.endswith("verdict: FAIL\n")

    def test_z_and_z_expected_both_given_exit_2(self, capsys, tmp_path):
        sets = [[1, 3], [2, 3]]
        code, out, err = self._run(capsys, tmp_path, Z=sets, Z_expected=sets)
        self._assert_input_error(code, out, err, "Z")
        assert err == 'error: give "Z" or "Z_expected", not both\n'

    @pytest.mark.parametrize("key", ["Z", "Z_expected"])
    def test_z_with_fewer_sets_than_t_exit_2(self, capsys, tmp_path, key):
        # Used to reach the symplectic sum: "column counts differ: 3 vs 2".
        code, out, err = self._run(capsys, tmp_path, **{key: [[1, 3]]})
        self._assert_input_error(code, out, err, key)
        assert err == f'error: "{key}" must hold 2 sets, like "T"\n'

    @pytest.mark.parametrize("key", ["Z", "Z_expected"])
    def test_z_sets_of_unequal_size_exit_2(self, capsys, tmp_path, key):
        # Used to exit with classify's message, which names no field.
        code, out, err = self._run(capsys, tmp_path, **{key: [[1, 3], [1, 2, 3]]})
        self._assert_input_error(code, out, err, key)
        assert err == f'error: "{key}" sets must all have the same size\n'


    @pytest.mark.parametrize("command", ["build", "verify", "distance"])
    def test_pi_checked_when_z_is_given(self, capsys, tmp_path, command):
        # With an explicit Z, pi used to go unread: verify printed PASS.
        path = tmp_path / "pi.json"
        path.write_text(json.dumps(
            {"T": [[1, 2], [1, 3]], "Z": [[1, 3], [2, 3]], "pi": [9, 9]}
        ))
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert (code, out) == (2, "")
        assert err == "error: pi (9, 9) is not a permutation of streams 1..2\n"

    @pytest.mark.parametrize(
        "key, sets, bad",
        [
            ("T", [[1, 1], [1, 3]], "[1, 1]"),
            ("Z", [[1, 3], [3, 3]], "[3, 3]"),
            ("Z_expected", [[1, 3], [3, 3]], "[3, 3]"),
        ],
    )
    def test_repeated_element_names_key_and_set(self, capsys, tmp_path, key, sets, bad):
        # Used to print the shifted values: "duplicate elements in [0, 0]".
        code, out, err = self._run(capsys, tmp_path, **{key: sets})
        self._assert_input_error(code, out, err, key)
        assert err == f'error: "{key}" set {bad} repeats an element\n'

    @pytest.mark.parametrize(
        "key, sets, bad",
        [
            ("T", [[0, 1], [1, 3]], "[0, 1]"),
            ("Z", [[1, 3], [0, 3]], "[0, 3]"),
            ("Z_expected", [[1, 3], [-2, 3]], "[-2, 3]"),
        ],
    )
    def test_element_below_one_names_key_and_set(self, capsys, tmp_path, key, sets, bad):
        # Used to print "input is already 0-based or malformed".
        code, out, err = self._run(capsys, tmp_path, **{key: sets})
        self._assert_input_error(code, out, err, key)
        low = min(json.loads(bad))
        assert err == f'error: "{key}" set {bad} holds {low}; 1-based elements start at 1\n'

    @pytest.mark.parametrize("key", ["T", "Z"])
    def test_negative_zero_based_element_names_key_and_set(self, capsys, tmp_path, key):
        sets = {"T": [[0, 1], [0, 2]], "Z": [[0, 2], [1, 2]]}
        sets[key] = [[-1, 1], [0, 2]]
        code, out, err = self._run(capsys, tmp_path, one_based=False, **sets)
        self._assert_input_error(code, out, err, key)
        assert err == f'error: "{key}" set [-1, 1] holds -1; 0-based elements start at 0\n'


# Payloads for the input contract: a well-formed input whose fields are
# each kept, dropped, or replaced by a wrong type, a null or a nested
# value. Set elements stay at or below a per-command exponent ceiling and
# every other integer in [-2, 12]. Time and memory must follow the size of
# the input, not its exponents, so build, reflect and distance draw
# exponents up to 10^9; verify stays at 12, since its A7 check builds 2M+1
# sum-index matrices.
EXPONENT_CEILING = {"build": 10**9, "reflect": 10**9, "verify": 12, "distance": 10**9}
_small_int = st.integers(min_value=-2, max_value=12)
_junk = st.recursive(
    st.none() | st.booleans() | _small_int | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _payloads(draw, ceiling):
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return draw(_junk)
    one_based = draw(st.booleans())
    r = draw(st.integers(min_value=1, max_value=3))
    w = draw(st.integers(min_value=1, max_value=4))
    sets = st.lists(
        st.lists(
            st.integers(min_value=int(one_based), max_value=ceiling),
            min_size=w, max_size=w, unique=True,
        ),
        min_size=r, max_size=r,
    )
    fields = {
        "T": sets,
        "Z": sets,
        "Z_expected": sets,
        "pi": st.permutations(range(1, r + 1)).map(list),
        "n": st.just(r + 1) | _small_int,
        "m": _small_int,
        "w": st.just(w) | _small_int,
        "one_based": st.just(one_based),
    }
    payload = {}
    for key, good in fields.items():
        kind = draw(st.sampled_from(["good", "good", "absent", "absent", "junk"]))
        # "T" is never dropped: without it every input stops at one check.
        if kind == "good" or (key == "T" and kind == "absent"):
            payload[key] = draw(good)
        elif kind == "junk":
            payload[key] = draw(_junk)
    return payload


@pytest.mark.parametrize("command", list(EXPONENT_CEILING))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), as_json=st.booleans())
def test_fuzzed_input_exits_0_1_or_2(tmp_path_factory, command, data, as_json):
    payload = data.draw(_payloads(EXPONENT_CEILING[command]), label="payload")
    path = tmp_path_factory.getbasetemp() / f"fuzz_{command}.json"
    path.write_text(json.dumps(payload))
    argv = [command, "--input", str(path)] + ["--json"] * as_json
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("error: ")


class TestInternalErrors:
    """A broken library invariant exits 3 with one line, not a traceback."""

    def test_contradicted_certificate_exit_3(self, capsys, monkeypatch, example_input):
        def contradicted(x):
            raise RuntimeError("distance certificate contradicted: test")

        monkeypatch.setattr(reflect, "certify_dfree", contradicted)
        code, out, err = run_cli(capsys, "verify", "--input", example_input)
        assert code == 3
        assert out == ""
        assert err == "internal error: distance certificate contradicted: test\n"

    def test_inconsistent_catalogue_exit_3(self, capsys, monkeypatch):
        def inconsistent():
            raise AssertionError("table 1 row 1: stored m=2 does not match")

        monkeypatch.setattr(cli, "validate_tables", inconsistent)
        code, out, err = run_cli(capsys, "tables")
        assert code == 3
        assert out == ""
        assert err == "internal error: table 1 row 1: stored m=2 does not match\n"


class TestDistance:
    def test_running_example(self, capsys, example_input):
        code, out, _ = run_cli(capsys, "distance", "--input", example_input)
        assert code == 0
        assert "d_free = 3 (csoc_certificate)" in out
        assert "column distances [0..2]: [2, 2, 3]" in out

    def test_json_payload(self, capsys, example_input):
        code, out, _ = run_cli(capsys, "distance", "--input", example_input, "--json")
        payload = json.loads(out)
        assert payload["d_free"] == 3
        assert payload["column_distances"] == [2, 2, 3]
        assert payload["witness"][0] == [0, [1, 0, 1]]

    def test_non_csoc_uses_exact_search(self, capsys, tmp_path):
        path = tmp_path / "noncsoc.json"
        path.write_text(json.dumps({"T": [[0, 1, 2]], "one_based": False}))
        code, out, _ = run_cli(
            capsys, "distance", "--input", str(path), "--json", "--budget", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "exact_search"
        # impulse gives 1 + wt(1+D+D^2) = 4; no input beats it since
        # wt(u) + wt(g u) stays >= 4 for every nonzero u (parity at D=1)
        assert payload["d_free"] == 4

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_weight_one_family_is_csoc_but_noted(self, capsys, tmp_path, as_json):
        # Single-tap sets have no differences, so X is CSOC and certified,
        # yet the family is only WDTS: the note and the certificate coexist.
        path = tmp_path / "weight1.json"
        path.write_text(json.dumps({"T": [[1], [1]]}))
        argv = ["--json"] if as_json else []
        code, out, err = run_cli(capsys, "distance", "--input", str(path), *argv)
        note = (
            "family classifies as WDTS, not STRONG; "
            "self-orthogonality and distance guarantees lapse"
        )
        assert (code, err) == (0, "")
        if as_json:
            assert json.loads(out) == {
                "d_free": 2,
                "method": "csoc_certificate",
                "witness": [[0, [1, 0, 1]]],
                "column_distances": [2],
                "warnings": [note],
            }
        else:
            assert out == (
                f"warning: {note}\n"
                "d_free = 2 (csoc_certificate)\n"
                "column distances [0..0]: [2]\n"
                "witness: t=0:101\n"
            )

    @pytest.mark.parametrize(
        "sets, argv, message",
        [
            ([[0, 1, 2], [0, 3, 13]], [], "memory 13 exceeds exact-search guard 12"),
            ([[0, 1, 2], [0, 3, 5]], ["--budget", "7"], "budget 7 exceeds exact-search guard 6"),
            ([[0, 1, 2], [0, 3, 5]], ["--budget", "0"], "budget must be positive"),
            # A self-orthogonal row never runs the search with --budget, yet
            # its value is checked all the same.
            ([[0, 1], [0, 2]], ["--budget", "7"], "budget 7 exceeds exact-search guard 6"),
            ([[0, 1], [0, 2]], ["--budget", "-3"], "budget must be positive"),
        ],
        ids=["memory", "budget", "non-positive budget", "csoc budget", "csoc negative budget"],
    )
    def test_exact_search_guard_names_itself(self, capsys, tmp_path, sets, argv, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"T": sets, "one_based": False}))
        code, out, err = run_cli(capsys, "distance", "--input", str(path), *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("far", [10**7, 10**9], ids=["1e7", "1e9"])
    def test_far_tap_prints_what_a_near_one_does(self, capsys, tmp_path, far):
        # T = {0,1,3}; {0,4,e} is CSOC for any e > 8, and the profile stops
        # at the 45-bit window cap (j = 21), long before a window reaches e.
        outputs = []
        for e in (10**5, far):
            path = tmp_path / f"far_{e}.json"
            path.write_text(json.dumps({"T": [[0, 1, 3], [0, 4, e]], "one_based": False}))
            code, out, err = run_cli(capsys, "distance", "--input", str(path), "--json")
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "case", DISTANCE_CASES, ids=[case["name"] for case in DISTANCE_CASES]
    )
    def test_output_matches_recording(self, capsys, tmp_path, case):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(case["input"]))
        code, out, err = run_cli(capsys, *case["argv"], "--input", str(path))
        assert (code, err) == (case["exit"], "")
        assert out == case["stdout"]


class TestTables:
    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--json")
        payload = json.loads(out)
        assert len(payload["rows"]) == 14
        # construction checks pass everywhere; the reflection-symmetry
        # identity is strictly stronger and holds only for the first row
        for entry in payload["rows"]:
            checks = entry["checks"]
            for name in (
                "strong_dts",
                "memory",
                "reflect_match",
                "csoc_x",
                "csoc_z",
                "commuting",
                "dfree",
            ):
                assert checks[name], (entry["table"], entry["row"], name)
        a7_pass = [
            (e["table"], e["row"])
            for e in payload["rows"]
            if e["checks"]["a7_symmetry"]
        ]
        assert a7_pass == [(1, 1)]
        assert payload["passed"] == 1 and payload["failed"] == 13
        assert code == 1

    def test_single_table_filter(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--table", "2", "--json")
        payload = json.loads(out)
        assert len(payload["rows"]) == 5
        assert {e["rate"] for e in payload["rows"]} == {"2/4"}

    def test_single_row_shows_polynomials(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--table", "1", "--row", "3")
        assert "X(D) = (1+D+D^3, 1+D^4+D^9, 1)" in out
        assert "Z(D) = (1+D^5+D^9, D^6+D^8+D^9, 1)" in out

    def test_unknown_row_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "tables", "--table", "1", "--row", "9")
        assert code == 2
        assert "no table rows" in err

    def test_text_output_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "tables")
        _, second, _ = run_cli(capsys, "tables")
        assert first == second


@pytest.mark.parametrize(
    "case", VERIFY_TABLES_CASES, ids=[case["name"] for case in VERIFY_TABLES_CASES]
)
def test_verify_and_tables_match_recording(capsys, tmp_path, case):
    argv = list(case["argv"])
    if "input" in case:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(case["input"]))
        argv += ["--input", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (case["exit"], case["stderr"])
    assert out == case["stdout"]


@pytest.mark.parametrize(
    "case", BUILD_REFLECT_CASES, ids=[case["name"] for case in BUILD_REFLECT_CASES]
)
def test_build_and_reflect_match_recording(capsys, tmp_path, case):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(case["input"]))
    code, out, err = run_cli(capsys, *case["argv"], "--input", str(path))
    assert (code, err) == (case["exit"], case["stderr"])
    assert out == case["stdout"]


@pytest.mark.parametrize(
    "case", USAGE_CASES, ids=[case["name"] for case in USAGE_CASES]
)
def test_usage_matches_recording(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exited:
        main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (exited.value.code, captured.out, captured.err) == (
        case["exit"], case["stdout"], case["stderr"]
    )


# Argument vectors that `main` parses with one command's parser alone must
# parse as the full tree parses them. The corpus holds abbreviations,
# `--opt=value`, `--`, `-h` after options, `--version` after a command,
# repeated, conflicting and unknown options, extra and missing positionals
# and values, for every command, and the argv that build the full tree.
PARSER_CORPUS = [
    ["build", "--input", "in.json"],
    ["build", "--inp", "in.json", "--json"],
    ["build", "--input=in.json", "--zero-based"],
    ["build", "--input", "a.json", "--input", "b.json"],
    ["build", "--one-based", "--zero-based", "--input", "in.json"],
    ["build", "--input"],
    ["build", "-h"],
    ["reflect", "--input", "in.json", "--json", "-h"],
    ["reflect", "--input", "in.json", "--version"],
    ["reflect", "--input", "in.json", "extra"],
    ["reflect", "--", "--input", "in.json"],
    ["reflect", "--input", "in.json", "--one"],
    ["verify", "--input", "in.json", "--bogus"],
    ["verify", "--input", "in.json", "--bogus=1", "pos"],
    ["verify", "--in", "in.json"],
    ["verify", "--input", "--json"],
    ["verify", "--input", "in.json", "--", "extra"],
    ["verify", "--js", "--input", "in.json"],
    ["verify", "--json", "--json", "--input", "in.json"],
    ["verify", "--version"],
    ["verify"],
    ["distance", "--input", "in.json", "--budget", "4"],
    ["distance", "--input", "in.json", "--budget=x"],
    ["distance", "--bud", "3", "--input", "in.json"],
    ["distance", "--input", "in.json", "--budget", "-1"],
    ["distance", "--budget"],
    ["distance", "--input", "in.json", "--help", "--bogus"],
    ["tables"],
    ["tables", "--table", "2", "--row", "3", "--json"],
    ["tables", "--table=9"],
    ["tables", "--t", "1"],
    ["tables", "extra", "--json"],
    ["tables", "--row", "1", "--row", "2"],
    ["tables", "-h", "--bogus"],
    ["search", "2", "2", "5"],
    ["search", "2", "2", "5", "--full-strong", "--limit", "3"],
    ["search", "--limit=2", "2", "2", "5"],
    ["search", "2", "2"],
    ["search", "2", "2", "5", "6"],
    ["search", "--", "2", "2", "5"],
    ["search", "2", "-1", "5"],
    ["search", "2", "2", "5", "--fu", "--li", "0"],
    ["search", "2", "2", "5", "--limit"],
    [],
    ["-h"],
    ["--version"],
    ["bogus"],
    ["ver"],
    ["--bogus", "verify"],
    ["Verify", "--input", "in.json"],
]


def _parse_outcome(capsys, parse):
    """("args", namespace) or ("exit", code, stdout, stderr) of ``parse()``."""
    try:
        outcome = ("args", vars(parse()))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    captured = capsys.readouterr()
    return outcome + (captured.out, captured.err)


def test_parser_corpus_hits_every_command():
    assert {argv[0] for argv in PARSER_CORPUS if argv} >= set(cli._COMMANDS)


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_main_parses_as_the_full_tree(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    parsed = []

    def record(args):
        parsed.append(args)
        return 0

    # Every handler records its namespace in place of running the command.
    monkeypatch.setattr(cli, "_COMMANDS", {
        name: (help_text, configure, record)
        for name, (help_text, configure, _) in cli._COMMANDS.items()
    })

    def through_main():
        assert main(list(argv)) == 0
        return parsed.pop()

    got = _parse_outcome(capsys, through_main)
    want = _parse_outcome(capsys, lambda: cli.build_parser().parse_args(list(argv)))
    assert got == want


def test_command_parser_stands_alone():
    parser = cli.build_parser(["verify"])
    assert parser.prog == "qccdts verify"
    assert not any(
        isinstance(action, argparse._SubParsersAction) for action in parser._actions
    )


@pytest.mark.parametrize("argv", [None, [], ["-h"], ["--version"], ["ver"]], ids=str)
def test_full_tree_lists_every_command(argv):
    parser = cli.build_parser(argv)
    assert parser.prog == "qccdts"
    (sub,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert list(sub.choices) == [
        "build", "reflect", "verify", "distance", "tables", "search",
    ]


def test_a_command_builds_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["search", "2", "2", "5"]) == 0
    assert built == ["qccdts search"]
    assert capsys.readouterr().out  # the families were printed


@pytest.mark.parametrize(
    "case", SEARCH_CASES, ids=[" ".join(case["argv"]) for case in SEARCH_CASES]
)
def test_search_matches_recording(capsys, monkeypatch, case):
    monkeypatch.delenv("QCCDTS_MAX_SEARCH", raising=False)
    code, out, err = run_cli(capsys, *case["argv"])
    assert (code, err) == (case["exit"], case["stderr"])
    if "stdout" in case:
        assert out == case["stdout"]
    else:
        assert out.count("\n") == case["stdout_lines"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]


# (r, w, max_scope) streams with and without FULL_STRONG families.
INVARIANT_SHAPES = [
    (1, 2, 6), (1, 3, 9), (1, 4, 11), (2, 2, 10), (2, 4, 16), (3, 2, 12),
    (3, 3, 13), (4, 3, 14), (4, 4, 24),
]


@pytest.mark.parametrize("shape", INVARIANT_SHAPES, ids=str)
def test_search_full_strong_and_limit_invariants(capsys, shape):
    argv = ["search", *map(str, shape)]
    _, plain, _ = run_cli(capsys, *argv)
    _, full, _ = run_cli(capsys, *argv, "--full-strong")
    rows = [json.loads(line) for line in plain.splitlines()]
    assert rows
    for row in rows:
        assert list(row) == ["one_based", "sets", "classification", "scope", "budget"]
        assert row["one_based"] is False
        assert row["scope"] == max(max(s) for s in row["sets"])
        assert row["classification"] in ("STRONG", "FULL_STRONG")
    expected = [
        line for line, row in zip(plain.splitlines(), rows)
        if row["classification"] == "FULL_STRONG"
    ]
    assert full.splitlines() == expected
    for n in (0, 1, 2, len(expected) + 1):
        code, head, _ = run_cli(capsys, *argv, "--limit", str(n), "--full-strong")
        assert code == 0
        assert head.splitlines() == expected[:n]


class TestSearch:
    def test_includes_running_example(self, capsys):
        code, out, _ = run_cli(capsys, "search", "2", "2", "2")
        assert code == 0
        families = [json.loads(line)["sets"] for line in out.splitlines()]
        assert [[0, 1], [0, 2]] in families

    def test_empty_stream_is_success(self, capsys):
        code, out, _ = run_cli(capsys, "search", "2", "2", "1")
        assert code == 0
        assert out == ""

    def test_limit_is_lexicographic_head(self, capsys):
        code, out, _ = run_cli(capsys, "search", "3", "2", "6", "--limit", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        _, full, _ = run_cli(capsys, "search", "3", "2", "6")
        assert lines[0] == full.splitlines()[0]

    def test_limit_zero_prints_nothing(self, capsys):
        code, out, err = run_cli(capsys, "search", "3", "2", "6", "--limit", "0")
        assert code == 0
        assert out == ""
        assert err == ""

    def test_negative_limit_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "search", "3", "2", "6", "--limit", "-3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    def test_engine_guard_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "search", "0", "2", "5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_full_strong_filter(self, capsys):
        code, out, _ = run_cli(capsys, "search", "2", "2", "4", "--full-strong")
        assert code == 0
        for line in out.splitlines():
            assert json.loads(line)["classification"] == "FULL_STRONG"

    def test_guard_violation_exit_2(self, capsys, monkeypatch):
        monkeypatch.delenv("QCCDTS_MAX_SEARCH", raising=False)
        code, _, err = run_cli(capsys, "search", "6", "2", "10")
        assert code == 2
        assert "QCCDTS_MAX_SEARCH" in err

    def test_env_override_lifts_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("QCCDTS_MAX_SEARCH", "6")
        code, out, _ = run_cli(capsys, "search", "6", "2", "6", "--limit", "1")
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_env_override_never_tightens_guard(self, capsys, monkeypatch):
        # 6 is above the r and w guards but below the max_scope guard of 40,
        # which must stay in force rather than drop to 6.
        monkeypatch.setenv("QCCDTS_MAX_SEARCH", "6")
        code, out, err = run_cli(capsys, "search", "2", "2", "10", "--limit", "1")
        assert (code, err) == (0, "")
        assert out == (
            '{"one_based": false, "sets": [[0, 1], [0, 2]], '
            '"classification": "FULL_STRONG", "scope": 2, "budget": 2}\n'
        )

    def test_env_override_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("QCCDTS_MAX_SEARCH", "lots")
        code, _, err = run_cli(capsys, "search", "2", "2", "2")
        assert code == 2
        assert "integer" in err

    @pytest.mark.parametrize(
        "shape, message",
        [
            (("2", "1", "5"), "error: search requires weight >= 2\n"),
            (("0", "2", "5"), "error: need at least one set\n"),
            (("2", "3", "1"), "error: scope 1 cannot hold a 3-set\n"),
        ],
        ids=["weight 1", "no sets", "scope below weight"],
    )
    @pytest.mark.parametrize(
        "limit", [[], ["--limit", "0"], ["--limit", "1"]], ids=["no limit", "limit 0", "limit 1"]
    )
    def test_engine_argument_errors_ignore_limit(self, capsys, shape, message, limit):
        # --limit 0 never iterates the engine, so its checks must run anyway.
        assert run_cli(capsys, "search", *shape, *limit) == (2, "", message)
        assert run_cli(capsys, "search", *shape, "--full-strong", *limit) == (2, "", message)


def _documented_line(family: DtsFamily) -> str:
    """The search line README documents, written by ``json.dumps``."""
    return json.dumps({
        "one_based": False,
        "sets": [list(s.elements) for s in family.sets],
        "classification": family.classification.name,
        "scope": family.budget,
        "budget": family.budget,
    }) + "\n"


# One stream for each r in 1..5 that holds a FULL_STRONG family, and two
# w = 3 streams that hold none.
FULL_STRONG_SHAPES = [(1, 4, 12), (2, 2, 10), (3, 2, 8), (4, 2, 10), (5, 2, 10)]
RENDER_SHAPES = FULL_STRONG_SHAPES + [(2, 3, 12), (3, 3, 13)]


@pytest.mark.parametrize("shape", RENDER_SHAPES, ids=str)
def test_search_lines_match_json_dumps_on_streams(shape):
    families = list(search_strong_dts(*shape))
    assert all(f.scope == f.budget for f in families)
    full = [f for f in families if f.classification == DtsClass.FULL_STRONG]
    assert bool(full) == (shape in FULL_STRONG_SHAPES)
    assert list(cli._search_lines(families)) == [_documented_line(f) for f in families]


def _family(sets, classification=DtsClass.STRONG, budget=None) -> DtsFamily:
    members = tuple(SupportSet(tuple(s)) for s in sets)
    if budget is None:
        budget = max(s.scope for s in members)
    return DtsFamily(members, classification, budget)


def test_search_lines_match_json_dumps_on_hand_built_families():
    # Every family is built from fresh SupportSet objects, so a head equal
    # by value is never the same object; the head changes at each depth.
    families = [
        _family([[0, 1], [0, 2], [0, 3]], DtsClass.FULL_STRONG, 3),
        _family([[0, 1], [0, 2], [0, 4]]),
        _family([[0, 1], [0, 2], [0, 5]]),
        _family([[0, 1], [0, 3], [0, 5]]),
        _family([[0, 1], [0, 3], [0, 7]]),
        _family([[0, 2], [0, 3], [0, 7]]),
        _family([[0, 2], [0, 3], [0, 8]]),
        _family([[0, 1], [0, 2], [0, 3]], DtsClass.FULL_STRONG, 3),
        # Adjacent families that differ only in classification, then only
        # in budget, then in both.
        _family([[0, 1], [0, 2], [0, 3]], DtsClass.STRONG, 3),
        _family([[0, 1], [0, 2], [0, 3]], DtsClass.STRONG, 4),
        _family([[0, 1], [0, 2], [0, 3]], DtsClass.FULL_STRONG, 4),
        _family([[0, 1], [0, 2], [0, 3]], DtsClass.FULL_STRONG, 3),
    ]
    lines = list(cli._search_lines(families))
    assert lines == [_documented_line(f) for f in families]
    assert len(set(lines[-4:])) == 4


def test_search_lines_render_each_head_once_per_run(monkeypatch):
    lookups = []

    class CountingTexts(cli._SetTexts):
        def __getitem__(self, elements):
            lookups.append(elements)
            return super().__getitem__(elements)

    monkeypatch.setattr(cli, "_SetTexts", CountingTexts)
    families = list(search_strong_dts(3, 2, 8))
    runs = sum(1 for _ in itertools.groupby(families, key=lambda f: f.sets[:-1]))
    assert 1 < runs < len(families)
    list(cli._search_lines(families))
    assert len(lookups) == len(families) + 2 * runs


@pytest.mark.parametrize("shape", RENDER_SHAPES, ids=str)
def test_search_lines_compare_sets_by_value_only_under_a_kept_last_head_set(
    shape, monkeypatch
):
    # The engine yields one object per distinct set, so identity tells its
    # heads apart. A head change whose last set is another object makes no
    # Python-level SupportSet comparison; one that keeps it makes one.
    families = list(search_strong_dts(*shape))
    kept_last = 0
    for before, after in zip(families, families[1:]):
        old, new = before.sets[:-1], after.sets[:-1]
        if new and new[-1] is old[-1] and any(map(operator.is_not, new, old)):
            kept_last += 1
    calls = []
    compare = SupportSet.__eq__

    def counting(self, other):
        calls.append((self, other))
        return compare(self, other)

    monkeypatch.setattr(SupportSet, "__eq__", counting)
    lines = list(cli._search_lines(families))
    monkeypatch.undo()
    assert len(calls) == kept_last
    assert lines == [_documented_line(f) for f in families]


def test_search_lines_stream_one_family_per_line():
    families = list(search_strong_dts(3, 2, 8))
    pulled = 0

    def counted():
        nonlocal pulled
        for f in families:
            pulled += 1
            yield f

    lines = cli._search_lines(counted())
    for k, line in enumerate(lines, 1):
        assert pulled == k
        assert line == _documented_line(families[k - 1])
    assert pulled == len(families)


def _child_env() -> dict[str, str]:
    """The environment with the qccdts under test first on PYTHONPATH, so a
    child interpreter imports it whether or not the package is installed."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qccdts.cli", "search", "2", "2", "2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert '"sets": [[0, 1], [0, 2]]' in proc.stdout


def test_import_path_loads_no_dataclasses_inspect_or_typing():
    # Without site (-S), whose .pth files may import typing, the child
    # loads only what qccdts and its standard-library imports need.
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import qccdts, qccdts.cli\n"
        "qccdts.cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _run_child(code: str, input_path: str) -> subprocess.CompletedProcess:
    """Run ``code`` after a preamble that defines ``run(*argv)``: call
    ``qccdts.cli.main`` in this child, assert exit 0, return its stdout."""
    preamble = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "import qccdts, qccdts.cli\n"
        "path = sys.argv[1]\n"
        "def run(*argv):\n"
        "    out = io.StringIO()\n"
        "    with redirect_stdout(out):\n"
        "        assert qccdts.cli.main(list(argv)) == 0, argv\n"
        "    return out.getvalue()\n"
    )
    return subprocess.run(
        [sys.executable, "-c", preamble + code, input_path],
        capture_output=True,
        text=True,
        env=_child_env(),
    )


def test_commands_without_a7_never_import_numpy(example_input):
    proc = _run_child(
        "qccdts.cli.build_parser()\n"
        'run("build", "--input", path)\n'
        'run("reflect", "--input", path)\n'
        'run("distance", "--json", "--input", path)\n'
        'run("search", "2", "2", "5")\n'
        'print("numpy" in sys.modules)\n',
        example_input,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# Runs every command in one child interpreter and prints, as JSON, each
# argv with its exit code and stdout. With "block" as the second argument,
# numpy cannot be imported in the child.
_EVERY_COMMAND_CHILD = """
import io, json, sys
from contextlib import redirect_stdout
if sys.argv[2] == "block":
    sys.modules["numpy"] = None
import qccdts.cli
path = sys.argv[1]
results = []
for argv in (
    ["build", "--input", path],
    ["reflect", "--json", "--input", path],
    ["verify", "--input", path],
    ["verify", "--json", "--input", path],
    ["distance", "--json", "--input", path],
    ["tables"],
    ["tables", "--json"],
    ["search", "2", "2", "5"],
    ["--help"],
):
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            code = qccdts.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([argv, code, out.getvalue()])
json.dump(results, sys.stdout)
"""


def test_every_command_runs_without_numpy(example_input):
    runs = {}
    for mode in ("block", "allow"):
        proc = subprocess.run(
            [sys.executable, "-c", _EVERY_COMMAND_CHILD, example_input, mode],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout)
    assert runs["block"] == runs["allow"]
    assert [code for _, code, _ in runs["block"]] == [0, 0, 0, 0, 0, 1, 1, 0, 0]


def test_broken_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "qccdts.cli", "search", "3", "3", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert json.loads(first)["sets"] == [[0, 1, 3], [0, 4, 9], [0, 6, 13]]
    assert proc.returncode == 0
    assert err == b""
