"""The package's public names, pinned so any change shows as a one-line diff,
and each public function reached by at least one recorded command."""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import io
import json
import pathlib
import pkgutil

import qccdts
from qccdts import cli

PUBLIC_NAMES = [
    "CsocReport",
    "D",
    "DifferenceCollision",
    "DistanceCertificate",
    "DtsClass",
    "DtsFamily",
    "Gf2Poly",
    "Method",
    "ONE",
    "PolyMatrix",
    "ReflectionSymmetryReport",
    "SymplecticReport",
    "TABLE_ROWS",
    "TableRow",
    "VerifyReport",
    "ZERO",
    "build_systematic_x",
    "build_z",
    "certify_dfree",
    "check_reflection_symmetry",
    "classify",
    "column_distance",
    "dfree_exact",
    "dfree_upper",
    "from_one_based",
    "is_commuting",
    "is_csoc",
    "memory",
    "parity_supports",
    "rows_for",
    "search_strong_dts",
    "sum_index_matrix",
    "symplectic_sum",
    "validate_tables",
    "verify_pair",
]


def test_all_is_pinned():
    assert sorted(qccdts.__all__) == PUBLIC_NAMES


def test_all_has_no_duplicates():
    repeated = [n for n, c in collections.Counter(qccdts.__all__).items() if c > 1]
    assert repeated == []


def test_every_name_resolves():
    missing = [name for name in qccdts.__all__ if not hasattr(qccdts, name)]
    assert missing == []


def _replay_recorded_commands(tmp_path: pathlib.Path) -> None:
    """Run every command pinned under ``data/`` through ``cli.main``.

    Each command must exit as recorded, so the replay takes the same
    paths through the library as the recording did.
    """
    input_path = tmp_path / "input.json"
    for path in sorted((pathlib.Path(__file__).parent / "data").glob("*.json")):
        for case in json.loads(path.read_text()):
            argv = list(case["argv"])
            if "input" in case:
                input_path.write_text(json.dumps(case["input"]))
                argv += ["--input", str(input_path)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exited:  # usage, help and --version
                    code = exited.code
            assert code == case["exit"], (path.name, argv)


def test_every_public_function_is_called_by_a_recorded_command(monkeypatch, tmp_path):
    monkeypatch.delenv("QCCDTS_MAX_SEARCH", raising=False)
    public = {
        id(fn): name
        for name in qccdts.__all__
        if inspect.isfunction(fn := getattr(qccdts, name))
    }
    called = set()

    def recording(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    # Wrap each function at every name bound to it: the defining module, the
    # package, and each module that imported it with ``from ... import``.
    modules = [qccdts] + [
        importlib.import_module(f"qccdts.{info.name}")
        for info in pkgutil.iter_modules(qccdts.__path__)
    ]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in public:
                monkeypatch.setattr(module, attr, recording(public[id(obj)], obj))

    _replay_recorded_commands(tmp_path)
    assert sorted(set(public.values()) - called) == []
