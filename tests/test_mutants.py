"""The records of the hand-run mutation gate, ``tools/mutants.py``, checked.

Each record's texts must occur exactly once in its module, each mutant
must compile, and no two records share a name. No mutant runs here; ``python3 tools/mutants.py`` does that.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutation_record_is_valid():
    mutants = _load_tool()
    assert mutants.MUTANTS
    assert mutants.broken_records(mutants.MUTANTS) == []
