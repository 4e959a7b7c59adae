"""The README's environment-variable table lists every ``REPRO_*`` knob.

A knob the source reads but the table omits is undocumented; a row the
source no longer reads documents a switch that does nothing. Either way
the two sets must match exactly.
"""

from __future__ import annotations

import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_KNOB = re.compile(r"REPRO_[A-Z0-9_]+")
_TABLE_ROW = re.compile(r"^\| `(REPRO_[A-Z0-9_]+)` \|", re.MULTILINE)


def _knobs_in_source() -> set[str]:
    return {
        name
        for path in (_ROOT / "src" / "repro").rglob("*.py")
        for name in _KNOB.findall(path.read_text(encoding="utf-8"))
    }


def _knobs_in_readme_table() -> set[str]:
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Environment variables", 1)[1].split("\n## ", 1)[0]
    return set(_TABLE_ROW.findall(section))


def test_readme_env_table_matches_knobs_read_by_source():
    assert _knobs_in_readme_table() == _knobs_in_source()
