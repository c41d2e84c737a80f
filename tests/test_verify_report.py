"""The seeded ``verify`` report, pinned record by record against a committed copy.

``data/verify_cycle8_seed401.json`` is the JSON report of::

    bandapprox verify --op cycle:8 --count 100 --sizes 8,16 --seed 401

A change that moves the report on purpose writes the file again with
that command (adding ``--json tests/data/verify_cycle8_seed401.json``)
and lists every moved record and constant in ``CHANGES.md``.
"""

import json
from pathlib import Path

from bandapprox import cli

PINNED = Path(__file__).resolve().parent / "data" / "verify_cycle8_seed401.json"
ARGS = ["verify", "--op", "cycle:8", "--count", "100", "--sizes", "8,16", "--seed", "401"]


def _moved(old: dict, new: dict) -> list:
    """``key: old -> new`` for every key whose value differs or exists on one side only."""
    return [f"{key}: {old.get(key)!r} -> {new.get(key)!r}"
            for key in sorted(old.keys() | new.keys(), key=str) if old.get(key) != new.get(key)]


def test_seed401_report_is_unchanged(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(ARGS + ["--json", str(out)]) == 0
    capsys.readouterr()
    old, new = json.loads(PINNED.read_text()), json.loads(out.read_text())
    records = _moved({(r["check"], r["params"]): r for r in old["records"]},
                     {(r["check"], r["params"]): r for r in new["records"]})
    constants = _moved(old["constants"], new["constants"])
    assert not records + constants, "moved:\n" + "\n".join(records + constants)
    assert new["meta"] == old["meta"]
    assert new["overall_pass"] is old["overall_pass"] is True
    assert out.read_bytes() == PINNED.read_bytes()
