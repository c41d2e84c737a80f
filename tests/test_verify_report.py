"""Seeded ``verify`` reports, pinned record by record against committed copies.

Each file in ``data/`` is the JSON report of one command:

* ``verify_cycle8_seed401.json``::

    bandapprox verify --op cycle:8 --count 100 --sizes 8,16 --seed 401

* ``verify_diag6_rawD_seed5.json`` (raw_D, a kernel mode, and eigenvalues
  1 and 2 on the band edges of base 2)::

    bandapprox verify --op diag:0,0.5,1,2,3.5,7 --kind raw_D --count 20 --seed 5

A change that moves a report on purpose writes the file again with its
command (adding ``--json tests/data/<file>``) and lists every moved record
and constant in ``CHANGES.md``.
"""

import json
from pathlib import Path

import pytest

from bandapprox import cli

DATA = Path(__file__).resolve().parent / "data"
PINNED = {
    "verify_cycle8_seed401.json":
        ["verify", "--op", "cycle:8", "--count", "100", "--sizes", "8,16", "--seed", "401"],
    "verify_diag6_rawD_seed5.json":
        ["verify", "--op", "diag:0,0.5,1,2,3.5,7", "--kind", "raw_D", "--count", "20",
         "--seed", "5"],
}


def _moved(old: dict, new: dict) -> list:
    """``key: old -> new`` for every key whose value differs or exists on one side only."""
    return [f"{key}: {old.get(key)!r} -> {new.get(key)!r}"
            for key in sorted(old.keys() | new.keys(), key=str) if old.get(key) != new.get(key)]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_report_is_unchanged(name, tmp_path, capsys):
    pinned = DATA / name
    out = tmp_path / "report.json"
    assert cli.main(PINNED[name] + ["--json", str(out)]) == 0
    capsys.readouterr()
    old, new = json.loads(pinned.read_text()), json.loads(out.read_text())
    records = _moved({(r["check"], r["params"]): r for r in old["records"]},
                     {(r["check"], r["params"]): r for r in new["records"]})
    constants = _moved(old["constants"], new["constants"])
    assert not records + constants, "moved:\n" + "\n".join(records + constants)
    assert new["meta"] == old["meta"]
    assert new["overall_pass"] is old["overall_pass"] is True
    assert out.read_bytes() == pinned.read_bytes()
