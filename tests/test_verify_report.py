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

from bandapprox import approx_operators, cli, decomposition, operators, paley_wiener
from conftest import _count_calls

DATA = Path(__file__).resolve().parent / "data"
PINNED = {
    "verify_cycle8_seed401.json":
        ["verify", "--op", "cycle:8", "--count", "100", "--sizes", "8,16", "--seed", "401"],
    "verify_diag6_rawD_seed5.json":
        ["verify", "--op", "diag:0,0.5,1,2,3.5,7", "--kind", "raw_D", "--count", "20",
         "--seed", "5"],
}

#: ``spectral_transform`` calls one run of the cycle:8 seed-401 command makes, one per
#: vector or block argument of each public call: a block of rows is one stacked call, so
#: this counts calls, not vectors (4,370 vectors when composite checks transformed their
#: vector up to four times, 3,098 when the Jackson chain transformed it once per band
#: edge, 2,858 when four checks transformed it once per parameter or route, 1,460 when
#: those four transformed the corpus vectors they read on their own, 689 when
#: ``run_suite`` transformed each corpus vector as it was drawn and the checks read it,
#: 304 when the norm brackets transformed their 11 rows once per size for a private table,
#: 312 when one ``besov_norm`` call per flavor transformed them, five times per size, and
#: the growth, Riesz and Q checks made one ``phi(D) f`` call per vector, 198 when the
#: synthesis check split, projected and checked each of its 15 band sets per size on its
#: own, 120 when the growth check projected each of its 20 vectors on its own and the Riesz
#: identity checked each of its 3 eigenvectors on its own; now each makes one block call
#: per size, the Riesz identity one per size and truncation)
CYCLE8_SEED401_TRANSFORMS = 70

#: ``_synthesize`` calls of the same run, one per ``phi(D) f`` call on a vector or block:
#: the growth bound projects its 20 vectors at every positive group value in one call, then
#: makes one block of its kept vectors x 20 ``z``; the Riesz and Q checks make one block call
#: each (1,145 when the growth bound made one call per vector and ``z``, 385 when each
#: projection of a corpus vector was a call of its own, 172 when the growth bound made one
#: 20-row block per vector and the Riesz and Q checks one call per vector, 58 when the
#: synthesis check projected each of its 5 non-orthogonal band sets per size on its own, 50
#: when the growth bound projected each of its 20 vectors on its own)
CYCLE8_SEED401_SYNTHESES = 12

#: Tikhonov paths (``smoothness._k_path``) of the same run: one per order r and size in the
#: norm brackets, for all 11 vectors at once, which every (alpha, q) of that r integrates
#: (66 K-functional evaluations when each (alpha, q) evaluated its own, 44 when each vector
#: evaluated its own)
CYCLE8_SEED401_K_FUNCTIONALS = 4

#: shift scans of the same run, per size: one per order m and one per order m - k
#: in the modulus inequalities, one per kernel combination in the Jackson chain and
#: one in each of ``lemma1_check`` and ``lemma2_check``, each for all its vectors at once
#: (183 when each vector and trial scanned on its own, 17 when the two lemmas shared one)
CYCLE8_SEED401_SCANS = 19

#: ``q_symbol`` calls of the same run, each for an axis of band edges: 6 in the Jackson
#: chain, one per size and kernel combination, and 2 in ``q_operator``, one per ``q_apply``
#: (340 when the Jackson chain evaluated each symbol once per vector, 70 when it called
#: once per band edge and ``q_operator`` once per vector)
CYCLE8_SEED401_Q_SYMBOLS = 8

#: ``riesz_symbol`` calls of the same run, each for an axis of band edges: 2 in the Riesz
#: norms, one per size, and 6 in the Riesz identity, one per size and truncation (60 when
#: an axis of edges took one call per edge, and the identity one call per eigenvector)
CYCLE8_SEED401_RIESZ_SYMBOLS = 8

#: calls of each of ``riesz_apply``, ``q_apply`` and ``schrodinger_group`` in the same run:
#: one block call per size (20 per size each when the checks called once per vector)
CYCLE8_SEED401_BLOCK_CALLS = 2

#: ``synthesis_check`` calls of the same run: per size, one block of the 10 canonical band
#: sets and one of the 5 non-orthogonal ones (30 when each band set was a call of its own)
CYCLE8_SEED401_SYNTHESIS_CHECKS = 4

#: ``band_decompose`` calls of the same run: one block of 10 vectors per size (20 when each
#: vector was split on its own)
CYCLE8_SEED401_BAND_DECOMPOSES = 2

#: ``paley_wiener._lq_norm`` calls of the same run, each reducing a rows x terms table: one
#: per ``(alpha, q)`` group of a norm's elements and per synthesis side (500 when every norm
#: element, frame norm and synthesis side reduced its own row; 40 when the integral flavors
#: at q < inf summed their own 8 tables, one per (alpha, q) and size, outside ``_lq_norm``)
CYCLE8_SEED401_LQ_NORMS = 48


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


def test_cycle8_seed401_transform_count(tmp_path, capsys, transforms):
    argv = PINNED["verify_cycle8_seed401.json"] + ["--json", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert len(transforms) <= CYCLE8_SEED401_TRANSFORMS


def test_cycle8_seed401_synthesis_count(tmp_path, capsys, syntheses):
    argv = PINNED["verify_cycle8_seed401.json"] + ["--json", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert len(syntheses) <= CYCLE8_SEED401_SYNTHESES


def test_cycle8_seed401_q_symbol_count(tmp_path, capsys, q_symbols):
    argv = PINNED["verify_cycle8_seed401.json"] + ["--json", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert len(q_symbols) <= CYCLE8_SEED401_Q_SYMBOLS


def test_cycle8_seed401_riesz_symbol_count(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, approx_operators.riesz_symbol)
    argv = PINNED["verify_cycle8_seed401.json"] + ["--json", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert len(calls) <= CYCLE8_SEED401_RIESZ_SYMBOLS


def test_cycle8_seed401_k_functional_count(tmp_path, capsys, k_functionals):
    argv = PINNED["verify_cycle8_seed401.json"] + ["--json", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert len(k_functionals) == CYCLE8_SEED401_K_FUNCTIONALS


def test_cycle8_seed401_scan_count(tmp_path, capsys, scans):
    argv = PINNED["verify_cycle8_seed401.json"] + ["--json", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert len(scans) <= CYCLE8_SEED401_SCANS


def test_cycle8_seed401_one_block_call_per_size(tmp_path, capsys, monkeypatch):
    counts = {fn.__name__: _count_calls(monkeypatch, fn) for fn in (
        approx_operators.riesz_apply, approx_operators.q_apply, operators.schrodinger_group)}
    argv = PINNED["verify_cycle8_seed401.json"] + ["--json", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert {name: len(calls) for name, calls in counts.items()} == dict.fromkeys(
        counts, CYCLE8_SEED401_BLOCK_CALLS)


@pytest.mark.parametrize("fn, count", [
    (decomposition.synthesis_check, CYCLE8_SEED401_SYNTHESIS_CHECKS),
    (decomposition.band_decompose, CYCLE8_SEED401_BAND_DECOMPOSES),
    (paley_wiener._lq_norm, CYCLE8_SEED401_LQ_NORMS),
], ids=["synthesis_check", "band_decompose", "_lq_norm"])
def test_cycle8_seed401_block_reduction_counts(fn, count, tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, fn)
    argv = PINNED["verify_cycle8_seed401.json"] + ["--json", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert len(calls) <= count
