"""Operator builders, vector IO, suite determinism, report emission, CLI."""

import json
import math

import numpy as np
import pytest

from bandapprox import (
    BadDimensionError,
    DimensionMismatchError,
    InvalidParamsError,
    ParseError,
    UnsupportedFormatError,
    eigh,
)
from bandapprox.cli import main
from bandapprox.harness import (
    OperatorSpec,
    build_operator,
    emit_report,
    load_edge_list,
    load_report,
    load_vector,
    parse_operator_arg,
    run_suite,
    save_vector,
)
from conftest import random_vector


class TestBuilders:
    def test_path_two_nodes(self):
        op = build_operator(OperatorSpec(builtin="path", size=2))
        np.testing.assert_array_equal(op.entries, [[1.0, -1.0], [-1.0, 1.0]])

    def test_cycle_four_circulant(self):
        op = build_operator(OperatorSpec(builtin="cycle", size=4))
        np.testing.assert_array_equal(op.entries[0], [2.0, -1.0, 0.0, -1.0])
        dec = eigh(op)
        np.testing.assert_allclose(dec.eigenvalues ** 2, [0.0, 2.0, 2.0, 4.0],
                                   atol=1e-10)

    def test_diagonal_raw_l(self):
        op = build_operator(OperatorSpec(builtin="diagonal", spectrum=(1.0, 4.0, 9.0)))
        dec = eigh(op)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)

    def test_complete_graph_spectrum(self):
        op = build_operator(OperatorSpec(builtin="complete", size=5))
        dec = eigh(op)
        np.testing.assert_allclose(dec.eigenvalues ** 2, [0.0] + [5.0] * 4, atol=1e-9)

    def test_random_psd_is_reproducible_and_psd(self):
        spec = OperatorSpec(builtin="random_psd", size=10, seed=3)
        op1, op2 = build_operator(spec), build_operator(spec)
        np.testing.assert_array_equal(op1.entries, op2.entries)
        assert np.min(np.linalg.eigvalsh(op1.entries)) >= -1e-12

    def test_cycle_too_small(self):
        with pytest.raises(BadDimensionError):
            build_operator(OperatorSpec(builtin="cycle", size=2))

    def test_parse_shorthands(self):
        assert parse_operator_arg("cycle:16").builtin == "cycle"
        assert parse_operator_arg("diag:1,4,9").spectrum == (1.0, 4.0, 9.0)
        spec = parse_operator_arg("random:8:42")
        assert (spec.size, spec.seed) == (8, 42)
        with pytest.raises(ParseError):
            parse_operator_arg("torus:5")
        with pytest.raises(ParseError):
            parse_operator_arg("cycle:five")


class TestEdgeList:
    def test_parse_with_comments_and_weights(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# triangle with one weighted edge\n"
                        "0 1\n1 2 2.5\n\n2 0 1.0  # closing edge\n")
        op = load_edge_list(str(path))
        expected = np.array([[2.0, -1.0, -1.0],
                             [-1.0, 3.5, -2.5],
                             [-1.0, -2.5, 3.5]])
        np.testing.assert_array_equal(op.entries, expected)

    def test_disconnected_graph_is_fine(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n3 4\n")
        op = load_edge_list(str(path))
        assert op.dim == 5
        dec = eigh(op)
        assert np.sum(dec.eigenvalues == 0.0) == 3  # three components

    def test_bad_lines_rejected(self, tmp_path):
        for content in ("0\n", "0 1 -2\n", "0 0\n", "a b\n", "0 1 0\n"):
            path = tmp_path / "bad.txt"
            path.write_text(content)
            with pytest.raises(ParseError):
                load_edge_list(str(path))


class TestVectorIO:
    @pytest.mark.parametrize("ext", ["csv", "json"])
    def test_roundtrip_exact(self, tmp_path, rng, ext):
        vec = random_vector(rng, 17)
        path = tmp_path / f"vec.{ext}"
        save_vector(str(path), vec)
        back = load_vector(str(path))
        np.testing.assert_array_equal(back, vec)

    def test_zero_vector_roundtrip(self, tmp_path):
        path = tmp_path / "zero.csv"
        save_vector(str(path), np.zeros(4, complex))
        np.testing.assert_array_equal(load_vector(str(path)), np.zeros(4, complex))

    def test_dimension_check(self, tmp_path, rng):
        path = tmp_path / "vec.json"
        save_vector(str(path), random_vector(rng, 5))
        with pytest.raises(DimensionMismatchError):
            load_vector(str(path), expected_dim=6)

    def test_unknown_format(self, tmp_path, rng):
        with pytest.raises(UnsupportedFormatError):
            save_vector(str(tmp_path / "vec.txt"), random_vector(rng, 3))


class TestSuite:
    def test_empty_selection_passes(self):
        report = run_suite(OperatorSpec(builtin="cycle"), count=5, seed=1,
                           sizes=(8,), checks=[])
        assert report.overall_pass and report.records == []

    def test_unknown_check_rejected(self):
        with pytest.raises(ParseError):
            run_suite(OperatorSpec(builtin="cycle"), checks=["nonsense"])

    def test_fixed_seed_byte_identical_json(self, tmp_path):
        spec = OperatorSpec(builtin="cycle")
        kwargs = dict(count=10, seed=123, sizes=(8,),
                      checks=["plancherel", "e_equals_r", "bernstein"])
        paths = []
        for run in range(2):
            report = run_suite(spec, **kwargs)
            path = tmp_path / f"report{run}.json"
            emit_report(report, "json", str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_corpus_independent_of_check_selection(self):
        spec = OperatorSpec(builtin="cycle")
        full = run_suite(spec, count=10, seed=5, sizes=(8,),
                         checks=["plancherel", "synthesis_constant"])
        solo = run_suite(spec, count=10, seed=5, sizes=(8,), checks=["plancherel"])
        value_full = [r for r in full.records if r.check == "plancherel"][0].value
        value_solo = [r for r in solo.records if r.check == "plancherel"][0].value
        assert value_full == value_solo

    def test_records_sorted_and_finite(self):
        report = run_suite(OperatorSpec(builtin="cycle"), count=10, seed=2, sizes=(8,),
                           checks=["plancherel", "e_equals_r", "q_operator"])
        keys = [(r.check, r.params) for r in report.records]
        assert keys == sorted(keys)
        assert all(math.isfinite(r.value) for r in report.records)
        assert report.overall_pass

    def test_diagonal_spec_ignores_sizes(self):
        spec = OperatorSpec(builtin="diagonal", spectrum=(1.0, 2.0, 5.0), kind="raw_D")
        report = run_suite(spec, count=5, seed=1, sizes=(8, 16), checks=["plancherel"])
        assert report.meta["sizes"] == [3]


class TestReports:
    def _small_report(self):
        return run_suite(OperatorSpec(builtin="cycle"), count=5, seed=9, sizes=(8,),
                         checks=["plancherel", "bernstein"])

    def test_json_roundtrip(self, tmp_path):
        report = self._small_report()
        path = tmp_path / "report.json"
        emit_report(report, "json", str(path))
        back = load_report(str(path))
        assert back.to_dict() == report.to_dict()

    def test_csv_rows(self, tmp_path):
        report = self._small_report()
        path = tmp_path / "report.csv"
        emit_report(report, "csv", str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "check,params,value,tolerance,passed"
        assert len(lines) == 1 + len(report.records)

    def test_empty_report_header_only_csv(self, tmp_path):
        report = run_suite(OperatorSpec(builtin="cycle"), count=5, seed=1,
                           sizes=(8,), checks=[])
        path = tmp_path / "empty.csv"
        emit_report(report, "csv", str(path))
        assert path.read_text() == "check,params,value,tolerance,passed\n"

    def test_unknown_format(self, tmp_path):
        with pytest.raises(UnsupportedFormatError):
            emit_report(self._small_report(), "xml", str(tmp_path / "r.xml"))


class TestCli:
    def test_spectrum(self, capsys):
        assert main(["spectrum", "--op", "diag:1,4,9"]) == 0
        out = capsys.readouterr().out
        assert "dim: 3" in out and "3.0" in out

    def test_project_and_vector_roundtrip(self, tmp_path, rng, capsys):
        vec_path = tmp_path / "f.csv"
        save_vector(str(vec_path), random_vector(rng, 4))
        out_path = tmp_path / "g.csv"
        code = main(["project", "--op", "cycle:4", "--vector", str(vec_path),
                     "--omega", "1.5", "--out", str(out_path)])
        assert code == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "best approximation" in out

    def test_besov_command(self, tmp_path, rng, capsys):
        vec_path = tmp_path / "f.json"
        save_vector(str(vec_path), random_vector(rng, 4))
        code = main(["besov", "--op", "cycle:4", "--vector", str(vec_path),
                     "--alpha", "0.8", "--q", "inf", "--flavor", "integral_E"])
        assert code == 0
        assert "besov_norm" in capsys.readouterr().out

    def test_verify_writes_reports_and_exits_zero(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code = main(["verify", "--op", "cycle:8", "--count", "5", "--seed", "3",
                     "--sizes", "8", "--checks", "plancherel,e_equals_r",
                     "--json", str(json_path), "--csv", str(csv_path)])
        assert code == 0
        assert json.loads(json_path.read_text())["overall_pass"] is True
        assert csv_path.exists()

    def test_report_reemission(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        main(["verify", "--op", "cycle:8", "--count", "5", "--seed", "3",
              "--sizes", "8", "--checks", "plancherel", "--json", str(json_path)])
        out_path = tmp_path / "report.csv"
        assert main(["report", "--in", str(json_path), "--format", "csv",
                     "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("check,params")

    @pytest.mark.parametrize("entries, expected", [
        ([1.0, 1.0, 0.0], "interpolation identity residual"),
        ([1.0, 1.0, 1.0], "identity check skipped"),
        ([0.0, 0.0, 0.0], "interpolation identity residual"),
    ])
    def test_riesz_identity_runs_only_for_bandlimited(self, tmp_path, capsys,
                                                      entries, expected):
        # D = diag(1, 2, 3): entry 3 carries lambda = 3, above omega = 2
        vec_path = tmp_path / "f.json"
        save_vector(str(vec_path), np.array(entries))
        code = main(["riesz", "--op", "diag:1,2,3", "--kind", "raw_D",
                     "--vector", str(vec_path), "--omega", "2", "--trunc", "100"])
        assert code == 0
        assert expected in capsys.readouterr().out

    def test_bad_operator_spec_exits_2(self, capsys):
        assert main(["spectrum", "--op", "moebius:7"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSmallCounts:
    @pytest.mark.parametrize("count", [1, 2])
    def test_counts_below_three_run_every_check(self, count):
        report = run_suite(OperatorSpec(builtin="cycle"), count=count, seed=4, sizes=(8,))
        assert {"lemma1_ratio", "lemma2_ratio"} <= {r.check for r in report.records}
        assert all(math.isfinite(r.value) for r in report.records)

    def test_count_zero_rejected(self, capsys):
        with pytest.raises(InvalidParamsError):
            run_suite(OperatorSpec(builtin="cycle"), count=0, sizes=(8,))
        assert main(["verify", "--op", "cycle:8", "--count", "0"]) == 2
        assert "count" in capsys.readouterr().err


class TestZeroSpectrum:
    """Operators whose spectrum is {0}: the checks draw band limits from positive eigenvalues."""

    @pytest.mark.parametrize("op, sizes, n", [("path:8", "1", 1), ("diag:0,0,0", "8", 3),
                                              ("complete:8", "1,2", 1)])
    def test_rejected_naming_n(self, capsys, op, sizes, n):
        spec = parse_operator_arg(op)
        with pytest.raises(InvalidParamsError, match=f"N = {n}"):
            run_suite(spec, count=3, sizes=[int(s) for s in sizes.split(",")])
        assert main(["verify", "--op", op, "--sizes", sizes, "--count", "3"]) == 2
        assert f"N = {n}" in capsys.readouterr().err


class TestTimings:
    def test_timings_file_leaves_report_bytes_alone(self, tmp_path, capsys):
        argv = ["verify", "--op", "cycle:8", "--count", "5", "--seed", "3", "--sizes", "8",
                "--checks", "plancherel,lemma_ratios,synthesis_constant"]
        plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
        timings = tmp_path / "timings.json"
        main(argv + ["--json", str(plain)])
        main(argv + ["--json", str(timed), "--timings", str(timings)])
        assert plain.read_bytes() == timed.read_bytes()
        seconds = json.loads(timings.read_text())
        assert set(seconds) == {"plancherel", "lemma_ratios", "synthesis_constant"}
        assert all(value >= 0.0 for value in seconds.values())
        assert "timings" not in plain.read_text()


class TestFullSuite:
    def test_all_checks_pass_on_cycle16(self):
        report = run_suite(OperatorSpec(builtin="cycle"), count=50, seed=7,
                           sizes=(16,))
        failing = [r for r in report.records if not r.passed]
        assert report.overall_pass, failing
        emitted = {r.check for r in report.records}
        assert emitted == {
            "plancherel", "e_equals_r", "bernstein", "bernstein_equality",
            "growth_bound", "riesz_norm", "riesz_identity_slope",
            "riesz_identity_tail", "modulus_inequalities", "jackson_chain",
            "jackson_link", "q_tail", "q_kernel_pass", "lemma1_ratio",
            "lemma2_ratio", "theorem1_bracket", "theorem1_scale_invariance",
            "frame_equivalence", "frame_scale_invariance",
            "synthesis_constant", "band_reconstruction", "band_tail_identity",
        }
