"""Operator builders, vector IO, suite determinism, report emission, CLI."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bandapprox import (
    BadDimensionError,
    BandApproxError,
    DimensionMismatchError,
    InvalidParamsError,
    ParseError,
    UnsupportedFormatError,
    build_kernel,
    eigh,
    jackson_constant,
)
from bandapprox import harness
from bandapprox import smoothness as sm
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
from oracles import laplacian_by_loop


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

    @pytest.mark.parametrize("text", ["random:16:42:7", "random:16:42:", "random:16:", "random:"])
    def test_malformed_random_spec_is_rejected(self, capsys, text):
        # a size and a seed, each a whole field, and nothing after the seed
        with pytest.raises(ParseError):
            parse_operator_arg(text)
        assert main(["spectrum", "--op", text]) == 2
        assert "error:" in capsys.readouterr().err


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

    def test_repeated_edges_add_in_file_order(self, tmp_path):
        # each edge adds its four entries one after another, in file order, so the sums of
        # repeated edges round as the per-edge loop rounds them, bit for bit
        rng = np.random.default_rng(3)
        edges = [(int(u), int(v), float(w)) for (u, v), w in zip(
            rng.integers(0, 6, (60, 2)), 10.0 ** rng.uniform(-17, 17, 60)) if u != v]
        path = tmp_path / "graph.txt"
        path.write_text("".join(f"{u} {v} {w!r}\n" for u, v, w in edges))
        assert load_edge_list(str(path)).entries.tobytes() == laplacian_by_loop(6, edges).tobytes()

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

    def test_an_inf_ratio_fails_its_record(self, monkeypatch):
        # a bound that vanishes under a nonzero left side is a violation, not a skip
        measure = sm.modulus_inequality_checks
        monkeypatch.setattr(sm, "modulus_inequality_checks", lambda *args: replace(
            rep := measure(*args), ratio_scale=np.full_like(rep.ratio_scale, math.inf)))
        report = run_suite(OperatorSpec(builtin="cycle"), count=3, seed=1, sizes=(8,),
                           checks=["modulus_inequalities"])
        [record] = report.records
        assert record.value == math.inf and not record.passed and not report.overall_pass

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

    def test_shared_corpus_transforms_do_not_depend_on_the_checks_run(self):
        # every check makes its own block calls on the corpus, whichever checks run beside it
        spec = OperatorSpec(builtin="cycle")
        shared = {"plancherel": ("plancherel",), "e_equals_r": ("e_equals_r",),
                  "bernstein": ("bernstein", "bernstein_equality"),
                  "growth_bound": ("growth_bound",)}
        full = run_suite(spec, count=12, seed=5, sizes=(8, 16), checks=list(shared))
        for name, records in shared.items():
            solo = run_suite(spec, count=12, seed=5, sizes=(8, 16), checks=[name])
            assert solo.records == [r for r in full.records if r.check in records]

    def test_records_sorted_and_finite(self):
        report = run_suite(OperatorSpec(builtin="cycle"), count=10, seed=2, sizes=(8,),
                           checks=["plancherel", "e_equals_r", "q_operator"])
        keys = [(r.check, r.params) for r in report.records]
        assert keys == sorted(keys)
        assert all(math.isfinite(r.value) for r in report.records)
        assert report.overall_pass

    def test_duplicate_sizes_rejected(self, capsys):
        # a repeated size drew its corpus twice under one "sizes" entry of the meta
        with pytest.raises(InvalidParamsError, match="distinct"):
            run_suite(OperatorSpec(builtin="cycle"), count=5, seed=3, sizes=(8, 8),
                      checks=["plancherel", "e_equals_r"])
        assert main(["verify", "--op", "cycle:8", "--count", "5", "--seed", "3",
                     "--sizes", "8,8", "--checks", "plancherel,e_equals_r"]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_diagonal_spec_ignores_sizes(self):
        spec = OperatorSpec(builtin="diagonal", spectrum=(1.0, 2.0, 5.0), kind="raw_D")
        report = run_suite(spec, count=5, seed=1, sizes=(8, 16), checks=["plancherel"])
        assert report.meta["sizes"] == [3]


class TestVectorisedDraws:
    """Some checks draw their parameters in one call, and ``run_suite`` each size's corpus.  Each
    call must return the values, and leave the Generator in the state, of the scalar calls it
    replaced, for the Generator that ``run_suite`` hands each check (PCG64 from a child of the
    run's ``SeedSequence``) or draws the corpus from (its first child)."""

    @pytest.fixture(params=[(401, "bernstein"), (5, "e_equals_r"), (7, "growth_bound")],
                    ids=lambda p: f"seed{p[0]}-{p[1]}")
    def pair(self, request):
        seed, check = request.param
        children = np.random.SeedSequence(seed).spawn(1 + len(harness.ALL_CHECKS))
        child = children[1 + harness.CHECK_NAMES.index(check)]
        return np.random.default_rng(child), np.random.default_rng(child)

    @staticmethod
    def _same_state(scalar, block):
        assert scalar.bit_generator.state == block.bit_generator.state
        assert scalar.uniform() == block.uniform()

    @pytest.mark.parametrize("op", ["cycle:8", "cycle:16", "random:10:592"])
    def test_band_choices(self, pair, op):
        lam_pos = eigh(build_operator(parse_operator_arg(op))).eigenvalues
        lam_pos = lam_pos[lam_pos > 0]
        scalar, block = pair
        assert [float(scalar.choice(lam_pos)) for _ in range(100)] == \
            block.choice(lam_pos, size=100).tolist()
        self._same_state(scalar, block)

    @pytest.mark.parametrize("lambda_max", [2.0, 3.9231411216129217, 7.0])
    def test_e_equals_r_omegas(self, pair, lambda_max):
        scalar, block = pair
        assert [float(scalar.uniform(0.0, 1.2 * lambda_max)) for _ in range(100)] == \
            block.uniform(0.0, 1.2 * lambda_max, size=100).tolist()
        self._same_state(scalar, block)

    def test_growth_arguments(self, pair):
        scalar, block = pair
        for _ in range(5):
            re, im = block.uniform(-2, 2, size=(20, 2)).T
            assert [complex(scalar.uniform(-2, 2), scalar.uniform(-2, 2))
                    for _ in range(20)] == (re + 1j * im).tolist()
        self._same_state(scalar, block)

    @pytest.mark.parametrize("seed", [401, 5, 7])
    def test_corpus(self, seed):
        scalar, block = (np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
                         for _ in range(2))
        for n, count in ((8, 100), (16, 100), (6, 1)):  # each size in turn, as run_suite does
            draws = block.standard_normal((count, 2, n))
            assert (draws[:, 0] + 1j * draws[:, 1]).tolist() == [
                (scalar.standard_normal(n) + 1j * scalar.standard_normal(n)).tolist()
                for _ in range(count)]
        self._same_state(scalar, block)


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

    def test_spectrum_prints_the_cut_width(self, capsys):
        # the width of the one cut rule: lambda is in PW_omega when lambda <= omega + eps_group
        assert main(["spectrum", "--op", "cycle:16"]) == 0
        eps = eigh(build_operator(parse_operator_arg("cycle:16"))).eps_group
        assert eps == pytest.approx(2e-9, rel=1e-14)  # 1e-9 lambda_max, lambda_max = 2
        assert f"eps_group: {eps!r}  (a cut at omega keeps lambda <= omega + eps_group)" in (
            capsys.readouterr().out.splitlines())

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

    @pytest.mark.parametrize("op, seed", [("random:10:5", "5"), ("random:10", "17")])
    def test_verify_random_operators_pass_bernstein(self, capsys, op, seed):
        # omega at a small eigenvalue multiplied the projection round-off above it by
        # (lambda_max / omega)^7: bernstein read 13.60 and 1.000246 here
        assert main(["verify", "--op", op, "--sizes", "10", "--seed", seed,
                     "--count", "20"]) == 0
        assert "[PASS] bernstein (" in capsys.readouterr().out

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

    @pytest.mark.parametrize("argv", [
        ["besov", "--op", "cycle:4", "--vector", "f.json", "--alpha", "0.8", "--q", "two"],
        ["decompose", "--op", "cycle:4", "--vector", "f.json", "--alpha", "0.8", "--q", "two"],
        ["verify", "--op", "cycle:4", "--sizes", "4,x"],
        ["verify", "--op", "cycle:4", "--sizes", ""],
    ])
    def test_malformed_number_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--alpha", "0.8", "--q", "inf"],
                                       ["--alpha", "0.8", "--q", "Infinity"]])
    def test_decompose_command(self, tmp_path, rng, capsys, extra):
        vec_path = tmp_path / "f.csv"
        save_vector(str(vec_path), random_vector(rng, 8))
        assert main(["decompose", "--op", "cycle:8", "--vector", str(vec_path)] + extra) == 0
        out = capsys.readouterr().out
        # lambda_max = 2 on cycle:8: bands [0, 1] and (1, 2]
        assert "band 1: edge a^1 = 2.0  norm = " in out and "band 2:" not in out
        assert "np.float64" not in out
        assert "reconstruction residual" in out
        assert ("frame norm" in out) == bool(extra)

    def test_jackson_verdict_reads_the_tolerance_table(self, tmp_path, rng, capsys,
                                                       monkeypatch):
        vec_path = tmp_path / "f.json"
        save_vector(str(vec_path), random_vector(rng, 16))
        argv = ["jackson", "--op", "cycle:16", "--vector", str(vec_path), "--omega", "1.2",
                "-m", "2", "-k", "1"]
        assert main(argv) == 0
        assert "passed: True" in capsys.readouterr().out
        # E(f, 1.2) > 0, so no ratio is at most 1 - 2
        monkeypatch.setitem(harness.DEFAULT_TOLERANCES, "jackson_ratio", -2.0)
        assert main(argv) == 1
        assert "passed: False" in capsys.readouterr().out

    def test_jackson_kernel_order_zero_rejected(self, tmp_path, rng, capsys):
        # order 0 is a kernel order like any other, not a request for the default
        vec_path = tmp_path / "f.json"
        save_vector(str(vec_path), random_vector(rng, 16))
        assert main(["jackson", "--op", "cycle:16", "--vector", str(vec_path), "--omega", "1.2",
                     "--kernel-order", "0"]) == 2
        assert "kernel order n=0" in capsys.readouterr().err

    def test_jackson_at_a_large_kernel_order(self, tmp_path, rng, capsys):
        # the moment of order 77 of the order-80 kernel, about 1.1e146, is a finite double, and
        # so is the constant; the Q symbol's weights C(77, j) pass 2^53, so the command exits 2
        # (it printed ||Qf - f|| = 167030 for a vector of norm 3.67, and "passed: True")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(jackson_constant(build_kernel(80, 77), 77, 0))
        vec_path = tmp_path / "f.json"
        save_vector(str(vec_path), random_vector(rng, 16))
        assert main(["jackson", "--op", "cycle:16", "--vector", str(vec_path), "--omega", "1.2",
                     "-m", "77", "--kernel-order", "80"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "2^53" in captured.err and not captured.out

    @pytest.mark.parametrize("override", ["plancherel", "no_such_tol=1e-3", "plancherel=tiny",
                                          "modulus_grid=1e-6", "jackson_grid=1e-6"])
    def test_bad_tolerance_override_exits_2(self, capsys, override):
        argv = ["verify", "--op", "cycle:8", "--count", "2", "--sizes", "8",
                "--checks", "plancherel", "--tol", override]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_tolerance_override_reaches_the_record(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        assert main(["verify", "--op", "cycle:8", "--count", "2", "--sizes", "8",
                     "--checks", "plancherel", "--tol", "plancherel=1e-5",
                     "--json", str(json_path)]) == 0
        records = json.loads(json_path.read_text())["records"]
        assert [(r["check"], r["tolerance"]) for r in records] == [("plancherel", 1e-5)]

    def test_file_specs_build_the_same_operator(self, tmp_path):
        edges = tmp_path / "graph.txt"
        edges.write_text("0 1\n1 2 2.0  # weighted\n")
        matrix = tmp_path / "lap.csv"
        matrix.write_text("# the same Laplacian\n1,-1,0\n-1,3,-2\n0,-2,2\n")
        from_edges = build_operator(parse_operator_arg(f"edges:{edges}"))
        from_matrix = build_operator(parse_operator_arg(f"matrix:{matrix}"))
        np.testing.assert_array_equal(from_edges.entries, from_matrix.entries)
        np.testing.assert_array_equal(from_matrix.entries,
                                      [[1.0, -1.0, 0.0], [-1.0, 3.0, -2.0], [0.0, -2.0, 2.0]])

    def test_verify_matrix_file_matches_builtin(self, tmp_path, capsys):
        # the cycle:8 Laplacian written out: same operator, same corpus, same records
        lap = build_operator(OperatorSpec(builtin="cycle", size=8)).entries
        matrix = tmp_path / "cycle8.csv"
        matrix.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in lap))
        argv = ["--count", "4", "--seed", "11", "--sizes", "8",
                "--checks", "plancherel,e_equals_r,bernstein"]
        reports = []
        for op in (f"matrix:{matrix}", "cycle:8"):
            path = tmp_path / "report.json"
            assert main(["verify", "--op", op, "--json", str(path)] + argv) == 0
            reports.append(json.loads(path.read_text()))
        assert reports[0]["meta"]["operator"] == f"matrix_file:{matrix}"
        assert reports[0]["records"] == reports[1]["records"]


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
        assert set(seconds) == {"eigh", "plancherel", "lemma_ratios", "synthesis_constant"}
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


#: every public function ``verify`` reaches, by its traced name in ``bench/tracer.py``
HARNESS_CALLS = (
    "harness.build_operator", "harness.run_suite", "operators.eigh",
    "operators.spectral_transform", "operators.apply_multiplier", "paley_wiener.pw_project",
    "paley_wiener.best_approx", "paley_wiener.spectral_tail", "paley_wiener.bernstein_check",
    "smoothness.besov_norm", "smoothness.modulus_inequality_checks", "smoothness.lemma1_check",
    "smoothness.lemma2_check",
    "approx_operators.build_kernel", "approx_operators.riesz_symbol",
    "approx_operators.riesz_apply", "approx_operators.q_apply", "approx_operators.jackson_check",
    "approx_operators.riesz_identity_check", "decomposition.band_decompose",
    "decomposition.equivalence_report", "decomposition.synthesis_check",
)


class TestPerLayerView:
    """The benchmark's tracer sees ``verify`` through the public functions, layer by layer."""

    def test_verify_calls_every_public_layer(self):
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location("tracer", root / "bench" / "tracer.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer(BandApproxError)
        tracer.install()
        try:
            assert tracer.stale_bindings(installed=True) == []
            harness.run_suite(OperatorSpec(builtin="cycle"), count=3, seed=7, sizes=(8,))
        finally:
            tracer.remove()
        assert tracer.stale_bindings(installed=False) == []
        view = tracer.aggregate()
        assert [name for name in HARNESS_CALLS if view["calls"][name] < 1] == []
        # the norm brackets make one besov_norm call per flavor
        assert [fl for fl in harness._THEOREM1_FLAVORS if not view["flavor_busy"][fl] > 0] == []


class TestFamilies:
    """Families beyond the cycle: the fully degenerate complete graph, a disconnected graph."""

    def test_verify_passes_on_complete_graph(self, capsys):
        assert main(["verify", "--op", "complete:6", "--sizes", "6", "--count", "20"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_verify_passes_on_disconnected_graph(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 2\n2 0\n3 4\n")  # a triangle beside an edge
        assert main(["verify", "--op", f"edges:{path}", "--count", "20"]) == 0
        assert "overall: PASS" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "bandapprox", "verify", "--op", "cycle:4",
                           "--sizes", "4", "--count", "3"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "overall: PASS" in done.stdout
