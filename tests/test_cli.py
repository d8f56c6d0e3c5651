import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from isoadams import cli, homological as H, isotropic as iso, milnor
from isoadams.charts import ExtChart, from_csv, from_json, to_csv, to_json

from conftest import corrupt_p_product_table


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mul_commutator_example(capsys):
    code, out, _ = run_cli(["mul", "Q0", "P(1)"], capsys)
    assert code == 0 and out.strip() == "P(1) Q0 + Q1"


def test_mul_qepr_basis(capsys):
    code, out, _ = run_cli(["mul", "Q0", "P(1)", "--basis", "qepr"], capsys)
    assert code == 0 and out.strip() == "Q0 P(1)"


@pytest.mark.parametrize("basis", ["qepr", "prqe"])
@pytest.mark.parametrize("flavor", ["classical", "G"])
def test_mul_basis_without_milnor_flavor_is_usage_error(flavor, basis, capsys):
    # admissible words have no Milnor-basis order, so the flag would
    # select nothing
    code, out, err = run_cli(["mul", "Sq2", "Sq2", "--flavor", flavor, "--basis", basis], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_mul_absent_basis_is_prqe(capsys):
    for argv in (["mul", "Q0", "P(1)"], ["mul", "Q0", "P(1)", "--basis", "prqe"]):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out == "P(1) Q0 + Q1\n"


def test_mul_classical_square_zero(capsys):
    code, out, _ = run_cli(["mul", "Sq1", "Sq1", "--flavor", "classical"], capsys)
    assert code == 0 and out.strip() == "0"


def test_mul_p_example(capsys):
    code, out, _ = run_cli(["mul", "P(1)", "P(2)"], capsys)
    assert code == 0 and out.strip() == "P(3)"


def test_mul_parse_error(capsys):
    code, _, err = run_cli(["mul", "Q0", "banana"], capsys)
    assert code == 2 and "position" in err


@pytest.mark.parametrize("lhs", ["P(1,,2)", "P(,1)", "P(1,)"])
def test_mul_empty_exponent_slot_is_usage_error(lhs, capsys):
    # a dropped slot would name another element; nothing is printed
    code, out, err = run_cli(["mul", lhs, "1", "--basis", "qepr"], capsys)
    assert code == 2 and out == "" and "empty P exponent slot" in err


@pytest.mark.parametrize("argv", [["Q0", "Q99999999999999999999"], ["Q99999999999999999999", "1", "--basis", "qepr"]])
def test_mul_overflowing_index_is_usage_error(argv, capsys):
    # the commutator rule shifts by 2^index, which overflows here; a
    # malformed element is a usage error, not the mismatch code
    code, out, err = run_cli(["mul", *argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_resolve_tmax_zero(capsys):
    code, out, _ = run_cli(["resolve", "--flavor", "classical", "--tmax", "0"], capsys)
    assert code == 0
    assert out.strip().splitlines() == ["s,t,u,dim", "0,0,,1"]


def test_resolve_classical_h_family(tmp_path, capsys):
    out_file = tmp_path / "cl.json"
    code, _, _ = run_cli(
        ["resolve", "--flavor", "classical", "--tmax", "12", "--smax", "8",
         "--format", "json", "--out", str(out_file)], capsys)
    assert code == 0
    chart = from_json(out_file.read_text())
    names = {c["name"] for c in json.loads(out_file.read_text())["classes"]}
    assert {"h0", "h1", "h2", "h3"} <= names
    assert chart.dim(1, (1,)) == chart.dim(1, (2,)) == chart.dim(1, (4,)) == chart.dim(1, (8,)) == 1
    assert chart.dim(1, (3,)) == chart.dim(1, (5,)) == 0


def test_resolve_even_on_line(tmp_path, capsys):
    out_file = tmp_path / "g.csv"
    code, _, _ = run_cli(
        ["resolve", "--flavor", "G", "--tmax", "24", "--out", str(out_file)], capsys)
    assert code == 0
    chart = from_csv(out_file.read_text())
    for (s, deg), dim in chart.cells.items():
        assert deg[0] == 2 * deg[1] and dim > 0


def test_resolve_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code, _, _ = run_cli(
            ["resolve", "--flavor", "classical", "--tmax", "10", "--out", str(f)], capsys)
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_resolve_formats(tmp_path, capsys):
    for fmt, probe in [("json", "isoadams-chart/1"), ("svg", "<svg"), ("ascii", "|")]:
        code, out, _ = run_cli(
            ["resolve", "--flavor", "classical", "--tmax", "6", "--format", fmt], capsys)
        assert code == 0 and probe in out


def test_compare_doubling_and_equality(tmp_path, capsys):
    cl = tmp_path / "cl.csv"
    g = tmp_path / "g.json"
    run_cli(["resolve", "--flavor", "classical", "--tmax", "12", "--out", str(cl)], capsys)
    run_cli(["resolve", "--flavor", "G", "--tmax", "24", "--format", "json", "--out", str(g)], capsys)
    code, out, _ = run_cli(["compare", str(cl), str(g), "--mode", "doubling"], capsys)
    assert code == 0 and "MATCH" in out
    code, out, _ = run_cli(["compare", str(cl), str(cl), "--mode", "equality"], capsys)
    assert code == 0


def test_compare_detects_perturbation(tmp_path, capsys):
    cl = tmp_path / "cl.csv"
    run_cli(["resolve", "--flavor", "classical", "--tmax", "10", "--out", str(cl)], capsys)
    bad = tmp_path / "bad.csv"
    text = cl.read_text().replace("2,2,,1", "2,2,,9")
    bad.write_text(text)
    code, out, _ = run_cli(["compare", str(cl), str(bad)], capsys)
    assert code == 1 and "(2, (2,))" in out


def test_compare_report_json(tmp_path, capsys):
    cl = tmp_path / "cl.csv"
    run_cli(["resolve", "--flavor", "classical", "--tmax", "8", "--out", str(cl)], capsys)
    rep = tmp_path / "rep.json"
    code, _, _ = run_cli(["compare", str(cl), str(cl), "--out", str(rep)], capsys)
    assert code == 0
    payload = json.loads(rep.read_text())
    assert payload["match"] is True and payload["mode"] == "equality"


def test_compare_doubling_report_json_lists_the_mismatch(tmp_path, capsys):
    cl = tmp_path / "cl.csv"
    g = tmp_path / "g.csv"
    run_cli(["resolve", "--flavor", "classical", "--tmax", "8", "--smax", "4", "--out", str(cl)], capsys)
    run_cli(["resolve", "--flavor", "G", "--tmax", "16", "--smax", "4", "--out", str(g)], capsys)
    text = g.read_text()
    assert "\n2,4,2,1\n" in text
    g.write_text(text.replace("\n2,4,2,1\n", "\n2,4,2,2\n"))
    rep = tmp_path / "rep.json"
    code, out, _ = run_cli(["compare", str(cl), str(g), "--mode", "doubling", "--out", str(rep)], capsys)
    assert code == 1 and "  MISMATCH at (2, (4, 2)): 1 vs 2" in out.splitlines()
    payload = json.loads(rep.read_text())
    assert payload["match"] is False and payload["mode"] == "doubling"
    assert payload["mismatches"] == [{"s": 2, "deg": [4, 2], "left": 1, "right": 2}]


def test_csv_keeps_truncated_cells():
    # a truncated cell is a row with an empty dim, in cell order
    chart = ExtChart("isotropic", 2, 2, 4, {(0, (0, 0)): 1, (1, (2, 1)): 1}, {(1, (4, 1)), (0, (4, 2))})
    text = to_csv(chart)
    assert text == "s,t,u,dim\n0,0,0,1\n0,4,2,\n1,2,1,1\n1,4,1,\n"
    back = from_csv(text)
    assert (back.cells, back.truncated, back.smax, back.tmax) == (chart.cells, chart.truncated, 1, 4)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_narrowed_isotropic_chart_compares_as_the_run(fmt, tmp_path, capsys):
    # the truncated cells of a narrowed window travel with the saved
    # chart, so comparing it repeats the run's own report
    iso_file = tmp_path / f"iso.{fmt}"
    cl = tmp_path / "cl.csv"
    code, run_out, _ = run_cli(
        ["isotropic", "--tmax", "16", "--smax", "4", "--pmin", "-5", "--format", fmt, "--out", str(iso_file)], capsys)
    assert code == 0
    run_cli(["resolve", "--flavor", "classical", "--tmax", "8", "--smax", "4", "--out", str(cl)], capsys)
    code, out, _ = run_cli(["compare", str(cl), str(iso_file), "--mode", "doubling"], capsys)
    assert code == 0
    assert out.splitlines() == run_out.splitlines()[:3] == [
        "compare mode=doubling: checked 19 cells",
        "  skipped 320 truncated cells",
        "verdict: MATCH",
    ]


def test_csv_extent_does_not_narrow_compare(tmp_path, capsys):
    # c3.csv lists no row at s = 4, so its rows reach only s = 3; a CSV
    # states no window, so the comparison still reaches the s = 4 cell
    # that bad.csv changes
    iso_file, bad, c3 = tmp_path / "iso.csv", tmp_path / "bad.csv", tmp_path / "c3.csv"
    run_cli(["isotropic", "--tmax", "6", "--smax", "4", "--out", str(iso_file)], capsys)
    bad.write_text(iso_file.read_text() + "4,6,3,5\n")
    run_cli(["resolve", "--flavor", "classical", "--tmax", "3", "--smax", "4", "--out", str(c3)], capsys)
    assert max(int(line.split(",")[0]) for line in c3.read_text().splitlines()[1:]) == 3
    code, out, _ = run_cli(["compare", str(c3), str(bad), "--mode", "doubling"], capsys)
    assert code == 1
    assert "  MISMATCH at (4, (6, 3)): 0 vs 5" in out.splitlines()
    assert out.splitlines()[-1] == "verdict: MISMATCH"


def test_weight_filter_filters_truncated_cells(tmp_path, capsys):
    out_file = tmp_path / "iso.json"
    code, _, _ = run_cli(
        ["isotropic", "--tmax", "16", "--smax", "4", "--pmin", "-5", "--qmin", "3", "--qmax", "3",
         "--format", "json", "--out", str(out_file)], capsys)
    assert code == 0
    chart = from_json(out_file.read_text())
    assert chart.cells and chart.truncated
    assert {deg[1] for _, deg in chart.cells} == {deg[1] for _, deg in chart.truncated} == {3}


# sha256 of the stdout, and of the chart file written by --out, of
# commands whose bytes every engine change must keep
PINNED_OUTPUTS = {
    "isotropic": (
        ["isotropic", "--tmax", "64", "--smax", "12"],
        "e66c60bf5b8efd0fcb2d6761bcfd4ffc99167e67630dc241abce2afdb5ae9b1b",
        "113e44323e51126675394fc7a42d174c4f47037944db6f1723db8f9ef23f2e37",
    ),
    "resolve-classical": (
        ["resolve", "--flavor", "classical", "--tmax", "40", "--smax", "12", "--format", "json"],
        "68209c5c3030e750a36bde70ed9c99a6efa65af7e797fc8e0c0e0a39d2d26d34",
        None,
    ),
    "resolve-A0": (
        ["resolve", "--flavor", "A0", "--tmax", "20", "--smax", "6", "--format", "json"],
        "cf5665abff140853d359f21bca8724293604b0d6cae6b0638c5430e1c4a06f45",
        None,
    ),
    "resolve-G": (
        ["resolve", "--flavor", "G", "--tmax", "32", "--smax", "6", "--format", "json"],
        "3c455c045f3bd23b8d1c825ae079eb51b6552aa872c15f841d2ec50e1df05f91",
        None,
    ),
    "massey-classical": (
        ["massey", "--flavor", "classical", "--tmax", "30", "--smax", "8", "h0", "h1", "h0"],
        "32cc4bc454c99ef2966ab465d8582325f139da066e50d369212a09f1dca458ce",
        None,
    ),
    # chain maps over A0 read right rows of terms with Q-parts
    "massey-A0": (
        ["massey", "--flavor", "A0", "--tmax", "30", "--smax", "8", "h1", "h0", "h1"],
        "980ef4e7759a1b5df8e6b0765d828aba1a627982c5aec990fdb36974aabe5ecf",
        None,
    ),
    "massey-G": (
        ["massey", "--flavor", "G", "--tmax", "30", "--smax", "8", "h0", "h1", "h0"],
        "32cc4bc454c99ef2966ab465d8582325f139da066e50d369212a09f1dca458ce",
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
def test_outputs_are_pinned(case, tmp_path, capsys):
    argv, stdout_sha, file_sha = PINNED_OUTPUTS[case]
    out_file = tmp_path / "chart.csv"
    code, out, _ = run_cli(argv + (["--out", str(out_file)] if file_sha else []), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    if file_sha:
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == file_sha


def test_massey_example(capsys):
    code, out, _ = run_cli(["massey", "h0", "h1", "h0", "--tmax", "8", "--smax", "4"], capsys)
    assert code == 0
    assert "h1^2" in out and "indeterminacy 0" in out


def test_even_products_are_doubled_classical_products(tmp_path, capsys):
    # chain maps over the bigraded G engine give the classical product
    # table under (s, t) -> (s, 2t, t)
    tables = {}
    for flavor, tmax in (("G", "32"), ("classical", "16")):
        out_file = tmp_path / f"{flavor}.json"
        code, _, _ = run_cli(
            ["resolve", "--flavor", flavor, "--tmax", tmax, "--smax", "6",
             "--format", "json", "--out", str(out_file)], capsys)
        assert code == 0
        tables[flavor] = json.loads(out_file.read_text())["products"]

    def doubled(entry):
        value = entry["value"]
        if isinstance(value, dict):
            value = {**value, "t": 2 * value["t"], "u": value["t"]}
        return {**entry, "value": value}

    assert tables["classical"]
    assert tables["G"] == [doubled(e) for e in tables["classical"]]


def test_massey_on_even_algebra(capsys):
    code, out, _ = run_cli(["massey", "h0", "h1", "h0", "--flavor", "G"], capsys)
    assert code == 0
    assert out.splitlines() == ["<h0,h1,h0> = h1^2", "indeterminacy 0"]


def test_massey_precondition_guard(capsys):
    code, _, err = run_cli(["massey", "h0", "h0", "h1", "--tmax", "8", "--smax", "4"], capsys)
    assert code == 2 and "nonzero" in err


def test_massey_unknown_class(capsys):
    code, _, err = run_cli(["massey", "h9", "h0", "h0", "--tmax", "6", "--smax", "3"], capsys)
    assert code == 2 and "unknown class" in err


def test_isotropic_default_small(capsys):
    code, out, _ = run_cli(["isotropic", "--tmax", "16", "--smax", "5"], capsys)
    assert code == 0
    assert "verdict: MATCH" in out and "vanishing regions: ok" in out


def test_isotropic_weight_filter_only_filters_output(tmp_path, capsys):
    # --qmax trims the emitted chart; the comparison sees the whole chart
    out_file = tmp_path / "iso.csv"
    code, out, _ = run_cli(
        ["isotropic", "--tmax", "16", "--smax", "4", "--qmax", "3", "--out", str(out_file)], capsys)
    assert code == 0
    assert "verdict: MATCH" in out.splitlines() and "vanishing regions: ok" in out
    chart = from_csv(out_file.read_text())
    assert chart.cells and all(deg[1] <= 3 for _, deg in chart.cells)


def test_isotropic_tiny_window_safe_region(capsys):
    # the window r_0 alone (p >= -2) truncates cells, which the
    # comparison skips and reports
    code, out, _ = run_cli(["isotropic", "--tmax", "12", "--smax", "4", "--pmin", "-2"], capsys)
    assert code == 0 and "verdict: MATCH" in out
    assert re.search(r"^  skipped \d+ truncated cells$", out, re.M)


def test_isotropic_lists_off_line_truncated_cells_as_skipped(capsys):
    # at p >= 0 the window is the unit alone; every cell with t > max(s -
    # 1, 0), on the t = 2u line or off it, is truncated and must not pass
    # unreported
    code, out, _ = run_cli(["isotropic", "--pmin", "0", "--tmax", "4", "--smax", "2"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "compare mode=doubling: checked 3 cells",
        "  skipped 23 truncated cells",
        "verdict: MATCH",
        "vanishing regions: ok",
    ]


def test_isotropic_strict_truncation_exit(capsys):
    code, _, err = run_cli(
        ["isotropic", "--tmax", "12", "--smax", "4", "--pmin", "-2", "--strict"], capsys)
    assert code == 3 and "window-truncated" in err


def test_isotropic_non_unique_action_table_is_a_mismatch(monkeypatch, tmp_path, capsys):
    # an ambiguous action table leaves the requested statement undefined;
    # the command must stop before resolving and not report success for
    # some other chart
    def ambiguous(n_max, w_max):
        return iso.ActionTable(n_max, w_max, frozenset(), iso.SolveReport(solution_dims={(2, 0): 1}))

    def no_resolve(*args, **kwargs):
        raise AssertionError("resolved with a non-unique action table")

    monkeypatch.setattr(iso, "solve_action_table", ambiguous)
    monkeypatch.setattr(H, "resolve", no_resolve)
    out_file = tmp_path / "iso.csv"
    code, out, err = run_cli(["isotropic", "--tmax", "8", "--smax", "3", "--out", str(out_file)], capsys)
    assert code == 1
    assert "not unique" in err and "(2, 0)" in err
    assert "verdict" not in out and not out_file.exists()


def test_isotropic_refuses_an_inconsistent_action_table(monkeypatch, capsys):
    # the real solver, fed one wrong structure constant, refuses the
    # table, and the command stops before resolving anything
    def no_resolve(*args, **kwargs):
        raise AssertionError("resolved with an inconsistent action table")

    corrupt_p_product_table(monkeypatch)
    monkeypatch.setattr(H, "resolve", no_resolve)
    code, out, err = run_cli(["isotropic", "--tmax", "16", "--smax", "4"], capsys)
    assert code == 1
    assert "not unique" in err and "inconsistent: [(2, 2), (3, 2), (6, 3), (7, 3)]" in err
    assert "verdict" not in out


def test_isotropic_refuses_a_product_table_row_past_its_width(monkeypatch, capsys):
    # a P-table row with a bit past its width fails the run the same way
    def no_resolve(*args, **kwargs):
        raise AssertionError("resolved with an inconsistent action table")

    corrupt_p_product_table(monkeypatch, bit=len(milnor.p_exponents_of_weight(2)))
    monkeypatch.setattr(H, "resolve", no_resolve)
    code, out, err = run_cli(["isotropic", "--tmax", "16", "--smax", "4"], capsys)
    assert code == 1
    assert "not unique" in err and "inconsistent: [(2, 2), (3, 2), (6, 3), (7, 3)]" in err
    assert "verdict" not in out


def test_isotropic_changed_chart_is_a_mismatch(monkeypatch, capsys):
    # one on-line cell of the isotropic chart off by one fails the run
    chart_of = iso.isotropic_chart

    def changed(window, smax, pmax):
        chart = chart_of(window, smax, pmax)
        chart.cells[(1, (2, 1))] += 1
        return chart

    monkeypatch.setattr(iso, "isotropic_chart", changed)
    code, out, _ = run_cli(["isotropic", "--tmax", "16", "--smax", "4"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert "  MISMATCH at (1, (2, 1)): 1 vs 2" in lines and "verdict: MISMATCH" in lines


def test_isotropic_does_not_build_the_hom_chart(monkeypatch, capsys):
    # the chart comes from a resolution of the dual window module; the
    # resolution of F2 over A0 that the Hom route needs is built in the
    # tests only
    resolve = H.resolve
    targets = []

    def no_field_over_a0(algebra, smax, pmax, target=None):
        field = target is None or (
            len(target.keys) == 1 and tuple(target.degree_of(target.keys[0])) == (0,) * algebra.grading
        )
        if field and algebra.flavor != "classical":
            raise AssertionError(f"resolved F2 over {algebra.flavor}")
        targets.append((algebra.flavor, field))
        return resolve(algebra, smax, pmax, target)

    monkeypatch.setattr(H, "resolve", no_field_over_a0)
    code, out, _ = run_cli(["isotropic", "--tmax", "16", "--smax", "4"], capsys)
    assert code == 0 and "verdict: MATCH" in out.splitlines()
    assert sorted(targets) == [("A0op", False), ("classical", True)]


def test_isotropic_job_stamps_pmin(tmp_path, capsys):
    # --pmin narrows the window, so it changes the chart and must change
    # the record that claims to reproduce it
    jobs, truncated = [], []
    for pmin in ("-9", "-5"):
        out_file = tmp_path / f"iso{pmin}.json"
        code, _, _ = run_cli(
            ["isotropic", "--tmax", "16", "--smax", "4", "--pmin", pmin,
             "--format", "json", "--out", str(out_file)], capsys)
        assert code == 0
        chart = json.loads(out_file.read_text())
        jobs.append(chart["meta"]["job"])
        truncated.append(chart["truncated"])
    assert truncated[0] != truncated[1]
    assert [job["pmin"] for job in jobs] == [-9, -5]
    assert jobs[0] != jobs[1]


def test_isotropic_odd_tmax_charts_that_degree(tmp_path, capsys):
    # an odd --tmax is resolved to that degree, not one below it, so the
    # chart covers the window its job record claims
    out_file = tmp_path / "iso5.json"
    code, out, _ = run_cli(["isotropic", "--tmax", "5", "--smax", "3", "--format", "json", "--out", str(out_file)], capsys)
    assert code == 0 and "verdict: MATCH" in out.splitlines()
    chart = json.loads(out_file.read_text())
    assert chart["tmax"] == chart["meta"]["job"]["tmax"] == 5


def test_isotropic_tmax_zero_runs_that_window(capsys):
    code, out, _ = run_cli(["isotropic", "--tmax", "0", "--smax", "2"], capsys)
    assert code == 0 and "checked 3 cells" in out


@pytest.mark.parametrize("tmax", [21, 30])
def test_isotropic_default_window_is_pmin_minus_tmax(tmax, tmp_path, capsys):
    # a cell is truncated only above t = max(s - 1, 0) - P, so the window
    # p >= -T keeps every t <= T: the default is that window, it writes
    # the same chart as `--pmin -T`, and it truncates nothing
    charts = {}
    for flags in ([], ["--pmin", str(-tmax)]):
        out_file = tmp_path / f"iso{len(flags)}.csv"
        code, out, _ = run_cli(
            ["isotropic", "--tmax", str(tmax), "--smax", "6", "--out", str(out_file)] + flags, capsys)
        assert code == 0 and "verdict: MATCH" in out.splitlines()
        charts[len(flags)] = out_file.read_bytes()
    assert charts[0] == charts[2]
    json_file = tmp_path / "iso.json"
    code, _, _ = run_cli(
        ["isotropic", "--tmax", str(tmax), "--smax", "6", "--format", "json", "--out", str(json_file)], capsys)
    assert code == 0
    assert json.loads(json_file.read_text())["truncated"] == []
    # r_4 sits at p = -31, so both windows stop at r_3
    assert iso.IsotropicWindow(-tmax).n_max == 3


def test_isotropic_window_deeper_than_tmax_runs_as_pmin_minus_tmax(monkeypatch, tmp_path, capsys):
    # no cell with t <= T is truncated once P <= -T, so a deeper window
    # changes no cell; it is solved as the window p >= -T, whose exterior
    # basis does not grow with the depth asked for
    solve = iso.solve_action_table
    n_maxes = []

    def recorded(n_max, w_max):
        n_maxes.append(n_max)
        return solve(n_max, w_max)

    monkeypatch.setattr(iso, "solve_action_table", recorded)
    csvs = []
    for pmin in ("-16", "-5000"):
        out_file = tmp_path / f"iso{pmin}.csv"
        code, out, _ = run_cli(
            ["isotropic", "--tmax", "16", "--smax", "4", "--pmin", pmin, "--out", str(out_file)], capsys)
        assert code == 0 and "verdict: MATCH" in out.splitlines()
        csvs.append(out_file.read_bytes())
    assert csvs[0] == csvs[1]
    assert n_maxes == [iso.IsotropicWindow(-16).n_max] * 2
    truncated = [iso.isotropic_chart(iso.IsotropicWindow(pmin), 4, 16).truncated for pmin in (-16, -5000)]
    assert truncated[0] == truncated[1]


# the isotropic chart has one command, `isotropic`, and the classical
# chart has no weight to filter on
REMOVED_PATHS = [
    ["resolve", "--flavor", "isotropic"],
    ["resolve", "--nmax", "2"],
    ["isotropic", "--nmax", "2"],
    ["resolve", "--pmin", "-4"],
    ["resolve", "--strict"],
    ["massey", "h0", "h1", "h0", "--flavor", "isotropic"],
    ["resolve", "--flavor", "classical", "--tmax", "6", "--smax", "2", "--qmax", "0"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", "--tmax", "-1"],
        ["resolve", "--smax", "-1"],
        ["isotropic", "--smax", "-1"],
        ["massey", "h0", "h1", "h0", "--tmax", "-2"],
        ["isotropic", "--tmax", "8", "--pmin", "1"],
        ["isotropic", "--tmax", "8", "--pmin", "5"],
        ["isotropic", "--tmax", "8", "--qmin", "5", "--qmax", "1"],
        ["resolve", "--flavor", "A0", "--tmax", "8", "--qmin", "5", "--qmax", "1"],
        *REMOVED_PATHS,
    ],
)
def test_negative_window_is_usage_error(argv, capsys):
    # a negative count or an empty weight range fails in the parser, a
    # window without a nonempty exterior range before anything is solved;
    # so does a removed flavor or flag, and a weight filter on the
    # classical chart
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    if argv in REMOVED_PATHS:
        expected = r"error: (unrecognized arguments: --\w+|argument --flavor: invalid choice: 'isotropic'|--qmin/--qmax .* classical chart)"
    else:
        expected = r"error: (argument --\w+: must be >= 0|argument --qmin: must be <= --qmax|window empty)"
    assert re.search(expected, errors[0])


def test_pmax_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["isotropic", "--tmax", "16", "--smax", "4", "--pmax", "-1"])
    assert exc.value.code == 2 and "--pmax" in capsys.readouterr().err


def test_massey_outside_window_is_usage_error(capsys):
    code, out, err = run_cli(["massey", "h0", "h1", "h0", "--tmax", "2", "--smax", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_massey_rejects_window_flags_it_ignores(capsys):
    for flag in (["--qmin", "1"], ["--nmax", "2"], ["--pmin", "-4"], ["--strict"], ["--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["massey", "h0", "h1", "h0", *flag])
        assert exc.value.code == 2, flag


BAD_CHARTS = {
    "missing": None,
    "empty": "",
    "short-row": "s,t,u,dim\n0,0,,1\n1,1\n",
    "bad-json": '{"schema": ',
}


@pytest.mark.parametrize("case", sorted(BAD_CHARTS))
def test_compare_bad_chart_is_usage_error(case, tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text("s,t,u,dim\n0,0,,1\n")
    bad = tmp_path / ("bad.json" if case == "bad-json" else "bad.csv")
    if BAD_CHARTS[case] is not None:
        bad.write_text(BAD_CHARTS[case])
    for argv in (["compare", str(bad), str(good)], ["compare", str(good), str(bad)]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "", case
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, case


INCOMPLETE_JSON_CHARTS = {
    "schema-only": {"schema": "isoadams-chart/1"},
    "no-cells": {"schema": "isoadams-chart/1", "flavor": "classical", "grading": 1, "smax": 2, "tmax": 4},
    "string-grading": {"schema": "isoadams-chart/1", "flavor": "classical", "grading": "1", "smax": 2, "tmax": 4, "cells": []},
    "grading-3": {"schema": "isoadams-chart/1", "flavor": "classical", "grading": 3, "smax": 2, "tmax": 4, "cells": []},
    "cell-without-dim": {
        "schema": "isoadams-chart/1", "flavor": "G", "grading": 2, "smax": 2, "tmax": 4,
        "cells": [{"s": 0, "t": 0, "u": 0}],
    },
    "cell-without-u": {
        "schema": "isoadams-chart/1", "flavor": "G", "grading": 2, "smax": 2, "tmax": 4,
        "cells": [{"s": 0, "t": 0, "dim": 1}],
    },
    "cells-not-a-list": {"schema": "isoadams-chart/1", "flavor": "G", "grading": 2, "smax": 2, "tmax": 4, "cells": 7},
    "not-an-object": ["schema", "isoadams-chart/1"],
}


@pytest.mark.parametrize("case", sorted(INCOMPLETE_JSON_CHARTS))
def test_compare_incomplete_json_chart_is_usage_error(case, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text('{"schema": "isoadams-chart/1", "flavor": "c", "grading": 1, "smax": 0, "tmax": 0, '
                    '"cells": [{"s": 0, "t": 0, "dim": 1}]}')
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(INCOMPLETE_JSON_CHARTS[case]))
    for argv in (["compare", str(bad), str(good)], ["compare", str(good), str(bad)]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "", case
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, case
    code, out, _ = run_cli(["compare", str(good), str(good)], capsys)
    assert code == 0 and "verdict: MATCH" in out


def _stray_row(text):
    header, *rows = text.splitlines()
    return "\n".join([header, *rows, "1,5,,3"]) + "\n"


def _cell_given_twice(text):
    # the first row again with dim 7, ahead of its own row
    header, first, *rows = text.splitlines()
    s, t, u, _ = first.split(",")
    return "\n".join([header, f"{s},{t},{u},7", first, *rows]) + "\n"


def _json_cell_given_twice(text):
    payload = json.loads(text)
    payload["cells"].insert(0, dict(payload["cells"][0], dim=7))
    return json.dumps(payload)


AMBIGUOUS_CHARTS = {
    "csv-mixed-u": ("g.csv", _stray_row),
    "csv-cell-twice": ("g.csv", _cell_given_twice),
    "json-cell-twice": ("g.json", _json_cell_given_twice),
}


@pytest.mark.parametrize("case", sorted(AMBIGUOUS_CHARTS))
def test_compare_ambiguous_chart_is_usage_error(case, tmp_path, capsys):
    # each input reads as the doubled chart if the odd row is dropped or
    # overwritten, so it must be refused, not compared
    cl = tmp_path / "cl.csv"
    run_cli(["resolve", "--flavor", "classical", "--tmax", "12", "--out", str(cl)], capsys)
    name, spoil = AMBIGUOUS_CHARTS[case]
    good = tmp_path / name
    fmt = ["--format", "json"] if name.endswith(".json") else []
    run_cli(["resolve", "--flavor", "G", "--tmax", "24", *fmt, "--out", str(good)], capsys)
    code, out, _ = run_cli(["compare", str(cl), str(good), "--mode", "doubling"], capsys)
    assert code == 0 and "verdict: MATCH" in out
    bad = tmp_path / ("bad" + good.suffix)
    bad.write_text(spoil(good.read_text()))
    code, out, err = run_cli(["compare", str(cl), str(bad), "--mode", "doubling"], capsys)
    assert code == 2 and out == "", case
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1, case


def test_compare_doubling_needs_matching_gradings(tmp_path, capsys):
    cl = tmp_path / "cl.csv"
    cl.write_text("s,t,u,dim\n0,0,,1\n")
    code, _, err = run_cli(["compare", str(cl), str(cl), "--mode", "doubling"], capsys)
    assert code == 2 and "doubling compares" in err
    # equality pairs cells of one grading only; a header-only CSV has no
    # grading and pairs with either
    bigraded = tmp_path / "iso.json"
    bigraded.write_text(to_json(ExtChart("isotropic", 2, 0, 0, {(0, (0, 0)): 1})))
    code, out, err = run_cli(["compare", str(cl), str(bigraded)], capsys)
    assert code == 2 and "one grading" in err and "verdict" not in out
    empty = tmp_path / "empty.csv"
    empty.write_text("s,t,u,dim\n")
    code, out, _ = run_cli(["compare", str(empty), str(bigraded)], capsys)
    assert code == 1 and "verdict: MISMATCH" in out


OUT_COMMANDS = {
    "resolve": ["resolve", "--tmax", "4", "--smax", "2"],
    "massey": ["massey", "h0", "h1", "h0", "--tmax", "6", "--smax", "3"],
    "isotropic": ["isotropic", "--tmax", "4", "--smax", "2"],
    "compare": ["compare", "{chart}", "{chart}"],
}


@pytest.mark.parametrize("bad_out", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_unwritable_out_is_usage_error(command, bad_out, tmp_path, capsys):
    # an --out path that cannot be written is a usage error, not the
    # mismatch code, and nothing is reported before it
    chart = tmp_path / "chart.csv"
    chart.write_text("s,t,u,dim\n0,0,,1\n")
    out_path = tmp_path / "missing" / "x" if bad_out == "missing-dir" else tmp_path
    argv = [arg.format(chart=chart) for arg in OUT_COMMANDS[command]]
    code, out, err = run_cli([*argv, "--out", str(out_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "isoadams.cli", "frobnicate"], capture_output=True
    )
    assert proc.returncode == 2


def test_trace_harness_wraps_live_names():
    # the benchmark's tracer wraps layer functions by name; a renamed or
    # deleted name fails here rather than only in traced benchmark runs
    root = Path(__file__).resolve().parent.parent
    script = (
        "import spans\n"
        "from isoadams import homological as H, milnor\n"
        "tracer = spans.Tracer()\n"
        "spans.instrument(tracer)\n"
        "res = H.resolve(H.algebra_for('classical', 6), smax=2, pmax=4)\n"
        "H.yoneda_product(res, H.class_of_generator(res, 1, (1,)), H.class_of_generator(res, 1, (1,)))\n"
        "metrics = spans.layer_metrics(tracer, milnor.multiply_mono.cache_info())\n"
        "print(metrics['homological.yoneda.calls'])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_readme_synopsis_lists_the_parser_flags():
    # each subcommand line of README's synopsis names exactly the flags
    # the parser accepts, so a removed flag cannot linger in the docs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    synopsis = readme.split("## Command line", 1)[1].split("```", 2)[1]
    listed: dict = {}
    command: set = set()  # flags above the first command line go nowhere
    for line in synopsis.splitlines():
        head = re.match(r"isoadams (\w+)", line)
        if head:
            command = listed.setdefault(head.group(1), set())
        command |= set(re.findall(r"--[a-z]+", line))
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        name: {opt for action in sub._actions for opt in action.option_strings if opt.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert listed == accepted


def test_svg_class_labels_sit_at_their_dots(tmp_path, capsys):
    # labels, dots and the ascii grid share one stem function; v0 at
    # (s, t, u) = (1, 1, 0) lies off the t = 2u line, in stem 0
    out_file = tmp_path / "a0.svg"
    code, _, _ = run_cli(
        ["resolve", "--flavor", "A0", "--tmax", "8", "--smax", "3", "--format", "svg", "--out", str(out_file)],
        capsys)
    assert code == 0
    svg = out_file.read_text()
    dots = {(int(x), int(y)) for x, y in re.findall(r'<circle cx="(\d+)" cy="(\d+)"', svg)}
    labels = {name: (int(x), int(y)) for x, y, name in re.findall(r'<text x="(\d+)" y="(\d+)" font-size="8"[^>]*>(\w+)<', svg)}
    assert {"v0", "h0", "h1"} <= set(labels)
    for name, (x, y) in labels.items():
        assert (x - 4, y + 4) in dots, name
    assert labels["v0"][0] == 30 + 4  # stem 0, one column right of x = 10


def test_chart_roundtrip_json_csv(tmp_path, capsys):
    j = tmp_path / "c.json"
    c = tmp_path / "c.csv"
    run_cli(["resolve", "--flavor", "A0", "--tmax", "8", "--format", "json", "--out", str(j)], capsys)
    run_cli(["resolve", "--flavor", "A0", "--tmax", "8", "--format", "csv", "--out", str(c)], capsys)
    assert from_json(j.read_text()).cells == from_csv(c.read_text()).cells
