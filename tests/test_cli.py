"""Command-line behavior: outputs, determinism, exit codes."""

import argparse
import hashlib
import json
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scpir import cli, sda
from scpir.cli import ANALYZE_HEADER, analysis_row, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_greedy_12_5(self, capsys, tmp_path):
        out = tmp_path / "array.txt"
        code, stdout, _ = run(capsys, "build", "--n", "12", "--m", "5", "--out", str(out))
        assert code == 0
        assert stdout.strip() == "eta=6 F=24"
        parsed = sda.parse_sda(out.read_text())
        assert sda.column_profile(parsed).eta == 6

    def test_improved_11_5(self, capsys):
        code, stdout, _ = run(capsys, "build", "--n", "11", "--m", "5", "--method", "improved")
        assert code == 0
        assert stdout.strip().endswith("eta=6 F=24")

    def test_improved_rejects_off_family(self, capsys):
        code, _, stderr = run(capsys, "build", "--n", "10", "--m", "4", "--method", "improved")
        assert code == 2
        assert "not d*4+1 or d*4-1" in stderr

    def test_stdout_array_reparses(self, capsys):
        code, stdout, _ = run(capsys, "build", "--n", "9", "--m", "4")
        assert code == 0
        text = stdout.rsplit("eta=", 1)[0]
        assert sda.column_profile(sda.parse_sda(text)).eta == 6

    def test_grid_over_cell_bound_refused_before_allocation(self, capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("render_sda allocated the grid")

        monkeypatch.setattr(sda, "bytearray", no_grid, raising=False)
        code, stdout, stderr = run(capsys, "build", "--n", "100000", "--m", "2")
        assert code == 2
        assert stdout == ""
        assert "5000000000 cells" in stderr

    def test_grid_over_cell_bound_refused_before_building(self, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("build ran before the cell bound was checked")

        for method in ("equal", "greedy", "improved"):
            monkeypatch.setitem(cli._BUILDERS, method, no_build)
        code, stdout, stderr = run(capsys, "build", "--n", "100000", "--m", "2")
        assert code == 2
        assert stdout == ""
        assert "5000000000 cells" in stderr

    @pytest.mark.parametrize("method", ["equal", "greedy"])
    def test_over_entry_bound_refused_before_building(self, capsys, monkeypatch, method):
        def no_array(*args):
            raise AssertionError("an array was made before the entry bound was checked")

        monkeypatch.setattr(sda, "StorageDesignArray", no_array)
        code, stdout, stderr = run(capsys, "build", "--n", "4000", "--m", "3999", "--method", method)
        assert code == 2
        assert stdout == ""
        assert stderr == (f"error: the {method} (4000, 3999) array holds eta*M = 4000*3999 = "
                          f"15996000 server entries, over the bound of {sda.MAX_BUILD_ENTRIES}\n")

    def test_entry_bound_prices_improved_by_its_eta(self, capsys, monkeypatch):
        # improved (6001, 3000) holds 1503*3000 entries where greedy holds 6001*3000
        monkeypatch.setattr(sda, "MAX_BUILD_ENTRIES", 1503 * 3000 - 1)
        code, _, stderr = run(capsys, "build", "--n", "6001", "--m", "3000", "--method", "improved")
        assert code == 2
        assert "holds eta*M = 1503*3000 = 4509000 server entries" in stderr

    @pytest.mark.parametrize("n, m", [(0, 0), (3, 4), (5, 0)])
    def test_parameter_range_refused_before_cell_bound(self, capsys, n, m):
        code, _, stderr = run(capsys, "build", "--n", str(n), "--m", str(m))
        assert code == 2
        assert "need 1 <= M <= N" in stderr

    def test_3000_2_builds_and_reparses(self, capsys, tmp_path):
        out = tmp_path / "array.txt"
        code, stdout, _ = run(capsys, "build", "--n", "3000", "--m", "2", "--out", str(out))
        assert code == 0
        assert stdout.strip() == "eta=1500 F=1500"
        assert sda.column_profile(sda.parse_sda(out.read_text())).eta == 1500


class TestSimulate:
    def test_small_instance(self, capsys):
        code, stdout, _ = run(
            capsys, "simulate", "--n", "2", "--m", "2", "--k", "2", "--theta", "1", "--seed", "7"
        )
        assert code == 0
        record = json.loads(stdout)
        assert record["decode_match"] is True
        assert record["downloaded_symbols"] in (1, 2)
        assert len(record["groups"]) == 1
        group = record["groups"][0]
        assert group["servers"] == [1, 2]
        assert len(group["queries"]) == 2
        assert len(group["silent"]) == len(group["payload_len"]) == 2

    def test_deterministic_given_seed(self, capsys):
        args = ["simulate", "--n", "12", "--m", "5", "--k", "2", "--theta", "2", "--seed", "0"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["decode_match"] is True

    def test_one_based_theta(self, capsys):
        code, _, stderr = run(
            capsys, "simulate", "--n", "2", "--m", "2", "--k", "2", "--theta", "0", "--seed", "1"
        )
        assert code == 2
        assert "1-based" in stderr

    def test_zero_length_refused(self, capsys):
        code, _, stderr = run(
            capsys, "simulate", "--n", "2", "--m", "2", "--k", "2", "--theta", "1", "--l-mult", "0"
        )
        assert code == 2
        assert "l-mult must be a positive integer" in stderr

    def test_out_file_and_summary_line(self, capsys, tmp_path):
        out = tmp_path / "transcript.json"
        code, stdout, _ = run(
            capsys, "simulate", "--n", "12", "--m", "5", "--k", "2", "--theta", "2",
            "--out", str(out),
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["decode_match"] is True
        assert stdout == f"downloaded_symbols={record['downloaded_symbols']} decode_match=True\n"

    @pytest.fixture
    def no_build(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("simulate built the array or drew the library before refusing")

        monkeypatch.setattr("scpir.cli.sda.build_greedy", refuse)
        monkeypatch.setattr("scpir.cli.random_library", refuse)

    @pytest.mark.parametrize(
        "n, m, k, l_mult, message",
        [
            (32770, 2, 1, 1, "sends 32770 query symbols and draws a 16385-byte library"),
            (100000, 2, 2, 1, "sends 200000 query symbols"),
            (10**12, 2, 2, 1, "sends 2000000000000 query symbols"),
            (3, 2, 1, 5592406, "sends 6 query symbols and draws a 16777218-byte library"),
            (3, 2, 2, 10**11, "draws a 600000000000-byte library"),
        ],
    )
    def test_oversized_refused_before_building(self, capsys, no_build, n, m, k, l_mult, message):
        code, stdout, stderr = run(
            capsys, "simulate", "--n", str(n), "--m", str(m), "--k", str(k), "--theta", "1",
            "--l-mult", str(l_mult),
        )
        assert code == 2
        assert stdout == ""
        assert message in stderr

    @pytest.mark.parametrize(
        "n, m, k, theta, message",
        [
            (5, 1, 2, 1, "M=1 retrieval is out of scope"),
            (5, 1, 2, 7, "M=1 retrieval is out of scope"),
            (100000, 1, 2, 1, "M=1 retrieval is out of scope"),
            (100000, 1, 0, 1, "M=1 retrieval is out of scope"),  # M before K
            (3, 4, 2, 9, "need 1 <= M <= N"),
        ],
    )
    def test_refused_in_audit_order(self, capsys, no_build, n, m, k, theta, message):
        code, stdout, stderr = run(
            capsys, "simulate", "--n", str(n), "--m", str(m), "--k", str(k), "--theta", str(theta)
        )
        assert code == 2
        assert stdout == ""
        assert message in stderr

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("--n 12 --m 5 --k 2 --theta 2 --seed 0",
             "c687fba1a8a8f9144283a49718d7691a60b1931e69d1d1d6f2c7b5c9d344ed4a"),
            ("--n 9 --m 4 --k 3 --theta 3 --seed 7 --l-mult 5",
             "7457022cf738da9c154e2ae0f50d931069099846e1eb76568141051150c84fc5"),
            ("--n 7 --m 3 --k 4 --theta 1 --seed 2 --l-mult 3",
             "9d0737955fead842b0a50e4509406b37938a2c9c0c3f8ba4fab51039e7689ba8"),
        ],
    )
    def test_transcript_is_pinned(self, capsys, argv, digest):
        # every byte of the JSON transcript: bases, queries, silences,
        # payload lengths and the download count
        code, stdout, _ = run(capsys, "simulate", *argv.split())
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest


class TestAudit:
    def test_all_pass_exit_zero(self, capsys):
        code, stdout, _ = run(capsys, "audit", "--n", "9", "--m", "4", "--k", "2")
        assert code == 0
        assert "overall: pass" in stdout

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the audit drew a library or walked a round")

        monkeypatch.setattr("scpir.cli.random_library", refuse)
        monkeypatch.setattr("scpir.audit.enumerate_realizations", refuse)

    @pytest.mark.parametrize("n, m, k", [(9, 4, 9), (3, 2, 19), (3, 2, 10**9)])
    def test_over_budget_walk_refused_up_front(self, capsys, no_walk, n, m, k):
        code, _, stderr = run(capsys, "audit", "--n", str(n), "--m", str(m), "--k", str(k))
        assert code == 2
        assert f"K*M^(K+1) = {k}*{m}^{k + 1} queries" in stderr

    def test_single_server_refused_before_library(self, capsys, no_walk):
        code, _, stderr = run(capsys, "audit", "--n", "5", "--m", "1", "--k", str(10**9))
        assert code == 2
        assert "out of scope" in stderr

    @pytest.fixture
    def no_build(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the audit built the array before refusing")

        monkeypatch.setattr("scpir.cli.sda.build_greedy", refuse)

    @pytest.mark.parametrize(
        "n, m, k, message",
        [
            (100000, 1, 3, "out of scope"),
            (9, 4, 9, "over the budget"),
            (5, 0, 2, "need 1 <= M <= N"),
            (3, 4, 2, "need 1 <= M <= N"),
            (3, 4, 20, "need 1 <= M <= N"),  # (N, M) refused before the walk's bill
            (0, 2, 2, "need 1 <= M <= N"),
        ],
    )
    def test_refused_before_building(self, capsys, no_build, n, m, k, message):
        code, _, stderr = run(capsys, "audit", "--n", str(n), "--m", str(m), "--k", str(k))
        assert code == 2
        assert message in stderr

    @pytest.mark.parametrize("n, m, k", [(100000, 2, 2), (10**12, 2, 2), (32770, 2, 1)])
    def test_oversized_pass_refused_before_building(self, capsys, no_build, no_walk, n, m, k):
        code, _, stderr = run(capsys, "audit", "--n", str(n), "--m", str(m), "--k", str(k))
        assert code == 2
        assert "query symbols and draws a" in stderr
        assert "the bounds are 32768 and 16777216" in stderr

    def test_oversized_construction_refused_before_the_walk(self, capsys, monkeypatch):
        # greedy (11, 5) holds 7*5 = 35 entries and improved 6*5 = 30, under
        # the bound; only the equal array, at 11*5 = 55, is over it
        def no_walk(*args):
            raise AssertionError("the audit walked a round")

        monkeypatch.setattr("scpir.audit.enumerate_realizations", no_walk)
        monkeypatch.setattr(sda, "MAX_BUILD_ENTRIES", 54)
        code, stdout, stderr = run(capsys, "audit", "--n", "11", "--m", "5", "--k", "2")
        assert code == 2
        assert stdout == ""
        assert stderr == ("error: the equal (11, 5) array holds eta*M = 11*5 = 55 server entries, "
                          "over the bound of 54\n")

    def test_single_server_budget_refused(self, capsys):
        code, _, stderr = run(capsys, "audit", "--n", "5", "--m", "1", "--k", "2")
        assert code == 2
        assert "out of scope" in stderr


@st.composite
def analyze_params(draw):
    """2 <= M <= N <= 10^6, half of them N = d*M +/- 1 with M >= 3, d >= 2,
    so the improved cells are filled."""
    if draw(st.booleans()):
        m = draw(st.integers(3, 10**6 // 2))
        n = draw(st.integers(2, 10**6 // m)) * m + draw(st.sampled_from((1, -1)))
        assume(n <= 10**6)
        return n, m
    n = draw(st.integers(2, 10**6))
    return n, draw(st.integers(2, n))


class TestAnalyze:
    def test_table_rows_and_invariants(self, capsys, tmp_path):
        out = tmp_path / "table.csv"
        code, _, _ = run(capsys, "analyze", "--n-max", "12", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ANALYZE_HEADER
        rows = {tuple(line.split(",")[:2]): line for line in lines[1:]}
        assert rows[("12", "5")] == "12,5,1,12,6,,3,48,24,,12,5"
        assert rows[("11", "5")] == "11,5,1,11,7,6,3,44,28,24,12,5"
        assert rows[("6", "3")] == "6,3,3,2,2,,2,4,4,,4,1"
        for line in lines[1:]:
            f = line.split(",")
            n, m = int(f[0]), int(f[1])
            eta_equal, eta_greedy = int(f[3]), int(f[4])
            eta_lower = int(f[6])
            assert int(f[7]) == eta_equal * (m - 1)
            assert int(f[8]) == eta_greedy * (m - 1)
            assert int(f[10]) == eta_lower * (m - 1)
            assert eta_lower <= eta_greedy <= eta_equal
            if f[5]:
                assert int(f[9]) == int(f[5]) * (m - 1)

    def test_table_is_pinned(self, capsys):
        # every byte of the 7,140-row table, header included
        code, stdout, _ = run(capsys, "analyze", "--n-max", "120")
        assert code == 0
        digest = "7a92b2f3cdd25d99f7a187858d70e189a97caf088dc88496f752198116e88927"
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest

    @settings(max_examples=100, deadline=None)
    @given(analyze_params())
    def test_row_cells_match_each_closed_form(self, params):
        n, m = params
        family = sda.improved_family(n, m)
        eta_improved = None if family is None else family[2]
        eta_equal, eta_greedy = sda.eta_equal(n, m), sda.eta_recursion(n, m)
        eta_lower = sda.eta_lower_bound(n, m)
        expected = [n, m, gcd(n, m), eta_equal, eta_greedy, eta_improved, eta_lower,
                    eta_equal * (m - 1), eta_greedy * (m - 1),
                    None if family is None else eta_improved * (m - 1),
                    eta_lower * (m - 1), sda.gap_bound(n, m)]
        cells = ["" if cell is None else str(cell) for cell in expected]
        assert analysis_row(n, m).split(",") == cells

    def test_counts_rows(self, capsys):
        code, stdout, _ = run(capsys, "analyze", "--n-max", "5")
        assert code == 0
        # pairs with 2 <= m <= n <= 5: 1 + 2 + 3 + 4
        assert len(stdout.strip().splitlines()) == 1 + 10

    def test_n_max_below_two_refused(self, capsys):
        code, stdout, stderr = run(capsys, "analyze", "--n-max", "1")
        assert code == 2
        assert stdout == ""
        assert "n-max must be at least 2" in stderr

    def test_n_max_over_the_row_bound_refused_at_once(self, capsys, tmp_path):
        # priced from the count, before the --out file is opened or a row built
        out = tmp_path / "table.csv"
        code, stdout, stderr = run(capsys, "analyze", "--n-max", str(10**18), "--out", str(out))
        assert code == 2
        assert stdout == ""
        rows = (10**18 - 1) * 10**18 // 2
        assert stderr == (f"error: analyze --n-max {10**18} writes (N-1)*N/2 = {rows} rows, "
                          f"over the bound of {cli.MAX_ANALYZE_ROWS}\n")
        assert not out.exists()

    def test_row_bound_counts_every_row(self, capsys, monkeypatch):
        # --n-max 5 writes exactly 10 rows, so a bound of 10 admits it and
        # refuses --n-max 6 (15 rows); the real bound admits --n-max 600
        assert (600 - 1) * 600 // 2 <= cli.MAX_ANALYZE_ROWS
        monkeypatch.setattr(cli, "MAX_ANALYZE_ROWS", 10)
        code, stdout, _ = run(capsys, "analyze", "--n-max", "5")
        assert (code, len(stdout.splitlines())) == (0, 1 + 10)
        code, stdout, stderr = run(capsys, "analyze", "--n-max", "6")
        assert (code, stdout) == (2, "")
        assert "= 15 rows, over the bound of 10" in stderr


@pytest.mark.parametrize(
    "command", [["simulate", "--theta", "1"], ["audit"], ["simulate", "--theta", "1", "--l-mult", "0"]]
)
def test_no_files_refused(capsys, command):
    code, stdout, stderr = run(capsys, command[0], "--n", "2", "--m", "2", "--k", "0", *command[1:])
    assert code == 2
    assert stdout == ""
    assert stderr == "error: need at least one file, got K=0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--n", "5", "--m", "2"],
        ["simulate", "--n", "5", "--m", "2", "--k", "2", "--theta", "1"],
    ],
)
def test_unwritable_out_exits_two(capsys, tmp_path, argv):
    out = tmp_path / "missing" / "x.txt"
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and str(out) in stderr


def test_library_length_overflow_exits_two(capsys):
    # the 6*10^11-byte library is refused from its closed form, K times
    # l-mult times the minimal length, before anything is allocated
    code, stdout, stderr = run(
        capsys, "simulate", "--n", "3", "--m", "2", "--k", "2", "--theta", "1",
        "--l-mult", "100000000000",
    )
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ")


def test_out_of_memory_exits_two(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("scpir.cli.random_library", exhausted)
    code, stdout, stderr = run(capsys, "simulate", "--n", "3", "--m", "2", "--k", "2", "--theta", "1")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: MemoryError\n"


def test_overflow_exits_two(capsys, monkeypatch):
    def unrepresentable(*args):
        raise OverflowError("int too large to convert to C int")

    monkeypatch.setattr("scpir.cli.random_library", unrepresentable)
    code, stdout, stderr = run(capsys, "simulate", "--n", "3", "--m", "2", "--k", "2", "--theta", "1")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: int too large to convert to C int\n"


def test_recursion_error_exits_two(capsys, monkeypatch):
    def too_deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("scpir.cli.cmd_analyze", too_deep)
    code, stdout, stderr = run(capsys, "analyze", "--n-max", "5")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: maximum recursion depth exceeded\n"
    assert "Traceback" not in stderr


def test_parser_built_once_per_process(capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for _ in range(2):
        assert run(capsys, "analyze", "--n-max", "3")[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--n", "12"])
    assert exc.value.code == 2
