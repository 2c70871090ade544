import decimal
import json
import random
import sys
import time

import pytest

from twcount import pace, treewidth
from twcount.cli import main
from twcount.counting import count_bruteforce, count_td
from twcount.graphs import build_incidence
from twcount.formula import parse_dimacs
from twcount.generators import gen_grid_formula, gen_grid_formula_x, gen_random_cnf, gen_wall_formula
from twcount.formula import write_dimacs


@pytest.fixture
def grid_x_file(tmp_path):
    p = tmp_path / "f3x.cnf"
    p.write_text(write_dimacs(gen_grid_formula_x(3)))
    return str(p)


@pytest.fixture
def grid_file(tmp_path):
    p = tmp_path / "f3.cnf"
    p.write_text(write_dimacs(gen_grid_formula(3)))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out.startswith("{") else out


def test_tw_incidence(capsys, grid_x_file):
    code, rep = run(capsys, "tw", grid_x_file)
    assert code == 0
    assert rep["graph"] == "incidence"
    assert rep["exact"] >= 2
    assert rep["n"] == 22


def test_tw_writes_td(capsys, tmp_path, grid_file):
    out_td = str(tmp_path / "f3.td")
    code, rep = run(capsys, "tw", grid_file, "--out-td", out_td)
    assert code == 0
    text = open(out_td).read()
    assert text.startswith("s td ")
    mapping = json.load(open(out_td + ".map.json"))
    assert len(mapping) == rep["n"]


def test_tw_gr_k5(capsys, tmp_path):
    p = tmp_path / "k5.gr"
    lines = ["p tw 5 10"] + [f"{a} {b}" for a in range(1, 6) for b in range(a + 1, 6)]
    p.write_text("\n".join(lines) + "\n")
    code, rep = run(capsys, "tw", str(p))
    assert code == 0
    assert rep["graph"] == "raw"
    assert rep["exact"] == 4


def test_tw_wall_exact_from_the_lower_bound(capsys, tmp_path):
    # The 8-wall's 64 vertices are above the default exact cap; its contraction
    # bound meets min-fill's width, so that width is exact without a search.
    p = str(tmp_path / "w8.gr")
    assert main(["generate", "--family", "wall", "--n", "8", "--out", p]) == 0
    code, rep = run(capsys, "tw", p)
    assert code == 0
    assert rep["n"] == 64
    assert rep["lower"] == rep["upper"] == rep["exact"] == rep["width"] == 4


def test_tw_exact_cap_bounds_each_component(capsys, tmp_path):
    # Two copies of a 9-vertex graph of treewidth 4 and min-fill width 5:
    # the exact search runs while no component exceeds the cap.
    edges = [(1, 2), (1, 8), (1, 9), (2, 4), (2, 6), (2, 7), (3, 4), (3, 6), (3, 7),
             (3, 8), (3, 9), (4, 5), (4, 8), (5, 6), (5, 9), (6, 7), (6, 9), (7, 8)]
    p = tmp_path / "two.gr"
    lines = ["p tw 18 36"] + [f"{a + c} {b + c}" for c in (0, 9) for a, b in edges]
    p.write_text("\n".join(lines) + "\n")
    for cap, exact in (("9", 4), ("8", None)):
        code, rep = run(capsys, "tw", str(p), "--exact-cap", cap)
        assert code == 0
        assert (rep["upper"], rep["exact"]) == (5, exact)


def test_tw_parse_error_exit_2(capsys, tmp_path):
    p = tmp_path / "empty.cnf"
    p.write_text("")
    assert main(["tw", str(p)]) == 2


@pytest.mark.parametrize(
    "command, name, text, message",
    [
        ("count", "dup.cnf", "p cnf 1 1\np cnf 1 1\n1 0\n", "line 2: duplicate header"),
        ("tw", "early.gr", "1 2\np tw 2 1\n", "line 1: edge before header"),
    ],
    ids=["count", "tw"],
)
def test_malformed_input_exit_2_naming_the_line(capsys, tmp_path, command, name, text, message):
    p = tmp_path / name
    p.write_text(text)
    assert main([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["count"], ["backdoor", "find"], ["tw"]], ids=lambda c: c[0])
def test_undecodable_file_exit_2(capsys, tmp_path, command):
    data = random.Random(0).randbytes(200)
    with pytest.raises(UnicodeDecodeError):
        data.decode("utf-8")
    p = tmp_path / "bytes.cnf"
    p.write_bytes(data)
    assert main([command[0], str(p), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_count_auto_backdoor(capsys, grid_x_file):
    code, rep = run(capsys, "count", grid_x_file, "--t", "1", "--k", "1",
                    "--tw-threshold", "1")
    assert code == 0
    assert rep["count"] == "250"
    assert rep["mode"] == "backdoor"
    assert rep["backdoor"] == [10]


def test_count_mode_backdoor(capsys, grid_x_file):
    code, rep = run(capsys, "count", grid_x_file, "--t", "1", "--k", "1", "--mode", "backdoor")
    assert code == 0
    assert rep["count"] == "250"
    assert rep["mode"] == "backdoor"
    assert rep["backdoor"] == [10]
    assert rep["branch_widths"] == [1, 1]


def test_count_sb_exceeded_exit_3(capsys, grid_file):
    code, rep = run(capsys, "count", grid_file, "--t", "1", "--k", "0",
                    "--tw-threshold", "1")
    assert code == 3
    assert rep["verdict"] == "sb_exceeded"
    assert rep["count"] is None


@pytest.mark.parametrize(
    "args",
    [
        ("--t", "-1", "--k", "1", "--mode", "backdoor"),
        ("--t", "-1", "--k", "1"),
        ("--t", "1", "--k", "-1"),
        ("--t", "1", "--k", "7"),
    ],
)
def test_count_invalid_t_or_k_exit_2(capsys, grid_x_file, args):
    assert main(["count", grid_x_file, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err


def test_count_variable_id_limit_exit_2(capsys, tmp_path):
    p = tmp_path / "big.cnf"
    p.write_text("p cnf 1000001 1\n1000001 0\n")
    assert main(["count", str(p), "--t", "1", "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1000000" in captured.err


def test_count_deep_decompositions(capsys, tmp_path):
    # 1498 free variables: their bags chain into a path of about 1500 bags.
    p = tmp_path / "free.cnf"
    p.write_text("p cnf 1500 1\n1 2 0\n")
    code, rep = run(capsys, "count", str(p))
    assert code == 0
    assert rep["count"] == str(3 * 2**1498)
    # A 2-CNF chain of 1200 variables: no two consecutive zeros, Fib(1202).
    p = tmp_path / "chain.cnf"
    p.write_text("p cnf 1200 1199\n" + "".join(f"{i} {i + 1} 0\n" for i in range(1, 1200)))
    code, rep = run(capsys, "count", str(p))
    assert code == 0
    fib = [0, 1]
    while len(fib) <= 1202:
        fib.append(fib[-1] + fib[-2])
    assert rep["count"] == str(fib[1202])


def test_count_table_budget_exit_2(capsys, tmp_path):
    p = tmp_path / "wide.cnf"
    p.write_text(write_dimacs(gen_random_cnf(120, 300, 3, 0)))  # min-fill width about 64
    start = time.perf_counter()
    assert main(["count", str(p), "--mode", "td"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err


def test_count_auto_at_t_above_the_table_budget_exit_2(capsys, tmp_path):
    # At t >= 22 the width oracle counts an AtMost verdict at t at once, so
    # an elimination too wide for the table budget (grid-x n = 17: min-fill
    # width 24) stops the count rather than going to the search.
    p = str(tmp_path / "g17.cnf")
    assert main(["generate", "--family", "grid-x", "--n", "17", "--out", p]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["count", p, "--t", "24", "--k", "1", "--tw-threshold", "24"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a bag of 25 vertices" in captured.err and "budget" in captured.err


def test_count_td_mode_long_chain(capsys, tmp_path):
    # Decomposition validation is near-linear: 4000 variables, about 8000 bags.
    p = tmp_path / "chain.cnf"
    p.write_text("p cnf 4000 3999\n" + "".join(f"{i} {i + 1} 0\n" for i in range(1, 4000)))
    start = time.perf_counter()
    code, rep = run(capsys, "count", str(p), "--mode", "td")
    assert time.perf_counter() - start < 5
    assert code == 0 and rep["branch_widths"] == [1]


def test_count_brute_unsat(capsys, tmp_path):
    p = tmp_path / "unsat.cnf"
    p.write_text("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
    code, rep = run(capsys, "count", str(p), "--mode", "brute")
    assert code == 0
    assert rep["count"] == "0"


def test_count_brute_above_the_cap_exit_2(capsys, tmp_path):
    p = tmp_path / "free23.cnf"
    p.write_text("p cnf 23 0\n")
    assert main(["count", str(p), "--mode", "brute"]) == 2
    assert "23 variables exceed the brute-force cap 22" in capsys.readouterr().err


def test_count_above_the_int_str_digit_limit(capsys, tmp_path):
    # 2^14999 has 4516 decimal digits, above Python's default int-to-str limit
    # of 4300; the limit holds again once the count is printed.
    p = tmp_path / "wide.cnf"
    p.write_text("p cnf 15000 1\n1 0\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, rep = run(capsys, "count", str(p))
    assert code == 0 and rep["verdict"] == "counted"
    with decimal.localcontext() as ctx:
        ctx.prec = 5000
        expected = format(decimal.Decimal(2) ** 14999, "f")
    assert len(expected) == 4516
    assert rep["count"] == expected
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_count_td_mode(capsys, grid_file):
    code, rep = run(capsys, "count", grid_file, "--mode", "td")
    assert code == 0
    assert rep["count"] == "63"


def test_count_td_mode_counts_on_the_min_fill_elimination(capsys, monkeypatch, tmp_path):
    # count --mode td runs the DP on min-fill's elimination as it stands:
    # no tree decomposition is built, so none is validated or read back.
    f = gen_random_cnf(20, 60, 3, 4)
    width, elimination = treewidth.upper_bound_heuristic(build_incidence(f))
    expected = count_td(f, elimination.decomposition())  # taken before _decomposition is patched
    assert width == 13 and expected == count_bruteforce(f) == 294
    p = tmp_path / "r20.cnf"
    p.write_text(write_dimacs(f))

    def no_decomposition(*args):
        raise AssertionError("a tree decomposition was built")

    monkeypatch.setattr(pace, "_decomposition", no_decomposition)
    code, rep = run(capsys, "count", str(p), "--mode", "td")
    assert code == 0 and rep["mode"] == "td"
    assert rep["count"] == str(expected) and rep["branch_widths"] == [width]


def test_count_deterministic_json(capsys, grid_x_file):
    code1, rep1 = run(capsys, "count", grid_x_file, "--t", "1", "--k", "1")
    code2, rep2 = run(capsys, "count", grid_x_file, "--t", "1", "--k", "1")
    rep1.pop("wall_clock_ms")
    rep2.pop("wall_clock_ms")
    assert (code1, rep1) == (code2, rep2)


def test_backdoor_find(capsys, grid_x_file):
    code, rep = run(capsys, "backdoor", grid_x_file, "find", "--t", "1", "--kmax", "1")
    assert code == 0
    assert rep["variables"] == [10]


def test_backdoor_find_approx(capsys, grid_x_file):
    code, rep = run(capsys, "backdoor", grid_x_file, "find", "--t", "1", "--kmax", "1",
                    "--mode", "approx", "--tw-threshold", "1")
    assert code == 0
    assert rep["variables"] == [10]
    assert rep["stats"]["nodes"] >= 1
    assert rep["stats"]["checks"] >= 1


def test_backdoor_verify(capsys, grid_x_file):
    code, rep = run(capsys, "backdoor", grid_x_file, "verify", "--t", "1", "--vars", "10")
    assert code == 0 and rep["valid"]
    code, rep = run(capsys, "backdoor", grid_x_file, "verify", "--t", "1", "--vars", "1")
    assert code == 3 and not rep["valid"]
    assert rep["failing_assignment"] is not None


@pytest.mark.parametrize("bad", ["abc", "1,,2", "10,x"])
def test_backdoor_verify_malformed_vars_exit_2(capsys, grid_x_file, bad):
    assert main(["backdoor", grid_x_file, "verify", "--t", "1", "--vars", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--vars" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ("find", "--t", "-1", "--kmax", "1"),
        ("find", "--t", "-1", "--kmax", "1", "--mode", "approx"),
        ("verify", "--t", "-1", "--vars", "10"),
        ("verify", "--t", "-1", "--vars", "10", "--deletion"),
        ("find", "--t", "1", "--kmax", "-1"),
    ],
)
def test_backdoor_invalid_t_or_kmax_exit_2(capsys, grid_x_file, args):
    assert main(["backdoor", grid_x_file, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err


def test_backdoor_verify_deletion(capsys, tmp_path):
    p = tmp_path / "cyc.cnf"
    p.write_text("p cnf 3 3\n1 2 0\n2 3 0\n3 1 0\n")
    code, rep = run(capsys, "backdoor", str(p), "verify", "--t", "1", "--vars", "1",
                    "--deletion")
    assert code == 0 and rep["valid"] and rep["kind"] == "deletion"


def test_backdoor_absence_exit_3(capsys, grid_file):
    code, rep = run(capsys, "backdoor", grid_file, "find", "--t", "1", "--kmax", "0")
    assert code == 3
    assert rep["found"] is False


def test_backdoor_find_inconclusive_exit_4(capsys, tmp_path):
    # The 7-wall formula is above width 3 by its contraction bound, but the
    # reductions the exact search branches to next are not: their min-fill
    # width is above 3 and their one large component is above an exact
    # cap of 8, so the ladder leaves them undecided.
    p = tmp_path / "w7.cnf"
    p.write_text(write_dimacs(gen_wall_formula(7)))
    code, rep = run(capsys, "backdoor", str(p), "find", "--t", "3", "--kmax", "1", "--exact-cap", "8")
    assert code == 4
    assert rep["verdict"] == "inconclusive" and "undecided" in rep["reason"]


def test_backdoor_verify_without_vars_exit_2(capsys, grid_x_file):
    assert main(["backdoor", grid_x_file, "verify", "--t", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--vars" in captured.err


def test_generate_families(capsys, tmp_path):
    code = main(["generate", "--family", "grid", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    f = parse_dimacs(out)
    assert len(f.clauses) == 12

    out_path = str(tmp_path / "w8.gr")
    assert main(["generate", "--family", "wall", "--n", "8", "--out", out_path]) == 0
    assert open(out_path).read().startswith("p tw 64 ")
    assert json.load(open(out_path + ".map.json"))

    code = main(["generate", "--family", "planted", "--n", "6", "--t", "1",
                 "--k", "1", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("c planted ")

    code = main(["generate", "--family", "random", "--n", "5", "--m", "6",
                 "--width", "2", "--seed", "1"])
    out = capsys.readouterr().out
    assert len(parse_dimacs(out).clauses) == 6


def test_generate_rejects_bad_params(capsys):
    assert main(["generate", "--family", "grid", "--n", "1"]) == 2
