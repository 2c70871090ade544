"""Command-line front door: treewidth, counting, backdoor search, generators.

JSON goes to stdout, diagnostics to stderr. Exit codes: 0 success, 2 input or
cap errors, 3 conclusive negative (no backdoor / size bound exceeded),
4 inconclusive (caps prevented a decision).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import backdoor as bd
from . import counting, graphs, treewidth
from .formula import CnfFormula, FormulaError, parse_dimacs, write_dimacs

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_INCONCLUSIVE = 4


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _fail(msg: str, code: int = EXIT_INPUT) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _decimal(n: int) -> str:
    """str(n), with the interpreter's digit limit on int-to-str lifted for this call only."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return str(n)
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def _load_formula(path: str) -> CnfFormula:
    with open(path) as fh:
        return parse_dimacs(fh.read())


def cmd_tw(args) -> int:
    """A .gr file is the graph itself; any other file is read as DIMACS, and
    its formula's incidence graph is the graph."""
    from . import pace  # here, so count and backdoor do not load it

    raw = args.path.endswith(".gr")
    try:
        with open(args.path) as fh:
            text = fh.read()
        g = pace.read_gr(text) if raw else graphs.build_incidence(parse_dimacs(text))
    except (OSError, FormulaError, ValueError) as exc:
        return _fail(str(exc))
    lower = treewidth.lower_bound(g)
    upper, elimination = treewidth.upper_bound_heuristic(g)
    exact = None
    if lower == upper:  # min-fill's elimination is optimal: no search needed
        exact = upper
    else:
        try:
            exact, elimination = treewidth.exact_treewidth(
                g, args.exact_cap, min_fill=elimination
            )
        except treewidth.VertexCapExceeded:
            pass
    report = {
        "graph": "raw" if raw else "incidence",
        "n": g.num_vertices(),
        "m": g.num_edges(),
        "lower": lower,
        "upper": upper,
        "exact": exact,
        "width": exact if exact is not None else upper,
    }
    if args.out_td:
        _, id_map = pace.write_gr(g)
        with open(args.out_td, "w") as fh:
            fh.write(pace.write_td(elimination.decomposition(), id_map))
        with open(args.out_td + ".map.json", "w") as fh:
            json.dump({str(k): v for k, v in id_map.items()}, fh, sort_keys=True)
        report["td"] = args.out_td
    _emit(report)
    return EXIT_OK


def cmd_count(args) -> int:
    try:
        f = _load_formula(args.path)
    except (OSError, UnicodeDecodeError, FormulaError) as exc:
        return _fail(str(exc))
    start = time.monotonic()
    note = None
    try:
        if args.mode == "brute":
            count, mode, verdict = counting.count_bruteforce(f), "brute", "counted"
            backdoor_vars, widths = None, None
        elif args.mode == "td":
            width, elimination = treewidth.upper_bound_heuristic(graphs.build_incidence(f))
            count, mode, verdict = counting._run_dp(f, elimination), "td", "counted"
            backdoor_vars, widths = None, (width,)
        else:
            run = counting.solve_by_backdoor if args.mode == "backdoor" else counting.solve
            result = run(f, args.t, args.k, tw_threshold=args.tw_threshold, vertex_cap=args.exact_cap)
            count, mode, verdict = result.count, result.mode, result.outcome
            backdoor_vars = list(result.backdoor) if result.backdoor else None
            widths = result.branch_widths
            note = result.note
    except (counting.VariableCapExceeded, counting.TableBudgetExceeded, FormulaError) as exc:
        return _fail(str(exc))
    report = {
        "mode": mode,
        "verdict": verdict,
        "count": _decimal(count) if count is not None else None,
        "t": args.t,
        "k": args.k,
        "backdoor": backdoor_vars,
        "branch_widths": list(widths) if widths else None,
        "wall_clock_ms": round(1000 * (time.monotonic() - start), 3),
        "note": note,
    }
    _emit(report)
    if verdict == "sb_exceeded":
        return EXIT_NEGATIVE
    if verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _report_json(report: bd.BackdoorReport) -> dict:
    return {
        "kind": report.kind,
        "t": report.t,
        "variables": list(report.variables),
        "size": report.size,
        "valid": report.valid,
        "failing_assignment": dict(report.failing_assignment.items())
        if report.failing_assignment is not None
        else None,
        "failing_bound": report.failing_bound,
        "stats": {"nodes": report.stats.nodes, "checks": report.stats.checks}
        if report.stats
        else None,
    }


def cmd_backdoor(args) -> int:
    try:
        f = _load_formula(args.path)
    except (OSError, UnicodeDecodeError, FormulaError) as exc:
        return _fail(str(exc))
    try:
        if args.action == "verify":
            if not args.vars:
                return _fail("verify needs --vars")
            try:
                b = frozenset(int(x) for x in args.vars.split(","))
            except ValueError:
                return _fail(f"--vars takes comma-separated variable ids, got {args.vars!r}")
            if args.deletion:
                report = bd.is_deletion_backdoor(f, b, args.t, vertex_cap=args.exact_cap)
            else:
                report = bd.is_strong_backdoor(f, b, args.t, vertex_cap=args.exact_cap)
            _emit(_report_json(report))
            return EXIT_OK if report.valid else EXIT_NEGATIVE
        if args.mode == "exact":
            report = bd.find_smallest_strong_backdoor(f, args.t, args.kmax, vertex_cap=args.exact_cap)
        else:
            report = bd.approx_backdoor(
                f, args.t, args.kmax, tw_threshold=args.tw_threshold, vertex_cap=args.exact_cap
            )
        if report is None:
            _emit({"found": False, "t": args.t, "kmax": args.kmax})
            return EXIT_NEGATIVE
        _emit({"found": True, **_report_json(report)})
        return EXIT_OK
    except FormulaError as exc:
        return _fail(str(exc))
    except bd.InconclusiveTreewidth as exc:
        _emit({"verdict": "inconclusive", "reason": str(exc)})
        return EXIT_INCONCLUSIVE


def cmd_generate(args) -> int:
    from . import generators, pace, walls  # here, so count, tw and backdoor do not load them

    try:
        if args.family == "grid":
            text = write_dimacs(generators.gen_grid_formula(args.n))
        elif args.family == "grid-x":
            text = write_dimacs(generators.gen_grid_formula_x(args.n))
        elif args.family == "random":
            text = write_dimacs(
                generators.gen_random_cnf(args.n, args.m, args.width, args.seed)
            )
        elif args.family == "planted":
            f, planted = generators.gen_planted(args.n, args.t, args.k, args.seed)
            comment = "c planted " + " ".join(str(v) for v in sorted(planted))
            text = comment + "\n" + write_dimacs(f)
        elif args.family == "wall":
            g, _ = walls.make_wall(args.n)
            text, id_map = pace.write_gr(g)
            if args.out:
                with open(args.out + ".map.json", "w") as fh:
                    json.dump({str(k): v for k, v in id_map.items()}, fh, sort_keys=True)
        else:  # pragma: no cover
            return _fail(f"unknown family {args.family}")
    except (FormulaError, ValueError) as exc:
        return _fail(str(exc))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="twcount", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    tw = sub.add_parser("tw", help="treewidth bounds and exact value")
    tw.add_argument("path")
    tw.add_argument("--exact-cap", type=int, default=treewidth.DEFAULT_VERTEX_CAP)
    tw.add_argument("--out-td", default=None)
    tw.set_defaults(func=cmd_tw)

    cnt = sub.add_parser("count", help="model counting")
    cnt.add_argument("path")
    cnt.add_argument("--t", type=int, default=1)
    cnt.add_argument("--k", type=int, default=2)
    cnt.add_argument("--mode", choices=["auto", "td", "brute", "backdoor"], default="auto")
    cnt.add_argument("--tw-threshold", type=int, default=bd.DEFAULT_TW_THRESHOLD)
    cnt.add_argument("--exact-cap", type=int, default=treewidth.DEFAULT_VERTEX_CAP)
    cnt.set_defaults(func=cmd_count)

    b = sub.add_parser("backdoor", help="find or verify strong backdoor sets")
    b.add_argument("path")
    b.add_argument("action", choices=["find", "verify"])
    b.add_argument("--t", type=int, default=1)
    b.add_argument("--kmax", type=int, default=2)
    b.add_argument("--vars", default=None, help="comma-separated variable ids (verify)")
    b.add_argument("--deletion", action="store_true", help="verify as a deletion backdoor")
    b.add_argument("--mode", choices=["exact", "approx"], default="exact")
    b.add_argument("--tw-threshold", type=int, default=bd.DEFAULT_TW_THRESHOLD)
    b.add_argument("--exact-cap", type=int, default=treewidth.DEFAULT_VERTEX_CAP)
    b.set_defaults(func=cmd_backdoor)

    g = sub.add_parser("generate", help="emit benchmark instances")
    g.add_argument("--family", choices=["grid", "grid-x", "planted", "random", "wall"], required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, default=0)
    g.add_argument("--width", type=int, default=3)
    g.add_argument("--t", type=int, default=1)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_generate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
