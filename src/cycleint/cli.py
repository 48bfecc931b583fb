"""Command-line entry point.

Subcommands: transform, gensets, extremal, search, verify. JSON is the single
interchange format so every reported failure can be replayed as a fixture.
Exit codes: 0 when all checks pass, 1 when any check fails, 2 on usage or
I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import search
from .extremal import compare_extremal, quad_inequality_check
from .gensets import (certify_generating_set, check_pair_overlap_t_plus_one,
                      disjoint_union_check, fix_system, is_generating_set,
                      is_t_intersecting_system)
from .intersect import (PermFamily, _check_t, build_intersection_graph,
                        maximalize)
from .report import VerificationReport
from .transform import compress_closure, fix_closure


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 at byte {exc.start}") from None


def _load_family(path: str) -> PermFamily:
    data = _load_json(path)
    try:
        return PermFamily.from_json_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if path is None or path == "-":
        print(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _print_report(rep: VerificationReport) -> None:
    for line in rep.summary_lines():
        print(line)


def _cmd_transform(args) -> int:
    family = _load_family(args.infile)
    steps = [s.strip() for s in args.pipeline.split(",") if s.strip()]
    if not steps:
        raise ValueError("empty --pipeline")
    traces = []
    for step in steps:
        if step == "fix-closure":
            family, trace = fix_closure(family)
            traces.append(trace)
        elif step == "compress-closure":
            family, trace = compress_closure(family)
            traces.append(trace)
        elif step == "maximalize":
            if args.t is None:
                raise ValueError("maximalize step requires --t")
            family = maximalize(family, args.t)
        else:
            raise ValueError(f"unknown pipeline step {step!r}")
    _write_json(args.out, family.to_json_dict())
    if args.trace:
        _write_json(args.trace, {"steps": [
            {"step" if key == "operation" else key: value
             for key, value in tr.to_json_dict().items()} for tr in traces]})
    return 0


_GENSET_CHECKS = ("generating-set", "t-intersecting", "pair-overlap", "disjoint-union")


def _cmd_gensets(args) -> int:
    family = _load_family(args.family)
    if not len(family):
        raise ValueError("cannot derive a generating set for the empty family")
    cert = certify_generating_set(family)
    payload: dict = {}
    if args.derive:
        payload["certificate"] = cert.to_json_dict()
        payload["fix_system"] = fix_system(family).to_json_dict()
    wanted = [] if args.check is None else list(_GENSET_CHECKS) if args.check == "all" \
        else [c.strip() for c in args.check.split(",") if c.strip()]
    if args.check is not None and not wanted:
        raise ValueError("empty --check")
    for name in wanted:
        if name not in _GENSET_CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {_GENSET_CHECKS}")
    rep = VerificationReport("gensets")
    params = {"n": family.n, "t": args.t, "family_size": len(family)}
    if wanted:
        if args.t is None:
            raise ValueError("--check requires --t")
        _check_t(args.t)
    for name in wanted:
        if name == "generating-set":
            rep.add_bool(name, params, is_generating_set(cert.system, family))
        elif name == "t-intersecting":
            rep.add_bool(name, params,
                         is_t_intersecting_system(fix_system(family), args.t)
                         and is_t_intersecting_system(cert.system, args.t))
        elif name == "pair-overlap":
            rep.add_result(name, params,
                           check_pair_overlap_t_plus_one(cert.system, args.t))
        elif name == "disjoint-union":
            rep.add_result(name, params,
                           disjoint_union_check(family, cert.system, args.t))
    if wanted:
        payload["report"] = rep.to_json_dict()
        _print_report(rep)
    _write_json(args.out, payload)
    return 0 if rep.passed else 1


def _cmd_extremal(args) -> int:
    if args.mode == "quad":
        span = args.n_span
        for flag, value in (("--t-max", args.t_max), ("--n-span", span)):
            if value < 1:
                raise ValueError(f"{flag} must be at least 1, got {value}")
        failures = []
        for t in range(1, args.t_max + 1):
            for n in range(2 * t + 1, 2 * t + span + 1):
                check = quad_inequality_check(n, t)
                if not check.ok:
                    failures.append(check.to_json_dict())
        payload = {"t_max": args.t_max, "n_span": span,
                   "passed": not failures, "failures": failures}
        _write_json(args.out, payload)
        print(f"quad: t <= {args.t_max}, n in [2t+1, 2t+{span}]: "
              f"{'all hold' if not failures else f'{len(failures)} failures'}")
        return 0 if not failures else 1
    if args.n is None or args.t is None:
        raise ValueError("extremal comparison requires --n and --t")
    names = [name.strip() for name in args.families.split(",")]
    if not any(names):
        raise ValueError("empty --families")
    for name in names:
        if not name.upper().startswith("F") or not name[1:].isdecimal():
            raise ValueError(f"unknown family name {name!r}; use F0, F1, F2, ...")
    comparison = compare_extremal(args.n, args.t, [int(name[1:]) for name in names])
    _write_json(args.out, comparison.to_json_dict())
    sizes = " ".join(f"|{k}|={v}" for k, v in comparison.sizes.items())
    print(f"(n={args.n}, t={args.t}): " + "; ".join([sizes, *comparison.verdicts]))
    return 0


def _cmd_search(args) -> int:
    mode = search.ENUMERATE_ALL if args.enumerate_all else search.SIZE_ONLY
    graph = None
    if args.export_graph:  # built outside the budget, once the budget is checked
        search._check_budget(args.budget)
        graph = build_intersection_graph(args.n, args.t)
    result = search.max_family_search(args.n, args.t, mode, args.budget, graph=graph)
    payload = result.to_json_dict()
    if args.canonical_witnesses:
        reps = search.conjugacy_representatives(result.witnesses, args.n)
        payload["conjugacy_representatives"] = [
            r.to_json_dict()["perms"] for r in reps]
    _write_json(args.out, payload)
    if args.export_graph:
        try:
            with open(args.export_graph, "w", encoding="utf-8") as handle:
                for line in graph.dimacs_lines():
                    handle.write(line + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.export_graph}: {exc}") from None
    flag = "" if result.complete else " (PARTIAL: budget expired)"
    print(f"(n={args.n}, t={args.t}) max family size {result.max_size}, "
          f"{len(result.witnesses)} witness(es){flag}")
    return 0


def _cmd_verify(args) -> int:
    needs_seed = args.suite in ("pipeline", "all")
    if needs_seed and args.seed is None:
        raise ValueError(f"--suite {args.suite} is randomized; --seed is required")
    needs_n_t = args.suite in ("theorem14", "counterexample", "pipeline")
    if needs_n_t and (args.n is None or args.t is None):
        raise ValueError(f"--suite {args.suite} requires --n and --t")
    if args.suite == "theorem14":
        rep = search.verify_max_bound(args.n, args.t, time_budget=args.budget)
    elif args.suite == "counterexample":
        rep = search.verify_counterexample_regime(args.n, args.t)
    elif args.suite == "pipeline":
        rep = search.pipeline_roundtrip(args.n, args.t, args.trials, args.seed)
    elif args.suite == "surgery":
        rep = search.verify_surgery_instances()
    else:  # all
        if args.n_max < 1:
            raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
        rep = search.run_suite_all(args.n_max, args.seed)
    if args.out:
        _write_json(args.out, rep.to_json_dict())
    _print_report(rep)
    return 0 if rep.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: ``parse_args``
    returns a new namespace each call and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="cycleint",
        description="Operators and exhaustive small-degree verification for "
                    "t-cycle-intersecting permutation families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="run closure pipelines on a family")
    p.add_argument("--in", dest="infile", required=True, metavar="FAMILY_JSON")
    p.add_argument("--pipeline", default="fix-closure,compress-closure",
                   help="comma-separated steps: maximalize, fix-closure, compress-closure")
    p.add_argument("--t", type=int, default=None, help="needed by maximalize")
    p.add_argument("--trace", default=None, metavar="TRACE_JSON")
    p.add_argument("--out", default=None, metavar="OUT_JSON")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("gensets", help="derive and check generating sets")
    p.add_argument("--family", required=True, metavar="FAMILY_JSON")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--derive", action="store_true",
                   help="emit the derived system and its certificate")
    p.add_argument("--check", default=None,
                   help='"all" or comma-separated subset of '
                        + ",".join(_GENSET_CHECKS))
    p.add_argument("--out", default=None, metavar="OUT_JSON")
    p.set_defaults(func=_cmd_gensets)

    p = sub.add_parser("extremal", help="construct and compare extremal families")
    p.add_argument("mode", nargs="?", choices=["quad"], default=None,
                   help="optional sub-mode: quad")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--families", default="F0,F1", help="e.g. F0,F1")
    p.add_argument("--t-max", type=int, default=50, help="quad mode: largest t")
    p.add_argument("--n-span", type=int, default=40,
                   help="quad mode: check n in [2t+1, 2t+span]")
    p.add_argument("--out", default=None, metavar="OUT_JSON")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("search", help="exact maximum family search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--enumerate-all", action="store_true",
                   help="list every maximum family")
    p.add_argument("--budget", type=float, default=None,
                   help="wall-clock budget in seconds")
    p.add_argument("--canonical-witnesses", action="store_true",
                   help="also report one witness per conjugacy class")
    p.add_argument("--export-graph", default=None, metavar="EDGE_LIST",
                   help="write the intersection graph as a DIMACS-like edge list")
    p.add_argument("--out", default=None, metavar="OUT_JSON")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=["theorem14", "counterexample", "pipeline",
                            "surgery", "all"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help="required for randomized suites")
    p.add_argument("--n-max", type=int, default=5, help="for --suite all")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--out", default=None, metavar="REPORT_JSON")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize usage errors to 2
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: input too large for this process",
              file=sys.stderr)
        return 2
    except AssertionError as exc:
        # an enumeration disagreed with its counting formula
        print(f"error: cross-check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
