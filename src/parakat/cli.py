"""Command-line front end.

Every value command supports ``--json``, ``--csv``, and ``--text`` (default)
renderings; output ordering is canonical everywhere and nothing is
randomized, so identical invocations produce identical bytes.  ``--manifest``
records the invocation and a checksum of the produced output.

Exit codes: 0 success, 2 a verification suite failed, 3 cap or budget
exceeded, 64 usage error, 65 any other domain error (its name is echoed).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import sys

from . import __version__
from .errors import BudgetExceeded, CapExceeded, ParakatError
from .polys import demazure_poly, demazure_poly_dd, poly_eq, row_bound_sum
from .rperms import (
    RPermutation,
    RSubset,
    all_lifts,
    count_cnr,
    count_total,
    is_r312_avoiding,
    minimal_lift,
    pi_map,
    r_projection,
    rank_tuple,
)
from .rtuples import (
    CONSTRUCTION_KINDS,
    CriticalList,
    RTuple,
    ceiling_map,
    classify,
    core,
    critical_list,
    enumerate_tuples,
    floor_map,
    from_critical_list,
)
from .tableaux import (
    Shape,
    Tableau,
    demazure_set,
    ideal,
    key_of_perm,
    row_bound_max,
    row_bound_set,
    row_end_max,
    scanning,
    z_set,
)
from .verify import SUITE_NAMES, SUITES, run_suite

USAGE_EXIT = 64
DOMAIN_EXIT = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _need(args, *names: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n if n != "lambda" else "lam") in (None, "")]
    if missing:
        raise ValueError(f"missing required arguments: {', '.join(missing)}")


def _load_config(path: str | None) -> dict:
    config: dict = {}
    if path:
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                config[key.strip()] = value.strip()
        version = config.pop("config_version", "1")
        if version != "1":
            raise ParakatError(f"unsupported config_version {version}")
    return config


def _tuple_arg(args) -> RTuple:
    return RTuple.of(args.n, _parse_ints(args.R), _parse_ints(args.tuple))


def _perm_arg(args) -> RPermutation:
    return RPermutation.of(args.n, _parse_ints(args.R), _parse_ints(args.perm))


def _shape_arg(args) -> Shape:
    return Shape.of(args.n, _parse_ints(getattr(args, "lam")))


def _render_tuple(t, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(t.to_json_dict(), sort_keys=True)
    if fmt == "csv":
        return ",".join(str(e) for e in t.entries)
    return str(t)


def _render_tableau(t: Tableau, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(t.to_json_dict(), sort_keys=True)
    if fmt == "csv":
        return "\n".join(
            f"{j}," + " ".join(str(v) for v in col)
            for j, col in enumerate(t.columns, start=1)
        )
    return str(t)


def _render_poly(p, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(p.to_json_dict(), sort_keys=True)
    if fmt == "csv":
        return "\n".join(
            " ".join(str(e) for e in exp) + f",{coef}" for exp, coef in p.terms
        )
    return str(p)


# ---------------------------------------------------------------------------
# command handlers: each returns (lines, exit_code)


def _cmd_classify(args) -> tuple[list[str], int]:
    report = classify(_tuple_arg(args)).as_dict()
    if args.format == "json":
        return [json.dumps(report, sort_keys=True)], 0
    if args.format == "csv":
        return [f"{k},{str(v).lower()}" for k, v in report.items()], 0
    return [" ".join(f"{k}={str(v).lower()}" for k, v in report.items())], 0


def _cmd_critlist(args) -> tuple[list[str], int]:
    c = critical_list(_tuple_arg(args))
    if args.format == "json":
        return [json.dumps(c.to_json_dict(), sort_keys=True)], 0
    if args.format == "csv":
        rows = [
            f"{h},{x},{y}"
            for h, pairs in enumerate(c.carrels, start=1)
            for x, y in pairs
        ]
        return rows, 0
    return [str(c)], 0


def _cmd_core(args) -> tuple[list[str], int]:
    return [_render_tuple(core(_tuple_arg(args)), args.format)], 0


def _cmd_make(args) -> tuple[list[str], int]:
    c = CriticalList.from_json_dict(json.loads(args.critlist))
    return [_render_tuple(from_critical_list(c, args.kind), args.format)], 0


def _cmd_map(args) -> tuple[list[str], int]:
    _need(args, "perm" if args.map == "psi" else "tuple")
    if args.map == "psi":
        out = rank_tuple(_perm_arg(args))
    elif args.map == "pi":
        out = pi_map(_tuple_arg(args))
    elif args.map == "floor":
        out = floor_map(_tuple_arg(args))
    else:
        out = ceiling_map(_tuple_arg(args))
    return [_render_tuple(out, args.format)], 0


def _cmd_perm(args) -> tuple[list[str], int]:
    rs = RSubset(args.n, _parse_ints(args.R))
    if args.action == "project":
        word = _parse_ints(args.perm)
        return [_render_tuple(r_projection(word, rs), args.format)], 0
    p = _perm_arg(args)
    if args.action == "avoiding":
        value = is_r312_avoiding(p)
        if args.format == "json":
            return [json.dumps({"avoiding": value})], 0
        return [str(value).lower()], 0
    if args.action == "lift":
        word = minimal_lift(p)
        if args.format == "json":
            return [json.dumps({"n": args.n, "one_line": list(word)})], 0
        return [",".join(str(v) for v in word)], 0
    lines = []
    for word in all_lifts(p):
        if args.format == "json":
            lines.append(json.dumps({"n": args.n, "one_line": list(word)}))
        else:
            lines.append(",".join(str(v) for v in word))
    return lines, 0


def _cmd_tab(args) -> tuple[list[str], int]:
    _need(args, {"key": "perm", "rowendmax": "tuple", "rowboundmax": "tuple", "scan": "tab"}[args.action])
    shape = _shape_arg(args)
    r_elements = shape.r_subset.elements
    if args.action == "key":
        p = RPermutation.of(args.n, r_elements, _parse_ints(args.perm))
        out = key_of_perm(p, shape)
    elif args.action == "rowendmax":
        out = row_end_max(RTuple.of(args.n, r_elements, _parse_ints(args.tuple)), shape)
    elif args.action == "rowboundmax":
        out = row_bound_max(RTuple.of(args.n, r_elements, _parse_ints(args.tuple)), shape)
    else:  # scan
        out = scanning(Tableau.from_json_dict(json.loads(args.tab)))
    return [_render_tableau(out, args.format)], 0


def _cmd_set(args) -> tuple[list[str], int]:
    _need(args, {"rowbound": "tuple", "demazure": "perm", "ideal": "tab", "z": "tuple"}[args.action])
    shape = _shape_arg(args)
    r_elements = shape.r_subset.elements
    cap = args.cap
    if args.action == "rowbound":
        ts = row_bound_set(RTuple.of(args.n, r_elements, _parse_ints(args.tuple)), shape, cap)
    elif args.action == "demazure":
        ts = demazure_set(RPermutation.of(args.n, r_elements, _parse_ints(args.perm)), shape, cap)
    elif args.action == "ideal":
        ts = ideal(Tableau.from_json_dict(json.loads(args.tab)), cap)
    else:  # z
        ts = z_set(RTuple.of(args.n, r_elements, _parse_ints(args.tuple)), shape, cap)
    if args.stream:
        return [json.dumps(t.to_json_dict(), sort_keys=True) for t in ts], 0
    if args.format == "json":
        return [json.dumps(ts.to_json_dict(), sort_keys=True)], 0
    if args.format == "csv":
        return [
            "|".join(" ".join(str(v) for v in col) for col in t.columns) for t in ts
        ], 0
    lines = [f"{len(ts)} tableaux"]
    lines += ["[" + ", ".join(str(list(c)) for c in t.columns) + "]" for t in ts]
    return lines, 0


def _cmd_poly(args) -> tuple[list[str], int]:
    needed = {"rowboundsum": ("tuple",), "demazure": ("perm",), "dd": ("perm",), "compare": ("tuple", "perm")}[args.action]
    _need(args, *needed)
    shape = _shape_arg(args)
    r_elements = shape.r_subset.elements
    if args.action == "rowboundsum":
        p = row_bound_sum(
            RTuple.of(args.n, r_elements, _parse_ints(args.tuple)), shape, args.cap
        ).poly
    elif args.action == "demazure":
        p = demazure_poly(
            RPermutation.of(args.n, r_elements, _parse_ints(args.perm)), shape, args.cap
        ).poly
    elif args.action == "dd":
        p = demazure_poly_dd(
            RPermutation.of(args.n, r_elements, _parse_ints(args.perm)), shape
        )
    else:  # compare
        a = row_bound_sum(
            RTuple.of(args.n, r_elements, _parse_ints(args.tuple)), shape, args.cap
        )
        b = demazure_poly(
            RPermutation.of(args.n, r_elements, _parse_ints(args.perm)), shape, args.cap
        )
        result = {
            "poly_eq": poly_eq(a, b),
            "gf_identical": a.tableau_set == b.tableau_set,
        }
        if args.format == "json":
            return [json.dumps(result, sort_keys=True)], 0
        if args.format == "csv":
            return [f"{k},{str(v).lower()}" for k, v in result.items()], 0
        return [" ".join(f"{k}={str(v).lower()}" for k, v in result.items())], 0
    return [_render_poly(p, args.format)], 0


def _cmd_count(args) -> tuple[list[str], int]:
    r_elements = _parse_ints(args.R)
    if args.what == "cnr":
        value = count_cnr(args.n, r_elements)
    elif args.what == "total":
        value = count_total(args.n)
    else:  # ui
        value = sum(1 for _ in enumerate_tuples(args.n, r_elements, "increasing"))
    if args.format == "json":
        return [json.dumps({"count": value})], 0
    return [str(value)], 0


def _suite_kwargs(name: str, args) -> dict:
    """The flags the suite's signature names; None flags defer to its default."""
    params = inspect.signature(SUITES[name]).parameters
    return {k: getattr(args, k) for k in params if getattr(args, k) is not None}


def _run_named_suite(item: tuple[str, dict]):
    name, kwargs = item
    return run_suite(name, **kwargs)


def _cmd_verify(args) -> tuple[list[str], int]:
    if args.cap is not None:
        # no suite takes a cap, so a flag or config cap would go unheeded
        raise ValueError(
            "verify reads its cap only from PARAKAT_CAP, not from --cap or a config file"
        )
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    jobs = [(name, _suite_kwargs(name, args)) for name in names]
    if args.jobs > 1 and len(jobs) > 1:
        # imported here: it loads multiprocessing, which other commands never need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(_run_named_suite, jobs))
    else:
        reports = [_run_named_suite(job) for job in jobs]
    lines: list[str] = []
    if args.format == "json":
        lines.append(json.dumps([r.to_json_dict() for r in reports], sort_keys=True))
    elif args.format == "csv":
        lines += [
            f"{r.suite},{r.verdict},{r.instances},{r.wall_time:.3f}" for r in reports
        ]
    else:
        lines += [r.to_text() for r in reports]
    code = 0 if all(r.passed for r in reports) else 2
    return lines, code


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    """A new parser for the whole command line; ``main`` reuses one."""
    parser = _Parser(prog="parakat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"parakat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_n=True, need_r=True):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", dest="format", action="store_const", const="json")
        group.add_argument("--csv", dest="format", action="store_const", const="csv")
        group.add_argument("--text", dest="format", action="store_const", const="text")
        p.set_defaults(format="text")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--manifest", default=None, help="write a run manifest here")
        p.add_argument("--cap", type=int, default=None, help="materialization cap")
        if need_n:
            p.add_argument("--n", type=int, required=True)
        if need_r:
            p.add_argument("--R", default="", help="comma-separated divider set")

    for name, handler in (("classify", _cmd_classify), ("critlist", _cmd_critlist), ("core", _cmd_core)):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--tuple", required=True)
        p.set_defaults(handler=handler)

    p = sub.add_parser("make")
    common(p, need_n=False, need_r=False)
    p.add_argument("--kind", required=True, choices=CONSTRUCTION_KINDS)
    p.add_argument("--critlist", required=True, help="critical list as JSON")
    p.set_defaults(handler=_cmd_make)

    p = sub.add_parser("map")
    p.add_argument("map", choices=["psi", "pi", "floor", "ceiling"])
    common(p)
    p.add_argument("--perm", help="one-line entries (for psi)")
    p.add_argument("--tuple", help="tuple entries (for pi, floor, ceiling)")
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("perm")
    p.add_argument("action", choices=["project", "lift", "lifts", "avoiding"])
    common(p)
    p.add_argument("--perm", required=True)
    p.set_defaults(handler=_cmd_perm)

    p = sub.add_parser("tab")
    p.add_argument("action", choices=["key", "rowendmax", "rowboundmax", "scan"])
    common(p, need_r=False)
    p.add_argument("--lambda", dest="lam", default="", help="partition, comma-separated")
    p.add_argument("--perm")
    p.add_argument("--tuple")
    p.add_argument("--tab", help="tableau as JSON")
    p.set_defaults(handler=_cmd_tab)

    p = sub.add_parser("set")
    p.add_argument("action", choices=["rowbound", "demazure", "ideal", "z"])
    common(p, need_r=False)
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--perm")
    p.add_argument("--tuple")
    p.add_argument("--tab")
    p.add_argument("--stream", action="store_true", help="emit NDJSON, one tableau per line")
    p.set_defaults(handler=_cmd_set)

    p = sub.add_parser("poly")
    p.add_argument("action", choices=["rowboundsum", "demazure", "dd", "compare"])
    common(p, need_r=False)
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--perm")
    p.add_argument("--tuple")
    p.set_defaults(handler=_cmd_poly)

    p = sub.add_parser("count")
    p.add_argument("what", choices=["cnr", "total", "ui"])
    common(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("verify")
    p.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    common(p, need_n=False, need_r=False)
    p.add_argument("--max-n", type=int, default=None, help="range bound; suite default if omitted")
    p.add_argument("--max-col", type=int, default=None)
    p.add_argument("--poly-max-n", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--all-shapes", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(handler=_cmd_verify)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser ``main`` uses, built on its first call and kept.

    Parsing leaves the parser as it was: each call gets a fresh namespace, and
    every default is immutable.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _shared_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.cap is None and "cap" in config:
            args.cap = int(config["cap"])
        if args.cap is not None and args.cap < 0:
            raise ValueError(f"cap must be nonnegative, got {args.cap}")
        lines, code = args.handler(args)
        output = "\n".join(lines)
        if args.manifest:
            manifest = {
                "command_line": argv,
                "config": config,
                "version": __version__,
                "output_sha256": hashlib.sha256(output.encode()).hexdigest(),
            }
            with open(args.manifest, "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except (CapExceeded, BudgetExceeded) as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 3
    except ParakatError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except (ValueError, KeyError, OSError) as exc:
        print(f"parakat: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if output:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
