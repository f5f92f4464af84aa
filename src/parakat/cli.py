"""Command-line front end.

Every value command supports ``--json``, ``--csv``, and ``--text`` (default)
renderings, and ``set`` also ``--stream``: NDJSON, one tableau per line.
Handlers return values, and ``main`` renders each through one table,
``_FORMATS``, of every printed type's JSON, CSV rows and text.  Output
ordering is canonical and nothing is randomized, so identical invocations
produce identical bytes.  ``--manifest`` records the invocation and a
checksum of the output (for ``verify``, with every wall time set to zero, so
that a rerun reproduces it).  ``map``, ``tab``, ``set`` and ``poly`` take
their actions from one table, which also names the input options each action
reads.  ``PARAKAT_CAP`` alone bounds the tableaux that any command builds.

Exit codes: 0 success, 2 a verification suite failed, 3 cap exceeded, 64
usage error, 65 any other domain error (its name is echoed).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import sys

from . import __version__
from .errors import CapExceeded, ParakatError
from .polys import Polynomial, demazure_poly, demazure_poly_dd, gf_identical, poly_eq, row_bound_sum
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
    floor_map,
    from_critical_list,
)
from .tableaux import (
    Shape,
    Tableau,
    TableauSet,
    demazure_set,
    ideal,
    key_of_perm,
    row_bound_max,
    row_bound_set,
    row_end_max,
    scanning,
    z_set,
)
from .verify import MAX_SUITE_N, SUITE_NAMES, SUITES, run_suite

USAGE_EXIT = 64
DOMAIN_EXIT = 65

# what ``parakat -h`` says; the module docstring above is for developers
_DESCRIPTION = (
    "Exact checks of carrel-divided tuples, R-312-avoiding permutations (counted by the "
    "parabolic Catalan numbers), their keys, row-bound and Demazure tableau sets, and the "
    "generating polynomials of those sets. Every command prints --text (the default), "
    "--json or --csv, and set also --stream: one tableau per JSON line. Exit codes: 0 "
    "success, 2 a verification suite failed, 3 the tableau cap (PARAKAT_CAP) exceeded, "
    "64 usage error, 65 any other domain error."
)


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
    missing = [f"--{n}" for n in names if getattr(args, n) in (None, "")]
    if missing:
        raise ValueError(f"missing required arguments: {', '.join(missing)}")


def _read(args, option: str, shape: Shape | None = None):
    """The value of ``--tuple`` or ``--perm`` over the dividers of ``shape``
    (``--R`` if None), or the tableau of ``--tab``, which must have ``shape``."""
    text = getattr(args, option)
    if option == "tab":
        t = Tableau.from_json_dict(json.loads(text))
        if shape is not None and t.shape != shape:
            raise ValueError(f"--tab has shape {t.shape}, but --n and --lambda give {shape}")
        return t
    r_elements = _parse_ints(args.R) if shape is None else shape.r_subset.elements
    cls = RTuple if option == "tuple" else RPermutation
    return cls.of(args.n, r_elements, _parse_ints(text))


def _run_steps(args) -> list:
    """Check every input option the action's steps read, read the shape
    (None for ``map``), then run each ``(option, call)`` step in order as
    ``call(value, shape)``."""
    steps = _ACTIONS[args.command][args.action]
    _need(args, *(option for option, _ in steps))
    shape = None if args.command == "map" else Shape.of(args.n, _parse_ints(args.lam))
    return [call(_read(args, option, shape), shape) for option, call in steps]


def _joined(values, sep: str = ",") -> str:
    return sep.join(str(v) for v in values)


# each printed type's (JSON value, CSV rows, text); None for the type's own
# to_json_dict or str.  A dict is a set of named flags, a bool avoidance, an
# int a count, a tuple a lift word and a list the reports of a verify run.
_FORMATS = {
    **dict.fromkeys((RTuple, RPermutation), (None, lambda t: [_joined(t.entries)], None)),
    CriticalList: (None, lambda c: [
        f"{h},{x},{y}" for h, pairs in enumerate(c.carrels, start=1) for x, y in pairs
    ], None),
    Tableau: (None, lambda t: [
        f"{j}," + _joined(col, " ") for j, col in enumerate(t.columns, start=1)
    ], None),
    TableauSet: (
        None,
        lambda ts: [_joined((_joined(col, " ") for col in t.columns), "|") for t in ts],
        lambda ts: "\n".join(
            [f"{len(ts)} tableaux", *(str([list(c) for c in t.columns]) for t in ts)]
        ),
    ),
    Polynomial: (None, lambda p: [_joined(exp, " ") + f",{coef}" for exp, coef in p.terms], None),
    dict: (
        dict,
        lambda flags: [f"{k},{str(v).lower()}" for k, v in flags.items()],
        lambda flags: " ".join(f"{k}={str(v).lower()}" for k, v in flags.items()),
    ),
    bool: (lambda v: {"avoiding": v}, lambda v: [str(v).lower()], lambda v: str(v).lower()),
    int: (lambda v: {"count": v}, lambda v: [str(v)], None),
    tuple: (lambda w: {"n": len(w), "one_line": list(w)}, lambda w: [_joined(w)], _joined),
    list: (
        lambda rs: [r.to_json_dict() for r in rs],
        lambda rs: [f"{r.suite},{r.verdict},{r.instances},{r.wall_time:.3f}" for r in rs],
        lambda rs: "\n".join(r.to_text() for r in rs),
    ),
}


def _render(value, fmt: str) -> str:
    """``value`` in ``fmt``: json, csv, text, or stream (a set's members as JSON lines)."""
    if fmt == "stream":
        return "\n".join(_render(member, "json") for member in value)
    as_json, csv_rows, text = _FORMATS[type(value)]
    if fmt == "json":
        data = value.to_json_dict() if as_json is None else as_json(value)
        return json.dumps(data, sort_keys=True)
    if fmt == "csv":
        return "\n".join(csv_rows(value))
    return str(value) if text is None else text(value)


# ---------------------------------------------------------------------------
# the action table: command -> action -> its (input option, library call)
# steps, in order.  Its keys are the parser's choices, and the parser adds
# exactly the input options it names.  Each call takes (value, shape) and is
# a lambda, so it looks its library function up here when it runs (a tracer
# rebinds it).

_ACTIONS = {
    "map": {
        "psi": [("perm", lambda p, shape: rank_tuple(p))],
        "pi": [("tuple", lambda t, shape: pi_map(t))],
        "floor": [("tuple", lambda t, shape: floor_map(t))],
        "ceiling": [("tuple", lambda t, shape: ceiling_map(t))],
    },
    "tab": {
        "key": [("perm", lambda p, shape: key_of_perm(p, shape))],
        "rowendmax": [("tuple", lambda a, shape: row_end_max(a, shape))],
        "rowboundmax": [("tuple", lambda b, shape: row_bound_max(b, shape))],
        "scan": [("tab", lambda t, shape: scanning(t))],
    },
    "set": {
        "rowbound": [("tuple", lambda b, shape: row_bound_set(b, shape))],
        "demazure": [("perm", lambda p, shape: demazure_set(p, shape))],
        "ideal": [("tab", lambda t, shape: ideal(t))],
        "z": [("tuple", lambda a, shape: z_set(a, shape))],
    },
    "poly": {
        "rowboundsum": [("tuple", lambda b, shape: row_bound_sum(b, shape).poly)],
        "demazure": [("perm", lambda p, shape: demazure_poly(p, shape).poly)],
        "dd": [("perm", lambda p, shape: demazure_poly_dd(p, shape))],
        # two steps, whose sets are compared; the tuple is read and its sum built first
        "compare": [
            ("tuple", lambda b, shape: row_bound_sum(b, shape)),
            ("perm", lambda p, shape: demazure_poly(p, shape)),
        ],
    },
}

# the input options, in the parser's order, with their help
_INPUTS = (("perm", "one-line entries"), ("tuple", "tuple entries"), ("tab", "tableau as JSON"))


# the commands that make one call on ``--tuple``
_TUPLE_CALLS = {
    "classify": lambda t: classify(t).as_dict(),
    "critlist": lambda t: critical_list(t),
    "core": lambda t: core(t),
}


# ---------------------------------------------------------------------------
# command handlers: each returns (values, exit_code); verify adds the values
# with every wall time zeroed, which the manifest checksums instead


def _cmd_tuple(args) -> tuple[list, int]:
    return [_TUPLE_CALLS[args.command](_read(args, "tuple"))], 0


def _cmd_make(args) -> tuple[list, int]:
    c = CriticalList.from_json_dict(json.loads(args.critlist))
    return [from_critical_list(c, args.kind)], 0


def _cmd_perm(args) -> tuple[list, int]:
    rs = RSubset(args.n, _parse_ints(args.R))
    if args.action == "project":
        return [r_projection(_parse_ints(args.perm), rs)], 0
    p = _read(args, "perm")
    if args.action == "avoiding":
        return [is_r312_avoiding(p)], 0
    return ([minimal_lift(p)] if args.action == "lift" else list(all_lifts(p))), 0


def _cmd_steps(args) -> tuple[list, int]:
    """map, tab, set and poly: one value, or poly compare's two sets' flags."""
    results = _run_steps(args)
    if len(results) == 2:
        a, b = results
        results = [{"poly_eq": poly_eq(a, b), "gf_identical": gf_identical(a, b)}]
    return results, 0


def _cmd_count(args) -> tuple[list, int]:
    r_elements = _parse_ints(args.R)
    if args.what == "cnr":
        value = count_cnr(args.n, r_elements)
    elif args.what == "total":
        value = count_total(args.n)
    else:  # ui: carrel (lo, hi] holds any hi - lo values from [lo + 1, n], sorted
        carrels = RSubset(args.n, r_elements).carrels
        value = math.prod(math.comb(args.n - lo, hi - lo) for lo, hi in carrels)
    try:
        str(value)
    except ValueError:  # past the int-to-str digit limit, so this Python has one to read
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"the count has more than {limit} digits, Python's limit for printing an integer;"
            " PYTHONINTMAXSTRDIGITS=0 lifts it"
        ) from None
    return [value], 0


def _suite_kwargs(name: str, args) -> dict:
    """The range flags the suite's signature names; None flags defer to its
    default.  A suite run alone refuses a range flag given that it does not name."""
    params = inspect.signature(SUITES[name]).parameters
    flags = dict.fromkeys(k for suite in SUITES.values() for k in inspect.signature(suite).parameters)
    given = {k: getattr(args, k) for k in flags if getattr(args, k) is not None}
    refused = [f"--{k.replace('_', '-')}" for k in given if k not in params]
    if refused and args.suite != "all":
        raise ValueError(f"suite {name} does not take {', '.join(refused)}")
    return {k: v for k, v in given.items() if k in params}


def _run_named_suite(item: tuple[str, dict]):
    name, kwargs = item
    return run_suite(name, **kwargs)


def _cmd_verify(args) -> tuple[list, int, list]:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    jobs = [(name, _suite_kwargs(name, args)) for name in names]
    if args.suite == "all" and (args.max_n or 0) > MAX_SUITE_N:
        # the tableau suites refuse it, so refuse it before the tuple suites walk it
        raise CapExceeded(f"suite range n={args.max_n} exceeds the cap of {MAX_SUITE_N}")
    if args.jobs > 1 and len(jobs) > 1:
        # imported here: it loads multiprocessing, which other commands never need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(_run_named_suite, jobs))
    else:
        reports = [_run_named_suite(job) for job in jobs]
    code = 0 if all(r.passed for r in reports) else 2
    timeless = [dataclasses.replace(r, wall_time=0.0) for r in reports]
    return [reports], code, [timeless]


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    """A new parser for the whole command line; ``main`` reuses one.

    ``parser.commands`` maps each command to its subparser.
    """
    parser = _Parser(prog="parakat", description=_DESCRIPTION)
    parser.add_argument("--version", action="version", version=f"parakat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def common(p, need_n=True, need_r=True):  # returns the format group
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", dest="format", action="store_const", const="json")
        group.add_argument("--csv", dest="format", action="store_const", const="csv")
        group.add_argument("--text", dest="format", action="store_const", const="text")
        p.set_defaults(format="text")
        p.add_argument("--manifest", default=None, help="write a run manifest here")
        if need_n:
            p.add_argument("--n", type=int, required=True)
        if need_r:
            p.add_argument("--R", default="", help="comma-separated divider set")
        return group

    # every command, in the order that the usage line lists them
    parsers = {name: sub.add_parser(name) for name in (
        "classify", "critlist", "core", "make", "map", "perm", "tab", "set", "poly", "count", "verify")}

    for name in _TUPLE_CALLS:
        p = parsers[name]
        common(p)
        p.add_argument("--tuple", required=True)
        p.set_defaults(handler=_cmd_tuple)

    p = parsers["make"]
    common(p, need_n=False, need_r=False)
    p.add_argument("--kind", required=True, choices=CONSTRUCTION_KINDS)
    p.add_argument("--critlist", required=True, help="critical list as JSON")
    p.set_defaults(handler=_cmd_make)

    p = parsers["perm"]
    p.add_argument("action", choices=["project", "lift", "lifts", "avoiding"])
    common(p)
    p.add_argument("--perm", required=True)
    p.set_defaults(handler=_cmd_perm)

    for command, actions in _ACTIONS.items():
        p = parsers[command]
        p.add_argument("action", choices=actions)
        formats = common(p, need_r=command == "map")
        if command == "set":
            formats.add_argument("--stream", dest="format", action="store_const", const="stream",
                                 help="emit NDJSON, one tableau per line")
        if command != "map":
            p.add_argument("--lambda", dest="lam", default="", help="partition, comma-separated")
        for option, what in _INPUTS:
            users = [a for a, steps in actions.items() if any(o == option for o, _ in steps)]
            if users:
                p.add_argument(f"--{option}", help=f"{what} (for {', '.join(users)})")
        p.set_defaults(handler=_cmd_steps)

    p = parsers["count"]
    p.add_argument("what", choices=["cnr", "total", "ui"])
    common(p)
    p.set_defaults(handler=_cmd_count)

    p = parsers["verify"]
    p.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    common(p, need_n=False, need_r=False)
    p.add_argument("--max-n", type=int, default=None, help="range bound; suite default if omitted")
    p.add_argument("--max-col", type=int, default=None)
    p.add_argument("--poly-max-n", type=int, default=None)
    p.add_argument("--all-shapes", action="store_true", default=None)
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


@functools.cache
def _plain_form(command: str):
    """``command``'s positionals, options by name, required options, exclusive
    groups and defaults, from its subparser.  As in argparse, a dest takes its
    first action's default, and ``set_defaults`` only where no action sets it."""
    parser = _shared_parser().commands[command]
    stores = (argparse._StoreAction, argparse._StoreConstAction)
    options = {name: a for a in parser._actions if isinstance(a, stores) for name in a.option_strings}
    first = {
        a.dest: a.default for a in reversed(parser._actions) if argparse.SUPPRESS not in (a.dest, a.default)
    }
    return (
        [a for a in parser._actions if not a.option_strings],
        options,
        {a for a in options.values() if a.required},
        [group._group_actions for group in parser._mutually_exclusive_groups],
        {**parser._defaults, **first, "command": command},
    )


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace that the full parser gives a plain-form argv, or None.

    The plain form is a command, its positionals, then each option written
    out in full once, with one value not starting with ``-`` if it takes one.
    Any other form, or a value that a type, a choice, a required option or an
    exclusive group refuses, gives None.
    """
    if not argv or argv[0] not in _shared_parser().commands:
        return None
    positionals, options, required, groups, defaults = _plain_form(argv[0])
    if len(argv) <= len(positionals):
        return None
    given = list(zip(positionals, argv[1:]))  # (action, text or None if missing)
    values, seen = dict(defaults), set()
    rest = iter(argv[1 + len(positionals):])
    for name in rest:
        action = options.get(name)
        if action is None or action in seen:
            return None
        seen.add(action)
        if action.nargs == 0:
            values[action.dest] = action.const
        else:
            given.append((action, next(rest, None)))
    if not required <= seen or any(len(seen.intersection(group)) > 1 for group in groups):
        return None
    for action, text in given:
        if text is None or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_read_plain(argv)``, or the full parser's namespace if it refuses the argv."""
    args = _read_plain(argv)
    return _shared_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    try:
        values, code, *timeless = args.handler(args)
        output = "\n".join(_render(value, args.format) for value in values)
        if args.manifest:
            stable = "\n".join(_render(v, args.format) for v in timeless[0]) if timeless else output
            manifest = {
                "command_line": argv,
                "version": __version__,
                "output_sha256": hashlib.sha256(stable.encode()).hexdigest(),
            }
            with open(args.manifest, "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except ParakatError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapExceeded) else DOMAIN_EXIT
    except (ValueError, KeyError, OSError) as exc:
        print(f"parakat: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if output:
        try:
            print(output, flush=True)
        except BrokenPipeError:  # the reader has gone: let the flush at exit go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
