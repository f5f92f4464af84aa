"""Operations and output checks of the three parakat benchmark workloads.

An operation is one ``parakat.cli.main(argv)`` call with its expected exit
code.  Inputs come from the seed through this file alone, without calling
parakat, so that set-up time is the import plus this generation.  Checks run
after the timed section and compare each output with a second route that
the library already has.

Why these workloads:

* ``tuple_sweep``: ``rtuples`` and ``rperms`` do nearly all the work and no
  tableau is built, so tuple-side changes show and tableau-side ones read flat.
* ``tableau_sweep``: ``tableaux`` dominates and four suites rebuild the same
  Demazure and row-bound sets, so set-builder, validation and memo changes
  show while ``rtuples`` barely registers.
* ``queries``: one-shot CLI calls that share nothing, which build large sets
  on shapes where the output is a small share of SSYT(lambda), reach ``polys``
  through divided differences and hit the input validation the sweeps never
  reach.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random

WORKLOADS = ("tuple_sweep", "tableau_sweep", "queries")

SWEEPS = {
    "full": {
        "tuple_sweep": [
            ("bijections", ["--max-n", "6"]),
            ("counts", ["--max-n", "6", "--poly-max-n", "0"]),
            ("lifts", ["--max-n", "5"]),
        ],
        "tableau_sweep": [
            (suite, ["--max-n", "4", "--max-col", "3", "--all-shapes"])
            for suite in ("convexity", "coincidence", "polynomials", "accidental")
        ],
    },
    "tiny": {
        "tuple_sweep": [
            ("bijections", ["--max-n", "3"]),
            ("counts", ["--max-n", "3", "--poly-max-n", "0"]),
            ("lifts", ["--max-n", "3"]),
        ],
        "tableau_sweep": [
            (suite, ["--max-n", "3", "--max-col", "2", "--all-shapes"])
            for suite in ("convexity", "coincidence", "polynomials", "accidental")
        ],
    },
}

# Every block of the query stream has the same composition, so blocks and
# seeds differ only in the parameters within each kind.  The kinds whose cost
# hangs on their parameters draw them through Spread.
QUERY_MIX = {
    "full": {
        "n_tuple": 9,
        "n_perm": 7,
        "per_kind": 14,
        "per_shape": 2,
        "invalid": 5,
        "shapes": [(3, (2, 1, 0)), (4, (2, 1, 1, 0)), (4, (3, 2, 1, 0)),
                   (5, (2, 2, 1, 0, 0)), (5, (3, 2, 1, 0, 0)), (5, (4, 3, 2, 1, 0))],
        "dd_shapes": [(3, (2, 1, 0)), (4, (3, 2, 1, 0)), (5, (3, 2, 1, 0, 0)),
                      (5, (4, 3, 2, 1, 0)), (6, (2, 2, 1, 1, 0, 0)),
                      (6, (5, 4, 3, 2, 1, 0))],
    },
    "tiny": {
        "n_tuple": 5,
        "n_perm": 4,
        "per_kind": 1,
        "per_shape": 1,
        "invalid": 1,
        "shapes": [(3, (2, 1, 0))],
        "dd_shapes": [(3, (2, 1, 0))],
    },
}

# Outputs on this shape are checked against pinned hashes: building its
# Demazure sets for a check takes seconds per query.  make_pins.py writes them.
STAIRCASE6 = (6, (5, 4, 3, 2, 1, 0))


class Op:
    """One CLI call, its expected exit code and what its check needs."""

    __slots__ = ("kind", "argv", "expect", "params")

    def __init__(self, kind, argv, expect=0, **params):
        self.kind = kind
        self.argv = argv
        self.expect = expect
        self.params = params


def build_ops(workload: str, seed: int, block: int, scale: str) -> list[Op]:
    """The operations of one job: a whole sweep, or one block of queries."""
    if workload in SWEEPS[scale]:
        return [
            Op("verify", ["verify", suite, *args, "--json"], 0, suite=suite)
            for suite, args in SWEEPS[scale][workload]
        ]
    if workload == "queries":
        return _query_block(random.Random(f"{seed}:{block}"), Spread(seed, block), QUERY_MIX[scale])
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# input generation, from the definitions and without parakat


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _rand_r(rng, n) -> tuple[int, ...]:
    return tuple(q for q in range(1, n) if rng.random() < 0.5)


def _carrels(n, r):
    qs = (0, *r, n)
    return list(zip(qs, qs[1:]))


def _rand_rperm(rng, n, r) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(v for lo, hi in _carrels(n, r) for v in sorted(values[lo:hi]))


def _avoids(p, r) -> bool:
    """No a <= q_h < b <= q_{h+1} < c with p_b < p_c < p_a."""
    n = len(p)
    qs = (0, *r, n)
    for h in range(1, len(qs) - 1):
        q, q_next = qs[h], qs[h + 1]
        for a in range(q):
            for b in range(q, q_next):
                if p[b] < p[a] and any(p[b] < p[c] < p[a] for c in range(q_next, n)):
                    return False
    return True


def _rand_avoiding(rng, n, r, want=True) -> tuple[int, ...]:
    while True:
        p = _rand_rperm(rng, n, r)
        if _avoids(p, r) == want:
            return p


@functools.cache
def _all_r(n) -> list[tuple[int, ...]]:
    return [tuple(q for q in range(1, n) if mask >> (q - 1) & 1) for mask in range(2 ** (n - 1))]


@functools.cache
def _all_rperms(n, r, avoiding=False) -> list[tuple[int, ...]]:
    perms = [p for p in itertools.permutations(range(1, n + 1))
             if all(list(p[lo:hi]) == sorted(p[lo:hi]) for lo, hi in _carrels(n, r))]
    return [p for p in perms if _avoids(p, r)] if avoiding else perms


def _inversions(p) -> int:
    return sum(a > b for a, b in itertools.combinations(p, 2))


class Spread:
    """Seeded picks that cover a list evenly over the blocks of one stream.

    The list is sorted by a cost proxy, ties in a seeded order, and the g-th
    pick of the stream lies at the golden-ratio point ``(offset + g * PHI) mod
    1`` of it, with a seeded offset.  A run of blocks then draws cheap and
    dear inputs in nearly the same proportions whatever the seed, so that
    its latency quantiles measure the program rather than the luck of a draw.
    """

    PHI = (5 ** 0.5 - 1) / 2

    def __init__(self, seed: int, block: int):
        self.seed, self.block = seed, block
        self.streams: dict[str, list] = {}  # key -> [sorted items, offset, picks in this block]

    def pick(self, key: str, per_block: int, items, cost):
        if key not in self.streams:
            rng = random.Random(f"{self.seed}:{key}")
            order = list(items)
            rng.shuffle(order)
            order.sort(key=cost)
            self.streams[key] = [order, rng.random(), 0]
        stream = self.streams[key]
        order, offset, i = stream
        assert i < per_block, f"more than {per_block} picks from {key} in one block"
        stream[2] += 1
        g = self.block * per_block + i
        return order[int((offset + g * self.PHI) % 1.0 * len(order))]


def _upper(rng, n) -> tuple[int, ...]:
    return tuple(rng.randint(i, n) for i in range(1, n + 1))


def _non_upper(rng, n) -> tuple[int, ...]:
    e = list(_upper(rng, n))
    i = rng.randint(2, n)
    e[i - 1] = rng.randint(1, i - 1)
    return tuple(e)


def column_lengths(parts) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def shape_r(n, parts) -> tuple[int, ...]:
    return tuple(sorted({z for z in column_lengths(parts) if z < n}))


def key_columns(p, parts) -> list[list[int]]:
    """Each column of length z holds the first z entries of p, sorted."""
    return [sorted(p[:z]) for z in column_lengths(parts)]


def rank_entries(p, r) -> tuple[int, ...]:
    """Position i of the carrel ending at q: the (q-i+1)-th largest of p[:q]."""
    out = []
    for lo, hi in _carrels(len(p), r):
        seen = sorted(p[:hi], reverse=True)
        out.extend(seen[hi - i] for i in range(lo + 1, hi + 1))
    return tuple(out)


def _rand_tableau(rng, n, parts) -> list[list[int]]:
    cols: list[list[int]] = []
    for z in column_lengths(parts):
        col: list[int] = []
        for i in range(z):
            lo = max(cols[-1][i] if cols else 1, col[-1] + 1 if col else 1)
            col.append(rng.randint(lo, n - (z - 1 - i)))
        cols.append(col)
    return cols


def _tab_json(n, parts, cols) -> str:
    return json.dumps({"lambda": list(parts), "n": n, "columns": cols})


def _lam(parts) -> str:
    return _csv(p for p in parts if p)


def _query_block(rng, spread, mix) -> list[Op]:
    ops: list[Op] = []
    n9, n7 = mix["n_tuple"], mix["n_perm"]
    for kind in ("critlist", "core", "classify"):
        for _ in range(mix["per_kind"]):
            r, e = _rand_r(rng, n9), _upper(rng, n9)
            ops.append(Op(kind, [kind, "--n", str(n9), "--R", _csv(r), "--tuple", _csv(e), "--json"],
                          n=n9, r=r, entries=e))
    for _ in range(mix["per_kind"]):
        r = spread.pick("count_cnr", mix["per_kind"], _all_r(n7), len)
        ops.append(Op("count_cnr", ["count", "cnr", "--n", str(n7), "--R", _csv(r), "--json"], n=n7, r=r))
    for kind, argv0 in (("perm_lifts", ["perm", "lifts"]), ("map_psi", ["map", "psi"])):
        for _ in range(mix["per_kind"]):
            r = _rand_r(rng, n7)
            p = _rand_avoiding(rng, n7, r)
            ops.append(Op(kind, [*argv0, "--n", str(n7), "--R", _csv(r), "--perm", _csv(p), "--json"],
                          n=n7, r=r, perm=p))
    for n, parts in mix["shapes"]:
        r = shape_r(n, parts)
        base = ["--n", str(n), "--lambda", _lam(parts)]

        def pick(kind, avoiding=False):
            items = _all_rperms(n, r, avoiding)
            return spread.pick(f"{kind}:{n}:{_lam(parts)}", mix["per_shape"], items, _inversions)

        for _ in range(mix["per_shape"]):
            cols = _rand_tableau(rng, n, parts)
            ops.append(Op("tab_scan", ["tab", "scan", *base, "--tab", _tab_json(n, parts, cols), "--json"],
                          n=n, parts=parts, cols=cols))
            p = _rand_rperm(rng, n, r)
            ops.append(Op("tab_key", ["tab", "key", *base, "--perm", _csv(p), "--json"], n=n, parts=parts, perm=p))
            p = pick("set_demazure")
            ops.append(Op("set_demazure", ["set", "demazure", *base, "--perm", _csv(p), "--json"],
                          n=n, parts=parts, perm=p))
            p = pick("set_rowbound", avoiding=True)
            ops.append(Op("set_rowbound", ["set", "rowbound", *base, "--tuple", _csv(rank_entries(p, r)), "--json"],
                          n=n, parts=parts, perm=p))
            p = pick("set_ideal", avoiding=True)
            top = _tab_json(n, parts, key_columns(p, parts))
            ops.append(Op("set_ideal", ["set", "ideal", *base, "--tab", top, "--json"], n=n, parts=parts, perm=p))
            p = pick("poly_demazure")
            ops.append(Op("poly_demazure", ["poly", "demazure", *base, "--perm", _csv(p), "--json"],
                          n=n, parts=parts, perm=p))
            p = pick("poly_rowboundsum", avoiding=True)
            ops.append(Op("poly_rowboundsum",
                          ["poly", "rowboundsum", *base, "--tuple", _csv(rank_entries(p, r)), "--json"],
                          n=n, parts=parts, perm=p))
    for n, parts in mix["dd_shapes"]:
        items = _all_rperms(n, shape_r(n, parts))
        for _ in range(mix["per_shape"]):
            p = spread.pick(f"poly_dd:{n}:{_lam(parts)}", mix["per_shape"], items, _inversions)
            ops.append(Op("poly_dd", ["poly", "dd", "--n", str(n), "--lambda", _lam(parts), "--perm", _csv(p), "--json"],
                          n=n, parts=parts, perm=p))
    for _ in range(mix["invalid"]):
        for kind in ("critlist", "core"):
            r, e = _rand_r(rng, n9), _non_upper(rng, n9)
            ops.append(Op(kind, [kind, "--n", str(n9), "--R", _csv(r), "--tuple", _csv(e), "--json"], 65))
        r = _rand_r(rng, n7)
        while len(r) < 2:
            r = _rand_r(rng, n7)
        p = _rand_avoiding(rng, n7, r, want=False)
        ops.append(Op("perm_lifts", ["perm", "lifts", "--n", str(n7), "--R", _csv(r), "--perm", _csv(p), "--json"], 65))
        n, parts = mix["shapes"][-1]
        text = _tab_json(n, parts, _rand_tableau(rng, n, parts))
        ops.append(Op("tab_scan", ["tab", "scan", "--n", str(n), "--tab", text[: rng.randint(1, len(text) - 1)], "--json"], 64))
    rng.shuffle(ops)
    return ops


def exit_histogram(ops) -> dict[str, int]:
    hist: dict[str, int] = {}
    for op in ops:
        hist[str(op.expect)] = hist.get(str(op.expect), 0) + 1
    return dict(sorted(hist.items()))


def poly_digest(terms) -> str:
    """Order-free digest of a polynomial given as (exponent, coefficient) pairs."""
    canon = json.dumps(sorted((list(exp), coef) for exp, coef in terms))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# checks, run after the timed section


class Checker:
    """Checks outputs against second routes; memoizes the routes' results."""

    def __init__(self, pins: dict, scale: str):
        import parakat
        from parakat import polys, rperms, rtuples, tableaux

        self.pk, self.polys, self.rperms, self.rtuples, self.tab = parakat, polys, rperms, rtuples, tableaux
        self.pins = pins
        self.scale = scale
        self._memo: dict = {}

    def _cached(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def check(self, op: Op, code, out: str) -> bool:
        if code != op.expect:
            return False
        if op.expect != 0:
            return True
        return getattr(self, "_" + op.kind)(op, out)

    # -- sweeps

    def _verify(self, op, out):
        (report,) = json.loads(out)
        pinned = self.pins["suite_instances"][self.scale][op.params["suite"]]
        return report["verdict"] == "pass" and report["instances"] == pinned

    # -- tuple and permutation queries

    def _tuple(self, op):
        return self.pk.RTuple.of(op.params["n"], op.params["r"], op.params["entries"])

    def _perm(self, op):
        n, perm = op.params["n"], op.params["perm"]
        r = op.params["r"] if "r" in op.params else shape_r(n, op.params["parts"])
        return self.pk.RPermutation.of(n, r, perm)

    def _critlist(self, op, out):
        rt = self.rtuples
        t = self._tuple(op)
        c = rt.CriticalList.from_json_dict(json.loads(out))
        lo, hi = rt.from_critical_list(c, "increasing"), rt.from_critical_list(c, "shell")
        between = all(a <= b <= d for a, b, d in zip(lo.entries, t.entries, hi.entries))
        return c.r_subset == t.r_subset and between and rt.critical_list(lo) == c

    def _core(self, op, out):
        rt = self.rtuples
        t = self._tuple(op)
        d = rt.RTuple.from_json_dict(json.loads(out))
        below = all(a <= b for a, b in zip(d.entries, t.entries))
        return (below and rt.is_upper(d) and rt.is_r_increasing(d)
                and rt.critical_list(d) == rt.critical_list(t))

    def _classify(self, op, out):
        rt = self.rtuples
        t = self._tuple(op)
        expected = {
            "upper": rt.is_upper(t),
            "flag": rt.is_weakly_increasing(t),
            "increasing": rt.is_r_increasing(t),
            "gapless": rt.is_gapless_staircase(t),
            "gapless_core": rt.is_gapless_core(t),
            "shell": rt.is_shell(t),
            "canopy": rt.is_canopy(t),
            "floor_flag": rt.is_floor_flag(t),
            "ceiling_flag": rt.is_ceiling_flag(t),
        }
        return json.loads(out) == expected

    def _count_cnr(self, op, out):
        n, r = op.params["n"], op.params["r"]
        gapless = self._cached(
            ("gapless", n, r),
            lambda: sum(1 for _ in self.rtuples.enumerate_tuples(n, r, "gapless")),
        )
        return json.loads(out) == {"count": gapless}

    def _perm_lifts(self, op, out):
        rp = self.rperms
        n, p = op.params["n"], self._perm(op)
        words = [tuple(json.loads(line)["one_line"]) for line in out.splitlines()]
        avoiding = self._cached(
            ("312", n),
            lambda: [w for w in itertools.permutations(range(1, n + 1)) if rp.is_312_avoiding(w)],
        )
        return words == sorted(w for w in avoiding if rp.r_projection(w, p.r_subset) == p)

    def _map_psi(self, op, out):
        g = self.rtuples.RTuple.from_json_dict(json.loads(out))
        p = self._perm(op)
        return g.entries == rank_entries(op.params["perm"], op.params["r"]) and self.rperms.pi_map(g) == p

    # -- tableau queries

    def _shape(self, op):
        return self.tab.Shape(op.params["n"], op.params["parts"])

    def _dd(self, op):
        n, parts, perm = op.params["n"], op.params["parts"], op.params["perm"]
        return self._cached(("dd", n, parts, perm), lambda: self.polys.demazure_poly_dd(self._perm(op), self._shape(op)))

    def _dd_size(self, op) -> int:
        return sum(coef for _, coef in self._dd(op).terms)

    def _members(self, op, out):
        shape = self._shape(op)
        cols = json.loads(out)["tableaux"]
        members = [self.tab.Tableau(shape, tuple(tuple(c) for c in tc)) for tc in cols]
        return members if len(set(members)) == len(members) else None

    def _tab_scan(self, op, out):
        tb = self.tab
        t = tb.Tableau(self._shape(op), tuple(tuple(c) for c in op.params["cols"]))
        y = tb.Tableau.from_json_dict(json.loads(out))
        return tb.is_key(y) and tb.entrywise_le(t, y) and tb.scanning(y) == y

    def _tab_key(self, op, out):
        tb = self.tab
        y = tb.Tableau.from_json_dict(json.loads(out))
        return (tb.is_key(y)
                and [list(c) for c in y.columns] == key_columns(op.params["perm"], op.params["parts"])
                and tb.content(y) == self.polys.compose_alpha(self._perm(op), self._shape(op)))

    def _set_demazure(self, op, out):
        members = self._members(op, out)
        key = self.tab.key_of_perm(self._perm(op), self._shape(op))
        return (members is not None and len(members) == self._dd_size(op)
                and all(self.tab.in_demazure_set(t, key) for t in members))

    def _set_rowbound(self, op, out):
        members = self._members(op, out)
        p = self._perm(op)
        b = self.pk.RTuple(p.r_subset, rank_entries(op.params["perm"], p.r_subset.elements))
        return (members is not None and len(members) == self._dd_size(op)
                and all(self.tab.in_row_bound_set(t, b) for t in members))

    def _set_ideal(self, op, out):
        members = self._members(op, out)
        top = self.tab.key_of_perm(self._perm(op), self._shape(op))
        return (members is not None and len(members) == self._dd_size(op)
                and all(self.tab.entrywise_le(t, top) for t in members))

    def _poly(self, out):
        return self.polys.Polynomial.from_json_dict(json.loads(out))

    def _poly_demazure(self, op, out):
        return self._poly(out) == self._dd(op)

    # the bound is the rank tuple of an avoiding permutation, whose row-bound
    # set is that permutation's Demazure set
    _poly_rowboundsum = _poly_demazure

    def _poly_dd(self, op, out):
        got = self._poly(out)
        if (op.params["n"], op.params["parts"]) == STAIRCASE6:
            return poly_digest(got.terms) == self.pins["staircase6_demazure"][_csv(op.params["perm"])]
        expected = self.polys.gen_fn(self.tab.demazure_set(self._perm(op), self._shape(op))).poly
        return got == expected
