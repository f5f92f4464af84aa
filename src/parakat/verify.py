"""Named verification suites: each one exhaustively instantiates a theorem at
desk scale and reports pass/fail with counterexample payloads.

Suites are deterministic and idempotent.  A fail verdict always carries the
counterexamples, sorted so the first is canonical-minimal.  Results depend
only on the carrel set of a shape, so by default each suite visits one
canonical shape per carrel set (one column of every length); ``all_shapes``
re-enables the full sweep as a consistency check.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass

from .errors import CapExceeded
from .polys import Polynomial, _demazure_walk, compose_alpha
from .rperms import (
    RPermutation,
    _all_lifts,
    _avoiding_count,
    _avoids_312,
    _minimal_lift,
    _pi_entries,
    _pi_map,
    _projected_core,
    _ranks,
    _sorted_carrels,
    count_total,
    enumerate_rperms,
    inversions,
    is_312_avoiding,
    is_r312_avoiding,
    pi_map,
    rank_tuple,
)
from .rtuples import (
    RTuple,
    _boundary_count,
    _critical_pairs,
    _fill,
    _gapless,
    _staircase_below,
    _unchecked,
    ceiling_map,
    classify,
    core,
    critical_list,
    enumerate_tuples,
    floor_map,
    is_gapless,
)
from .tableaux import (
    Shape,
    ShapeTableaux,
    _below_row_ends,
    _ideal_weights,
    _pack,
    _require_within_cap,
    _unpack,
    _width,
    content,
    count_ideal,
    ideal,
    in_demazure_set,
    is_key,
    key_of_perm,
)

MAX_SUITE_N = 8
# bijections, lifts and counts' tuple level build no tableau, and run one n further
_MAX_TUPLE_SUITE_N = 9


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    params: tuple[tuple[str, object], ...]
    instances: int
    counterexamples: tuple
    wall_time: float

    @property
    def verdict(self) -> str:
        return "fail" if self.counterexamples else "pass"

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "instances": self.instances,
            "verdict": self.verdict,
            "counterexamples": list(self.counterexamples),
            "wall_time": self.wall_time,
        }

    def to_text(self) -> str:
        head = (
            f"suite={self.suite} verdict={self.verdict} "
            f"instances={self.instances} wall={self.wall_time:.2f}s "
            f"params={dict(self.params)}"
        )
        if not self.counterexamples:
            return head
        shown = self.counterexamples[:5]
        lines = [head, f"counterexamples ({len(self.counterexamples)} total):"]
        lines += ["  " + json.dumps(c, sort_keys=True) for c in shown]
        return "\n".join(lines)


def _json_value(value):
    """Sequences become arrays; bool, int and str stay; the rest is its text."""
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, (bool, int, str)):
        return value
    return str(value)


class _Run:
    """Accumulates instance checks and counterexamples for one suite."""

    def __init__(self, suite: str, **params):
        self.suite = suite
        self.params = tuple(sorted(params.items()))
        self.instances = 0
        self.bad: list = []
        self.started = time.perf_counter()

    def check(self, ok: bool, **payload) -> None:
        """Count one instance; a failing one keeps its payload in JSON form."""
        self.instances += 1
        if not ok:
            self.bad.append({k: _json_value(v) for k, v in payload.items()})

    def report(self) -> SuiteReport:
        bad = tuple(sorted(self.bad, key=lambda c: json.dumps(c, sort_keys=True)))
        return SuiteReport(
            suite=self.suite,
            params=self.params,
            instances=self.instances,
            counterexamples=bad,
            wall_time=time.perf_counter() - self.started,
        )


def _check_ranges(max_n: int, cap: int = MAX_SUITE_N, **bounds: int) -> None:
    """Refuse a bound not of type int (a bool is not), an empty n range, one
    past ``cap``, and a negative bound."""
    for name, value in {"max_n": max_n, **bounds}.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if max_n < 1:
        raise ValueError(f"suite range n={max_n} is empty; it must be at least 1")
    if max_n > cap:
        raise CapExceeded(f"suite range n={max_n} exceeds the cap of {cap}")
    for name, value in bounds.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def subsets_of_interval(n: int):
    """All divider sets inside [n-1], by size then lexicographically."""
    for k in range(n):
        yield from itertools.combinations(range(1, n), k)


def canonical_shape(n: int, r_elements: tuple[int, ...]) -> Shape:
    """One column of each length in R: the smallest shape with that carrel set."""
    parts = tuple(sum(1 for q in r_elements if q >= i) for i in range(1, n + 1))
    return Shape(n, parts)


def shapes_in_range(max_n: int, max_col: int, all_shapes: bool = False) -> list[Shape]:
    """Shapes with at most max_n rows and columns no longer than needed.

    With ``all_shapes`` every partition with at most max_col columns per row
    appears; otherwise one canonical shape per (n, carrel set).
    """
    out: list[Shape] = []
    for n in range(1, max_n + 1):
        if all_shapes:
            for parts in itertools.combinations_with_replacement(
                range(max_col, -1, -1), n
            ):
                out.append(Shape(n, parts))
        else:
            for r_elements in subsets_of_interval(n):
                if len(r_elements) > max_col:
                    continue
                out.append(canonical_shape(n, r_elements))
    return out


def _by_carrel_set(shapes: list[Shape]) -> list[tuple[tuple[int, tuple[int, ...]], list[Shape]]]:
    """The shapes grouped by (n, carrel set), in order of first appearance.

    The tuple side of a suite depends on (n, R) alone, so a suite builds it
    once per group and reads it on each of the group's shapes.
    """
    groups: dict = {}
    for shape in shapes:
        groups.setdefault((shape.n, shape.r_subset.elements), []).append(shape)
    return list(groups.items())


def catalan(n: int) -> int:
    out = 1
    for i in range(n):
        out = out * 2 * (2 * i + 1) // (i + 2)
    return out


# ---------------------------------------------------------------------------
# suites


def suite_bijections(max_n: int = 6) -> SuiteReport:
    """Rank tuple vs its inverse, and core vs floor/ceiling, are mutual inverses.

    Each map runs as its kernel on the enumerated objects' entries and the
    carrel bounds, so no other tuple, permutation or critical list is built."""
    _check_ranges(max_n, _MAX_TUPLE_SUITE_N)
    run = _Run("bijections", max_n=max_n)
    for n in range(1, max_n + 1):
        for r_elements in subsets_of_interval(n):
            qs = (0, *r_elements, n)
            for p in enumerate_rperms(n, r_elements, avoiding_only=True):
                e = p.entries
                psi = _ranks(e, qs)
                run.check(
                    _gapless(psi, qs) and _pi_entries(psi, qs) == e,
                    n=n, R=r_elements, pi=p, law="pi(psi)=id",
                )
            for g in enumerate_tuples(n, r_elements, "gapless"):
                e = g.entries
                pairs = [_critical_pairs(e[lo:hi], lo) for lo, hi in zip(qs, qs[1:])]
                floor, ceiling = _fill(pairs, qs, "floor"), _fill(pairs, qs, "ceiling")
                run.check(_ranks(_pi_entries(e, qs), qs) == e, n=n, R=r_elements, gamma=g, law="psi(pi)=id")
                run.check(_staircase_below(floor, qs) == e, n=n, R=r_elements, gamma=g, law="core(floor)=id")
                run.check(
                    _staircase_below(ceiling, qs) == e, n=n, R=r_elements, gamma=g, law="core(ceiling)=id"
                )
    return run.report()


def suite_counts(max_n: int = 6, poly_max_n: int = 4) -> SuiteReport:
    """Equinumerosity of the families counted by the parabolic Catalan number.

    Tuple-level families run to max_n; the polynomial-level counts (distinct
    Demazure and flag Schur polynomials, coincident pairs) are far costlier
    and run to poly_max_n on the canonical shape of each carrel set.  Each
    tuple-level family is sized by a boundary transfer that builds no member
    (``rtuples._boundary_count``), and compared with the avoiding
    R-permutations of its R, tallied over the pruned walk's shared subtrees
    (``rperms._avoiding_count``), and each n's total over all R with the
    transfer-matrix :func:`count_total`.  n <= 8 with no polynomials: 0.3 s.
    """
    _check_ranges(max_n, _MAX_TUPLE_SUITE_N, poly_max_n=poly_max_n)
    poly_n = min(max_n, poly_max_n)  # the polynomial level keeps the tableau suites' cap
    if poly_n > MAX_SUITE_N:
        raise CapExceeded(f"polynomial range n={poly_n} exceeds the cap of {MAX_SUITE_N}")
    run = _Run("counts", max_n=max_n, poly_max_n=poly_max_n)
    for n in range(1, max_n + 1):
        total_by_filter = 0
        for r_elements in subsets_of_interval(n):
            cnr = _avoiding_count(n, r_elements)
            total_by_filter += cnr
            base = {"n": n, "R": r_elements, "cnr": cnr}
            counts = {
                "gapless": _boundary_count(n, r_elements, "gapless"),
                "flag_critical_lists": _boundary_count(n, r_elements, None),
                "canopy": _boundary_count(n, r_elements, "canopy"),
                "floor": _boundary_count(n, r_elements, "floor"),
                "ceiling": _boundary_count(n, r_elements, "ceiling"),
                "classes_gapless_core": _boundary_count(n, r_elements, "gapless-core", classes=True),
                "classes_upper_flags": _boundary_count(n, r_elements, "flag", classes=True),
            }
            if n <= poly_max_n:
                counts.update(_polynomial_counts(canonical_shape(n, r_elements)))
            for family, value in counts.items():
                run.check(value == cnr, **base, family=family, count=value)
            if r_elements == tuple(range(1, n)):
                run.check(cnr == catalan(n), **base, family="catalan", count=cnr)
        total_by_transfer = count_total(n)
        run.check(
            total_by_filter == total_by_transfer,
            n=n, family="total_two_routes",
            by_avoidance_filter=total_by_filter, by_transfer_matrix=total_by_transfer,
        )
    return run.report()


def _polynomial_counts(shape: Shape) -> dict:
    """Counts' polynomial-level families on a canonical shape.  D(p) is an ideal
    exactly when it is convex, and then the ideal of key(p); a row-bound set is
    the ideal of its maximum.  So a maximum that is a convex key has that key's κ,
    and any other is weighed by its ideal: no flag's polynomial is assumed."""
    kappa_of, avoiding = {}, set()  # each convex key -> its κ; the κ of avoiding indexes
    for p, y, convex, terms in _convexity(shape):
        avoids = is_r312_avoiding(p)
        kappa = _terms_key(terms) if convex or avoids else None  # no other κ is compared
        if convex:
            kappa_of[y.columns] = kappa
        if avoids:
            avoiding.add(kappa)
    n, r_elements, width = shape.n, shape.r_subset.elements, _width(shape.parts[0])
    flags = (_below_row_ends(phi.entries, shape) for phi in enumerate_tuples(n, r_elements, "flag"))
    maxima = {
        _below_row_ends(a.entries, shape).columns
        for a in enumerate_tuples(n, r_elements, "increasing")
    }
    return {
        "demazure_polynomials": len(avoiding),
        "flag_schur_polynomials": len({
            kappa_of.get(top.columns)
            or _terms_key(Counter(_pack(content(t), width) for t in ideal(top)))
            for top in flags
        }),
        "coincident_pairs": len(maxima & kappa_of.keys()),
    }


def _terms_key(terms: dict) -> tuple:
    """Packed terms as one flat tuple of their sorted (monomial, coefficient)
    items: equal exactly when the polynomials are, and far lighter to hold
    than a frozenset of pairs."""
    return tuple(itertools.chain.from_iterable(sorted(terms.items())))


def _convexity(shape: Shape):
    """Each index p of a shape within the cap, its key y, whether D(p) is the
    ideal of y, and κ_p, packed.  D(p) lies in that ideal (t <= scanning(t) <=
    y for each member), so it is the ideal when the sizes agree; |D(p)| is
    κ_p(1, ..., 1) by the Demazure character formula, which polynomials checks."""
    _require_within_cap(shape)
    for entries, terms in _demazure_walk(shape):
        p = _unchecked(RPermutation, r_subset=shape.r_subset, entries=entries)
        y = key_of_perm(p, shape)
        yield p, y, sum(terms.values()) == count_ideal(y), terms


def suite_convexity(max_n: int = 4, max_col: int = 3, all_shapes: bool = False) -> SuiteReport:
    """Demazure sets are convex exactly for avoiding indexes, exactly as ideals
    (:func:`_convexity`)."""
    _check_ranges(max_n, max_col=max_col)
    run = _Run("convexity", max_n=max_n, max_col=max_col, all_shapes=all_shapes)
    for shape in shapes_in_range(max_n, max_col, all_shapes):
        for p, y, convex, _ in _convexity(shape):
            avoiding = is_r312_avoiding(p)
            is_ideal = convex and in_demazure_set(y, y)
            run.check(
                convex == avoiding == is_ideal,
                shape=shape.parts, n=shape.n, pi=p,
                avoiding=avoiding, convex=convex, equals_ideal=is_ideal,
            )
    return run.report()


def suite_coincidence(max_n: int = 4, max_col: int = 3, all_shapes: bool = False) -> SuiteReport:
    """Row-bound sets arise as Demazure sets exactly on gapless cores.

    For every upper bound tuple: if its core is gapless the unique matching
    index is the image of the core, the maxima agree, and no other index
    matches; otherwise no index matches at all.  A row-bound set is the ideal
    of its maximum, so it is D(p) exactly when that is p's key and D(p) is convex.
    """
    _check_ranges(max_n, max_col=max_col)
    run = _Run("coincidence", max_n=max_n, max_col=max_col, all_shapes=all_shapes)
    for (n, r_elements), shapes in _by_carrel_set(shapes_in_range(max_n, max_col, all_shapes)):
        bounds = []  # each upper bound, its core, and the core's image if it is gapless
        for b in enumerate_tuples(n, r_elements, "upper"):
            delta = core(b)
            bounds.append((b, delta, _pi_map(delta) if is_gapless(delta) else None))
        for shape in shapes:
            base = {"shape": shape.parts, "n": n}
            convex_keys = {y.columns: p for p, y, convex, _ in _convexity(shape) if convex}
            gapless_maxima = {}
            for b, delta, p in bounds:
                top = _below_row_ends(b.entries, shape)
                matches = [convex_keys[top.columns]] if top.columns in convex_keys else []
                if p is None:
                    ok = matches == []
                else:
                    ok = matches == [p] and top == key_of_perm(p, shape)
                    gapless_maxima[delta.entries] = top
                run.check(ok, **base, beta=b, core=delta, matches=matches)
            run.check(
                len(gapless_maxima) == len(set(gapless_maxima.values())),
                **base, law="gapless tuples index coincident sets faithfully",
            )
    return run.report()


def suite_polynomials(max_n: int = 4, max_col: int = 3, all_shapes: bool = False) -> SuiteReport:
    """Polynomial-level laws: oracle agreement, set-level coincidences,
    injectivity of the two indexings, and content shape-detection.

    Every polynomial is packed at one width for the whole range, so equal
    polynomials of any two shapes have equal flat terms (:func:`_terms_key`),
    and the owner tables find them by that key."""
    _check_ranges(max_n, max_col=max_col)
    run = _Run("polynomials", max_n=max_n, max_col=max_col, all_shapes=all_shapes)
    width = _width(max_col)  # no shape in range has a part above max_col
    s_poly_owner: dict = {}
    d_poly_owner: dict = {}
    for (n, r_elements), shapes in _by_carrel_set(shapes_in_range(max_n, max_col, all_shapes)):
        perms = list(enumerate_rperms(n, r_elements))
        ranks = {p: rank_tuple(p) for p in perms if is_r312_avoiding(p)}  # the avoiding ones
        cores = [
            (delta, is_gapless(delta)) for delta in enumerate_tuples(n, r_elements, "increasing")
        ]
        bounds = [(b, core(b).entries) for b in enumerate_tuples(n, r_elements, "upper")]
        images = [  # each gapless-core bound and the image of its core
            (eta, _pi_map(core(eta))) for eta in enumerate_tuples(n, r_elements, "gapless-core")
        ]
        flags = list(enumerate_tuples(n, r_elements, "flag"))
        for shape in shapes:
            shape_key = (n, shape.parts)
            atlas = ShapeTableaux(shape, width)
            keys = {p: key_of_perm(p, shape) for p in perms}
            d_cells = {p: atlas.demazure_cells(y) for p, y in keys.items()}
            base = {"shape": shape.parts, "n": n}

            # the polynomials that convexity and coincidence size their sets by
            walked = dict(_demazure_walk(shape, width))
            d_polys = {}  # each index's Demazure polynomial, as its flat terms
            for p in perms:
                terms = atlas.weights(d_cells[p])
                run.check(
                    terms == walked[p.entries], **base, pi=p,
                    law="scanning route equals recursion route",
                )
                run.check(
                    compose_alpha(p, shape) == content(keys[p]),
                    **base, pi=p, law="key content is the placed composition",
                )
                d_polys[p] = _terms_key(terms)
                owner = d_poly_owner.setdefault((n, d_polys[p]), (shape_key, p))
                run.check(
                    owner == (shape_key, p), **base, pi=p, law="demazure polynomials are faithful"
                )

            # one scan per upper bound: cores, rank tuples and gapless-core bounds are
            # all upper, and a bound's set is read off its row ends, never through its core
            s_cells = {b.entries: atlas.row_bound_cells(b) for b, _ in bounds}
            for b, core_entries in bounds:
                run.check(
                    s_cells[b.entries] == s_cells.get(core_entries),
                    **base, beta=b, law="bounds and their core agree",
                )
            s_polys = {}  # each core's row bound sum, as its flat terms
            for delta, _ in cores:
                terms = atlas.weights(s_cells[delta.entries])
                h = Polynomial._of(n, _unpack(terms, n, width))
                run.check(
                    h.total_degrees() <= {shape.size} and h.coefficient(shape.parts) == 1,
                    **base, core=delta, law="degree and leading weight",
                )
                s_polys[delta] = _terms_key(terms)
                owner = s_poly_owner.setdefault((n, s_polys[delta]), shape_key)
                run.check(
                    owner == shape_key, **base, core=delta, law="row bound sums detect the shape"
                )

            for p, psi in ranks.items():
                run.check(
                    d_cells[p] == s_cells.get(psi.entries),
                    **base, pi=p, law="avoiding index matches its rank bounds",
                )
            for eta, p in images:
                run.check(
                    s_cells[eta.entries] == d_cells.get(p),
                    **base, eta=eta, law="gapless-core bounds match an index",
                )

            # each polynomial's owners in enumeration order, so equal polynomials are looked up
            perms_of: dict = {}
            for p in perms:
                perms_of.setdefault(d_polys[p], []).append(p)
            cores_of: dict = {}
            for delta, _ in cores:
                cores_of.setdefault(s_polys[delta], []).append(delta)
            for delta, gapless in cores:
                h = s_polys[delta]
                for p in perms_of.get(h, ()):
                    ok = (
                        p in ranks
                        and gapless
                        and delta == ranks[p]
                        and _below_row_ends(delta.entries, shape) == keys[p]
                        and s_cells[delta.entries] == d_cells[p]
                    )
                    run.check(
                        ok,
                        **base, core=delta, pi=p,
                        law="polynomial coincidence forces the set coincidence",
                    )
                if not gapless:
                    continue
                for other in cores_of[h]:
                    run.check(
                        other == delta,
                        **base, core=other, eta=delta,
                        law="gapless-core sums admit no accidental equals",
                    )

            for phi in flags:
                run.check(
                    is_key(_below_row_ends(phi.entries, shape)),
                    **base, phi=phi, law="row bound max of a flag is a key",
                )
    return run.report()


def suite_lifts(max_n: int = 5) -> SuiteReport:
    """Minimal and general 312-avoiding lifts of avoiding carrel permutations.

    The projections, avoidance and rank cores run as kernels on entry tuples
    and the carrel bounds, and the lifts are grouped by their projection's
    entries."""
    _check_ranges(max_n, _MAX_TUPLE_SUITE_N)
    run = _Run("lifts", max_n=max_n)
    for n in range(1, max_n + 1):
        perms312 = [
            w
            for w in itertools.permutations(range(1, n + 1))
            if is_312_avoiding(w)
        ]
        for r_elements in subsets_of_interval(n):
            qs = (0, *r_elements, n)
            # projection -> the avoiding permutations projecting to it; each
            # list is sorted, since itertools.permutations yields them in
            # lexicographic order
            lifts_of: dict = {}
            for w in perms312:
                image = _sorted_carrels(w, qs)
                lifts_of.setdefault(image, []).append(w)
                run.check(
                    _avoids_312(image, qs),
                    n=n, R=r_elements, sigma=w, law="projection preserves avoidance",
                )
            for p in enumerate_rperms(n, r_elements, avoiding_only=True):
                e = p.entries
                ml = _minimal_lift(p)
                lifts = list(_all_lifts(p))
                oracle = lifts_of.get(e, [])
                run.check(lifts == oracle, n=n, R=r_elements, pi=p, law="lift recipe equals filter")
                run.check(
                    is_312_avoiding(ml) and _sorted_carrels(ml, qs) == e,
                    n=n, R=r_elements, pi=p, law="minimal lift is an avoiding lift",
                )
                lm = inversions(ml)
                run.check(
                    ml in lifts and all(inversions(w) > lm for w in lifts if w != ml),
                    n=n, R=r_elements, pi=p, law="minimal lift has strictly least length",
                )
                psi = _ranks(e, qs)
                run.check(
                    all(_projected_core(w, qs) == psi for w in lifts),
                    n=n, R=r_elements, pi=p, law="all lifts share the projected rank core",
                )
    return run.report()


def search_accidental(max_n: int = 4, max_col: int = 3, all_shapes: bool = False) -> SuiteReport:
    """Hunt for equal row-bound sums whose bounds are inequivalent.

    Only bounds outside the gapless-core family can participate, so the scan
    runs over non-gapless cores; a find is reported as a counterexample
    payload (it would answer an open search, so it is never suppressed).
    A row-bound set is the ideal of its maximum, so each sum is its packed
    transfer (:func:`tableaux._ideal_weights`) and no tableau is built.  The
    sums are grouped by the hash of their terms, and only cores whose sums
    share a hash are weighed again and grouped by the terms themselves, so
    no shape holds all its sums at once.
    """
    _check_ranges(max_n, max_col=max_col)
    run = _Run("accidental", max_n=max_n, max_col=max_col, all_shapes=all_shapes)
    for (n, r_elements), shapes in _by_carrel_set(shapes_in_range(max_n, max_col, all_shapes)):
        increasing = enumerate_tuples(n, r_elements, "increasing")
        non_gapless = [delta for delta in increasing if not is_gapless(delta)]
        for shape in shapes:
            _require_within_cap(shape)
            by_hash: dict = {}
            for delta in non_gapless:
                by_hash.setdefault(hash(_row_bound_terms(delta, shape)), []).append(delta)
            for alike in by_hash.values():
                by_poly: dict = {}  # the terms -> their cores, where two sums share a hash
                for delta in alike:
                    terms = _row_bound_terms(delta, shape) if len(alike) > 1 else None
                    by_poly.setdefault(terms, []).append(delta)
                for deltas in by_poly.values():
                    run.check(
                        len(deltas) == 1, shape=shape.parts, n=n, cores=deltas,
                        polynomial=_RowBoundSum(deltas[0], shape),
                    )
    return run.report()


def _row_bound_terms(delta: RTuple, shape: Shape) -> frozenset:
    """The row-bound sum of ``delta`` on ``shape``, as its packed terms."""
    top = _below_row_ends(delta.entries, shape)
    return frozenset(_ideal_weights(top, _width(shape.parts[0])).items())


class _RowBoundSum:
    """A row-bound sum whose text, that of its :class:`Polynomial`, is
    weighed only when a payload is written."""

    def __init__(self, delta: RTuple, shape: Shape):
        self.delta, self.shape = delta, shape

    def __str__(self) -> str:
        n, terms = self.shape.n, dict(_row_bound_terms(self.delta, self.shape))
        return str(Polynomial._of(n, _unpack(terms, n, _width(self.shape.parts[0]))))


def suite_tables() -> SuiteReport:
    """Byte-exact fidelity of the worked classification and map examples."""
    run = _Run("tables")
    classify_rows = [
        ((2, 6, 7, 4, 5, 7, 8, 9, 9), "increasing", True),
        ((3, 5, 5, 6, 4, 7, 8, 9, 9), "increasing", False),
        ((4, 5, 5, 4, 8, 7, 8, 8, 9), "gapless_core", True),
        ((4, 5, 5, 4, 8, 7, 8, 9, 9), "gapless_core", False),
        ((2, 4, 6, 4, 5, 6, 7, 9, 9), "gapless", True),
        ((2, 4, 6, 4, 6, 7, 8, 9, 9), "gapless", False),
        ((2, 4, 5, 5, 5, 6, 8, 9, 9), "floor_flag", True),
        ((2, 4, 5, 5, 5, 8, 8, 9, 9), "floor_flag", False),
        ((1, 4, 4, 5, 5, 9, 9, 9, 9), "ceiling_flag", True),
        ((1, 4, 4, 5, 5, 7, 8, 9, 9), "ceiling_flag", False),
    ]
    for entries, family, expected in classify_rows:
        t = RTuple.of(9, (3, 8), entries)
        got = getattr(classify(t), family)
        run.check(got == expected, tuple=t, family=family, expected=expected, got=got)
    perm_rows = [
        ((2, 3, 6, 1, 4, 5, 8, 9, 7), True),
        ((2, 4, 6, 1, 3, 7, 8, 9, 5), False),
    ]
    for entries, expected in perm_rows:
        p = RPermutation.of(9, (3, 8), entries)
        run.check(is_r312_avoiding(p) == expected, perm=p, expected=expected)
    # each worked map's input type and the map itself
    maps = {
        "psi": (RPermutation, rank_tuple),
        "core": (RTuple, core),
        "pi": (RTuple, pi_map),
        "floor": (RTuple, floor_map),
        "ceiling": (RTuple, ceiling_map),
    }
    map_rows = [
        ("psi", (2, 4, 6, 1, 5, 7, 8, 9, 3), "(2,4,6;5,6,7,8,9;9)"),
        ("core", (7, 9, 6, 5, 5, 9, 8, 9, 9), "(4,5,6;4,5,7,8,9;9)"),
        ("pi", (2, 4, 6, 4, 5, 6, 7, 9, 9), "(2,4,6;1,3,5,7,9;8)"),
        ("floor", (3, 4, 6, 4, 5, 6, 8, 9, 9), "(3,4,6;6,6,6,8,9;9)"),
        ("ceiling", (3, 4, 5, 4, 5, 6, 8, 9, 9), "(5,5,5;6,6,6,9,9;9)"),
    ]
    for name, entries, expected in map_rows:
        kind, fn = maps[name]
        got = str(fn(kind.of(9, (3, 8), entries)))
        run.check(got == expected, map=name, expected=expected, got=got)
    running = RTuple.of(9, (3, 8), (2, 7, 5, 8, 6, 6, 9, 9, 9))
    for name, got, expected in [
        ("critical_list", critical_list(running), "({(1,2),(3,5)};{(6,6),(8,9)};{(9,9)})"),
        ("core_running_example", core(running), "(2,4,5;4,5,6,8,9;9)"),
    ]:
        run.check(str(got) == expected, map=name, got=got)
    return run.report()


def dimension_tables(shape: Shape) -> dict:
    """Sizes of every Demazure set and every row-bound set class on a shape."""
    _require_within_cap(shape)
    sizes = {w: sum(terms.values()) for w, terms in _demazure_walk(shape)}  # κ_w(1, ..., 1)
    n, r_elements = shape.n, shape.r_subset.elements
    demazure = [{"pi": str(p), "size": sizes[p.entries]} for p in enumerate_rperms(n, r_elements)]
    row_bound = [  # a row-bound set is the ideal of its maximum
        {"alpha": str(a), "size": count_ideal(_below_row_ends(a.entries, shape))}
        for a in enumerate_tuples(n, r_elements, "increasing")
    ]
    return {
        "shape": list(shape.parts),
        "n": n,
        "demazure": demazure,
        "row_bound": row_bound,
    }


SUITES = {
    "tables": suite_tables,
    "bijections": suite_bijections,
    "counts": suite_counts,
    "convexity": suite_convexity,
    "coincidence": suite_coincidence,
    "polynomials": suite_polynomials,
    "lifts": suite_lifts,
    "accidental": search_accidental,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, **kwargs) -> SuiteReport:
    """Dispatch a suite by name with its keyword parameters."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    return SUITES[name](**kwargs)
