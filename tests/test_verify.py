import dataclasses
import hashlib
import json
from collections import Counter

import pytest

from parakat import verify
from parakat.errors import CapExceeded
from parakat.cli import main
from parakat.rperms import RPermutation, _pi_map, enumerate_rperms, is_r312_avoiding
from parakat.rtuples import (
    RTuple,
    _boundary_count,
    core,
    critical_list,
    enumerate_tuples,
    is_gapless,
)
from parakat.tableaux import (
    Shape,
    ShapeTableaux,
    _pack,
    _width,
    count_ideal,
    key_of_perm,
    row_bound_max,
    row_end_list,
    scanning,
)
from parakat.verify import (
    _Run,
    canonical_shape,
    catalan,
    dimension_tables,
    run_suite,
    search_accidental,
    shapes_in_range,
    subsets_of_interval,
    suite_bijections,
    suite_coincidence,
    suite_convexity,
    suite_counts,
    suite_lifts,
    suite_polynomials,
    suite_tables,
)


def test_catalan_values():
    assert [catalan(n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]


def test_subsets_enumeration_order():
    assert list(subsets_of_interval(3)) == [(), (1,), (2,), (1, 2)]


def test_canonical_shape():
    assert canonical_shape(4, (1, 3)).parts == (2, 1, 1, 0)
    assert canonical_shape(4, ()).parts == (0, 0, 0, 0)
    assert canonical_shape(4, (1, 2, 3)).parts == (3, 2, 1, 0)
    for n in range(1, 6):
        for r in subsets_of_interval(n):
            assert canonical_shape(n, r).r_subset.elements == r


def test_shapes_in_range_dedup_vs_all():
    dedup = shapes_in_range(3, 3)
    full = shapes_in_range(3, 3, all_shapes=True)
    assert len(dedup) < len(full)
    assert {(s.n, s.r_subset.elements) for s in dedup} == {
        (s.n, s.r_subset.elements) for s in full
    }


def test_all_suites_pass_small():
    assert suite_tables().passed
    assert suite_bijections(4).passed
    assert suite_counts(4, poly_max_n=3).passed
    assert suite_convexity(3, 3).passed
    assert suite_coincidence(3, 3).passed
    assert suite_polynomials(3, 3).passed
    assert suite_lifts(4).passed
    assert search_accidental(3, 3).passed


def test_suites_are_deterministic():
    a = suite_convexity(3, 3)
    b = suite_convexity(3, 3)
    assert (a.suite, a.params, a.instances, a.verdict, a.counterexamples) == (
        b.suite,
        b.params,
        b.instances,
        b.verdict,
        b.counterexamples,
    )


def test_suite_cap():
    with pytest.raises(CapExceeded):
        suite_bijections(20)
    with pytest.raises(CapExceeded):
        suite_convexity(99, 3)


class _Started(Exception):
    """Raised where a suite opens its run, past its range checks."""


def test_tuple_suites_take_n_9_and_the_others_refuse_it(monkeypatch, capsys):
    # bijections, lifts and counts' tuple level build no tableau and run one n
    # further than the tableau suites and counts' polynomial level; a suite
    # that takes its range stops as it opens its run, so no walk at n = 9 runs
    def started(*args, **kwargs):
        raise _Started

    monkeypatch.setattr(verify, "_Run", started)
    taken = [["bijections"], ["lifts"], ["counts"], ["counts", "--poly-max-n", "8"],
             ["counts", "--poly-max-n", "0"]]
    for argv in taken:
        with pytest.raises(_Started):
            main(["verify", *argv, "--max-n", "9"])
    with pytest.raises(_Started):  # the polynomial level runs only to max_n
        main(["verify", "counts", "--max-n", "8", "--poly-max-n", "9"])
    refused = [["convexity"], ["coincidence"], ["polynomials"], ["accidental"],
               ["counts", "--poly-max-n", "9"], ["all"]]
    for argv in refused:
        assert main(["verify", *argv, "--max-n", "9"]) == 3, argv
        assert capsys.readouterr().err.startswith("CapExceeded"), argv
    for name in ("bijections", "lifts", "counts"):
        assert main(["verify", name, "--max-n", "10"]) == 3, name
        assert capsys.readouterr().err.startswith("CapExceeded: suite range n=10 exceeds the cap of 9")


# the suites that take a range, and the bound each takes besides max_n
_RANGED_SUITES = [
    "bijections", "counts", "convexity", "coincidence", "polynomials", "lifts", "accidental"
]
_SECOND_BOUND = {"counts": "poly_max_n", "convexity": "max_col", "coincidence": "max_col",
                 "polynomials": "max_col", "accidental": "max_col"}


@pytest.mark.parametrize("name", _RANGED_SUITES)
def test_suite_rejects_empty_range(name):
    # a range with no n would check nothing and still read "pass"
    for max_n in (0, -2):
        with pytest.raises(ValueError):
            run_suite(name, max_n=max_n)
    # so would a negative column or polynomial range
    if name in _SECOND_BOUND:
        with pytest.raises(ValueError, match=f"{_SECOND_BOUND[name]} must be nonnegative"):
            run_suite(name, max_n=3, **{_SECOND_BOUND[name]: -1})


@pytest.mark.parametrize(
    "name,bound,value",
    [(name, "max_n", value) for name in _RANGED_SUITES for value in (True, 2.0)]
    + [(name, bound, value) for name, bound in _SECOND_BOUND.items() for value in (True, 1.5)],
)
def test_suite_refuses_a_bound_that_is_not_an_int(name, bound, value):
    # a bool or a float would run and be echoed in the report, or fail deep in a walk
    with pytest.raises(ValueError, match=f"^{bound} must be an integer, got {value!r}$"):
        run_suite(name, **{"max_n": 2, bound: value})


def test_accidental_over_the_cap_raises_cap_exceeded(monkeypatch):
    # the canonical shape (2,1,0) has 8 tableaux, the most in this range
    monkeypatch.setenv("PARAKAT_CAP", "7")
    with pytest.raises(CapExceeded, match=r"shape \(2,1,0\) has 8 tableaux, over the cap of 7"):
        search_accidental(3, 3)
    monkeypatch.setenv("PARAKAT_CAP", "8")
    assert search_accidental(3, 3).passed
    # a negative cap is a bad argument
    monkeypatch.setenv("PARAKAT_CAP", "-1")
    with pytest.raises(ValueError, match="PARAKAT_CAP must be a nonnegative integer"):
        search_accidental(3, 3)


@pytest.mark.parametrize("suite", [suite_convexity, suite_coincidence, suite_counts])
def test_suites_that_build_no_tableau_keep_the_cap(monkeypatch, suite):
    # they size each set by its polynomial, yet a shape over the cap still stops them
    monkeypatch.setenv("PARAKAT_CAP", "7")
    with pytest.raises(CapExceeded, match=r"shape \(2,1,0\) has 8 tableaux, over the cap of 7"):
        suite(3, 3)
    monkeypatch.setenv("PARAKAT_CAP", "8")
    assert suite(3, 3).passed


def test_failing_run_reports_sorted_counterexamples():
    run = _Run("demo", scope=1)
    run.check(True, id=0)
    run.check(False, id=2)
    run.check(False, id=1)
    report = run.report()
    assert report.verdict == "fail" and not report.passed
    assert report.instances == 3
    assert [c["id"] for c in report.counterexamples] == [1, 2]
    assert "counterexamples" in report.to_text()
    assert report.to_json_dict()["params"] == {"scope": 1}


def test_run_suite_dispatch():
    assert run_suite("tables").passed
    with pytest.raises(ValueError):
        run_suite("nope")


def test_dimension_tables(monkeypatch):
    tables = dimension_tables(Shape.of(3, (2, 1)))
    assert tables["n"] == 3 and tables["shape"] == [2, 1, 0]
    assert len(tables["demazure"]) == 6  # all carrel-sorted permutations
    assert len(tables["row_bound"]) == 6  # all increasing upper tuples
    sizes = {row["pi"]: row["size"] for row in tables["demazure"]}
    assert sizes["(3;1;2)"] == 5
    assert max(row["size"] for row in tables["row_bound"]) == 8
    # the sizes are counted, not walked, yet the shape's cap still holds
    monkeypatch.setenv("PARAKAT_CAP", "7")
    with pytest.raises(CapExceeded, match=r"shape \(2,1,0\) has 8 tableaux, over the cap of 7"):
        dimension_tables(Shape.of(3, (2, 1)))


def test_class_count_is_the_number_of_distinct_member_critical_lists():
    # the count over each carrel's distinct critical pairs against deduplicating
    # the critical lists of every member the family's walk builds
    for n in range(1, 7):
        for r in subsets_of_interval(n):
            for family in ("gapless-core", "flag"):
                expected = len({critical_list(t) for t in enumerate_tuples(n, r, family)})
                assert _boundary_count(n, r, family, classes=True) == expected, (n, r, family)


def test_counts_build_no_member_and_walk_each_carrel_once(monkeypatch):
    # every family is sized by the boundary transfer and the avoiding
    # permutations by their tree's tally: no enumeration runs, and a carrel's
    # segments are walked once per n however many R share it
    from parakat import rperms, rtuples

    def refuse(*args, **kwargs):
        raise AssertionError("counts enumerated a family")

    for module in (verify, rtuples, rperms):
        for name in ("enumerate_tuples", "enumerate_critical_lists", "enumerate_rperms"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    walks = Counter()
    kept = rtuples._kept_segments

    def counted(n, lo, hi, family):
        walks[n, lo, hi, family] += 1
        return kept(n, lo, hi, family)

    monkeypatch.setattr(rtuples, "_kept_segments", counted)
    rtuples._carrel_lists.cache_clear()
    rtuples._carrel_tallies.cache_clear()
    report = suite_counts(6, poly_max_n=0)
    assert (report.verdict, report.instances) == ("pass", 453)
    assert walks and max(walks.values()) == 1


def test_counts_total_route_catches_a_wrong_transfer_count(monkeypatch):
    from parakat import rperms, verify

    monkeypatch.setattr(verify, "count_total", lambda n: rperms.count_total(n) + (n == 3))
    report = suite_counts(3, poly_max_n=0)
    assert report.counterexamples == (
        {"n": 3, "family": "total_two_routes", "by_avoidance_filter": 12, "by_transfer_matrix": 13},
    )


def test_convexity_sizes_catch_a_wrong_ideal_count(monkeypatch):
    from parakat import tableaux

    wrong = ((1, 2), (2,))  # the key of (2;1;3) on the shape (2,1,0)
    monkeypatch.setattr(
        verify, "count_ideal", lambda y: tableaux.count_ideal(y) + (y.columns == wrong)
    )
    report = suite_convexity(3, 2)
    assert report.counterexamples == (
        {"shape": [2, 1, 0], "n": 3, "pi": "(2;1;3)", "avoiding": True, "convex": False,
         "equals_ideal": False},
    )


def test_tableau_suites_build_the_tuple_side_once_per_carrel_set(monkeypatch):
    from parakat import rtuples, tableaux

    calls = []
    monkeypatch.setattr(verify, "core", lambda b: calls.append(b) or rtuples.core(b))
    assert suite_coincidence(4, 3, all_shapes=True).passed
    # once per upper tuple of each of the 15 carrel sets, not once per shape
    assert len(calls) == 1 + 2 * 2 + 4 * 6 + 8 * 24 == 221

    def refused(top, step=None):
        raise AssertionError("convexity materialized a set")

    monkeypatch.setattr(tableaux, "_set_below", refused)
    assert suite_convexity(4, 3, all_shapes=True).passed


def test_convexity_and_coincidence_build_no_tableau(monkeypatch):
    from parakat import tableaux

    def refused(*args, **kwargs):
        raise AssertionError("the suite built tableaux")

    monkeypatch.setattr(verify, "ShapeTableaux", refused)
    monkeypatch.setattr(tableaux, "_set_below", refused)
    for suite in (suite_convexity, suite_coincidence):
        assert suite(4, 3, all_shapes=True).passed
    assert suite_counts(5, poly_max_n=5).passed
    # the dimension tables read κ off the walk alone: no convexity, no key per index
    monkeypatch.setattr(verify, "_convexity", refused)
    monkeypatch.setattr(verify, "key_of_perm", refused)
    for shape in shapes_in_range(4, 3, all_shapes=True):
        dimension_tables(shape)


def test_accidental_builds_no_tableau(monkeypatch):
    # each row-bound sum is its maximum's packed transfer: no atlas, no set
    from parakat import tableaux

    def refused(*args, **kwargs):
        raise AssertionError("the search built tableaux")

    monkeypatch.setattr(verify, "ShapeTableaux", refused)
    monkeypatch.setattr(tableaux, "_set_below", refused)
    monkeypatch.setattr(tableaux, "enumerate_tableaux", refused)
    report = search_accidental(4, 3, all_shapes=True)
    assert (report.verdict, report.instances) == ("pass", 50)


def test_accidental_groups_by_terms_where_hashes_collide(monkeypatch):
    # every sum given one hash: each shape's cores are weighed again and
    # grouped by their terms, so the report is the same
    expected = dataclasses.replace(search_accidental(4, 3, all_shapes=True), wall_time=0)
    monkeypatch.setattr(verify, "hash", lambda terms: 0, raising=False)
    assert dataclasses.replace(search_accidental(4, 3, all_shapes=True), wall_time=0) == expected
    # every sum made 2*x4: each shape's non-gapless cores form one find, whose
    # payload names them and their polynomial
    monkeypatch.setattr(verify, "_ideal_weights", lambda top, width: {1: 2})
    report = search_accidental(4, 2)
    assert report.instances == 4
    assert report.counterexamples == tuple(
        {"shape": shape, "n": 4, "cores": cores, "polynomial": "2*x4"}
        for shape, cores in [
            ([2, 2, 1, 0], ["(1,4;3;4)", "(2,4;3;4)", "(3,4;3;4)"]),
            ([2, 1, 1, 0], ["(3;2,4;4)", "(4;2,3;4)", "(4;2,4;4)"]),
            ([2, 1, 0, 0], ["(3;2;3,4)", "(4;2;3,4)", "(4;3;3,4)"]),
        ]
    )


def test_polynomials_owner_tables_find_equal_sums_across_packing_widths(monkeypatch):
    # every cell set weighed as x1: each shape after the first of its n then
    # repeats a row bound sum, which "row bound sums detect the shape" must
    # report.  The shapes' first parts are 0, 1 and 2, of bit lengths 1 and 2,
    # so owner keys packed at each shape's own width would miss the repeats
    # on the shapes whose first part is 0 or 1
    monkeypatch.setattr(
        ShapeTableaux, "weights",
        lambda atlas, cells: Counter({_pack((1,) + (0,) * (atlas.shape.n - 1), atlas.width): 1}),
    )
    report = suite_polynomials(2, 2, all_shapes=True)
    law = "row bound sums detect the shape"
    failed = {(c["n"], tuple(c["shape"])) for c in report.counterexamples if c["law"] == law}
    shapes = shapes_in_range(2, 2, all_shapes=True)
    firsts = {shape.n: shape for shape in reversed(shapes)}
    assert failed == {(s.n, s.parts) for s in shapes if s != firsts[s.n]}
    assert {_width(s.parts[0]) for s in shapes} == {1, 2}


def test_polynomials_scan_each_row_bound_set_once_per_shape(monkeypatch):
    scan = ShapeTableaux.row_bound_cells
    calls = []

    def recorded(atlas, b):
        mask = scan(atlas, b)
        calls.append((b, mask))
        return mask

    monkeypatch.setattr(ShapeTableaux, "row_bound_cells", recorded)
    assert suite_polynomials(4, 3, all_shapes=True).passed
    # one read of the row-end masks per upper tuple of each shape; the cores,
    # rank tuples and gapless-core bounds are read off those masks
    shapes = shapes_in_range(4, 3, all_shapes=True)
    assert all(type(mask) is int and mask > 0 for _, mask in calls)
    assert len(calls) == sum(
        sum(1 for _ in enumerate_tuples(s.n, s.r_subset.elements, "upper")) for s in shapes
    ) == 984


def _size(atlas, cells):
    """The number of tableaux in the cell mask ``cells``."""
    return sum(atlas.weights(cells).values())


def _terms(atlas, cells):
    """The packed polynomial of the cell mask ``cells``, as a hashable value."""
    return frozenset(atlas.weights(cells).items())


def _atlas_route(shape):
    """Counts' polynomial-level families and the dimension tables of ``shape``,
    by the route that walks every tableau into cells, then compares and weighs
    the cell sets."""
    atlas = ShapeTableaux(shape)
    n, r = shape.n, shape.r_subset.elements
    dsets = {p: atlas.demazure_cells(key_of_perm(p, shape)) for p in enumerate_rperms(n, r)}
    ssets = {a: atlas.row_bound_cells(a) for a in enumerate_tuples(n, r, "increasing")}
    families = {
        "demazure_polynomials": len(
            {_terms(atlas, d) for p, d in dsets.items() if is_r312_avoiding(p)}
        ),
        "flag_schur_polynomials": len(
            {
                _terms(atlas, atlas.row_bound_cells(phi))
                for phi in enumerate_tuples(n, r, "flag")
            }
        ),
        "coincident_pairs": len(set(ssets.values()) & set(dsets.values())),
    }
    tables = {
        "shape": list(shape.parts),
        "n": n,
        "demazure": [{"pi": str(p), "size": _size(atlas, d)} for p, d in dsets.items()],
        "row_bound": [{"alpha": str(a), "size": _size(atlas, c)} for a, c in ssets.items()],
    }
    return families, tables


def test_counts_and_dimension_tables_agree_with_the_atlas(monkeypatch):
    # every carrel set at n <= 6: each polynomial-level family, and each size
    seen = {}
    check = verify._Run.check

    def record(run, ok, **payload):
        seen[payload["n"], payload.get("R"), payload["family"]] = payload.get("count")
        check(run, ok, **payload)

    monkeypatch.setattr(verify._Run, "check", record)
    assert suite_counts(6, poly_max_n=6).passed
    for shape in shapes_in_range(6, 5):
        families, tables = _atlas_route(shape)
        for family, count in families.items():
            assert seen[shape.n, shape.r_subset.elements, family] == count, (shape, family)
        assert dimension_tables(shape) == tables, shape


def test_dimension_tables_agree_with_the_atlas_on_every_shape():
    for shape in shapes_in_range(5, 4, all_shapes=True):
        assert dimension_tables(shape) == _atlas_route(shape)[1], shape


def test_counts_weigh_a_maximum_that_is_no_convex_key_by_its_ideal(monkeypatch):
    # (2;2;3) is a flag of R = (1, 2) whose row-bound maximum is this key; read
    # as non-convex, its polynomial comes from the tableaux of its ideal, so
    # the flag family keeps its count and only the coincident pairs lose one
    from parakat import tableaux

    wrong = ((1, 2), (2,))
    monkeypatch.setattr(
        verify, "count_ideal", lambda y: tableaux.count_ideal(y) + (y.columns == wrong)
    )
    walked, below = [], tableaux._set_below
    monkeypatch.setattr(
        tableaux, "_set_below", lambda top, *step: walked.append(top.columns) or below(top, *step)
    )
    flag_counts, check = {}, verify._Run.check

    def record(run, ok, **payload):
        if payload.get("family") == "flag_schur_polynomials":
            flag_counts[payload["R"]] = payload["count"], payload["cnr"]
        check(run, ok, **payload)

    monkeypatch.setattr(verify._Run, "check", record)
    report = suite_counts(3, poly_max_n=3)
    assert walked == [wrong]
    assert flag_counts[1, 2] == (5, 5)
    assert report.counterexamples == (
        {"n": 3, "R": [1, 2], "cnr": 5, "family": "coincident_pairs", "count": 4},
    )


def test_counts_read_kappa_only_where_it_is_compared(monkeypatch):
    # the κ of an index that is neither convex nor avoiding enters no count,
    # so reading it fails
    convexity, skipped = verify._convexity, []

    class Unread:
        def __getattr__(self, name):
            raise AssertionError("read the κ of an index that is neither convex nor avoiding")

    def marked(shape):
        for p, y, convex, terms in convexity(shape):
            if not (convex or is_r312_avoiding(p)):
                skipped.append(p)
                terms = Unread()
            yield p, y, convex, terms

    monkeypatch.setattr(verify, "_convexity", marked)
    assert suite_counts(5, poly_max_n=5).passed
    assert skipped


def test_polynomials_build_each_key_once_per_shape(monkeypatch):
    from parakat import tableaux

    calls = []
    monkeypatch.setattr(
        verify, "key_of_perm",
        lambda p, shape: calls.append((shape, p)) or tableaux.key_of_perm(p, shape),
    )
    assert suite_polynomials(4, 3, all_shapes=True).passed
    # the 340 R-permutations of the 69 shapes, each keyed once
    shapes = shapes_in_range(4, 3, all_shapes=True)
    assert len(calls) == len(set(calls)) == sum(
        1 for s in shapes for _ in enumerate_rperms(s.n, s.r_subset.elements)
    ) == 340


def _failed_laws(capsys, argv):
    """The exit code of ``parakat verify argv --json`` and the laws its counterexamples name."""
    code = main(["verify", *argv, "--json"])
    (report,) = json.loads(capsys.readouterr().out)
    return code, [c["law"] for c in report["counterexamples"]]


def test_bijections_report_a_rank_tuple_that_is_not_gapless(monkeypatch, capsys):
    # ψ of one avoiding index made non-gapless, through the rank kernel that
    # the suite runs on entries: π(ψ) = id fails as a check, and ψ(π) = id on
    # that index's rank tuple fails with it
    from parakat import rperms

    p, gamma = RPermutation.of(3, (1,), (2, 1, 3)), RTuple.of(3, (1,), (2, 2, 3))
    instances = suite_bijections(3).instances
    wrong = RTuple.of(3, (1,), (1, 3, 3))
    assert not is_gapless(wrong) and rperms.rank_tuple(p) == gamma
    at_p = (p.entries, p.r_subset.qs)
    monkeypatch.setattr(
        verify, "_ranks", lambda e, qs: wrong.entries if (e, qs) == at_p else rperms._ranks(e, qs)
    )
    report = suite_bijections(3)
    assert report.instances == instances
    assert report.counterexamples == (
        {"n": 3, "R": [1], "gamma": "(2;2,3)", "law": "psi(pi)=id"},
        {"n": 3, "R": [1], "pi": "(2;1,3)", "law": "pi(psi)=id"},
    )
    assert _failed_laws(capsys, ["bijections", "--max-n", "3"]) == (2, ["psi(pi)=id", "pi(psi)=id"])


def test_lifts_report_a_projection_that_is_not_avoiding(monkeypatch, capsys):
    # the R-projection of one 312-avoiding word over R = {1, 2} sent to the
    # R-312 pattern (3;1;2), through the kernel that the suite runs on entries:
    # the image is not avoiding, the word's true image misses it as a lift, and
    # that image's minimal lift, the word itself, no longer projects onto it
    from parakat import rperms

    w, qs = (1, 3, 2), (0, 1, 2, 3)
    instances = suite_lifts(3).instances
    monkeypatch.setattr(
        verify,
        "_sorted_carrels",
        lambda s, q: (3, 1, 2) if (s, q) == (w, qs) else rperms._sorted_carrels(s, q),
    )
    report = suite_lifts(3)
    assert report.instances == instances
    assert report.counterexamples == (
        {"n": 3, "R": [1, 2], "pi": "(1;3;2)", "law": "lift recipe equals filter"},
        {"n": 3, "R": [1, 2], "pi": "(1;3;2)", "law": "minimal lift is an avoiding lift"},
        {"n": 3, "R": [1, 2], "sigma": [1, 3, 2], "law": "projection preserves avoidance"},
    )
    assert _failed_laws(capsys, ["lifts", "--max-n", "3"]) == (
        2,
        ["lift recipe equals filter", "minimal lift is an avoiding lift", "projection preserves avoidance"],
    )


def test_polynomials_report_a_core_image_that_is_no_index(monkeypatch, capsys):
    # π of one gapless core made a permutation over another carrel set: the
    # bounds with that core match no index, each a failing check
    from parakat import rperms

    delta, stray = RTuple.of(3, (1,), (2, 2, 3)), RPermutation.of(3, (2,), (1, 3, 2))
    instances = suite_polynomials(3, 2).instances
    monkeypatch.setattr(verify, "_pi_map", lambda g: stray if g == delta else rperms._pi_map(g))
    report = suite_polynomials(3, 2)
    assert report.instances == instances
    law = "gapless-core bounds match an index"
    assert report.counterexamples == tuple(
        {"shape": [1, 0, 0], "n": 3, "eta": eta, "law": law} for eta in ["(2;2,3)", "(2;3,3)"]
    )
    assert _failed_laws(capsys, ["polynomials", "--max-n", "3", "--max-col", "2"]) == (2, [law, law])


def test_polynomials_report_a_rank_tuple_that_is_not_upper(monkeypatch, capsys):
    # ψ of one avoiding index made a tuple that is not upper, so no bound has
    # its entries: the index matches no rank bounds, and its polynomial's
    # core is no longer its rank tuple, each a failing check
    from parakat import rperms

    p, wrong = RPermutation.of(3, (1,), (2, 1, 3)), RTuple.of(3, (1,), (2, 1, 3))
    instances = suite_polynomials(3, 2).instances
    monkeypatch.setattr(verify, "rank_tuple", lambda q: wrong if q == p else rperms.rank_tuple(q))
    report = suite_polynomials(3, 2)
    assert report.instances == instances
    laws = ["polynomial coincidence forces the set coincidence", "avoiding index matches its rank bounds"]
    assert report.counterexamples == (
        {"shape": [1, 0, 0], "n": 3, "core": "(2;2,3)", "pi": "(2;1,3)", "law": laws[0]},
        {"shape": [1, 0, 0], "n": 3, "pi": "(2;1,3)", "law": laws[1]},
    )
    assert _failed_laws(capsys, ["polynomials", "--max-n", "3", "--max-col", "2"]) == (2, laws)


def test_polynomials_report_a_core_that_is_not_upper(monkeypatch, capsys):
    # the core of one bound that is no gapless core made a tuple that is not
    # upper, so no bound has its entries: that bound's check fails
    from parakat import rtuples

    b, wrong = RTuple.of(3, (1, 2), (3, 2, 3)), RTuple.of(3, (1, 2), (1, 1, 1))
    instances = suite_polynomials(3, 2).instances
    monkeypatch.setattr(verify, "core", lambda t: wrong if t == b else rtuples.core(t))
    report = suite_polynomials(3, 2)
    assert report.instances == instances
    law = "bounds and their core agree"
    assert report.counterexamples == (
        {"shape": [2, 1, 0], "n": 3, "beta": "(3;2;3)", "law": law},
    )
    assert _failed_laws(capsys, ["polynomials", "--max-n", "3", "--max-col", "2"]) == (2, [law])


def _atlas_checks(shapes):
    """Each convexity and coincidence check on ``shapes``, as (ok, payload), by
    the route that walks every tableau of a shape into cells and compares the
    cell sets of the Demazure and row-bound sets."""
    out = {"convexity": [], "coincidence": []}
    for (n, r), group in verify._by_carrel_set(shapes):
        perms = list(enumerate_rperms(n, r))
        bounds = [(b, core(b)) for b in enumerate_tuples(n, r, "upper")]
        for shape in group:
            base = {"shape": shape.parts, "n": n}
            atlas = ShapeTableaux(shape)
            indexing = {}  # each Demazure set -> its indexes, in enumeration order
            for p in perms:
                y = key_of_perm(p, shape)
                d = atlas.demazure_cells(y)
                indexing.setdefault(d, []).append(p)
                avoiding = is_r312_avoiding(p)
                convex = _size(atlas, d) == count_ideal(y)
                flat_y = tuple(v for col in scanning(y).columns for v in col)
                cell = list(atlas.cells).index((flat_y, row_end_list(y).entries))
                is_ideal = convex and bool(d >> cell & 1)
                out["convexity"].append((
                    convex == avoiding == is_ideal,
                    dict(base, pi=p, avoiding=avoiding, convex=convex, equals_ideal=is_ideal),
                ))
            images = {}
            for b, delta in bounds:
                sset = atlas.row_bound_cells(b)
                matches = indexing.get(sset, [])
                if is_gapless(delta):
                    p = _pi_map(delta)
                    ok = matches == [p] and row_bound_max(b, shape) == key_of_perm(p, shape)
                    images[delta.entries] = sset
                else:
                    ok = matches == []
                out["coincidence"].append((ok, dict(base, beta=b, core=delta, matches=matches)))
            out["coincidence"].append((
                len(images) == len(set(images.values())),
                dict(base, law="gapless tuples index coincident sets faithfully"),
            ))
    return out


def _as_json(checks):
    return sorted(
        (ok, json.dumps({k: verify._json_value(v) for k, v in payload.items()}, sort_keys=True))
        for ok, payload in checks
    )


@pytest.mark.parametrize(
    "scale", [{"max_n": 5, "max_col": 4, "all_shapes": True}, {"max_n": 6, "max_col": 5}]
)
def test_convexity_and_coincidence_agree_with_the_atlas_instance_by_instance(monkeypatch, scale):
    oracle = _atlas_checks(verify.shapes_in_range(**scale))
    seen = []
    check = verify._Run.check

    def record(run, ok, **payload):
        seen.append((ok, payload))
        check(run, ok, **payload)

    monkeypatch.setattr(verify._Run, "check", record)
    for name in ("convexity", "coincidence"):
        seen.clear()
        assert run_suite(name, **scale).passed
        assert _as_json(seen) == _as_json(oracle[name]), name


@pytest.mark.parametrize(
    "scale, instances",
    [
        (
            {"max_n": 4, "max_col": 3, "all_shapes": True},
            {"convexity": 340, "coincidence": 1053, "polynomials": 5078, "accidental": 50},
        ),
        ({}, {"convexity": 92, "coincidence": 236, "polynomials": 1229, "accidental": 20}),
    ],
)
def test_tableau_suites_check_every_instance(scale, instances):
    # a rewrite that drops a check passes, so the counts are pinned as well
    for name, count in instances.items():
        report = run_suite(name, **scale)
        assert (report.verdict, report.instances) == ("pass", count), name


@pytest.mark.parametrize(
    "name, scale, count",
    [
        ("bijections", {}, 7488),
        ("counts", {}, 498),
        ("counts", {"max_n": 6, "poly_max_n": 0}, 453),
        ("lifts", {}, 2233),
        ("tables", {}, 19),
    ],
)
def test_tuple_suites_check_every_instance(name, scale, count):
    # as for the tableau suites: a rewrite of a walk that drops items still passes
    report = run_suite(name, **scale)
    assert (report.verdict, report.instances) == ("pass", count)


@pytest.mark.parametrize(
    "name, scale, digest",
    [
        ("tables", {}, "e3e54ebc034a68c0"),
        ("bijections", {"max_n": 4}, "c426e16613e946c8"),
        ("counts", {"max_n": 4, "poly_max_n": 4}, "2ab1a68d1b244e40"),
        ("convexity", {"max_n": 3, "max_col": 2, "all_shapes": True}, "38edfc6a93d307a9"),
        ("coincidence", {"max_n": 3, "max_col": 2, "all_shapes": True}, "0ef32e6d190887e7"),
        ("polynomials", {"max_n": 3, "max_col": 2, "all_shapes": True}, "4c2c18711cad014c"),
        ("lifts", {"max_n": 4}, "b72e3aa144b28d2b"),
        ("accidental", {"max_n": 4, "max_col": 3, "all_shapes": True}, "0a8fab6fb914756d"),
    ],
)
def test_every_payload_is_pinned_under_forced_failure(monkeypatch, name, scale, digest):
    # every check reports its payload as a failure, so the report pins each
    # payload's fields and text forms, not only the verdicts
    check = verify._Run.check
    monkeypatch.setattr(verify._Run, "check", lambda run, ok, **payload: check(run, False, **payload))
    report = dataclasses.replace(run_suite(name, **scale), wall_time=0)
    assert report.instances == len(report.counterexamples)
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
