import heapq
import itertools

import pytest

from parakat.polys import (
    GFHandle,
    Polynomial,
    _demazure_walk,
    compose_alpha,
    demazure_poly,
    demazure_poly_dd,
    flag_schur_poly,
    gapless_core_schur_poly,
    gen_fn,
    gf_identical,
    isobaric_divided_difference,
    poly_eq,
    row_bound_sum,
)
from parakat.rperms import (
    RPermutation,
    enumerate_rperms,
    is_r312_avoiding,
    pi_map,
    rank_tuple,
    reduced_word,
)
from parakat.rtuples import MAX_SIZE, RTuple, core, enumerate_tuples
from parakat.tableaux import (
    Shape,
    _unpack,
    _width,
    content,
    key_of_perm,
    minimal_tableau,
    row_bound_set,
)


def shapes_up_to(max_n, max_col):
    for n in range(1, max_n + 1):
        for parts in itertools.combinations_with_replacement(range(max_col, -1, -1), n):
            yield Shape(n, parts)


# ---------------------------------------------------------------------------
# polynomial basics


def test_text_form_orders_monomials_lex_descending():
    p = Polynomial(3, {(0, 1, 1): 1, (1, 1, 0): 1, (1, 0, 1): 1})
    assert str(p) == "x1*x2 + x1*x3 + x2*x3"
    assert str(Polynomial(2, {(0, 0): 3})) == "3"
    assert str(Polynomial.zero(2)) == "0"
    assert str(Polynomial(2, {(2, 1): 2})) == "2*x1^2*x2"


def test_zero_coefficients_are_dropped():
    p = Polynomial(2, {(1, 0): 0, (0, 1): 2})
    assert p.terms == (((0, 1), 2),)
    assert p + Polynomial(2, {(0, 1): -2}) == Polynomial.zero(2)


def test_json_round_trip():
    p = Polynomial(3, {(1, 1, 0): 1, (0, 2, 1): 4})
    assert Polynomial.from_json_dict(p.to_json_dict()) == p
    assert p.to_json_dict()["terms"][0] == {"exp": [1, 1, 0], "coef": 1}
    assert Polynomial.from_json_dict({"n": MAX_SIZE, "terms": []}) == Polynomial.zero(MAX_SIZE)


@pytest.mark.parametrize("d, message", [
    ({"n": 1}, "polynomial JSON lacks the key 'terms'"),
    ({"n": 1, "terms": 3}, "polynomial JSON key 'terms' must hold an array"),
    ({"n": 1, "terms": [{"coef": 1}]}, "polynomial term JSON lacks the key 'exp'"),
    ({"n": 1, "terms": [{"exp": [1], "coef": 1.5}]}, "polynomial term JSON key 'coef' must hold an integer"),
    ({"n": 1, "terms": [{"exp": [1], "coef": "x"}]}, "polynomial term JSON key 'coef' must hold an integer"),
    ({"n": 1, "terms": [{"exp": [1], "coef": True}]}, "polynomial term JSON key 'coef' must hold an integer"),
])
def test_polynomial_json_names_a_missing_or_mistyped_key(d, message):
    with pytest.raises(ValueError) as info:
        Polynomial.from_json_dict(d)
    assert str(info.value) == message


@pytest.mark.parametrize("d, message", [
    ({"n": -2, "terms": []}, "n must be positive, got -2"),
    ({"n": 0, "terms": [{"exp": [], "coef": 5}]}, "n must be positive, got 0"),
    ({"n": MAX_SIZE + 1, "terms": []}, f"n={MAX_SIZE + 1} exceeds the size bound of {MAX_SIZE}"),
])
def test_polynomial_json_refuses_a_variable_count_that_rtuples_refuses(d, message):
    # as RSubset does: at least one variable, and at most MAX_SIZE
    with pytest.raises(ValueError) as info:
        Polynomial.from_json_dict(d)
    assert str(info.value) == message


@pytest.mark.parametrize("n, terms, message", [
    (2, {(1, 0): 1.5}, "coefficient of (1, 0) must be an integer, got 1.5"),
    (2, {(1, 0): "3"}, "coefficient of (1, 0) must be an integer, got '3'"),
    (2, {(0, 1): True}, "coefficient of (0, 1) must be an integer, got True"),
    (2, {(1.0, 0): 1}, "bad exponent vector for n=2: (1.0, 0)"),
    (2, {(False, 1): 1}, "bad exponent vector for n=2: (False, 1)"),
    (2.0, {}, "n must be an integer, got 2.0"),
    (True, {(1,): 2}, "n must be an integer, got True"),
    (0, {(): 5}, "n must be positive, got 0"),
    (-1, {}, "n must be positive, got -1"),
    (MAX_SIZE + 1, {}, f"n={MAX_SIZE + 1} exceeds the size bound of {MAX_SIZE}"),
])
def test_the_constructor_makes_the_checks_that_json_makes(n, terms, message):
    with pytest.raises(ValueError) as info:
        Polynomial(n, terms)
    assert str(info.value) == message


@pytest.mark.parametrize("terms, exp", [
    ([{"exp": [1], "coef": 1}, {"exp": [1], "coef": 2}], "[1]"),
    # a repeat is refused even where its coefficients would cancel
    ([{"exp": [0, 2], "coef": 1}, {"exp": [1, 1], "coef": 1}, {"exp": [0, 2], "coef": -1}], "[0, 2]"),
])
def test_polynomial_json_refuses_a_repeated_exponent(terms, exp):
    with pytest.raises(ValueError) as info:
        Polynomial.from_json_dict({"n": len(terms[0]["exp"]), "terms": terms})
    assert str(info.value) == f"polynomial JSON repeats the exponent {exp}"


def test_divided_difference_unit_cases():
    x1 = Polynomial.monomial(2, (1, 0))
    assert isobaric_divided_difference(x1, 1) == Polynomial(2, {(1, 0): 1, (0, 1): 1})
    x2 = Polynomial.monomial(2, (0, 1))
    assert isobaric_divided_difference(x2, 1) == Polynomial.zero(2)
    sym = Polynomial(2, {(1, 1): 1})
    assert isobaric_divided_difference(sym, 1) == sym
    sq = Polynomial.monomial(2, (0, 2))
    assert isobaric_divided_difference(sq, 1) == Polynomial(2, {(1, 1): -1})
    with pytest.raises(ValueError):
        isobaric_divided_difference(x1, 2)


def test_dd_hand_example():
    sh = Shape.of(3, (1, 1))
    p = RPermutation.of(3, (2,), (2, 3, 1))
    assert str(demazure_poly_dd(p, sh)) == "x1*x2 + x1*x3 + x2*x3"
    trivial = RPermutation.of(3, (2,), (1, 2, 3))
    assert demazure_poly_dd(trivial, sh) == Polynomial.monomial(3, (1, 1, 0))


def _pi_by_definition(terms, i):
    """pi_i f = (x_i f - x_{i+1} s_i f) / (x_i - x_{i+1}) on tuple-keyed terms.

    The quotient comes by long division in lex order: the largest monomial m
    left over is divisible by x_i, and m / x_i is the next quotient term.
    """
    num = {}
    for exp, coef in terms.items():
        up, swapped = list(exp), list(exp)
        up[i - 1] += 1
        swapped[i - 1], swapped[i] = exp[i], exp[i - 1] + 1
        for e, c in ((tuple(up), coef), (tuple(swapped), -coef)):
            num[e] = num.get(e, 0) + c
    heap = [tuple(-e for e in m) for m in num]
    heapq.heapify(heap)
    out = {}
    while heap:
        m = tuple(-e for e in heapq.heappop(heap))
        coef = num.pop(m)
        if not coef:
            continue
        q = list(m)
        q[i - 1] -= 1
        assert q[i - 1] >= 0, "x_i - x_(i+1) does not divide the numerator"
        out[tuple(q)] = coef
        q[i] += 1  # m - (x_i - x_(i+1)) m / x_i leaves + m x_(i+1) / x_i
        down = tuple(q)
        if down not in num:
            heapq.heappush(heap, tuple(-e for e in down))
        num[down] = num.get(down, 0) + coef
    return out


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8, 15, 16])
def test_dd_matches_the_definition_across_pack_widths(size):
    # the one-row shape puts the whole degree in one exponent, the widest field;
    # the one-column shape keeps a 1-bit field under the same total degree
    third = size // 3
    for shape in (
        Shape(3, (size, 0, 0)),
        Shape(4, (size - 2 * third, third, third, 0)),
        Shape.of(size + 2, (1,) * size),
    ):
        for p in enumerate_rperms(shape.n, shape.r_subset.elements):
            terms = {shape.parts: 1}
            for i in reduced_word(p.entries):
                terms = _pi_by_definition(terms, i)
            got = demazure_poly_dd(p, shape)
            expected = Polynomial(shape.n, terms)
            assert got == expected and hash(got) == hash(expected), (shape, p)


def test_the_cover_walk_matches_the_reduced_word_recursion():
    # one divided difference per cover against a whole reduced word per index,
    # on every index of every shape, each index yielded once
    # at the shape's own packing width and at a wider one, as the polynomials
    # suite packs every shape of its range
    for shape in shapes_up_to(5, 3):
        n = shape.n
        for width in (None, 3):
            walked = {}
            for entries, terms in _demazure_walk(shape, width):
                assert entries not in walked
                walked[entries] = Polynomial._of(n, _unpack(terms, n, width or _width(shape.parts[0])))
            perms = list(enumerate_rperms(n, shape.r_subset.elements))
            assert len(walked) == len(perms), shape
            for p in perms:
                assert walked[p.entries] == demazure_poly_dd(p, shape), (shape, p)


def test_divided_difference_of_mixed_degrees_and_of_a_cancelling_input():
    f = Polynomial(3, {(3, 0, 1): 2, (0, 1, 0): -1, (0, 0, 0): 5, (1, 4, 0): 1, (0, 2, 6): 3})
    for i in (1, 2):
        assert isobaric_divided_difference(f, i) == Polynomial(3, _pi_by_definition(f._terms, i))
    # x_2 times a polynomial symmetric in x_1, x_2 goes to zero under pi_1
    cancels = Polynomial(3, {(2, 1, 1): 1, (1, 2, 1): 2, (0, 3, 1): 1})
    zero = isobaric_divided_difference(cancels, 1)
    assert zero == Polynomial.zero(3) and zero.terms == () and str(zero) == "0"
    # a negative term with a >= b cancels a positive one at x1*x2, with no a < b term
    mixed = Polynomial(3, {(2, 0, 0): -1, (1, 1, 0): 1})
    assert isobaric_divided_difference(mixed, 1)._terms == {(2, 0, 0): -1, (0, 2, 0): -1}
    assert isobaric_divided_difference(Polynomial.zero(3), 2) == Polynomial.zero(3)
    one = Polynomial.monomial(3, (0, 0, 0))
    assert isobaric_divided_difference(one, 1) == one


# ---------------------------------------------------------------------------
# coincidence instance from the two bound tuples and the permutation


def test_intro_coincidence_instance():
    sh = Shape.of(3, (1, 1))
    s1 = row_bound_sum(RTuple.of(3, (2,), (3, 3, 3)), sh)
    s2 = row_bound_sum(RTuple.of(3, (2,), (2, 3, 3)), sh)
    d = demazure_poly(RPermutation.of(3, (2,), (2, 3, 1)), sh)
    assert str(s1.poly) == "x1*x2 + x1*x3 + x2*x3"
    assert poly_eq(s1, s2) and gf_identical(s1, s2)
    assert poly_eq(s1, d) and gf_identical(s1, d)


def test_gf_identical_implies_poly_eq_but_not_conversely():
    sh = Shape.of(3, (1, 1))
    a = row_bound_sum(RTuple.of(3, (2,), (3, 3, 3)), sh)
    b = row_bound_sum(RTuple.of(3, (2,), (1, 3, 3)), sh)
    assert not poly_eq(a, b) and not gf_identical(a, b)
    assert poly_eq(a, a) and gf_identical(a, a)


def test_poly_eq_distinct_variable_counts_is_false():
    assert not poly_eq(Polynomial.monomial(2, (1, 0)), Polynomial.monomial(3, (1, 0, 0)))


# ---------------------------------------------------------------------------
# the two routes agree


def test_dd_oracle_matches_scanning_route_n3():
    for sh in shapes_up_to(3, 3):
        for p in enumerate_rperms(sh.n, sh.r_subset.elements):
            assert demazure_poly(p, sh).poly == demazure_poly_dd(p, sh)


def test_demazure_polynomials_distinct_per_index():
    sh = Shape.of(3, (2, 1))
    polys = {}
    for p in enumerate_rperms(3, (1, 2)):
        polys[p.entries] = demazure_poly_dd(p, sh)
    for a, b in itertools.combinations(polys, 2):
        assert polys[a] != polys[b]


def test_degree_and_lex_leading_term():
    for sh in [Shape.of(3, (2, 1)), Shape.of(4, (2, 2)), Shape.of(4, (3, 1))]:
        for p in enumerate_rperms(sh.n, sh.r_subset.elements):
            d = demazure_poly_dd(p, sh)
            assert d.total_degrees() <= {sh.size}
            assert d.coefficient(sh.parts) == 1
            assert d.terms[0][0] == sh.parts  # lex-greatest exponent is the shape


# ---------------------------------------------------------------------------
# compositions


def test_compose_alpha_examples():
    sh = Shape.of(3, (1, 1))
    assert compose_alpha(RPermutation.of(3, (2,), (2, 3, 1)), sh) == (0, 1, 1)
    assert compose_alpha(RPermutation.of(3, (2,), (1, 2, 3)), sh) == (1, 1, 0)


def test_compose_alpha_equals_key_content():
    for sh in shapes_up_to(4, 3):
        for p in enumerate_rperms(sh.n, sh.r_subset.elements):
            assert compose_alpha(p, sh) == content(key_of_perm(p, sh))


# ---------------------------------------------------------------------------
# handles


def test_gen_fn_counts_weights():
    sh = Shape.of(3, (1, 1))
    ts = row_bound_set(RTuple.of(3, (2,), (3, 3, 3)), sh)
    h = gen_fn(ts)
    assert isinstance(h, GFHandle)
    assert sum(c for _, c in h.poly.terms) == len(ts)
    assert content(minimal_tableau(sh)) == (1, 1, 0)


def test_flag_and_gapless_core_wrappers():
    sh = Shape.of(3, (1, 1))
    flag_schur_poly(RTuple.of(3, (2,), (2, 3, 3)), sh)
    gapless_core_schur_poly(RTuple.of(3, (2,), (3, 3, 3)), sh)
    with pytest.raises(ValueError):
        flag_schur_poly(RTuple.of(3, (2,), (3, 2, 3)), sh)  # not weakly increasing
    with pytest.raises(ValueError):
        gapless_core_schur_poly(RTuple.of(4, (1, 3), (4, 2, 3, 4)), Shape.of(4, (3, 1, 1)))


def test_avoiding_demazure_equals_rank_bound_sum_sets():
    for sh in shapes_up_to(3, 3):
        for p in enumerate_rperms(sh.n, sh.r_subset.elements):
            if not is_r312_avoiding(p):
                continue
            d = demazure_poly(p, sh)
            s = row_bound_sum(rank_tuple(p), sh)
            assert gf_identical(d, s)


def test_gapless_core_sum_is_a_demazure_polynomial():
    for sh in shapes_up_to(3, 3):
        for eta in enumerate_tuples(sh.n, sh.r_subset.elements, "gapless-core"):
            s = row_bound_sum(eta, sh)
            d = demazure_poly(pi_map(core(eta)), sh)
            assert gf_identical(s, d)


def shapes_by_weight(n, max_weight):
    def partitions(total, max_part, slots):
        if slots == 0:
            if total == 0:
                yield ()
            return
        for first in range(min(total, max_part), -1, -1):
            for rest in partitions(total - first, first, slots - 1):
                yield (first,) + rest

    for weight in range(max_weight + 1):
        for parts in partitions(weight, weight, n):
            yield Shape(n, parts)


def test_row_bound_sums_detect_the_shape_up_to_weight_6():
    # across all shape pairs of total size <= 6 with the same n, equal
    # generating polynomials never arise from different shapes
    for n in range(1, 5):
        owner = {}
        for sh in shapes_by_weight(n, 6):
            for delta in enumerate_tuples(n, sh.r_subset.elements, "increasing"):
                poly = row_bound_sum(delta, sh).poly
                assert owner.setdefault(poly, sh) == sh


def test_demazure_polynomials_detect_shape_and_index_up_to_weight_6():
    for n in range(1, 5):
        owner = {}
        for sh in shapes_by_weight(n, 6):
            for p in enumerate_rperms(n, sh.r_subset.elements):
                poly = demazure_poly_dd(p, sh)
                assert owner.setdefault(poly, (sh, p)) == (sh, p)


def test_dd_oracle_matches_scanning_route_n5_spot():
    # canonical shapes with at most two dividers, one step past the
    # exhaustive acceptance range
    from parakat.verify import canonical_shape, subsets_of_interval

    checked = 0
    for r_elements in subsets_of_interval(5):
        if len(r_elements) > 2:
            continue
        sh = canonical_shape(5, r_elements)
        for p in enumerate_rperms(5, r_elements):
            assert demazure_poly(p, sh).poly == demazure_poly_dd(p, sh)
            checked += 1
    assert checked == 181
