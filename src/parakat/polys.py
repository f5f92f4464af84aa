"""Generating polynomials of tableau sets, with an independent recursion oracle.

Polynomials live in n variables with exact integer coefficients, stored
sparsely as exponent-vector -> coefficient maps.  The weight of a tableau is
the monomial recording how often each value occurs; summing weights over a
tableau set gives its generating polynomial.  Two such polynomials are
"identical as generating functions" when the underlying sets coincide, which
is strictly stronger than coefficientwise equality.

The oracle route to a Demazure polynomial applies isobaric divided
differences along a reduced word to the monomial of the shape; it shares no
code with the scanning route and is used to cross-check it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

from .rperms import RPermutation, _lower_cover, reduced_word
from .rtuples import RTuple, _check_n, _is_int_array, _json_fields, is_gapless_core, is_upper_flag
from .tableaux import (
    Shape,
    TableauSet,
    _pack,
    _require_over,
    _unpack,
    _width,
    content,
    demazure_set,
    row_bound_set,
)


class Polynomial:
    """Sparse multivariate polynomial over the integers.

    Immutable; terms are kept zero-free.  Display orders monomials by
    lexicographically decreasing exponent vector, so the leading monomial of
    a shape's generating polynomial is the weight of its minimal tableau.

    >>> str(Polynomial(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}))
    'x1*x2 + x1*x3 + x2*x3'
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] = ()):
        _check_n(n)
        self.n = n
        clean: dict[tuple[int, ...], int] = {}
        for exp, coef in dict(terms).items():
            exp = tuple(exp)
            if len(exp) != n or not _is_int_array(exp, 1) or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector for n={n}: {exp}")
            if not _is_int_array(coef, 0):
                raise ValueError(f"coefficient of {exp} must be an integer, got {coef!r}")
            if coef:
                clean[exp] = coef
        self._terms = clean

    @classmethod
    def _of(cls, n: int, terms: dict[tuple[int, ...], int]) -> "Polynomial":
        """A polynomial of ``terms``, unchecked: they must already be zero-free,
        keyed by tuples of n nonnegative exponents, and held by no one else."""
        p = cls.__new__(cls)
        p.n, p._terms = n, terms
        return p

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def monomial(cls, n: int, exp: Sequence[int], coef: int = 1) -> "Polynomial":
        return cls(n, {tuple(exp): coef})

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Terms sorted by lexicographically decreasing exponent."""
        return tuple(sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True))

    def coefficient(self, exp: Sequence[int]) -> int:
        return self._terms.get(tuple(exp), 0)

    def total_degrees(self) -> set[int]:
        return {sum(exp) for exp in self._terms}

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.n != other.n:
            raise ValueError("cannot add polynomials in different variable counts")
        out = dict(self._terms)
        for exp, coef in other._terms.items():
            out[exp] = out.get(exp, 0) + coef
        return Polynomial._of(self.n, {exp: coef for exp, coef in out.items() if coef})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for exp, coef in self.terms:
            factors = [
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(exp, start=1)
                if e
            ]
            if not factors:
                pieces.append(str(coef))
            elif coef == 1:
                pieces.append("*".join(factors))
            else:
                pieces.append("*".join([str(coef)] + factors))
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {dict(self.terms)!r})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"exp": list(exp), "coef": coef} for exp, coef in self.terms],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Polynomial":
        n, terms = _json_fields(d, "polynomial", ("n", 0), ("terms", None))
        by_exp: dict[tuple[int, ...], int] = {}
        for t in terms:
            exp, coef = _json_fields(t, "polynomial term", ("exp", 1), ("coef", 0))
            if tuple(exp) in by_exp:
                raise ValueError(f"polynomial JSON repeats the exponent {exp}")
            by_exp[tuple(exp)] = coef
        return cls(n, by_exp)


def isobaric_divided_difference(f: Polynomial, i: int) -> Polynomial:
    """Apply the i-th isobaric divided difference, summation form, exactly.

    On a monomial with exponents a, b in slots i, i+1:
    a >= b contributes the staircase of monomials from (a, b) down to (b, a);
    a < b contributes the negated strictly-between staircase.
    """
    if not 1 <= i <= f.n - 1:
        raise ValueError(f"operator index must lie in [1, {f.n - 1}]: {i}")
    width = _width(max((max(exp) for exp in f._terms), default=0))
    terms = _packed_pi({_pack(exp, width): coef for exp, coef in f._terms.items()}, i, f.n, width)
    return Polynomial._of(f.n, _unpack(terms, f.n, width))


def _packed_pi(terms: Mapping[int, int], i: int, n: int, width: int) -> dict[int, int]:
    """:func:`isobaric_divided_difference` on packed exponents.

    Setting slot i to k and slot i+1 to a + b - k moves the packed key by
    (k - a) * step, where step = 2^hi - 2^lo for the two slots' shifts.
    """
    lo = width * (n - 1 - i)
    hi = lo + width
    mask = (1 << width) - 1
    step = (1 << hi) - (1 << lo)
    out: dict[int, int] = {}
    get = out.get
    negative = []  # the keys that took a negative contribution, as only they can cancel
    for key, coef in terms.items():
        a, b = key >> hi & mask, key >> lo & mask
        if a >= b:  # k = b, ..., a
            news = range(key - (a - b) * step, key + 1, step)
        else:  # k = a + 1, ..., b - 1, negated
            news, coef = range(key + step, key + (b - a) * step, step), -coef
        if coef < 0:
            negative += news
        for new in news:
            out[new] = get(new, 0) + coef
    for new in {key for key in negative if not out[key]}:
        del out[new]
    return out


@dataclass(frozen=True)
class GFHandle:
    """A generating polynomial together with the set it came from."""

    poly: Polynomial
    shape: Shape
    tableau_set: TableauSet

    def __str__(self) -> str:
        return str(self.poly)


PolyLike = Union[Polynomial, GFHandle]


def _as_poly(p: PolyLike) -> Polynomial:
    return p.poly if isinstance(p, GFHandle) else p


def gen_fn(ts: TableauSet) -> GFHandle:
    """Sum of tableau weights over an explicit set."""
    return GFHandle(Polynomial._of(ts.shape.n, dict(Counter(map(content, ts)))), ts.shape, ts)


def row_bound_sum(b: RTuple, shape: Shape) -> GFHandle:
    """Generating polynomial of the tableaux with row ends bounded by ``b``."""
    return gen_fn(row_bound_set(b, shape))


def flag_schur_poly(phi: RTuple, shape: Shape) -> GFHandle:
    """Row bound sum whose bounds form an upper flag."""
    if not is_upper_flag(phi):
        raise ValueError(f"bounds are not an upper flag: {phi}")
    return row_bound_sum(phi, shape)


def gapless_core_schur_poly(eta: RTuple, shape: Shape) -> GFHandle:
    """Row bound sum whose bounds have a gapless core."""
    if not is_gapless_core(eta):
        raise ValueError(f"bounds do not have a gapless core: {eta}")
    return row_bound_sum(eta, shape)


def demazure_poly(p: RPermutation, shape: Shape) -> GFHandle:
    """Generating polynomial of the scanning-defined Demazure tableau set."""
    return gen_fn(demazure_set(p, shape))


def demazure_poly_dd(p: RPermutation, shape: Shape) -> Polynomial:
    """Demazure polynomial by the divided-difference recursion, no tableaux.

    The carrel-sorted permutation is itself the shortest representative of
    its coset, so its reduced word drives the recursion on the shape's
    monomial.

    >>> sh = Shape.of(3, (1, 1))
    >>> str(demazure_poly_dd(RPermutation.of(3, (2,), (2, 3, 1)), sh))
    'x1*x2 + x1*x3 + x2*x3'
    """
    _require_over(p, shape, "permutation")
    n, width = shape.n, _width(shape.parts[0])
    terms = {_pack(shape.parts, width): 1}
    for i in reduced_word(p.entries):
        terms = _packed_pi(terms, i, n, width)
    return Polynomial._of(n, _unpack(terms, n, width))


def _demazure_walk(
    shape: Shape, width: int | None = None
) -> Iterator[tuple[tuple[int, ...], dict[int, int]]]:
    """The entries of every R-permutation w over the shape's carrel set, with
    κ_w packed ``width`` bits per value, by default as :func:`demazure_poly_dd`
    packs it, one divided difference each.

    κ_w = π_i(κ_u) for ``(i, u) = rperms._lower_cover(w)``, so the walk runs
    the tree of lower covers depth first from the identity's x^λ, and only the
    polynomials on the path and those that pending children read stay alive.
    """
    n, width = shape.n, width or _width(shape.parts[0])
    carrel = [h for h, (lo, hi) in enumerate(shape.r_subset.carrels) for _ in range(lo, hi)]
    stack = [(tuple(range(1, n + 1)), 0, {_pack(shape.parts, width): 1})]
    while stack:
        u, i, terms = stack.pop()
        if i:  # a child: its parent's polynomial until now
            terms = _packed_pi(terms, i, n, width)
        yield u, terms
        # the children: u with some j before j + 1, in an earlier carrel, swapped
        where = {v: pos for pos, v in enumerate(u)}
        for j in range(1, n):
            a, b = where[j], where[j + 1]
            if carrel[a] < carrel[b]:
                w = list(u)
                w[a], w[b] = j + 1, j
                if _lower_cover(w)[0] == j:
                    stack.append((tuple(w), j, terms))


def compose_alpha(p: RPermutation, shape: Shape) -> tuple[int, ...]:
    """The composition placing part i at slot p_i; the content of the key of p.

    >>> compose_alpha(RPermutation.of(3, (2,), (2, 3, 1)), Shape.of(3, (1, 1)))
    (0, 1, 1)
    """
    alpha = [0] * shape.n
    for i, part in enumerate(shape.parts):
        alpha[p.entries[i] - 1] = part
    return tuple(alpha)


def poly_eq(a: PolyLike, b: PolyLike) -> bool:
    """Coefficientwise equality (False when variable counts differ)."""
    return _as_poly(a) == _as_poly(b)


def gf_identical(a: GFHandle, b: GFHandle) -> bool:
    """Equality of the underlying tableau sets; implies :func:`poly_eq`."""
    return a.shape == b.shape and a.tableau_set == b.tableau_set
