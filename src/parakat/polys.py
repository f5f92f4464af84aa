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

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .errors import ShapeMismatch
from .rperms import RPermutation, reduced_word
from .rtuples import RTuple, _check_size, _json_fields, is_gapless_core, is_upper_flag
from .tableaux import Shape, TableauSet, content, demazure_set, row_bound_set


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
        self.n = n
        clean: dict[tuple[int, ...], int] = {}
        for exp, coef in dict(terms).items():
            exp = tuple(exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector for n={n}: {exp}")
            if coef:
                clean[exp] = coef
        self._terms = clean

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
        return Polynomial(self.n, out)

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
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        _check_size("n", n)
        pairs = (_json_fields(t, "polynomial term", ("exp", 1), ("coef", 0)) for t in terms)
        return cls(n, {tuple(exp): coef for exp, coef in pairs})


def isobaric_divided_difference(f: Polynomial, i: int) -> Polynomial:
    """Apply the i-th isobaric divided difference, summation form, exactly.

    On a monomial with exponents a, b in slots i, i+1:
    a >= b contributes the staircase of monomials from (a, b) down to (b, a);
    a < b contributes the negated strictly-between staircase.
    """
    if not 1 <= i <= f.n - 1:
        raise ValueError(f"operator index must lie in [1, {f.n - 1}]: {i}")
    out: dict[tuple[int, ...], int] = {}
    for exp, coef in f._terms.items():
        a, b = exp[i - 1], exp[i]
        if a >= b:
            ks = range(b, a + 1)
            sign = 1
        else:
            ks = range(a + 1, b)
            sign = -1
        for k in ks:
            new = list(exp)
            new[i - 1] = k
            new[i] = a + b - k
            key = tuple(new)
            out[key] = out.get(key, 0) + sign * coef
    return Polynomial(f.n, out)


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
    acc: dict[tuple[int, ...], int] = {}
    for t in ts:
        exp = content(t)
        acc[exp] = acc.get(exp, 0) + 1
    return GFHandle(Polynomial(ts.shape.n, acc), ts.shape, ts)


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
    if p.r_subset != shape.r_subset:
        raise ShapeMismatch(
            f"permutation over {p.r_subset.elements} does not match shape {shape}"
        )
    f = Polynomial.monomial(shape.n, shape.parts)
    for i in reduced_word(p.entries):
        f = isobaric_divided_difference(f, i)
    return f


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
