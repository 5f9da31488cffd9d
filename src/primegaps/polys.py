"""Exact polynomial arithmetic over the rationals, and the GPY ratio.

The sieve-weight optimization compares strict inequalities between integrals
of squared polynomials, so all expansion, differentiation, and integration
over [0, 1] is done with Fraction coefficients; nothing here rounds but the
float returned as the GPY detection ratio.  That ratio of the two
beta-integral main terms (closed form for P(y) = y^(k+r), exact integrals
for any valid P) and the strict 4/k inequality bounding it are built on
these integrals, so they live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import require

CoeffLike = int | Fraction | str


class RationalPoly:
    """Polynomial sum c_j y^j with Fraction coefficients, low order first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[CoeffLike] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def vanishing_order(self) -> int | None:
        """Order of the zero at y = 0, or None for the zero polynomial."""
        for j, c in enumerate(self.coeffs):
            if c != 0:
                return j
        return None

    def __call__(self, y):
        acc = 0 if not self.coeffs else self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * y + c
        return acc

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if self.is_zero or other.is_zero:
            return RationalPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    def deriv(self, order: int = 1) -> "RationalPoly":
        require(order >= 0, "derivative order must be nonnegative")
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(j * c for j, c in enumerate(cs))[1:]
        return RationalPoly(cs)

    def __repr__(self) -> str:
        return f"RationalPoly({list(self.coeffs)!r})"


def weighted_square_integral(Q: RationalPoly, a: int) -> Fraction:
    """Exact value of integral_0^1 (y^a / a!) Q(1-y)^2 dy.

    With u = 1 - y and Q^2 = sum s_n u^n, each term is the beta integral
    integral_0^1 u^n (1-u)^a / a! du = n! / (n+a+1)!.
    """
    require(a >= 0, "weight exponent must be nonnegative")
    return sum(
        (s / math.prod(range(n + 1, n + a + 2)) for n, s in enumerate((Q * Q).coeffs)),
        Fraction(0),
    )


@dataclass(frozen=True)
class PolynomialSpec:
    """A weight polynomial P with P(1) = 1 vanishing to order >= k at 0.

    k is the tuple size the weights are built for; the vanishing condition
    is what makes the divisor-sum main terms come out as beta integrals.
    coeffs, low order first, may be any values Fraction accepts; they are
    stored as a tuple of Fractions without trailing zeros.
    """

    coeffs: tuple[Fraction, ...]
    k: int

    def __post_init__(self):
        poly = RationalPoly(self.coeffs)
        require(self.k >= 1, "k must be at least 1")
        order = poly.vanishing_order()
        require(
            order is not None and order >= self.k,
            f"polynomial must vanish to order at least k={self.k} at 0",
        )
        require(poly(Fraction(1)) == 1, "polynomial must satisfy P(1) = 1")
        object.__setattr__(self, "coeffs", poly.coeffs)

    @classmethod
    def power(cls, k: int, r: int) -> "PolynomialSpec":
        """The standard choice P(y) = y^(k+r)."""
        require(k >= 1 and r >= 0, "need k >= 1 and r >= 0")
        coeffs = (Fraction(0),) * (k + r) + (Fraction(1),)
        return cls(coeffs, k)

    @property
    def poly(self) -> RationalPoly:
        return RationalPoly(self.coeffs)


# ---------------------------------------------------------------------------
# the ratio and the inequality blocking it

def gpy_ratio(k: int, r: int, theta: float) -> float:
    """Closed form theta * 2(2r+1) / ((r+1)(k+2r+1)) for P(y) = y^(k+r)."""
    require(k >= 2, "k must be at least 2")
    require(r >= 0, "r must be nonnegative")
    require(0.0 < theta <= 0.5, "theta must lie in (0, 1/2]")
    return theta * (2 * (2 * r + 1)) / ((r + 1) * (k + 2 * r + 1))


def gpy_ratio_general(P: PolynomialSpec, k: int, theta: float) -> float:
    """The ratio of beta-integral main terms for an arbitrary valid P:

        theta * (int y^(k-2)/(k-2)! P^(k-1)(1-y)^2 dy)
              / (int y^(k-1)/(k-1)! P^(k)(1-y)^2 dy),

    with both integrals evaluated exactly over the rationals."""
    require(k >= 2, "k must be at least 2")
    require(0.0 < theta <= 0.5, "theta must lie in (0, 1/2]")
    order = P.poly.vanishing_order()
    require(order is not None and order >= k, "P must vanish to order >= k at 0")
    num = weighted_square_integral(P.poly.deriv(k - 1), k - 2)
    den = weighted_square_integral(P.poly.deriv(k), k - 1)
    require(den != 0, "denominator integral vanishes")
    return theta * float(num / den)


def best_power_r(k: int) -> int:
    """Integer r maximizing 2(2r+1)/((r+1)(k+2r+1)), ties to the smaller r.

    With t = 2r+1 the reciprocal is (t + k + 1 + k/t)/4, convex
    with its minimum at t = sqrt(k); the integers around it compare exactly.
    """
    require(k >= 2, "k must be at least 2")
    s = math.isqrt(k)
    return max(
        range(max(0, (s - 1) // 2), s // 2 + 2),
        key=lambda r: Fraction(2 * (2 * r + 1), (r + 1) * (k + 2 * r + 1)),
    )


class InequalityCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    holds: bool


def unfortunate_inequality(Q: RationalPoly, k: int) -> InequalityCheck:
    """The strict bound capping the ratio: for Q != 0 with Q(0) = 0,

        int y^(k-2)/(k-2)! Q(1-y)^2 dy  <  (4/k) int y^(k-1)/(k-1)! Q'(1-y)^2 dy.

    Returns exact rational (lhs, rhs, lhs < rhs); rhs includes the 4/k
    factor.  Both sides scale by c^2 under Q -> cQ, so holds is
    scale-invariant.
    """
    require(k >= 2, "k must be at least 2")
    require(not Q.is_zero, "invalid-Q: polynomial is identically zero")
    require(Q(Fraction(0)) == 0, "invalid-Q: need Q(0) = 0")
    lhs = weighted_square_integral(Q, k - 2)
    rhs = Fraction(4, k) * weighted_square_integral(Q.deriv(), k - 1)
    return InequalityCheck(lhs, rhs, lhs < rhs)
