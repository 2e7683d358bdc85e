"""Exact power-series machinery for closed-walk and non-backtracking counts.

Everything here is exact integer or rational arithmetic; floating point
appears only in limit-ratio reports. The generating-function transform
converting closed-walk counts into non-backtracking ones is implemented by
composing with t / (1 + (2r-1) t^2) and multiplying by the rational
prefactor, so each intermediate object can be compared term by term.

a_coefficients does not use that generic route. It sums A(u) = sum_k g_k x^k
by Horner, S <- g_k + x S for k = N..0, keeping S to degree N - k: times x is
a shift by one place and two in-place divisions by 1 + 3u (b_m <- a_m -
3 b_{m-1}), and g_k = g_{k-1} (2(2k-1))^2 // k^2. That is about N^2 bigint
additions with small multipliers, and no binomial or bigint product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Limit of f_{2n} * 2n / 3^{2n} on the standard rank-2 lattice. Consecutive
# steps of the non-backtracking walk on Z^r have correlation 1/(2r-1), so the
# per-coordinate variance per step is (1/r) * (1 + 1/(2r-1)) / (1 - 1/(2r-1))
# = 1/(r-1), which is 1 for r = 2. The local CLT with the parity factor 2 gives
# P(return at step 2n) ~ 2 / (2 pi * 2n) = 1 / (2 pi n); with 4 * 3^{2n-1}
# walks of length 2n this is f_{2n} * 2n / 3^{2n} -> 4/(3 pi). The exact count
# tables certify the variance: sum_v x_v^2 N'_v(n) = 3^{n-1} (4n - 3) + 1,
# about n per walk of length n.
SHARP_F_LIMIT_Z2 = 4.0 / (3.0 * math.pi)

# The printed limit constant. It takes sharp_sigma(2) = sqrt(3) + 1 as the
# diffusion constant, so it is the limit above divided by sqrt(3) + 1; the
# exact counts do not converge to it.
PRINTED_F_LIMIT_Z2 = 4.0 / (3.0 * (math.sqrt(3.0) + 1.0) * math.pi)


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series truncated at a fixed order, with exact coefficients.

    Coefficients are ints or Fractions; index equals the power of t.
    Arithmetic respects the truncation: results are valid to the smaller
    order of the operands.
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k]

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,) + (0,) * order)

    @classmethod
    def t(cls, order: int) -> "TruncatedSeries":
        return cls((0, 1) + (0,) * (order - 1))

    @classmethod
    def from_poly(cls, coeffs, order: int) -> "TruncatedSeries":
        c = list(coeffs)[: order + 1]
        return cls(tuple(c) + (0,) * (order + 1 - len(c)))

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(0, n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)), requiring inner to have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        acc = TruncatedSeries.zero(n)
        inner = inner.truncate(n)
        for a in reversed(self.coeffs[: n + 1]):
            acc = acc * inner
            acc = TruncatedSeries((acc.coeffs[0] + a,) + acc.coeffs[1:])
        return acc

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse, exact; constant term must be a unit or Fraction."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ValueError("series with zero constant term has no inverse")
        inv0 = Fraction(1, c0) if c0 not in (1, -1) else c0
        out = [inv0]
        for k in range(1, self.order + 1):
            s = sum(self.coeffs[j] * out[k - j] for j in range(1, k + 1))
            out.append(-inv0 * s)
        return TruncatedSeries(tuple(out))


def series_rational_expand(num, den, order: int) -> TruncatedSeries:
    """Expand num(t)/den(t) to the given order; den must have unit constant term."""
    n = TruncatedSeries.from_poly(num, order)
    d = TruncatedSeries.from_poly(den, order)
    return n * d.inverse()


def g_even_z2(n: int) -> int:
    """Closed-walk count g_{2n} = C(2n, n)^2 on the standard rank-2 lattice."""
    return math.comb(2 * n, n) ** 2


def closed_walk_series_z2(order: int) -> TruncatedSeries:
    """The exact closed-walk generating series for Z^2, truncated."""
    coeffs = [0] * (order + 1)
    for k in range(0, order // 2 + 1):
        coeffs[2 * k] = g_even_z2(k)
    return TruncatedSeries(tuple(coeffs))


def bartholdi_transform(g_series: TruncatedSeries, r: int, order: int) -> TruncatedSeries:
    """Non-backtracking count series from the closed-walk series.

    F(t) = (1 - t^2) / (1 + (2r-1) t^2) * G(t / (1 + (2r-1) t^2)),
    computed exactly by composing with the expanded inner series and
    multiplying by the expanded rational prefactor.
    """
    q = 2 * r - 1
    den = (1, 0, q)
    inner = series_rational_expand((0, 1), den, order)
    prefactor = series_rational_expand((1, 0, -1), den, order)
    return g_series.truncate(order).compose(inner) * prefactor


def a_coefficients(n_max: int) -> list[int]:
    """A_{2n} = sum_k C(2k,k)^2 C(n+k-1, 2k-1) (-3)^(n-k), for n = 0..n_max.

    That is A(u) = sum_k g_k x^k with u = t^2, g_k = C(2k,k)^2 and
    x = u / (1 + 3u)^2, summed by Horner as in the module notes.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    g = [1]
    for k in range(1, n_max + 1):
        g.append(g[-1] * (2 * (2 * k - 1)) ** 2 // (k * k))
    s = [g[n_max]]
    for k in range(n_max - 1, -1, -1):
        s.insert(0, 0)
        for _ in range(2):
            for m in range(1, len(s)):
                s[m] -= 3 * s[m - 1]
        s[0] = g[k]
    return s


def f_recurrence(n_max: int) -> list[int]:
    """f_{2n} for n = 0..n_max from f_{2n} + 3 f_{2n-2} = A_{2n} - A_{2n-2}.

    Odd-length counts are zero and not listed.
    """
    a = a_coefficients(n_max)
    out = [1]
    for n in range(1, n_max + 1):
        out.append(a[n] - a[n - 1] - 3 * out[n - 1])
    return out


def grigorchuk_beta(alpha: float, r: int) -> float:
    """Closed-walk growth rate from the cogrowth rate, per the displayed case split.

    alpha + (2r-1)/alpha when alpha > sqrt(2r-1); otherwise the printed
    spectral-radius value 2 sqrt(2r-1) / (2r).
    """
    if alpha <= 0:
        raise ValueError("cogrowth rate must be positive")
    q = 2 * r - 1
    if alpha > math.sqrt(q):
        return alpha + q / alpha
    return 2.0 * math.sqrt(q) / (2 * r)


def sharp_sigma_forms(r: int) -> tuple[float, float]:
    """Both displayed forms of the variance constant sigma^2 for Z^r, r >= 2."""
    if r < 2:
        raise ValueError("requires r >= 2")
    q = math.sqrt(2 * r - 1)
    bracket = (1.0 / q) * (1.0 + math.sqrt((r + q) / (r - q)))
    closed = (q + 1.0) / (r - 1.0)
    return bracket, closed


def sharp_sigma(r: int) -> float:
    """sigma^2 = (sqrt(2r-1) + 1) / (r - 1) for the rank-r lattice, r >= 2.

    This is the paper's displayed sigma^2, not the diffusion constant of the
    non-backtracking walk, which is 1/(r-1). For r = 2 the exact count tables
    give sum_v x_v^2 N'_v(n) = 3^{n-1} (4n - 3) + 1, about n per walk, so the
    diffusion constant is 1 where sharp_sigma(2) = sqrt(3) + 1. See
    SHARP_F_LIMIT_Z2.
    """
    return sharp_sigma_forms(r)[1]


def f_ratio_z2(two_n: int, f_value: int | None = None) -> float:
    """The scaled count f_{2n} * 2n / 3^{2n}, evaluated exactly then floated."""
    if two_n % 2 or two_n <= 0:
        raise ValueError("even positive length required")
    if f_value is None:
        f_value = f_recurrence(two_n // 2)[two_n // 2]
    return f_value * two_n / 3**two_n


def sharp_ratio_report(n_max: int) -> list[tuple[int, float]]:
    """Rows (2n, f_{2n} * 2n / 3^{2n}) for n = 1..n_max.

    The ratios converge to SHARP_F_LIMIT_Z2 = 4/(3 pi), (sqrt(3) + 1) times
    the printed constant PRINTED_F_LIMIT_Z2.
    """
    fs = f_recurrence(n_max)
    return [(2 * n, f_ratio_z2(2 * n, fs[n])) for n in range(1, n_max + 1)]
