"""Exact truncated formal power series in one variable q.

Every series carries integer coefficients for the exponents 0..order
inclusive and nothing beyond; all constructors and products truncate
eagerly at that order.  Coefficients are Python ints (a float or a str
is refused, not rounded or parsed), so arithmetic is exact at any size.
Binary operations insist on equal orders -- use ``truncate`` to drop
precision explicitly.

Infinite products and sums are truncated by a minimal-degree cutoff: a
factor or term is included iff its lowest-degree monomial has exponent
<= order, which keeps every retained coefficient exact.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Any, Optional, Sequence

# pickles made before reports existed name hookpart.qseries.VerifyReport and .Discrepancy
from hookpart.reports import Discrepancy, VerifyReport, compare_counts  # noqa: F401


class QSeries:
    """A formal power series in q, exact up to and including q^order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        if len(coeffs) == 0:
            raise ValueError("a series carries at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(map(operator.index, coeffs)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("QSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, e: int) -> int:
        """Coefficient of q^e; e must not exceed the order."""
        if e < 0 or e > self.order:
            raise IndexError(f"exponent {e} outside retained range 0..{self.order}")
        return self.coeffs[e]

    def truncate(self, order: int) -> "QSeries":
        """Drop to a lower order (the only sanctioned way to mix orders)."""
        if order < 0 or order > self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        return QSeries(self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QSeries") -> "QSeries":
        _check_orders(self, other)
        return QSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "QSeries") -> "QSeries":
        _check_orders(self, other)
        return QSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "QSeries":
        return QSeries([-a for a in self.coeffs])

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Truncated product over nonzero terms only.

        The sparser operand drives the outer loop and each inner loop stops
        at the order, so the cost is O(nnz(a) * nnz(b)) coefficient
        products at most: O(order) for a monomial or a two-term factor
        times anything, O(order^2) for two dense series.
        """
        _check_orders(self, other)
        top = len(self.coeffs)
        outer, inner = _nonzero(self.coeffs), _nonzero(other.coeffs)
        if len(outer) > len(inner):
            outer, inner = inner, outer
        out = [0] * top
        for i, ai in outer:
            room = top - i
            for j, bj in inner:
                if j >= room:
                    break
                out[i + j] += ai * bj
        return QSeries(out)

    def invert(self) -> "QSeries":
        """Multiplicative inverse; requires constant term 1.

        Solves for the inverse coefficients one exponent at a time, so the
        result is exact through the shared order.  Each step runs over the
        nonzero terms of the input only, so the cost is O(order * nnz):
        O(order) for 1 - q^s, O(order^1.5) for (q)_inf, which has
        O(sqrt(order)) nonzero terms, O(order^2) for a dense input.
        """
        a = self.coeffs
        if a[0] != 1:
            raise ValueError(f"can only invert a series with constant term 1, got {a[0]}")
        terms = _nonzero(a)[1:]
        top = len(a)
        b = [0] * top
        b[0] = 1
        for e in range(1, top):
            acc = 0
            for i, ai in terms:
                if i > e:
                    break
                acc += ai * b[e - i]
            b[e] = -acc
        return QSeries(b)

    def __repr__(self) -> str:
        return f"QSeries({list(self.coeffs)!r})"

    def __str__(self) -> str:
        terms = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                mono = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"{body} + O(q^{self.order + 1})"


def _nonzero(coeffs: Sequence[int]) -> list[tuple[int, int]]:
    """The nonzero coefficients as (exponent, coefficient), ascending."""
    return [(e, c) for e, c in enumerate(coeffs) if c]


def _check_orders(a: QSeries, b: QSeries) -> None:
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")


def _check_nonneg(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def zero(order: int) -> QSeries:
    _check_nonneg("series order", order)
    return QSeries([0] * (order + 1))


def one(order: int) -> QSeries:
    _check_nonneg("series order", order)
    return QSeries([1] + [0] * order)


def make_monomial(e: int, order: int) -> QSeries:
    """q^e at the given order; exponents beyond the order truncate to 0."""
    _check_nonneg("exponent", e)
    _check_nonneg("series order", order)
    coeffs = [0] * (order + 1)
    if e <= order:
        coeffs[e] = 1
    return QSeries(coeffs)


def q_pochhammer(k: int, count: Optional[int], order: int) -> QSeries:
    """The product (1 - q^k)(1 - q^(k+1)) ... with ``count`` factors.

    ``count=None`` means the infinite product, truncated by keeping the
    factors (1 - q^e) with e <= order; the rest are 1 to this precision.
    ``count=0`` is the empty product.  k must be >= 1 -- the k=0
    specialization has no constant-term-1 expansion to work in.

    Each two-term factor is multiplied into one running coefficient list
    in place, up to the product's degree so far, so the cost is at most
    O(factors * order): O(order^2) for (q)_inf, where a dense product per
    factor would be O(order^3).
    """
    if k < 1:
        raise ValueError("q_pochhammer requires k >= 1")
    if count is not None:
        _check_nonneg("factor count", count)
    _check_nonneg("series order", order)
    if count is None:
        exponents = range(k, order + 1)
    else:
        exponents = range(k, min(k + count, order + 1))
    acc = [1] + [0] * order
    degree = 0
    for e in exponents:
        degree = min(degree + e, order)
        # multiply by (1 - q^e) in place; descending, so acc[i - e] is old
        for i in range(degree, e - 1, -1):
            acc[i] -= acc[i - e]
    return QSeries(acc)


@lru_cache(maxsize=None)
def euler_inv(order: int) -> QSeries:
    """1 / ((1-q)(1-q^2)...): the partition-count generating function."""
    return q_pochhammer(1, None, order).invert()


def partial_euler_inv(m: int, order: int) -> QSeries:
    """1/(q)_m = 1/((1-q)(1-q^2)...(1-q^m)): partitions with parts <= m,
    or with at most m parts.

    Starting from 1, each factor (1 - q^k) is divided out in place:
    b[e] += b[e - k] with e ascending, so that b[e - k] already holds the
    quotient.  Each factor costs O(order); factors with k > order are 1
    to this precision, so at most min(m, order) of them are divided out.
    """
    _check_nonneg("m", m)
    _check_nonneg("series order", order)
    coeffs = [1] + [0] * order
    for k in range(1, min(m, order) + 1):
        for e in range(k, order + 1):
            coeffs[e] += coeffs[e - k]
    return QSeries(coeffs)


def euler_sum(shift: int, summands: Sequence[QSeries], order: int) -> QSeries:
    """sum_j q^(j*shift) / (q)_j * R_j over j = 0..J-1, R_j = summands[j].

    The one evaluator of such sums: fact 2's right side and the proof
    chain's inner and outer sums.  Nested from the last term, A_J = 0 and
    A_j = R_j + q^shift * A_(j+1) / (1 - q^(j+1)), so that A_0 is the sum:
    per term one in-place division by a two-term factor (e ascending, so
    acc[e - k] already holds the quotient) and one shift, O(order).
    Every R_j must be of the given order.
    """
    _check_nonneg("shift", shift)
    _check_nonneg("series order", order)
    acc = [0] * (order + 1)
    for j in range(len(summands) - 1, -1, -1):
        k = j + 1
        for e in range(k, order + 1):
            acc[e] += acc[e - k]
        row = summands[j].coeffs
        if len(row) != len(acc):
            raise ValueError(f"order mismatch: {len(row) - 1} vs {order}")
        acc = list(row[:shift]) + [r + a for r, a in zip(row[shift:], acc)]
    return QSeries(acc)


def gauss_sum(shift: int, a: int, terms: int, order: int) -> QSeries:
    """sum_j q^(j*shift) [a+j, a]_q over j = 0..terms-1, truncated.

    The one evaluator of such sums: fact 1's right side and chain stage 2's
    sum over rows.  Row j, the Gaussian binomial [a+j, a]_q, a polynomial of
    degree a*j, comes from row j-1 by two in-place two-term steps, since
    [a+j, a]_q = [a+j-1, a]_q * (1 - q^(a+j)) / (1 - q^j): multiply by
    (1 - q^(a+j)) with e descending, so row[e - a - j] is still old, then
    divide by (1 - q^j) with e ascending, so row[e - j] already holds the
    quotient.  Row j is added at q^(j*shift), so it is kept only up to
    order - j*shift: O(order) per row.  Chain stage 1's tails also multiply
    by (1 - q^(d+i)); this loop stays apart from theirs, so that a fault in
    either shows as a stage mismatch.
    """
    _check_nonneg("shift", shift)
    _check_nonneg("a", a)
    _check_nonneg("series order", order)
    acc = [0] * (order + 1)
    row = [1] + [0] * order
    for j in range(terms):
        base = j * shift
        if base > order:
            break
        top = min(a * j, order - base)
        if j:
            s = a + j
            for e in range(top, s - 1, -1):
                row[e] -= row[e - s]
            for e in range(j, top + 1):
                row[e] += row[e - j]
        for e in range(top + 1):
            acc[base + e] += row[e]
    return QSeries(acc)


def gauss_binomial(m: int, n: int, order: int) -> QSeries:
    """Gaussian binomial for the m-by-n box, truncated to the given order.

    A polynomial of degree m*n: the product over j = 1..n of
    (1 - q^(m+j)) / (1 - q^j), equal to (q)_{m+n} / ((q)_m (q)_n), with n
    the shorter side (the binomial is symmetric).  One list, kept up to
    top = min(m*n, order), is multiplied by (1 - q^(m+j)) in place with e
    descending, then divided by (1 - q^j) with e ascending; both factors
    have constant term 1, so each step is exact up to top.  The cost is
    O(min(m, n) * top) and the memory one list of top + 1 ints.
    """
    if m < 0 or n < 0:
        raise ValueError("box dimensions must be nonnegative")
    _check_nonneg("series order", order)
    if n > m:
        m, n = n, m
    top = min(m * n, order)
    acc = [1] + [0] * top
    for j in range(1, n + 1):
        s = m + j
        for e in range(top, s - 1, -1):
            acc[e] -= acc[e - s]
        for e in range(j, top + 1):
            acc[e] += acc[e - j]
    return QSeries(acc + [0] * (order - top))


def box_quotient(m: int, n: int, order: int) -> QSeries:
    """(q)_{m+n} / ((q)_m (q)_n), truncated: the m-by-n box's enumerator,
    built literally from ``q_pochhammer`` and ``partial_euler_inv``.

    Chain stages 0 and 1 multiply by it for the c-by-d box inside the
    marked hook; fact 3, against ``gauss_binomial``, is its check.
    Dividing (q)_{m+n} by the longer side's (q)_k first leaves a short
    polynomial, so neither product multiplies two dense series.
    """
    short, long = sorted((m, n))
    return (
        q_pochhammer(1, m + n, order)
        * partial_euler_inv(long, order)
        * partial_euler_inv(short, order)
    )


def lemma_rhs(c: int, d: int, order: int) -> QSeries:
    """q^(c+d+1) / ((1 - q^(c+d+1)) (q)_inf), truncated.

    This is the closed-form generating function, in n, for the number of
    times the pair (c, d) occurs among either kind of cell filling over
    all partitions of n.  It depends on c and d only through c+d.  When
    c+d+1 exceeds the order, the result is the zero series.
    """
    if c < 0 or d < 0:
        raise ValueError("pair entries must be nonnegative")
    _check_nonneg("series order", order)
    step = c + d + 1
    marked_row = make_monomial(step, order)
    repeat = (one(order) - make_monomial(step, order)).invert()
    return marked_row * repeat * euler_inv(order)


def compare_series(
    context: str, expected: QSeries, actual: QSeries, label: Optional[str] = None
) -> VerifyReport:
    """Coefficient-wise comparison, reporting the smallest failing exponent
    (as ``(label, exponent)`` when a label is given)."""
    _check_orders(expected, actual)
    return compare_counts(
        context, dict(enumerate(expected.coeffs)), dict(enumerate(actual.coeffs)), label
    )


def verify_fact1(a: int, k: int, order: int) -> VerifyReport:
    """Check the q-binomial expansion of 1/(z)_{a+1} at z = q^k.

    Left side: the inverted finite product (1-q^k)...(1-q^(k+a)).
    Right side: sum over j of [a+j, a]_q * q^(k*j) by ``gauss_sum``,
    keeping the terms whose lowest degree k*j fits under the order.  The
    two sides share no code (inversion vs. ``gauss_sum``'s row steps), so
    this fact is the check of ``gauss_sum``, the kernel behind chain stage 2.
    Factors (1 - q^e) with e > order are 1, so the cost, about order^2/k,
    stops growing once a passes the order.
    """
    _check_nonneg("a", a)
    if k < 1:
        raise ValueError("specialization exponent k must be >= 1")
    lhs = q_pochhammer(k, a + 1, order).invert()
    rhs = gauss_sum(k, a, order // k + 1, order)
    return compare_series(f"fact1(a={a}, k={k}, order={order})", lhs, rhs)


def verify_fact2(k: int, order: int) -> VerifyReport:
    """Check 1/(z)_inf = sum_j z^j/(q)_j at z = q^k.

    Left side: the inverted infinite product (q^k)_inf.  Right side:
    ``euler_sum`` with every R_j = 1, which divides by one two-term factor
    per j, so the two sides share no inversion.  This fact is the check
    of ``euler_sum`` itself, the kernel behind chain stages 0-2.
    """
    if k < 1:
        raise ValueError("specialization exponent k must be >= 1")
    lhs = q_pochhammer(k, None, order).invert()
    rhs = euler_sum(k, [one(order)] * (order // k + 1), order)
    return compare_series(f"fact2(k={k}, order={order})", lhs, rhs)
