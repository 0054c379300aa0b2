import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hookpart import partitions, qseries
from hookpart.qseries import (
    QSeries,
    VerifyReport,
    box_quotient,
    compare_counts,
    compare_series,
    euler_inv,
    gauss_binomial,
    lemma_rhs,
    make_monomial,
    one,
    partial_euler_inv,
    q_pochhammer,
    verify_fact1,
    verify_fact2,
    zero,
)

# --- independent oracles -----------------------------------------------


def poly_mul(a, b):
    """Exact product of two coefficient lists (no truncation)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def expand_product(exponents, order):
    """Expand prod (1 - q^e) exactly, then truncate to the order."""
    poly = [1]
    for e in exponents:
        factor = [0] * (e + 1)
        factor[0], factor[e] = 1, -1
        poly = poly_mul(poly, factor)
    poly = poly[: order + 1]
    return poly + [0] * (order + 1 - len(poly))


def brute_bounded_count(n, max_part):
    return sum(1 for p in partitions.partitions_of(n) if not p or p[0] <= max_part)


# --- construction and arithmetic ---------------------------------------


def test_make_monomial():
    assert make_monomial(0, 4).coeffs == (1, 0, 0, 0, 0)
    assert make_monomial(3, 5).coeffs == (0, 0, 0, 1, 0, 0)
    assert make_monomial(6, 5).coeffs == (0, 0, 0, 0, 0, 0)


def test_mul_truncates():
    s = QSeries([1, 1])
    assert (s * s).coeffs == (1, 2)
    q = make_monomial(1, 1)
    assert (q * q).coeffs == (0, 0)


def test_add_zero_is_identity():
    s = QSeries([3, -1, 4, 1])
    assert (s + zero(3)) == s


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        QSeries([1, 2]) + QSeries([1, 2, 3])
    with pytest.raises(ValueError):
        QSeries([1, 2]) * QSeries([1, 2, 3])


def test_truncate():
    s = QSeries([1, 2, 3, 4])
    assert s.truncate(1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        s.truncate(7)


def test_coefficient_bounds():
    s = QSeries([5, 6])
    assert s.coefficient(1) == 6
    with pytest.raises(IndexError):
        s.coefficient(2)
    assert one(3).coefficient(0) == 1
    assert zero(3).coefficient(3) == 0


@pytest.mark.parametrize("coeff", [1.5, "1"])
def test_non_integer_coefficients_are_rejected(coeff):
    # exact arithmetic: a float is not truncated, a str not parsed
    with pytest.raises(TypeError):
        QSeries([1, coeff])


def test_bool_coefficients_are_ints():
    series = QSeries([True, False, 3])
    assert series.coeffs == (1, 0, 3)
    assert all(type(c) is int for c in series.coeffs)


def test_immutable():
    s = QSeries([1, 2])
    with pytest.raises(AttributeError):
        s.coeffs = (9,)


def test_invert_geometric():
    assert (one(4) - make_monomial(1, 4)).invert().coeffs == (1, 1, 1, 1, 1)
    assert one(5).invert() == one(5)
    for s in range(2, 8):
        inverse = (one(20) - make_monomial(s, 20)).invert()
        assert inverse.coeffs == tuple(1 if e % s == 0 else 0 for e in range(21))


def test_invert_two_bounded_parts():
    # 1/((1-q)(1-q^2)) counts partitions with parts <= 2
    series = q_pochhammer(1, 2, 4).invert()
    expected = tuple(brute_bounded_count(n, 2) for n in range(5))
    assert expected == (1, 1, 2, 2, 3)
    assert series.coeffs == expected


def test_invert_requires_unit_constant():
    with pytest.raises(ValueError):
        QSeries([0, 1]).invert()
    with pytest.raises(ValueError):
        QSeries([2, 1]).invert()


unit_series = st.lists(st.integers(-9, 9), min_size=1, max_size=10).map(
    lambda cs: QSeries([1] + cs[1:])
)


@st.composite
def same_order_series(draw, count=2):
    order = draw(st.integers(0, 9))
    return tuple(
        QSeries(draw(st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1)))
        for _ in range(count)
    )


@given(same_order_series())
def test_mul_commutative(pair):
    a, b = pair
    assert a * b == b * a


@given(same_order_series(count=3))
def test_mul_associative_with_unit(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * one(a.order) == a


# --- the sparse kernel against the dense oracle -------------------------


def truncated_product(a, b):
    return tuple(poly_mul(a.coeffs, b.coeffs)[: a.order + 1])


coefficient = st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30))


@st.composite
def sparse_series(draw, order):
    """A series at the given order with only a few nonzero coefficients."""
    coeffs = [0] * (order + 1)
    for e in draw(st.lists(st.integers(0, order), max_size=3)):
        coeffs[e] = draw(coefficient)
    return QSeries(coeffs)


@st.composite
def dense_series(draw, order):
    return QSeries(draw(st.lists(coefficient, min_size=order + 1, max_size=order + 1)))


@st.composite
def mixed_pair(draw):
    order = draw(st.integers(0, 30))
    a = draw(sparse_series(order))
    b = draw(dense_series(order))
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=150)
@given(mixed_pair())
def test_mul_sparse_dense_matches_oracle(pair):
    a, b = pair
    assert (a * b).coeffs == truncated_product(a, b)


@given(st.integers(0, 20), st.integers(0, 30), st.data())
def test_mul_monomial_and_two_term_factor(order, e, data):
    b = data.draw(dense_series(order))
    shifted = (make_monomial(e, order) * b).coeffs
    assert shifted == truncated_product(make_monomial(e, order), b)
    assert shifted == ((0,) * e + b.coeffs)[: order + 1]
    factor = one(order) - make_monomial(e, order)
    assert (factor * b).coeffs == truncated_product(factor, b)
    assert (b * factor).coeffs == truncated_product(factor, b)
    if e > order:
        assert factor == one(order) and factor * b == b


@given(st.data())
def test_mul_order_zero(data):
    a = data.draw(dense_series(0))
    b = data.draw(dense_series(0))
    assert (a * b).coeffs == (a.coeffs[0] * b.coeffs[0],)


@st.composite
def sparse_unit_series(draw):
    order = draw(st.integers(0, 40))
    coeffs = draw(sparse_series(order)).coeffs
    return QSeries((1,) + coeffs[1:])


@settings(max_examples=80)
@given(st.one_of(unit_series, sparse_unit_series()))
def test_invert_roundtrip(a):
    assert a * a.invert() == one(a.order)


# --- named constructors -------------------------------------------------


def test_q_pochhammer_basic():
    assert q_pochhammer(1, 1, 3).coeffs == (1, -1, 0, 0)
    assert q_pochhammer(1, 0, 3).coeffs == (1, 0, 0, 0)


def test_q_pochhammer_matches_expansion():
    # (1-q^2)(1-q^3) at order 5
    assert q_pochhammer(2, 2, 5).coeffs == tuple(expand_product([2, 3], 5))
    assert q_pochhammer(2, 2, 5).coeffs == (1, 0, -1, -1, 0, 1)
    # infinite product keeps exactly the factors with exponent <= order
    assert q_pochhammer(3, None, 10).coeffs == tuple(
        expand_product(range(3, 11), 10)
    )


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("order", [0, 1, 7, 30])
def test_q_pochhammer_matches_oracle(k, order):
    assert q_pochhammer(k, None, order).coeffs == tuple(
        expand_product(range(k, order + 1), order)
    )
    assert q_pochhammer(k, 0, order) == one(order)
    for count in range(1, 6):
        assert q_pochhammer(k, count, order).coeffs == tuple(
            expand_product(range(k, k + count), order)
        )


def test_q_pochhammer_first_factor_beyond_order():
    for count in (None, 0, 1, 4):
        assert q_pochhammer(9, count, 5) == one(5)
        assert q_pochhammer(6, count, 5) == one(5)


def test_q_pochhammer_rejects_k0():
    with pytest.raises(ValueError):
        q_pochhammer(0, 3, 5)


def test_euler_inv_counts_partitions():
    assert euler_inv(5).coeffs == (1, 1, 2, 3, 5, 7)
    assert euler_inv(0).coeffs == (1,)
    ten = euler_inv(10)
    assert ten.coefficient(10) == len(list(partitions.partitions_of(10))) == 42


@pytest.mark.parametrize("ms", [range(41), range(40, -1, -1)], ids=["ascending", "descending"])
@pytest.mark.parametrize("order", [0, 1, 7, 60])
def test_partial_euler_inv_matches_inverted_product(order, ms):
    # each m built afresh, in either order
    for m in ms:
        assert partial_euler_inv(m, order) == q_pochhammer(1, m, order).invert(), m


def test_partial_euler_inv_deep_family():
    # m reaches the order: 1/(q)_m is built by a loop, not recursion
    deep = partial_euler_inv(1500, 1500)
    assert deep == euler_inv(1500)
    assert partial_euler_inv(2000, 1500) == deep


def test_partial_euler_inv_rejects_negative_m():
    with pytest.raises(ValueError):
        partial_euler_inv(-1, 5)


@pytest.mark.parametrize(
    "build",
    [
        one,
        lambda order: q_pochhammer(1, None, order),
        lambda order: partial_euler_inv(2, order),
        lambda order: gauss_binomial(2, 2, order),
        euler_inv,
        lambda order: box_quotient(2, 3, order),
        zero,
        lambda order: make_monomial(1, order),
        lambda order: qseries.euler_sum(1, [], order),
        lambda order: qseries.gauss_sum(1, 1, 2, order),
        lambda order: lemma_rhs(0, 0, order),
    ],
    ids=[
        "one",
        "q_pochhammer",
        "partial_euler_inv",
        "gauss_binomial",
        "euler_inv",
        "box_quotient",
        "zero",
        "make_monomial",
        "euler_sum",
        "gauss_sum",
        "lemma_rhs",
    ],
)
def test_negative_order_is_rejected(build):
    with pytest.raises(ValueError, match="series order must be nonnegative, got -3"):
        build(-3)


def test_euler_sum_rejects_negative_shift():
    with pytest.raises(ValueError, match="shift must be nonnegative, got -1"):
        qseries.euler_sum(-1, [], 5)
    with pytest.raises(ValueError, match="shift must be nonnegative, got -1"):
        qseries.euler_sum(-1, [one(5)] * 3, 5)
    assert qseries.euler_sum(0, [one(5)], 5) == one(5)


@pytest.mark.parametrize("shift, summands", [(1, [one(3)]), (2, [one(8)]), (1, [one(5), one(4)])])
def test_euler_sum_rejects_a_summand_of_another_order(shift, summands):
    # a shorter summand once gave a shorter sum, and a longer one a sum of order 7
    wrong = next(s.order for s in summands if s.order != 5)
    with pytest.raises(ValueError, match=f"order mismatch: {wrong} vs 5"):
        qseries.euler_sum(shift, summands, 5)


@pytest.mark.parametrize(
    "shift, a, message",
    [(-1, 1, "shift must be nonnegative, got -1"), (1, -2, "a must be nonnegative, got -2")],
)
def test_gauss_sum_rejects_negative_arguments(shift, a, message):
    with pytest.raises(ValueError, match=message):
        qseries.gauss_sum(shift, a, 3, 5)


def test_gauss_sum_shift_zero_sums_the_rows():
    expected = zero(5)
    for j in range(3):
        expected = expected + gauss_binomial(1, j, 5)
    assert qseries.gauss_sum(0, 1, 3, 5) == expected


@pytest.mark.parametrize("shift", [1, 2, 3, 4, 41])  # 41: above every order
@pytest.mark.parametrize("order", [0, 1, 7, 40])
def test_euler_sum_matches_literal_sum(order, shift):
    rng = random.Random(order * 10 + shift)
    for terms in range(7):
        summands = [QSeries([rng.randint(-3, 3) for _ in range(order + 1)]) for _ in range(terms)]
        literal = zero(order)
        for j, r in enumerate(summands):
            term = make_monomial(j * shift, order) * q_pochhammer(1, j, order).invert()
            literal = literal + term * r
        assert qseries.euler_sum(shift, summands, order) == literal, terms


@pytest.mark.parametrize("shift", [1, 2, 3, 5])
@pytest.mark.parametrize("order", [0, 1, 7, 40])
@pytest.mark.parametrize("a", range(6))
def test_gauss_sum_matches_literal_sum(a, order, shift):
    full = order // shift + 1
    # every term that fits, and fewer, as chain stage 2 asks for
    for terms in sorted({0, 1, max(full - 2, 0), full, full + 3}):
        literal = zero(order)
        for j in range(min(terms, full)):
            literal = literal + gauss_binomial(a, j, order) * make_monomial(j * shift, order)
        assert qseries.gauss_sum(shift, a, terms, order) == literal, terms


def gauss_poly_recursive(m, n):
    """Exact m-by-n box enumerator by the recursive corner recurrence,
    degree m*n: F(m,n) = q^n * F(m-1,n) + F(m,n-1), F(0,n) = F(m,0) = 1."""
    if m == 0 or n == 0:
        return [1]
    out = [0] * (m * n + 1)
    for e, c in enumerate(gauss_poly_recursive(m - 1, n)):
        out[e + n] += c
    for e, c in enumerate(gauss_poly_recursive(m, n - 1)):
        out[e] += c
    return out


@pytest.mark.parametrize("m", range(9))
@pytest.mark.parametrize("n", range(9))
def test_gauss_binomial_matches_recursive_oracle(m, n):
    exact = gauss_poly_recursive(m, n)
    for order in (0, 1, 5, m * n, m * n + 3):
        expected = (exact + [0] * (order + 1))[: order + 1]
        assert gauss_binomial(m, n, order).coeffs == tuple(expected), order


@pytest.mark.parametrize("m,n", [(0, 0), (0, 4), (1, 5), (3, 2), (4, 4), (2, 7)])
def test_box_quotient_is_the_gaussian_binomial(m, n):
    for order in (0, 3, m * n, m * n + 5):
        assert box_quotient(m, n, order) == gauss_binomial(m, n, order), order


def test_gauss_binomial_small():
    assert gauss_binomial(0, 5, 0).coeffs == (1,)
    assert gauss_binomial(1, 1, 1).coeffs == (1, 1)
    assert gauss_binomial(2, 2, 4).coeffs == (1, 1, 2, 1, 1)


@pytest.mark.parametrize("m,n", [(0, 20_000), (20_000, 0), (1, 10_000)])
def test_gauss_binomial_keeps_the_shorter_side(m, n):
    # one list up to min(m*n, order) and one step per unit of the shorter
    # side: a long empty or thin box holds one short list
    tracemalloc.start()
    try:
        series = gauss_binomial(m, n, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.coeffs == ((1, 0, 0, 0) if 0 in (m, n) else (1, 1, 1, 1))
    assert peak < 100_000


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("n", range(7))
def test_gauss_binomial_symmetric_palindromic(m, n):
    order = m * n
    series = gauss_binomial(m, n, order)
    assert series == gauss_binomial(n, m, order)
    assert series.coeffs == series.coeffs[::-1]


def test_gauss_binomial_recurrence():
    for m in range(1, 11):
        for n in range(1, 11):
            order = m * n
            lhs = gauss_binomial(m, n, order)
            rhs = make_monomial(n, order) * gauss_binomial(m - 1, n, order) + gauss_binomial(
                m, n - 1, order
            )
            assert lhs == rhs, (m, n)


def test_gauss_binomial_closed_form_product():
    # the recurrence result times (q)_m (q)_n must reproduce (q)_{m+n}
    order = 40
    for m in range(7):
        for n in range(7):
            product = (
                gauss_binomial(m, n, order)
                * q_pochhammer(1, m, order)
                * q_pochhammer(1, n, order)
            )
            assert product == q_pochhammer(1, m + n, order), (m, n)


def test_lemma_rhs_partial_sums():
    # q/(1-q) * 1/(q)_inf: coefficient at q^n is p(0) + ... + p(n-1)
    series = lemma_rhs(0, 0, 8)
    expected = [0]
    for n in range(1, 9):
        expected.append(sum(partitions.count_partitions(k) for k in range(n)))
    assert series.coeffs == tuple(expected)
    assert series.coeffs[:4] == (0, 1, 2, 4)


def test_lemma_rhs_edges():
    assert lemma_rhs(0, 0, 0).coeffs == (0,)
    assert lemma_rhs(1, 0, 3).coeffs == (0, 0, 1, 1)
    assert lemma_rhs(3, 4, 5).is_zero()  # c+d+1 beyond the order


def test_lemma_rhs_depends_only_on_sum():
    for total in range(6):
        reference = lemma_rhs(total, 0, 25)
        for c in range(total + 1):
            assert lemma_rhs(c, total - c, 25) == reference


# --- fact verifiers ------------------------------------------------------


def test_fact1_geometric_case():
    report = verify_fact1(0, 1, 10)
    assert report.passed
    # both sides are the plain geometric series
    assert q_pochhammer(1, 1, 10).invert().coeffs == (1,) * 11


@pytest.mark.parametrize("a,k,order", [(2, 1, 12), (3, 2, 20), (5, 3, 30), (0, 4, 15)])
def test_fact1_passes(a, k, order):
    assert verify_fact1(a, k, order).passed


@pytest.mark.parametrize("k,order", [(1, 10), (2, 10), (11, 10), (3, 25)])
def test_fact2_passes(k, order):
    assert verify_fact2(k, order).passed


def test_fact_verifiers_reject_k0():
    with pytest.raises(ValueError):
        verify_fact1(2, 0, 10)
    with pytest.raises(ValueError):
        verify_fact2(0, 10)


# --- reports -------------------------------------------------------------


def test_report_invariant():
    ok = VerifyReport.success("x")
    assert ok.passed and ok.first_discrepancy is None
    bad = VerifyReport.failure("x", where=3, expected=1, actual=2)
    assert not bad.passed and bad.first_discrepancy.where == 3
    with pytest.raises(ValueError):
        VerifyReport(context="x", passed=False, first_discrepancy=None)


def test_compare_series_reports_first_exponent():
    a = QSeries([1, 2, 3, 4])
    b = QSeries([1, 2, 9, 9])
    report = compare_series("demo", a, b)
    assert not report.passed
    assert report.first_discrepancy.where == 2
    assert report.first_discrepancy.expected == 3
    assert report.first_discrepancy.actual == 9
    labelled = compare_series("demo", a, b, "lhs=rhs")
    assert labelled.first_discrepancy.where == ("lhs=rhs", 2)
    assert compare_series("demo", a, a, "lhs=rhs") == VerifyReport.success("demo")


def test_compare_counts_reads_missing_keys_as_zero():
    # (0, 5) is only on the right, (1, 0) only on the left; (0, 5) sorts first
    report = compare_counts("demo", {(1, 0): 2, (0, 0): 1}, {(0, 0): 1, (0, 5): 4})
    assert report.first_discrepancy.where == (0, 5)
    assert (report.first_discrepancy.expected, report.first_discrepancy.actual) == (0, 4)
    report = compare_counts("demo", {3: 1}, {}, "poly")
    assert report.first_discrepancy.where == ("poly", 3)
    assert compare_counts("demo", {1: 2, 4: 0}, {1: 2}).passed
