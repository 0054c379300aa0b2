"""Tour of the exact series layer: products, inverses, named enumerators.

Every series is a polynomial truncated at a chosen order with exact
integer coefficients, so the identities checked here are checked on the
nose, not numerically.

Run:  python demos/02_series_toolkit.py
"""

from hookpart import (
    box_gf_brute,
    count_partitions,
    euler_inv,
    gauss_binomial,
    make_monomial,
    one,
    q_pochhammer,
    verify_fact1,
    verify_fact2,
)

print("=== Arithmetic in the truncated ring ===\n")
T = 8
q = make_monomial(1, T)
print("q              :", q)
print("1/(1-q)        :", (one(T) - q).invert())
print("(1-q)(1-q^2)   :", q_pochhammer(1, 2, T))
print("its inverse    :", q_pochhammer(1, 2, T).invert(), " <- counts partitions with parts <= 2")

print("\n=== The partition enumerator ===\n")
series = euler_inv(12)
print("1/(q)_inf      :", series)
mismatches = [n for n in range(13) if series.coefficient(n) != count_partitions(n)]
print("coefficients equal count_partitions(n) for n <= 12:", not mismatches)

print("\n=== Gaussian binomials: box-bounded diagrams ===\n")
for m, n in [(2, 2), (2, 3), (3, 3)]:
    g = gauss_binomial(m, n, m * n)
    print(f"box {m}x{n}: {list(g.coeffs)}  palindrome={list(g.coeffs) == list(g.coeffs)[::-1]}")
print("\nbrute enumeration agrees with the product for the 3x3 box:",
      box_gf_brute(3, 3) == gauss_binomial(3, 3, 9))

print("\n=== Two classical expansion facts, checked coefficient-wise ===\n")
print("""fact 1: 1/(z)_{a+1} expands with Gaussian-binomial coefficients;
fact 2: its a -> infinity limit expands with 1/(q)_j coefficients.
Both are specialized at z = q^k and both sides evaluated independently.
""")
for a, k in [(2, 1), (4, 2)]:
    print(f"  fact1(a={a}, k={k}, order=30):", verify_fact1(a, k, 30).passed)
for k in (1, 3):
    print(f"  fact2(k={k}, order=30):     ", verify_fact2(k, 30).passed)
