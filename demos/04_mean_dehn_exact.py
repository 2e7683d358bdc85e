"""Exact Dehn statistics on Z^2.

The classical function takes the worst filling area in a ball; the mean
variants average over closed words (ball or sphere), over all words with
combing closure, or over lazy words with pause symbols. D(n) is the closed
form floor(m^2 / 16), m the largest even number <= n, proven in `dehn_exact`;
the means come from a per-cell winding DP that needs no enumeration, so they
reach lengths no word list could. The exact osmean runs to n = 64 here, and a
fit of a + b ln n to osmean(n)/n tests the shape n (a + b ln n) that Brownian
winding-area densities predict.
"""

import numpy as np

from dehnlab import (
    builtin_presentation,
    dehn_exact,
    lazy_mean,
    make_combing,
    mean_exact,
    osmean_exact,
    relation_check,
    smean_exact,
)

z2 = builtin_presentation("z2")
st = make_combing(z2, "staircase")

N = 10
print("exact Dehn statistics on Z^2 (standard presentation, staircase combing)")
print(f"{'n':>3} {'D':>3} {'smean':>12} {'mean':>12} {'lazy-mean':>12} {'osmean':>12}")
for n in range(0, N + 1):
    d = dehn_exact(z2, n).value
    sm = smean_exact(z2, n).value
    mn = mean_exact(z2, n).value
    lz = lazy_mean(z2, n).value
    os_ = osmean_exact(z2, st, n).value
    print(f"{n:>3} {int(d):>3} {str(sm):>12} {str(mn):>12} {str(lz):>12} {str(os_):>12}")

print()
print("the running spherical mean dominates the ball mean at every length:")
for row in relation_check(z2, 8):
    rel = "<=" if row.ok else ">"
    print(f"  n={row.n:>2}: mean {str(row.mean_value):>8} {rel} max smean {row.max_smean}")

print()
print("normalized by n (ln n)^2, the classical maximum still grows (it is")
print("quadratic), while the means stay small:")
for n in (4, 6, 8, 10):
    r = dehn_exact(z2, n)
    print(f"  n={n:>2}: D={int(r.value)}  D normalized = {r.normalized:.4f}  "
          f"smean normalized = {smean_exact(z2, n).normalized:.4f}")

print()
print("beyond enumeration (4^20 is about 10^12 words), normalized by n (ln n)^2:")
for n in (12, 16, 20):
    sm = smean_exact(z2, n)
    os_ = osmean_exact(z2, st, n)
    print(f"  n={n:>2}: smean {float(sm.value):.4f} ({sm.normalized:.4f})  "
          f"osmean {float(os_.value):.4f} ({os_.normalized:.4f})")

print()
print("exact osmean past enumeration, by the superposed winding DP:")
fit_ns = (16, 32, 48, 64)
per_n = []
for n in fit_ns:
    r = osmean_exact(z2, st, n)
    per_n.append(float(r.value) / n)
    print(f"  n={n:>2}: osmean/n {per_n[-1]:.4f}  osmean/(n (ln n)^2) {r.normalized:.4f}")
ln_n = np.log(fit_ns)
b, a = np.polyfit(ln_n, per_n, 1)
print(f"least squares over these n: osmean(n)/n = {a:.4f} + {b:.4f} ln n")
print("  residuals: " + " ".join(f"{v:+.1e}" for v in per_n - (a + b * ln_n)))
