"""The four generalized Hilbert transforms.

A function regular in the upper half plane ties its boundary values u and v
together through the line transform H; the lower half plane gives the
complementary transform Hbar = -H.  Restricting to the unit circle turns the
Cauchy kernel into a cotangent and produces the circular pair.  All four are
skew-reciprocal, annihilate the right constant modes, and conserve power
(Parseval).
"""

import numpy as np

from cauchykit import (PeriodicFunction, RealLineFunction, hilbert_circular,
                       hilbert_circular_complementary,
                       hilbert_circular_inverse, hilbert_complementary,
                       hilbert_line, hilbert_line_inverse,
                       normalization_check, parseval_check)

print("=== line transform of a rational pair ===")
v = RealLineFunction(lambda x: -1.0 / (x ** 2 + 1.0), decay=2, window=50.0)
xi = np.linspace(-5.0, 5.0, 11)
res = hilbert_line(v, xi)
print("  v(x) = -1/(x^2+1)  ->  u(xi) should be xi/(xi^2+1)")
print("  xi        computed        exact           |err|      err bar")
for x, got, bar in zip(xi, res.values, res.truncation_error):
    exact = x / (x ** 2 + 1.0)
    print(f"  {x:+5.2f}   {got:+.8f}   {exact:+.8f}   "
          f"{abs(got - exact):.1e}   {bar:.1e}")

print()
print("=== inverse and complementary branches ===")
u = RealLineFunction(lambda x: x / (x ** 2 + 1.0), decay=1, window=50.0)
back = hilbert_line_inverse(u, xi)
err = np.max(np.abs(back.values + 1.0 / (xi ** 2 + 1.0)))
print(f"  H^-1 recovers v:                     max err = {err:.2e}")
comp = hilbert_complementary(v, xi)
err = np.max(np.abs(comp.values + res.values))
print(f"  Hbar[V] + H[V] = 0 at every node:    max err = {err:.2e}")

print()
print("=== oscillatory inputs ride the periodic route ===")
vs = RealLineFunction(np.sin, decay=0, period=2.0 * np.pi)
osc = hilbert_line(vs, xi)
print(f"  H[sin x] = cos xi:                   max err = "
      f"{np.max(np.abs(osc.values - np.cos(xi))):.2e}")

print()
print("=== circular transform: Fourier modes rotate by 90 degrees ===")
pf = PeriodicFunction.from_function(np.sin, 512)
uc = hilbert_circular(pf)
print(f"  Hc[sin] = cos:                       max err = "
      f"{np.max(np.abs(uc.samples - np.cos(pf.thetas))):.2e}")
for k in (2, 5, 11):
    mode = PeriodicFunction.from_function(lambda t, kk=k: np.cos(kk * t), 512)
    got = hilbert_circular(mode)
    err = np.max(np.abs(got.samples + np.sin(k * mode.thetas)))
    print(f"  Hc[cos {k:2d}t] = -sin {k:2d}t:             max err = {err:.2e}")
ucc = hilbert_circular_complementary(pf)
print(f"  Hcheck[sin] = -cos (complement):     max err = "
      f"{np.max(np.abs(ucc.samples + np.cos(pf.thetas))):.2e}")

print()
print("=== round trips hold on zero-mean input; means ride as metadata ===")
mixed = PeriodicFunction.from_function(lambda t: 1.5 + np.sin(t), 256)
rt = hilbert_circular_inverse(hilbert_circular(mixed))
print(f"  Hc^-1 Hc[1.5 + sin] = sin:           max err = "
      f"{np.max(np.abs(rt.samples - np.sin(rt.thetas))):.2e}")
print(f"  carried mean: {hilbert_circular(mixed).carried_mean}")

print()
print("=== normalization and Parseval ===")
th = pf.thetas
print(f"  int (u + i v) dtheta for f = e^(i theta):  "
      f"{abs(normalization_check(np.exp(1j * th))):.2e}  (normalized)")
print(f"  same for f = 1 (constant):                 "
      f"{normalization_check(np.ones(512, dtype=complex)).real:.6f}"
      f"  (= 2 pi: flagged as not normalized)")
lhs, rhs, gap = parseval_check(PeriodicFunction(np.cos(th)),
                               PeriodicFunction(np.sin(th)))
print(f"  circle Parseval: int u^2 = {lhs:.9f}, int v^2 = {rhs:.9f}, "
      f"gap = {gap:.1e}")
lhs, rhs, gap = parseval_check(u, v)
print(f"  line Parseval:   int u^2 = {lhs:.9f}, int v^2 = {rhs:.9f}, "
      f"gap = {gap:.1e}  (both are pi/2)")
# a non-integer decay: the tails' model is integrated in closed form
w = RealLineFunction(lambda x: (1.0 + x * x) ** -0.75, decay=1.5)
print(f"  int (1+x^2)^(-3/2) dx = {parseval_check(w, w)[0]:.15f}  (exactly 2)")
