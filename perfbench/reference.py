"""Independent references for the benchmark's correctness checks.

Nothing here calls the code paths the benchmark times.  Characters come
from integer closed forms (sliding-window products of 1 + z^s + ... + z^{ms},
Gaussian binomials) or, within its documented caps, from the enumeration
oracle in `equiloc.oracle`.  The pairing reference is the Fourier form of
the Kirillov identity: for rho = Todd the localized integrand equals the
character at z = e^{2 pi i x} on the support of phi, so

    <W_m(Td), phi> = sum_n c_n * phi_hat(n),
    phi_hat(n) = int phi(x) e^{2 pi i n x} dx,

with phi_hat evaluated by composite Gauss-Legendre quadrature of a separate
implementation of the bump.
"""

from __future__ import annotations

import math

# A character is a Laurent polynomial with integer coefficients, stored as
# (lowest exponent, coefficient list).
Poly = tuple[int, list[int]]


def box(m: int, step: int = 1, shift: int = 0, scale: int = 1) -> Poly:
    """scale * z^shift * (1 + z^step + ... + z^{m*step})."""
    coeffs = [0] * (m * step + 1)
    for k in range(0, m * step + 1, step):
        coeffs[k] = scale
    return shift, coeffs


def times_box(p: Poly, m: int, step: int = 1, shift: int = 0) -> Poly:
    """p * z^shift * (1 + z^step + ... + z^{m*step}), by a strided running
    sum."""
    lo, a = p
    n = len(a) + m * step
    out = [0] * n
    for j in range(n):
        acc = a[j] if j < len(a) else 0
        if j >= step:
            acc += out[j - step]
        drop = j - (m + 1) * step
        if 0 <= drop < len(a):
            acc -= a[drop]
        out[j] = acc
    return lo + shift, out


def add(p: Poly, q: Poly) -> Poly:
    lo = min(p[0], q[0])
    hi = max(p[0] + len(p[1]), q[0] + len(q[1]))
    out = [0] * (hi - lo)
    for base, coeffs in (p, q):
        for i, c in enumerate(coeffs):
            out[base - lo + i] += c
    return lo, out


def as_dict(p: Poly) -> dict[int, int]:
    lo, coeffs = p
    return {lo + i: c for i, c in enumerate(coeffs) if c}


def gaussian_binomial(n: int, k: int) -> Poly:
    """[n choose k]_z = prod_{i=1..k} (1 - z^{n-k+i}) / (1 - z^i).

    Dividing by (1 - z^i) is the running sum q[t] = a[t] + q[t-i]; the
    partial products stay polynomials, so every division is exact.
    """
    a = [1]
    for i in range(1, k + 1):
        e = n - k + i
        a = a + [0] * e
        for t in range(len(a) - 1, e - 1, -1):
            a[t] -= a[t - e]
        for t in range(i, len(a)):
            a[t] += a[t - i]
        if any(a[len(a) - i:]):
            raise ArithmeticError("Gaussian binomial division left a "
                                  "remainder")
        a = a[:len(a) - i]
    return 0, a


def builtin_character(name: str, m: int) -> Poly:
    """Closed-form character of a shipped builtin at bundle power m."""
    if name == "cp1":
        return box(m)
    if name == "regval":
        return box(2 * m, shift=-m)
    if name == "cp001":
        return 0, [m - c + 1 for c in range(m + 1)]
    if name == "cp012":
        # z^{b + 2c} over a + b + c = m
        out = [0] * (2 * m + 1)
        for c in range(m + 1):
            for b in range(m - c + 1):
                out[b + 2 * c] += 1
        return 0, out
    if name == "prod11":
        return times_box(box(m), m, shift=-m)
    if name == "dgmw":
        piece1 = builtin_character("cp001", m)
        piece2 = box(m, step=2, scale=m + 1)
        piece3 = box(m, step=3, shift=-3 * m, scale=m + 1)
        return add(add(piece1, piece2), piece3)
    if name == "dim6":
        return times_box(times_box(box(m), m), m, shift=-m)
    if name == "dim6b":
        return times_box(times_box(box(m), m, shift=-m), m, shift=-m)
    raise KeyError(f"no closed form for builtin {name!r}")


def exact_character(name: str, m: int) -> dict[int, int]:
    """Builtin character: the enumeration oracle within its caps, the
    closed form above them."""
    from equiloc.builtins import builtin_oracle
    from equiloc.oracle import OracleLimit
    try:
        return dict(builtin_oracle(name, m).counts)
    except OracleLimit:
        return as_dict(builtin_character(name, m))


class BumpTransform:
    """phi_hat(n) for the even bump equal to 1 on [-d1, d1], 0 outside
    [-d2, d2], glued by exp(-1/t) / (exp(-1/t) + exp(-1/(1-t)))."""

    def __init__(self, delta1: float, delta2: float, panels: int = 64,
                 nodes: int = 16):
        import numpy as np
        self._np = np
        self.delta1 = delta1
        self.delta2 = delta2
        x, w = np.polynomial.legendre.leggauss(nodes)
        edges = np.linspace(delta1, delta2, panels + 1)
        half = (edges[1:] - edges[:-1]) / 2
        mid = (edges[1:] + edges[:-1]) / 2
        self.x = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        t = (delta2 - self.x) / (delta2 - delta1)
        f = np.exp(-1 / t)
        g = np.exp(-1 / (1 - t))
        self.wphi = (half[:, None] * w[None, :]).ravel() * f / (f + g)
        self._cache: dict[int, float] = {}

    def __call__(self, n: int) -> float:
        n = abs(n)
        if n not in self._cache:
            if n == 0:
                flat = self.delta1
            else:
                w = 2 * math.pi * n
                flat = math.sin(w * self.delta1) / w
            np = self._np
            glued = float(np.dot(self.wphi, np.cos(2 * math.pi * n * self.x)))
            self._cache[n] = 2 * (flat + glued)
        return self._cache[n]

    def pair(self, character: dict[int, int]) -> float:
        """sum_n c_n phi_hat(n); real because phi is even."""
        terms = sorted((abs(self(n) * c), self(n) * c)
                       for n, c in character.items())
        return math.fsum(t for _, t in terms)
