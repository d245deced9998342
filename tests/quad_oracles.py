"""Adaptive-quadrature oracles for the tests.

They share no code with `equiloc.witten`, which integrates by a fixed
composite Gauss-Legendre rule: here every integral is scipy's adaptive
`quad`, once for the real part and once for the imaginary part.
"""

from scipy.integrate import quad


def scipy_complex_quad(f, a, b, points, limit, epsabs=1e-11):
    """int_a^b f(x) dx for a complex-valued f of one float, as two real
    adaptive `quad` passes with the break points inside (a, b)."""
    kwargs = dict(epsabs=epsabs, epsrel=1e-11, limit=limit,
                  points=[p for p in points if a < p < b])
    re = quad(lambda x: f(x).real, a, b, **kwargs)[0]
    im = quad(lambda x: f(x).imag, a, b, **kwargs)[0]
    return re + 1j * im


_EPS_LIST = [0.02 / 2 ** j for j in range(6)]


def eps_limit_pair(k, side, phi):
    """lim_{eps->0+} int phi(x)/(x +- i eps)^k dx by Richardson
    extrapolation in eps over 0.02, 0.01, ..., 0.02/32: the boundary-value
    distribution <x^{-k}_side, phi> without phi's moments."""
    if side == "avg":
        return (eps_limit_pair(k, "plus", phi)
                + eps_limit_pair(k, "minus", phi)) / 2
    sign = 1.0 if side == "plus" else -1.0
    values = []
    for eps in _EPS_LIST:
        values.append(scipy_complex_quad(
            lambda x: phi(x) / (x + sign * 1j * eps) ** k,
            -phi.delta2, phi.delta2, points=[0.0], limit=800, epsabs=1e-13))
    # Lagrange extrapolation of the smooth-in-eps values to eps = 0
    total = 0j
    for i, (ei, vi) in enumerate(zip(_EPS_LIST, values)):
        w = 1.0
        for j, ej in enumerate(_EPS_LIST):
            if j != i:
                w *= ej / (ej - ei)
        total += w * vi
    return total
