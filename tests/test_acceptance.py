"""Acceptance criteria.

One test per criterion; each prints a single pass line on success and every
tolerance is pinned here, not deferred.  Criteria:

 1. oracle equivalence of the character on every builtin, m in 0..8, exact,
    and rr is the oracle's count of the trivial weight;
 2. regular-value reduction on `regval`: rr equals the supplied quotient
    integral exactly, and both are 1, m in 0..8;
 3. the rotation-sphere residue: the moment-zero point (weight +1) contributes
    exactly 1 = rr for every m in 0..8;
 4. fixed-locus reduction on `dgmw` (including the mixed {+2}/{-3}
    components): residues alone sum to rr exactly, m in 0..8;
 5. the indefinite four-dimensional product: rr = m+1 by enumeration,
    exceptional terms exactly 0, and the regular term, tagged diagnostic,
    is m+1: a degree-one polynomial in m with positive leading coefficient
    (residual 0 over m in 1..6), so the balance is undecided;
 6. exceptional balance with supplied quotient data on every builtin that
    carries it (`dim6` and `dim6b` among them), m in 0..6;
 7. decay of |pairing - expansion| on the rotation sphere: fitted exponent
    <= -3 (or floored below 1e-8 absolute) over m = 8,16,32,64, and below
    1e-5 at m = 64; the same
    sphere with a one-point quotient (a spurious regular term 1) flattens
    the fit to >= -1; runtime < 60 s;
 8. distribution identities: the jump relation to 1e-8 for k in 1..3 and
    the eps-limit oracle to 1e-6;
 9. polynomiality: exact fit residual 0 on every builtin, m in 1..10;
10. localization consistency: the character at e^{2 pi i x} agrees with the
    equivariant integral to 1e-8 on cp1, cp001, prod11 at
    x in {0.05, 0.1, 0.2}, m in 1..4.
"""

import math
import time
from fractions import Fraction

from equiloc import builtin, builtin_names, builtin_oracle
from equiloc.localization import character
from equiloc.model import QuotientData, replace
from equiloc.quantize import (Classification, exceptional_term,
                              main_formula_report, polynomiality_check,
                              regular_term, residue_term, rr_invariant)
from equiloc.ring import RingSpec
from equiloc.witten import TestFunction, decay_check, dist_pair
from localized import kirillov_check
from quad_oracles import eps_limit_pair


def test_acceptance_1_oracle_equivalence():
    start = time.monotonic()
    for name in builtin_names():
        p = builtin(name)
        for m in range(0, 9):
            got = character(p, m)
            want = builtin_oracle(name, m)
            assert got == want, f"{name} m={m}: {got} != {want}"
            assert rr_invariant(p, m) == want.coefficient(0), (name, m)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 [oracle equivalence, m=0..8, "
          f"{len(builtin_names())} builtins, {elapsed:.2f}s]: PASS")


def test_acceptance_2_regular_value_reduction():
    p = builtin("regval")
    assert not p.f_zero()
    for m in range(0, 9):
        reg, tag = regular_term(p, m)
        assert tag == "supplied"
        assert Fraction(rr_invariant(p, m)) == reg == 1, m
    print("\nACCEPTANCE 2 [regular-value reduction, m=0..8]: PASS")


def test_acceptance_3_cp1_residue():
    p = builtin("cp1")
    (F,) = p.f_zero()
    assert F.weights() == [1] and F.dim_F == 0
    for m in range(0, 9):
        r = residue_term(F, m)
        assert r == 1 == rr_invariant(p, m), (m, r)
    print("\nACCEPTANCE 3 [rotation-sphere residue = 1 = rr, m=0..8]: PASS")


def test_acceptance_4_dgmw_reduction():
    p = builtin("dgmw")
    weights = sorted(w for F in p.f_zero() for w in F.weights())
    assert -3 in weights and 2 in weights     # the mixed-weight variant
    for m in range(0, 9):
        total = sum(residue_term(F, m) for F in p.f_zero())
        assert total == rr_invariant(p, m), m
    print("\nACCEPTANCE 4 [fixed-locus reduction incl. weights "
          "{+2,-3}, m=0..8]: PASS")


def test_acceptance_5_indefinite_dim4_balance():
    p = builtin("prod11")
    for m in range(0, 9):
        assert rr_invariant(p, m) == builtin_oracle(
            "prod11", m).counts.get(0, 0) == m + 1
    for F in p.f_zero():
        assert F.classification is Classification.INDEFINITE
        assert exceptional_term(F) == 0
    fit = polynomiality_check(p, 1, 6)
    diag = [Fraction(rr_invariant(p, m))
            - sum(residue_term(F, m) for F in p.f_zero())
            for m in range(1, 7)]
    assert diag == [m + 1 for m in range(1, 7)]
    for m in range(1, 7):
        assert regular_term(p, m) == (m + 1, "diagnostic"), m
    assert main_formula_report(p, 3).balance is None
    assert fit.coefficients[2] == 0 < fit.coefficients[1]
    assert not any(fit.residuals.values())
    print("\nACCEPTANCE 5 [dim-4 indefinite: rr=m+1, exceptional=0, "
          "diagnostic regular degree 1 > 0]: PASS")


def test_acceptance_6_dim6_exceptional_balance():
    supplied = [p for p in map(builtin, builtin_names())
                if p.quotient is not None]
    assert sorted(p.name for p in supplied) == [
        "cp001", "cp012", "cp1", "dgmw", "dim6", "dim6b", "regval"]
    for p in supplied:
        for m in range(0, 7):
            rep = main_formula_report(p, m)
            assert rep.regular_tag == "supplied", (p.name, m)
            assert rep.balance is True, (p.name, m)
    print(f"\nACCEPTANCE 6 [exceptional balance with supplied quotient "
          f"data on {len(supplied)} builtins, m=0..6]: PASS")


def test_acceptance_7_witten_asymptotics():
    start = time.monotonic()
    phi = TestFunction()
    p = builtin("cp1")
    rep = decay_check(p, phi, [8, 16, 32, 64])
    ok = rep.exponent <= -3 or max(rep.diffs) <= 1e-8
    assert ok, f"exponent {rep.exponent}, max diff {max(rep.diffs)}"
    assert rep.diffs[-1] < 1e-5, rep.diffs
    # a one-point quotient adds a regular term 1 the pairing does not have
    pt = RingSpec.point()
    wrong = replace(p, quotient=QuotientData(pt, pt.zero(), pt.one()))
    control = decay_check(wrong, phi, [8, 16, 32, 64])
    assert control.exponent >= -1, control.exponent
    assert max(control.diffs) > 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"witten check took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 7 [decay exponent {rep.exponent:.2f} <= -3; "
          f"control {control.exponent:.2f} >= -1; {elapsed:.1f}s]: PASS")


def test_acceptance_8_distribution_identities():
    phi = TestFunction()
    for k in (1, 2, 3):
        jump = dist_pair(k, "plus", phi) - dist_pair(k, "minus", phi)
        want = (-2j * math.pi * (-1) ** (k - 1)
                * phi.derivative(k - 1)(0.0) / math.factorial(k - 1))
        assert abs(jump - want) < 1e-8, k
        for side in ("plus", "minus"):
            a = dist_pair(k, side, phi)
            b = eps_limit_pair(k, side, phi)
            assert abs(a - b) < 1e-6, (k, side, a, b)
    print("\nACCEPTANCE 8 [jump relation k=1..3 to 1e-8; eps-limit "
          "oracle to 1e-6]: PASS")


def test_acceptance_9_polynomiality():
    for name in builtin_names():
        fit = polynomiality_check(builtin(name), 1, 10)
        assert not any(fit.residuals.values()), (name, fit.residuals)
    print(f"\nACCEPTANCE 9 [polynomiality residual 0 on "
          f"{', '.join(builtin_names())}; m=1..10]: PASS")


def test_acceptance_10_kirillov_consistency():
    worst = 0.0
    for name in ("cp1", "cp001", "prod11"):
        p = builtin(name)
        for m in (1, 2, 3, 4):
            dev = kirillov_check(p, m, [0.05, 0.1, 0.2])
            worst = max(worst, dev)
            assert dev < 1e-8, (name, m, dev)
    print(f"\nACCEPTANCE 10 [localization consistency, worst deviation "
          f"{worst:.2e} < 1e-8]: PASS")
