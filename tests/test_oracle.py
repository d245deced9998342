"""Enumeration oracle: worked examples and caps."""

import pytest

from equiloc.oracle import (OracleLimit, WeightMultiset, add, convolve,
                            cpn_weights, invariant_count)


def test_cpn_weights_examples():
    assert cpn_weights([0, 1], 1, 2).counts == {0: 1, 1: 1, 2: 1}
    assert cpn_weights([0, 0, 1], 1, 1).counts == {0: 2, 1: 1}
    assert cpn_weights([0, 1], 1, 0).counts == {0: 1}


def test_cpn_weights_shift_and_power():
    assert cpn_weights([0, 1], 1, 2, shift=-1).counts == {-2: 1, -1: 1, 0: 1}
    assert cpn_weights([0, 1], 2, 1).counts == {0: 1, 1: 1, 2: 1}


def test_convolve_examples():
    x = WeightMultiset({0: 1, 1: 1})
    assert convolve(WeightMultiset({0: 1}), x) == x
    y = WeightMultiset({0: 1, -1: 1})
    assert convolve(x, y).counts == {-1: 1, 0: 2, 1: 1}


def test_add():
    x = WeightMultiset({0: 2, 3: 1})
    y = WeightMultiset({0: 1, -1: 4})
    assert add(x, y).counts == {-1: 4, 0: 3, 3: 1}


def test_invariant_count():
    assert invariant_count(WeightMultiset({0: 3, 2: 1})) == 3
    assert invariant_count(WeightMultiset({})) == 0
    for m in range(6):
        assert invariant_count(cpn_weights([0, 1], 1, m)) == 1


def test_limits_enforced():
    with pytest.raises(OracleLimit):
        cpn_weights([0, 1, 2, 3, 4, 5], 1, 1)     # n = 5 > 4
    with pytest.raises(OracleLimit):
        cpn_weights([0, 1], 1, 61)                # m*d > 60


def test_total_counts_sections():
    # dim of degree-m monomials in n+1 variables
    assert sum(cpn_weights([0, 1, 2], 1, 4).counts.values()) == 15
    assert sum(cpn_weights([5, 5], 3, 2).counts.values()) == 7


def test_invariant_count_matches_rr_invariant_everywhere():
    from equiloc import builtin, builtin_names, builtin_oracle
    from equiloc.quantize import rr_invariant
    for name in builtin_names():
        p = builtin(name)
        for m in range(0, 9):
            assert invariant_count(builtin_oracle(name, m)) \
                == rr_invariant(p, m), (name, m)
