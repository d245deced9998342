"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from tracer import parse_importtime, summarize  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_ops(name):
    cls = WORKLOADS[name]
    first = [cls(ROOT, 7).pass_ops(i) for i in range(4)]
    again = [cls(ROOT, 7).pass_ops(i) for i in range(4)]
    other = [cls(ROOT, 8).pass_ops(i) for i in range(4)]
    assert first == again
    assert first != other


def test_perturbed_character_counts_as_failed():
    from equiloc import LaurentPolynomial
    workload = WORKLOADS["character-scaled"](ROOT, 0)
    workload.setup()
    op = Op("dim6/m=256", ("dim6", 256))
    result = workload.run(op)
    assert workload.check(result, workload.reference(op)) is None
    coeffs = dict(result.coeffs)
    coeffs[0] += 1
    perturbed = LaurentPolynomial(coeffs)
    assert workload.check(perturbed, workload.reference(op)) is not None

    workload.pass_ops = lambda index: [op]
    workload.run = lambda op: perturbed
    records = run.measure(workload, 1)
    assert [r.error is not None for r in records] == [True]


def test_perturbed_pairing_counts_as_failed():
    workload = WORKLOADS["pairing"](ROOT, 0)
    workload.setup()
    op = Op("regval/m=8", ("regval", 8))
    lhs, rhs = workload.run(op)
    assert workload.check((lhs, rhs), workload.reference(op)) is None
    workload.pass_ops = lambda index: [op]
    workload.run = lambda op: (lhs * (1 + 1e-6), rhs)
    records = run.measure(workload, 1)
    assert [r.error is not None for r in records] == [True]


def test_closed_forms_match_enumeration_oracle():
    from equiloc.builtins import builtin_names, builtin_oracle
    from equiloc.oracle import cpn_weights
    for name in builtin_names():
        for m in range(9):
            assert (reference.as_dict(reference.builtin_character(name, m))
                    == builtin_oracle(name, m).counts), (name, m)
    for n in range(1, 5):
        for m in range(7):
            want = cpn_weights(list(range(n + 1)), 1, m).counts
            assert reference.as_dict(
                reference.gaussian_binomial(m + n, n)) == want


def test_bump_transform_is_converged():
    coarse = reference.BumpTransform(0.1, 0.25)
    fine = reference.BumpTransform(0.1, 0.25, panels=128, nodes=24)
    assert max(abs(coarse(n) - fine(n)) for n in range(600)) < 1e-13
    # phi_hat(0) is the integral of the bump: 2 * (delta1 + half the ramp)
    assert coarse(0) == pytest.approx(2 * (0.1 + 0.075), abs=1e-13)


def test_summarize_self_time_and_nesting():
    spans = [("a", 0.0, 10.0, -1, "op", None),
             ("b", 1.0, 4.0, 0, "op", {"den_degree": 3}),
             ("b", 2.0, 3.0, 1, "op", {"den_degree": 2}),
             ("c", 5.0, 6.0, 0, "probe", {"error": "CancellationError"})]
    out = summarize(spans)
    assert out["a"]["self_s"] == pytest.approx(6.0)
    assert out["b"]["self_s"] == pytest.approx(3.0)
    assert out["b"]["calls"] == 1
    assert out["b"]["den_degree"] == 5
    assert out["c"]["errors.CancellationError"] == 1
    assert "c" not in summarize(spans, skip_op="probe")


def test_parse_importtime():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy",
        "import time:       200 |        300 |     scipy.integrate",
        "import time:        50 |        350 |   equiloc.witten",
        "import time:        10 |        360 | equiloc.cli",
        "import time:         5 |          5 | json",
    ])
    assert parse_importtime(log) == {"equiloc_s": 360e-6, "scipy_s": 300e-6}


def test_refuses_more_than_one_thread():
    env = dict(os.environ, EQUILOC_THREADS="2")
    proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                           "--workload", "formula-sweep", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_report_record_is_exact():
    from equiloc import builtin, main_formula_report
    from workloads import report_record
    rec = report_record(main_formula_report(builtin("dim6"), 3))
    assert rec["balance"] is True
    assert Fraction(rec["regular"][1]) + sum(
        Fraction(v) for _, v in rec["residue_terms"].values()) + sum(
        Fraction(v) for v in rec["exceptional_terms"].values()) == rec["rr"]


def test_metric_names_match_benchmark_json():
    import json
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS["formula-sweep"](ROOT, 0)
    records = [run.Record(f"op{i}", i // 6, 0.01 * (i + 1), None)
               for i in range(24)]
    e2e, _ = run.end_to_end(workload, records,
                            [(0.5, 1.0), (0.6, 1.0), (0.7, 1.0)], 2048)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, u) for k, (_, u) in e2e.items()]
    layer = run.layer_metrics({}, 1, {"equiloc_s": 0.0, "scipy_s": 0.0},
                              0.0, 0, 0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, u) for k, (_, u) in layer.items()]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_times_are_scaled_to_the_reference_speed():
    workload = WORKLOADS["formula-sweep"](ROOT, 0)
    # the same ops, once on a host at half the reference speed
    fast = [run.Record(f"op{i}", i // 6, 0.01 * (i + 1), None)
            for i in range(24)]
    slow = [run.Record(r.op, r.pass_index, 2 * r.seconds, None, 0.5)
            for r in fast]
    e2e_fast, _ = run.end_to_end(workload, fast, [(0.5, 1.0)], 2048)
    e2e_slow, _ = run.end_to_end(workload, slow, [(1.0, 0.5)], 2048)
    for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms",
                 "setup_s"):
        assert e2e_slow[name][0] == pytest.approx(e2e_fast[name][0])
    from calibration import LOOP, PROCESS
    assert 0 < LOOP.run() < 10 and 0 < PROCESS.run() < 60
    assert LOOP.speed(0.005, 0.015) == pytest.approx(1.0)
