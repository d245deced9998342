"""The benchmark's tracer sees every span its library workloads require.

One op of each library workload runs under `perfbench/tracer.py`'s
`Tracer`; every name in the workload's `required_spans` must fire, so a
traced function that stops being called fails here first."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

OPS = {"character-scaled": ("cp1^8/m=2", ("cp1^8", 2)),
       "formula-sweep": ("dim6/m=1:10", ("dim6", 1)),
       "pairing": ("cp1/m=8", ("cp1", 8))}


@pytest.mark.parametrize("name", sorted(OPS))
def test_required_spans_fire(name):
    workload = workloads.WORKLOADS[name](ROOT, seed=1)
    workload.setup()
    op = workloads.Op(*OPS[name])
    trace = tracer.Tracer()
    trace.install()
    try:
        result = workload.run(op)
    finally:
        trace.uninstall()
    assert workload.check(result, workload.reference(op)) is None
    fired = tracer.summarize(trace.spans)
    missing = [s for s in workload.required_spans
               if fired.get(s, {}).get("calls", 0) == 0]
    assert not missing, missing
