"""The benchmark's recorded CLI outputs, main-formula reports, traced names
and required spans, read from perfbench/ and replayed in-process, so that a
change to an output, a traced name or a span the trace gate needs fails
here first."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from equiloc import main_formula_report, parse
from equiloc.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

with open(PERFBENCH / "golden" / "cli.json", encoding="utf-8") as fh:
    CLI_GOLDEN = json.load(fh)
with open(PERFBENCH / "golden" / "formula.json", encoding="utf-8") as fh:
    FORMULA_GOLDEN = json.load(fh)


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_cli_output_matches_golden(command, capsys, monkeypatch):
    # the recorded argvs name --input files relative to the repo root
    monkeypatch.chdir(ROOT)
    code = main(command.split(" "))
    want = CLI_GOLDEN[command]
    assert code == want["exit"]
    assert capsys.readouterr().out == want["stdout"]


@pytest.mark.parametrize("doc", sorted(FORMULA_GOLDEN))
def test_main_formula_reports_match_golden(doc):
    # every term of every report the formula-sweep workload can request
    text = (ROOT / "src" / "equiloc" / "data" / f"{doc}.json").read_text(
        encoding="utf-8")
    p = parse(text)
    recorded = FORMULA_GOLDEN[doc]
    assert sorted(map(int, recorded)) == list(range(1, 41))
    for m, want in recorded.items():
        rep = main_formula_report(p, int(m))
        got = {"rr": rep.rr,
               "residue_terms": {k: [c, str(v)] for k, (c, v)
                                 in rep.residue_terms.items()},
               "exceptional_terms": {k: str(v) for k, v
                                     in rep.exceptional_terms.items()},
               "regular": [rep.regular_tag, str(rep.regular)],
               "balance": rep.balance}
        assert got == want, (doc, m)
        assert type(rep.rr) is int


def test_traced_names_resolve():
    # each target as `Tracer.install` resolves it: a module function by
    # `getattr` (so a module `__getattr__` forward counts), a method in its
    # class's own `__dict__`
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    importlib.import_module("equiloc.witten")
    importlib.import_module("equiloc.cli")
    missing = []
    for modname, path, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name, None)
        if classes:
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{modname}:{path}")
    assert tracer.TARGETS and not missing


@pytest.mark.parametrize("workload", ["character-scaled", "formula-sweep",
                                      "pairing"])
def test_required_spans_fire(workload, monkeypatch):
    # the ops of one pass run under the benchmark's tracer, until every
    # span the workload requires has fired; each op's result must pass the
    # workload's check against its reference
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer")
    w = workloads.WORKLOADS[workload](ROOT, 1)
    w.setup()
    fired = set()
    for op in w.pass_ops(0):
        t = tracer.Tracer()
        t.install()
        try:
            result = w.run(op)
        finally:
            t.uninstall()
        assert w.check(result, w.reference(op)) is None, op.id
        fired.update(span[0] for span in t.spans)
        if fired.issuperset(w.required_spans):
            break
    assert sorted(set(w.required_spans) - fired) == []
