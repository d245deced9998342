"""The four benchmark workloads.

Each workload is a closed loop of whole passes over an op list generated
from the seed.  A pass holds a fixed mix of op families, so every run sees
the same proportions whatever its length.  In character-scaled the seed
sets, per family, a Weyl-sequence offset for the bundle power m, which
spreads the m of successive passes evenly over the family's range; in
formula-sweep it sets where the passes start in the cycle of m windows.

Why these workloads:
- character-scaled: exact division (cpn_linear(range(11)) at m in
  [100, 200]) and chi_tilde plus the 256-term common-denominator sum
  ((cp1)^8) do almost all the work; dgmw and dim6 at m in [256, 512] add
  long quotients with few components.
- formula-sweep: parse, then the residue / exceptional / regular terms
  over ten consecutive small m, where division is cheap and characters and
  chi_tilde are recomputed per term.
- pairing: the numeric path only (integrand evaluation, quadrature,
  boundary-value distributions); the exact layers do almost nothing.
- cli: one `equiloc` process per op, dominated by interpreter start and
  imports, plus argument parsing, document parsing and JSON emission.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import reference as refs
from calibration import LOOP, PROCESS

GOLDEN = Path(__file__).resolve().parent / "golden"
ALPHA = (math.sqrt(5) - 1) / 2
BUILTINS = ("cp1", "cp001", "cp012", "prod11", "dgmw", "dim6", "dim6b",
            "regval")


@dataclass(frozen=True)
class Op:
    id: str
    key: tuple


def weyl(offset: float, index: int, lo: int, hi: int) -> int:
    """The index-th point of the sequence offset + index * ALPHA (mod 1),
    mapped onto the integers lo..hi."""
    frac = (offset + index * ALPHA) % 1.0
    return lo + int(frac * (hi - lo + 1))


def pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}/{index}")


class Workload:
    name = ""
    latency_limit_s = 0.0
    # what the host's speed around each op is measured with
    calibration = LOOP
    # seconds one pass takes on a 2-vCPU Xeon VM at 2.1 GHz (Python 3.11)
    pass_seconds: float
    trace_passes = 1
    # spans that must fire in the traced run
    required_spans: tuple = ()
    # layers whose self time should make up most of the op time
    dominant: tuple = ()
    # layers that should each take at most a tenth of the op time
    minor: tuple = ()

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        """Imports, presentations and lazy warm-up: what set-up time counts."""

    def pass_ops(self, index: int) -> list:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def reference(self, op: Op):
        """The expected result, computed per op (not cached, so that the
        process's peak memory does not grow with the run's length)."""
        raise NotImplementedError

    def check(self, result, ref):
        """None when the result is correct, else the reason it is not."""
        raise NotImplementedError

    def known_defects(self) -> list:
        return []

    def probe(self):
        """Runs the known defects outside the timed ops; yields (label,
        status, ok) where ok is False only for a wrong answer."""
        return []


# ---------------------------------------------------------------------------


class CharacterScaled(Workload):
    name = "character-scaled"
    latency_limit_s = 5.0
    pass_seconds = 1.15
    trace_passes = 6
    # (family, lowest m, highest m); (cp1)^8 twice so the median latency
    # falls inside one family rather than in a gap between two
    SLOTS = (("cpn11", 100, 200), ("cp1^8", 2, 10), ("cp1^8", 2, 10),
             ("dgmw", 256, 512), ("dim6", 256, 512))
    required_spans = ("localization.character", "localization.chi_tilde",
                      "zrational.to_laurent_polynomial")
    dominant = ("zrational.to_laurent_polynomial", "localization.chi_tilde")

    def setup(self):
        import equiloc
        from equiloc import builtin, cpn_linear, product
        cp1 = builtin("cp1")
        power = cp1
        for _ in range(7):
            power = product(power, cp1)
        self.eq = equiloc
        self.presentations = {"cpn11": cpn_linear(list(range(11)), 1),
                              "cp1^8": power, "dgmw": builtin("dgmw"),
                              "dim6": builtin("dim6")}

    def pass_ops(self, index):
        offsets = random.Random(self.seed)
        ops = []
        for slot, (family, lo, hi) in enumerate(self.SLOTS):
            m = weyl(offsets.random(), index, lo, hi)
            ops.append(Op(f"{family}/m={m}", (family, m)))
        pass_rng(self.seed, index).shuffle(ops)
        return ops

    def run(self, op):
        family, m = op.key
        return self.eq.localization.character(self.presentations[family], m)

    def reference(self, op):
        family, m = op.key
        if family == "cpn11":
            # monomials of degree m in 11 variables weighted by sum(i * a_i)
            return refs.as_dict(refs.gaussian_binomial(m + 10, 10))
        if family == "cp1^8":
            # the enumeration oracle, convolved (m <= 10 is within its caps)
            from equiloc import oracle
            one = oracle.cpn_weights([0, 1], 1, m)
            acc = one
            for _ in range(7):
                acc = oracle.convolve(acc, one)
            return dict(acc.counts)
        return refs.exact_character(family, m)

    def check(self, result, ref):
        try:
            got = result.as_integer_coeffs()
        except ArithmeticError as e:
            return f"non-integer character: {e}"
        if got != ref:
            diff = sorted(e for e in set(got) | set(ref)
                          if got.get(e) != ref.get(e))
            return f"character differs from the reference at z^{diff[:5]}"
        return None


# ---------------------------------------------------------------------------


def report_record(rep) -> dict:
    """The exact content of a MainFormulaReport, as JSON-ready strings."""
    return {"rr": rep.rr,
            "residue_terms": {k: [c, str(v)] for k, (c, v)
                              in sorted(rep.residue_terms.items())},
            "exceptional_terms": {k: str(v) for k, v
                                  in sorted(rep.exceptional_terms.items())},
            "regular": [rep.regular_tag, str(rep.regular)],
            "balance": rep.balance}


class FormulaSweep(Workload):
    name = "formula-sweep"
    latency_limit_s = 2.0
    pass_seconds = 0.32
    trace_passes = 12
    DOCS = ("dim6", "dim6b", "dgmw", "prod11", "cp001", "regval")
    WINDOW = 10
    M_MAX = 40
    required_spans = ("model.parse", "localization.character",
                      "localization.chi_tilde",
                      "zrational.to_laurent_polynomial",
                      "quantize.residue_term", "quantize.exceptional_term",
                      "quantize.regular_term", "zrational.residue")
    # the quantize layer with what its term functions call, plus chi_tilde
    dominant = ("quantize.rr_invariant", "quantize.residue_term",
                "quantize.exceptional_term", "quantize.regular_term",
                "quantize.main_formula_report", "zrational.residue",
                "localization.equivariant_todd_at_F",
                "localization.chi_tilde")
    minor = ("zrational.to_laurent_polynomial",)

    def setup(self):
        import equiloc
        self.eq = equiloc
        data = self.root / "src" / "equiloc" / "data"
        self.texts = {d: (data / f"{d}.json").read_text(encoding="utf-8")
                      for d in self.DOCS}

    def pass_ops(self, index):
        # every document at the same window, the windows in turn from a
        # seeded start: each run of 31 passes sees every window once, so
        # the seed does not move the mix of op costs
        starts = self.M_MAX - self.WINDOW + 1
        first = random.Random(self.seed).randrange(starts)
        start = 1 + (first + index) % starts
        ops = [Op(f"{doc}/m={start}:{start + self.WINDOW - 1}", (doc, start))
               for doc in self.DOCS]
        pass_rng(self.seed, index).shuffle(ops)
        return ops

    def run(self, op):
        doc, start = op.key
        p = self.eq.model.parse(self.texts[doc])
        return [self.eq.quantize.main_formula_report(p, m)
                for m in range(start, start + self.WINDOW)]

    def reference(self, op):
        doc, start = op.key
        if not hasattr(self, "golden"):
            with open(GOLDEN / "formula.json", encoding="utf-8") as fh:
                self.golden = json.load(fh)
        has_quotient = json.loads(self.texts[doc]).get("quotient") is not None
        return [(m, refs.exact_character(doc, m).get(0, 0),
                 has_quotient, self.golden[doc][str(m)])
                for m in range(start, start + self.WINDOW)]

    def check(self, result, ref):
        if len(result) != len(ref):
            return f"{len(result)} reports for {len(ref)} moments"
        for rep, (m, rr, has_quotient, golden) in zip(result, ref):
            if rep.rr != rr:
                return f"m={m}: rr {rep.rr} != oracle {rr}"
            if has_quotient and rep.balance is not True:
                return f"m={m}: balance is {rep.balance} with quotient data"
            record = report_record(rep)
            if record != golden:
                return f"m={m}: terms {record} != recorded {golden}"
        return None


# ---------------------------------------------------------------------------


class Pairing(Workload):
    name = "pairing"
    latency_limit_s = 30.0
    pass_seconds = 8.2
    trace_passes = 1
    # (builtin, m): every builtin, m from 8 to 256, with op costs spread
    # evenly on a log scale so that the latency percentiles do not sit in a
    # wide gap between two grid points.  21 points, so that the median of
    # whole passes is the 11th costliest point's, never the mean of the
    # 10th and 11th
    GRID = (("regval", 8), ("cp1", 8), ("regval", 32), ("cp001", 8),
            ("cp1", 16), ("prod11", 8), ("cp001", 16), ("cp1", 32),
            ("regval", 64), ("cp001", 32), ("prod11", 32), ("cp012", 8),
            ("cp1", 64), ("cp012", 16), ("prod11", 64), ("regval", 128),
            ("dim6b", 8), ("dim6", 8), ("cp012", 32), ("dgmw", 8),
            ("regval", 256))
    # CancellationError from float cancellation, not bad data
    KNOWN_DEFECTS = (("cp012", 128), ("dim6", 128), ("dim6b", 128),
                     ("dgmw", 64), ("dgmw", 128), ("cp1", 512),
                     ("regval", 512))
    DELTA2 = 0.25
    REL_TOL = 1e-8
    required_spans = ("localization.PreparedInner.init",
                      "localization.PreparedInner.evaluate",
                      "localization.PreparedInner.laurent_sum",
                      "localization.component_u_laurent",
                      "localization.rho_series",
                      "localization.equivariant_todd_at_F",
                      "witten.witten_pair", "witten.complex_quad",
                      "witten.dist_pair", "witten.expansion_rhs")
    dominant = ("localization.PreparedInner.evaluate", "witten.complex_quad")

    def __init__(self, root, seed):
        super().__init__(root, seed)
        # the seed sets phi's inner radius, within 1% of 0.1: the support
        # sets the series order and the quadrature's work, and a wider range
        # moves the cost of an op by 10% or more from seed to seed
        self.delta1 = 0.099 + 0.002 * random.Random(seed).random()

    def setup(self):
        import equiloc
        import equiloc.witten
        from equiloc import builtin, quantize
        self.eq = equiloc
        self.presentations = {n: builtin(n) for n in BUILTINS}
        self.phi = equiloc.witten.TestFunction(self.delta1, self.DELTA2)
        # sympy-lambdified derivatives, one per distribution order used
        max_pole = max((p.dim_M - F.dim_F) // 2
                       for p in self.presentations.values()
                       for F in p.components)
        mid = (self.delta1 + self.DELTA2) / 2
        for j in range(max_pole):
            self.phi.derivative(j)(mid)
        # the regular term witten-check uses when there is no quotient data
        self.regular = {}
        for name, p in self.presentations.items():
            if p.quotient is None:
                fit = quantize.polynomiality_check(
                    p, 1, max(p.dim_M // 2 + 3, 6))
                self.regular[name] = fit

    def pass_ops(self, index):
        ops = [Op(f"{n}/m={m}", (n, m)) for n, m in self.GRID]
        pass_rng(self.seed, index).shuffle(ops)
        return ops

    def run(self, op):
        name, m = op.key
        witten = self.eq.witten
        p = self.presentations[name]
        lhs = witten.witten_pair(p, "todd", self.phi, m)
        fit = self.regular.get(name)
        reg = complex(fit.evaluate(m)) if fit is not None else None
        rhs = witten.expansion_rhs(p, self.phi, m, regular=reg)
        return lhs, rhs

    def reference(self, op):
        name, m = op.key
        if not hasattr(self, "transform"):
            self.transform = refs.BumpTransform(self.delta1, self.DELTA2)
        return self.transform.pair(refs.exact_character(name, m)), m

    def check(self, result, ref):
        lhs, rhs = result
        want, m = ref
        if not abs(lhs - want) <= self.REL_TOL * max(1.0, abs(want)):
            return f"pairing {lhs} != Fourier reference {want}"
        # the expansion must agree with the pairing to leading order
        if not abs(lhs - rhs) <= 1.0 / m:
            return f"|pairing - expansion| = {abs(lhs - rhs):.3e} > 1/m"
        return None

    def known_defects(self):
        return [f"pairing {n}/m={m}" for n, m in self.KNOWN_DEFECTS]

    def probe(self):
        for (name, m), label in zip(self.KNOWN_DEFECTS, self.known_defects()):
            op = Op(f"{name}/m={m}", (name, m))
            try:
                result = self.run(op)
            except self.eq.witten.CancellationError as e:
                yield label, f"reproduces: CancellationError: {e}"[:160], True
                continue
            bad = self.check(result, self.reference(op))
            if bad:
                yield label, f"WRONG ANSWER: {bad}", False
            else:
                yield label, "fixed: matches the Fourier reference", True


# ---------------------------------------------------------------------------

CLI_ENTRY = "import sys; from equiloc.cli import main; sys.exit(main())"


def cli_commands(kind: str, name: str) -> list:
    """Every argv the cli workload can issue for one command kind and
    builtin; the golden file holds the output of each."""
    if kind == "rr":
        return [["rr", "--builtin", name, "--m", "0:8", "--format", "json"],
                ["rr", "--builtin", name, "--m", "3,7,11"]]
    if kind == "character":
        return [["character", "--builtin", name, "--m", "2"],
                ["character", "--builtin", name, "--m", "0:3", "--format",
                 "json"]]
    if kind == "main-formula":
        doc = f"src/equiloc/data/{name}.json"
        return [["main-formula", "--input", doc, "--m", m, "--format", "json"]
                for m in ("1:6", "4,8")]
    if kind == "verify":
        return [["verify", "--builtin", name]]
    raise KeyError(kind)


class Cli(Workload):
    name = "cli"
    latency_limit_s = 10.0
    calibration = PROCESS
    pass_seconds = 7.0
    trace_passes = 1
    KINDS = ("rr", "character", "main-formula", "verify")
    # README: a malformed --m is an input error (exit 2), without a traceback
    KNOWN_DEFECTS = (["rr", "--builtin", "cp1", "--m", "3:1"],
                     ["rr", "--builtin", "cp1", "--m", "abc"])
    required_spans = ("cli.main", "model.parse", "localization.character")
    dominant = ("cli.import_s",)

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.trace_dir = None
        env = {k: v for k, v in os.environ.items() if k != "EQUILOC_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        self.env = env
        self.spawned = 0
        self.import_logs: list = []

    def setup(self):
        import equiloc.cli  # noqa: F401  the import every invocation pays

    def pass_ops(self, index):
        rng = pass_rng(self.seed, index)
        names = list(BUILTINS)
        rng.shuffle(names)
        shift = random.Random(self.seed).randrange(len(self.KINDS))
        ops = []
        for j, name in enumerate(names):
            kind = self.KINDS[(j + index + shift) % len(self.KINDS)]
            argv = rng.choice(cli_commands(kind, name))
            ops.append(Op(" ".join(argv), tuple(argv)))
        return ops

    def spawn(self, argv, op_id=""):
        """Run one equiloc process; returns (exit code, stdout, stderr)."""
        if self.trace_dir is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            child = Path(__file__).resolve().parent / "cli_child.py"
            spans = self.trace_dir / f"{self.spawned}.json"
            self.spawned += 1
            cmd = [sys.executable, "-X", "importtime", str(child),
                   str(spans), op_id, *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, op):
        code, out, err = self.spawn(list(op.key), op.id)
        if self.trace_dir is not None:
            self.import_logs.append(err)
        return code, out, err

    def reference(self, op):
        if not hasattr(self, "golden"):
            with open(GOLDEN / "cli.json", encoding="utf-8") as fh:
                self.golden = json.load(fh)
        return self.golden[op.id]

    def check(self, result, ref):
        code, out, err = result
        if code != ref["exit"]:
            return f"exit {code}, expected {ref['exit']}: {err[-200:]}"
        if out != ref["stdout"]:
            return "stdout differs from the recorded output"
        if "Traceback" in err:
            return "traceback on stderr"
        return None

    def known_defects(self):
        return ["cli " + " ".join(argv) for argv in self.KNOWN_DEFECTS]

    def probe(self):
        for argv, label in zip(self.KNOWN_DEFECTS, self.known_defects()):
            code, out, err = self.spawn(argv, "probe")
            if code == 2 and "Traceback" not in err:
                yield label, "fixed: exit 2 without a traceback", True
            else:
                last = err.strip().splitlines()[-1:] or [""]
                yield label, f"reproduces: exit {code}, {last[0]}"[:160], True


WORKLOADS = {w.name: w for w in (CharacterScaled, FormulaSweep, Pairing, Cli)}
