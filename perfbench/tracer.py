"""In-memory spans around the calls into equiloc's layers.

The tracer replaces each traced function at every name binding that points
at it in a loaded `equiloc.*` module (so by-name imports such as witten's
`PreparedInner` / `component_u_laurent` / `_rho_series` and quantize's
`equivariant_todd_at_F` are covered), and each traced method on its class.
A span is (name, start, end, parent index, op id, extra); self time is the
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, span name)
TARGETS = [
    ("equiloc.model", "parse", "model.parse"),
    ("equiloc.localization", "chi_tilde", "localization.chi_tilde"),
    ("equiloc.localization", "character", "localization.character"),
    ("equiloc.localization", "equivariant_todd_at_F",
     "localization.equivariant_todd_at_F"),
    ("equiloc.localization", "component_u_laurent",
     "localization.component_u_laurent"),
    ("equiloc.localization", "_rho_series", "localization.rho_series"),
    ("equiloc.localization", "PreparedInner.__init__",
     "localization.PreparedInner.init"),
    ("equiloc.localization", "PreparedInner.evaluate",
     "localization.PreparedInner.evaluate"),
    ("equiloc.localization", "PreparedInner.laurent_sum",
     "localization.PreparedInner.laurent_sum"),
    ("equiloc.zrational", "ZRational.to_laurent_polynomial",
     "zrational.to_laurent_polynomial"),
    ("equiloc.zrational", "ZRational.residue_at_zero", "zrational.residue"),
    ("equiloc.zrational", "ZRational.residue_at_infinity",
     "zrational.residue"),
    ("equiloc.quantize", "rr_invariant", "quantize.rr_invariant"),
    ("equiloc.quantize", "residue_term", "quantize.residue_term"),
    ("equiloc.quantize", "exceptional_term", "quantize.exceptional_term"),
    ("equiloc.quantize", "regular_term", "quantize.regular_term"),
    ("equiloc.quantize", "main_formula_report",
     "quantize.main_formula_report"),
    ("equiloc.witten", "complex_quad", "witten.complex_quad"),
    ("equiloc.witten", "dist_pair", "witten.dist_pair"),
    ("equiloc.witten", "witten_pair", "witten.witten_pair"),
    ("equiloc.witten", "expansion_rhs", "witten.expansion_rhs"),
    ("equiloc.cli", "main", "cli.main"),
]


def _division_sizes(args, result) -> dict:
    den = args[0].den
    size = 0
    if result.coeffs:
        lo, hi = result.support()
        size = hi - lo + 1
    return {"den_degree": sum(k * mult for k, mult in den.items()),
            "quotient_len": size}


SIZES = {"zrational.to_laurent_polynomial": _division_sizes}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []
        self.op = None

    def wrap(self, name: str, fn):
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            extra = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if sizes is not None:
                    extra = sizes(args, result)
                return result
            except BaseException as e:
                extra = {"error": type(e).__name__}
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op, extra)

        return traced

    def install(self) -> None:
        """Wrap every target whose module is loaded."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "equiloc" or k.startswith("equiloc.")]
        for modname, path, name in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[attr]
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig))
                continue
            orig = getattr(mod, path)
            wrapper = self.wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


def write_spans(path, spans) -> None:
    """One JSON object per span, in creation order."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, op, extra) in enumerate(spans):
            rec = {"i": i, "name": name, "start": start, "end": end,
                   "parent": parent, "op": op}
            rec.update(extra or {})
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def summarize(spans, skip_op=None) -> dict:
    """Per span name: outermost calls, self seconds and summed extras,
    leaving out the spans of op `skip_op`.

    `spans` holds (name, start, end, parent, op, extra) in creation order;
    parent indices refer to the same list.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, op, extra) in enumerate(spans):
        if skip_op is not None and op == skip_op:
            continue
        agg = out[name]
        agg["self_s"] += (end - start) - child_time[i]
        nested = False
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            agg["calls"] += 1
        for key, value in (extra or {}).items():
            if key == "error":
                agg["errors." + value] += 1
            else:
                agg[key] += value
    return out


def parse_importtime(stderr: str) -> dict:
    """Import seconds from `python -X importtime` output.

    Returns the cumulative time of top-level equiloc imports and of scipy
    imports not nested inside another scipy import.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(parts[1]), name.strip()))
    # importtime prints each module after its children: a module's parent is
    # the first later entry one level up.
    equiloc_us = scipy_us = 0
    for i, (depth, cum, name) in enumerate(entries):
        if depth == 0 and name.split(".")[0] == "equiloc":
            equiloc_us += cum
        if name.split(".")[0] != "scipy":
            continue
        d, j, inside = depth, i + 1, False
        while d > 0 and j < len(entries):
            if entries[j][0] == d - 1:
                if entries[j][2].split(".")[0] == "scipy":
                    inside = True
                    break
                d -= 1
            j += 1
        if not inside:
            scipy_us += cum
    return {"equiloc_s": equiloc_us / 1e6, "scipy_s": scipy_us / 1e6}
