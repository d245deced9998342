"""Record the outputs the benchmark compares against.

    python3 perfbench/record_golden.py

Writes golden/formula.json (the exact terms of every main-formula report
the formula-sweep workload can request) and golden/cli.json (exit code and
stdout of every command the cli workload can issue).  The committed files
were recorded from the sources at the commit that added the benchmark;
re-record only when an output is meant to change.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (BUILTINS, CLI_ENTRY, Cli, FormulaSweep,  # noqa: E402
                       cli_commands, report_record)


def record_formula() -> dict:
    from equiloc import main_formula_report, parse
    data = ROOT / "src" / "equiloc" / "data"
    out = {}
    for doc in FormulaSweep.DOCS:
        p = parse((data / f"{doc}.json").read_text(encoding="utf-8"))
        out[doc] = {str(m): report_record(main_formula_report(p, m))
                    for m in range(1, FormulaSweep.M_MAX + 1)}
    return out


def record_cli() -> dict:
    env = Cli(ROOT, 0).env
    out = {}
    for kind in Cli.KINDS:
        for name in BUILTINS:
            for argv in cli_commands(kind, name):
                proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv],
                                      cwd=ROOT, env=env, capture_output=True,
                                      text=True, timeout=120)
                out[" ".join(argv)] = {"exit": proc.returncode,
                                       "stdout": proc.stdout}
    return out


def main() -> None:
    (HERE / "golden").mkdir(exist_ok=True)
    for name, recorded in (("formula", record_formula()),
                           ("cli", record_cli())):
        with open(HERE / "golden" / f"{name}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
