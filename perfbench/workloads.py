"""The benchmark's workloads: instance set-up and the ``satsearch`` command to time.

Every workload draws a planted unique-solution 3SAT instance from
``generate_planted_3sat(n, 5n, seed)`` and writes it as DIMACS; the command
only reads that file.  An initial batch of 5n clauses leaves few survivors for
the repair loop, so the final clause count, and with it the enumeration cost,
varies by about 1% between seeds instead of about 4% at 4n.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from satsearch import CnfFormula, generate_planted_3sat, serialize_dimacs

SMOKE_N = 10
CLAUSES_PER_VARIABLE = 5
TRIALS = 1000


@dataclass(frozen=True)
class Workload:
    """One frozen command shape.

    ``args`` follow ``satsearch <command> -f <instance>``; ``{out}`` stands for
    the run's output directory, which receives exactly the files in ``outputs``.
    """

    name: str
    n: int
    args: tuple[str, ...]
    outputs: tuple[str, ...]

    def argv(self, instance: Path, outdir: Path) -> list[str]:
        command, *rest = self.args
        return [command, "-f", str(instance)] + [a.format(out=outdir) for a in rest]


# Why each workload exists is in README.md: sweep-n18 exercises the dynamics
# layer, histogram-n22 the enumeration alone, report-n17 the repeated sweeps,
# sampling and report output.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-n18",
            18,
            ("run", "-o", "{out}/report.json"),
            ("report.json",),
        ),
        Workload(
            "histogram-n22",
            22,
            ("analyze", "--table", "{out}/table.json", "-o", "{out}/summary.json"),
            ("summary.json", "table.json"),
        ),
        Workload(
            "report-n17",
            17,
            (
                "run", "--grover", "--trials", str(TRIALS),
                "--snapshot", "{out}/snapshot.json", "-o", "{out}/report.json",
            ),
            ("report.json", "snapshot.json"),
        ),
    )
}


def make_instance(n: int, seed: int, path: Path) -> tuple[CnfFormula, float, float]:
    """Generate and write the instance; returns it with the generate and total set-up times."""
    t0 = time.perf_counter()
    formula = generate_planted_3sat(n, CLAUSES_PER_VARIABLE * n, seed)
    t1 = time.perf_counter()
    path.write_text(serialize_dimacs(formula, comments=[f"seed {seed}"]))
    return formula, t1 - t0, time.perf_counter() - t0
