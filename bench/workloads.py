"""Workloads of the meanbounds benchmark: seeded inputs, slices and output checks.

Each workload is a list of slice specs generated from the seed.  A slice
is the unit that is timed: one ``run_*_suite(cfg, start, SLICE_TRIALS)``
call for the three suites (the documented ``merge_reports`` contract), or
one ``cli.main(["scan", ...])`` call on a 4 x 8 x 8 grid for scan.
The program only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

SLICE_TRIALS = 20
# suite workload -> (harness runner, CLI-default trial count)
SUITES = {
    "verify-scalar": ("run_scalar_suite", 10_000),
    "verify-bounds": ("run_bounds_suite", 2_000),
    "verify-operator": ("run_operator_suite", 500),
}
SCAN_SHAPE = (4, 8, 8)  # parser ~17% of a slice; larger grids were not steady
SCAN_GRIDS = 100
SCAN_RANGE = (0.1, 10.0)
SCAN_V_RANGE = (0.01, 0.99)
NAMES = (*SUITES, "scan")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class SuiteWorkload:
    """Slices of one verification suite at its CLI-default config."""

    kind = "suite"
    instances = SLICE_TRIALS

    def __init__(self, mb, name: str, seed: int, reference: dict):
        self.mb = mb
        self.runner, trials = SUITES[name]
        self.cfg = mb.SuiteConfig(seed=seed, trials=trials)
        self.reference = frozenset(reference[name]["min_slacks"])
        self.merged = None
        # the operator suite gives trial i the dimension dims[i // trials];
        # interleaving the dimension blocks keeps the mix even at any run length
        blocks = len(self.cfg.dims) if self.runner == "run_operator_suite" else 1
        self.specs = [b * trials + k for k in range(0, trials, SLICE_TRIALS)
                      for b in range(blocks)]

    def run(self, start):
        return getattr(self.mb, self.runner)(self.cfg, start, SLICE_TRIALS)

    def text(self, report) -> str:
        return report.to_json()

    def check(self, start, report) -> int:
        """Failed instances of one slice; also folds it into the run's merge."""
        failed = len({rec["trial"] for rec in report.failures})
        if report.trials != SLICE_TRIALS or not set(report.min_slacks) <= self.reference:
            failed = SLICE_TRIALS
        self.merged = report if self.merged is None else self.mb.merge_reports(self.merged, report)
        return min(failed, SLICE_TRIALS)

    def finish(self) -> bool:
        """The merged report of the whole run has exactly the reference keys."""
        return self.merged is not None and set(self.merged.min_slacks) == self.reference


class ScanWorkload:
    """``meanbounds scan`` on seeded grids, alternating log and identric."""

    kind = "scan"
    instances = math.prod(SCAN_SHAPE)

    def __init__(self, mb, seed: int, reference: dict):
        import meanbounds.cli

        self.cli = meanbounds.cli
        self.columns = {chain: frozenset(cols)
                        for chain, cols in reference["scan"]["columns"].items()}
        rng = np.random.default_rng(seed)
        log_lo, log_hi = np.log(SCAN_RANGE)
        na, nb, nv = SCAN_SHAPE
        self.specs = []
        for k in range(SCAN_GRIDS):
            a = np.sort(np.exp(rng.uniform(log_lo, log_hi, 2)))
            b = np.sort(np.exp(rng.uniform(log_lo, log_hi, 2)))
            v = np.sort(rng.uniform(*SCAN_V_RANGE, 2))
            self.specs.append((
                "scan",
                "--a", f"{a[0]:.6g}:{a[1]:.6g}:{na}",
                "--b", f"{b[0]:.6g}:{b[1]:.6g}:{nb}",
                "--v", f"{v[0]:.6g}:{v[1]:.6g}:{nv}",
                "--chain", ("log", "identric")[k % 2],
            ))

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(argv))
        return code, buf.getvalue()

    def text(self, output) -> str:
        return output[1]

    def check(self, argv, output) -> int:
        code, text = output
        try:
            rows = json.loads(text)["rows"]
        except (json.JSONDecodeError, KeyError, TypeError):
            return self.instances
        if code != 0 or len(rows) != self.instances:
            return self.instances
        columns = self.columns[argv[argv.index("--chain") + 1]]
        return sum(1 for row in rows if set(row) != columns or row["pass"] is not True)

    def finish(self) -> bool:
        return True


def make(name: str, mb, seed: int, reference: dict | None = None):
    reference = load_reference() if reference is None else reference
    if name == "scan":
        return ScanWorkload(mb, seed, reference)
    if name in SUITES:
        return SuiteWorkload(mb, name, seed, reference)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")

