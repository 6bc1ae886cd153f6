"""The benchmark's own tests: every output check accepts the program's real
output and rejects a perturbed value and a NaN.

    python3 perfbench/selftest.py          # from the root of a checkout

Each workload runs one round; then, for every operation, the check is fed
the real result (must pass) and doctored copies of it (must fail).  Results
with no number in them (a cell list, a boolean, the verify verdict) are
tested with a perturbation only.
"""

from __future__ import annotations

import json
import sys
import unittest
from dataclasses import replace
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from padicqft import lattice, reporting, sampler, ultrametric  # noqa: E402

NAN = float("nan")


def _edit_csv(files, prefix, row, col, edit):
    """Copy of the artifacts with one CSV field replaced by edit(old text)."""
    name = next(n for n in files if n.startswith(prefix))
    lines = files[name].decode().split("\n")
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    fields = lines[data[row]].split(",")
    fields[col] = edit(fields[col])
    lines[data[row]] = ",".join(fields)
    return {**files, name: "\n".join(lines).encode()}


def _scale(factor):
    return lambda text: repr(float(text) * factor)


# cli artifact -> (file name prefix, data row, column, perturbation); row 0 is a header
CLI_FIELDS = {
    "integrals": ("integrals_", 1, 1, _scale(1 + 1e-6)),
    "green": ("green_", 2, 1, _scale(1 + 1e-6)),
    "lattice": ("lattice_", 0, 0, _scale(1 + 1e-6)),
    "wick": ("wick_coeffs_", 1, 2, lambda w: str(int(w) + 1)),
    "schwinger_quadrature": ("schwinger_", 1, 1, _scale(1 + 1e-4)),
    "schwinger_mc": ("schwinger_", 1, 3, lambda ess: "5.0"),
}


def bad_versions(op, result):
    """(label, result) pairs the operation's check must reject."""
    if isinstance(result, sampler.SchwingerEstimate):
        if op.ref is not None:
            shift = 10 * result.std_error + 1e-4 * max(1.0, abs(result.value))
            moved = replace(result, value=result.value + shift)
        else:  # checked for a healthy effective sample size only
            moved = replace(result, ess=5.0)
        return [("perturbed", moved), ("nan", replace(result, value=NAN))]
    if isinstance(result, reporting.CheckReport):
        return [("perturbed", replace(result, passed=False)),
                ("nan", replace(result, worst_margin=NAN))]
    if isinstance(result, sampler.RegionComparison):
        return [("perturbed", replace(result, margin=-1.0, passed=False)),
                ("nan", replace(result, margin=NAN))]
    if isinstance(result, sampler.PartitionStabilityResult):
        first = result.estimates[0]
        return [("perturbed", replace(result, estimates=(replace(first, ess=5.0),) + result.estimates[1:])),
                ("nan", replace(result, estimates=(replace(first, value=NAN),) + result.estimates[1:]))]
    if isinstance(result, ultrametric.LatticeSpec):
        cells = list(result.cells)
        cells[0], cells[1] = cells[1], cells[0]
        return [("perturbed", replace(result, cells=tuple(cells)))]
    if isinstance(result, lattice.PrecisionMatrix):
        i, j = next((i, j) for i, j in op.ref_value["entries"] if i != j)
        moved = np.array(result.entries)
        moved[i, j] *= 1 + 1e-9
        moved[j, i] = moved[i, j]
        nan = np.array(result.entries)
        nan[i, j] = nan[j, i] = NAN
        return [("perturbed", replace(result, entries=moved)), ("nan", replace(result, entries=nan))]
    if isinstance(result, lattice.CovarianceMatrix):
        row = op.ref_value["rows"][0]
        moved = np.array(result.entries)
        moved[row] *= 1 + 1e-6
        nan = np.array(result.entries)
        nan[row, row] = NAN
        return [("perturbed", replace(result, entries=moved)), ("nan", replace(result, entries=nan))]
    if isinstance(result, bool):
        return [("perturbed", not result)]
    if isinstance(result, tuple):  # a cli invocation: (exit status, artifacts)
        rc, files = result
        out = [("exit status", (2, files))]
        if op.name == "verify":
            name = next(iter(files))
            doc = json.loads(files[name])
            doc["all_pass"] = False
            return out + [("perturbed", (rc, {name: json.dumps(doc).encode()}))]
        prefix, row, col, edit = CLI_FIELDS[op.name]
        return out + [("perturbed", (rc, _edit_csv(files, prefix, row, col, edit))),
                      ("nan", (rc, _edit_csv(files, prefix, row, col, lambda _: "nan")))]
    raise TypeError(f"no perturbation for {type(result).__name__} ({op.name})")


class ChecksReject(unittest.TestCase):
    def run_workload(self, name):
        workload = workloads.BUILDERS[name](12345, ROOT)
        try:
            workload.prepare()
            ctx = {"round": 0, "span": lambda _name, fn, *a, **k: fn(*a, **k)}
            for op in workload.ops:
                with self.subTest(op=op.name):
                    result = op.call(ctx)
                    bad = bad_versions(op, result)
                    for label, doctored in bad:  # before the real result: cli keeps the first
                        with self.assertRaises(workloads.CheckError, msg=f"{op.name}: {label}"):
                            op.check(doctored, op.ref_value)
                    if op.name in workload.expected_failures:
                        with self.assertRaises(workloads.CheckError):
                            op.check(result, op.ref_value)
                        continue
                    op.check(result, op.ref_value)
                    if isinstance(result, tuple):  # later rounds must repeat the first byte for byte
                        for label, doctored in bad[1:]:
                            with self.assertRaises(workloads.CheckError, msg=f"{op.name}: {label}"):
                                op.check(doctored, op.ref_value)
        finally:
            workload.cleanup()

    def test_quadrature(self):
        self.run_workload("quadrature")

    def test_mc(self):
        self.run_workload("mc")

    def test_lattice(self):
        self.run_workload("lattice")

    def test_cli(self):
        self.run_workload("cli")


if __name__ == "__main__":
    unittest.main()
