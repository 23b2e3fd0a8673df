"""Set-up probe, run in a fresh interpreter by run.py:

    python3 -E -s perfbench/setup_probe.py <checkout root> <spec json>
    python3 -E -s perfbench/setup_probe.py --reference

The first form times ``import tbcurv`` plus building the workload's catalog
manifolds and families.  The second times a fixed import that does not
touch tbcurv: numpy and a set of standard-library modules, the host-speed
reference for set-up time (see hostspeed.py).  Both time from the first
line of this script and print one JSON object with the time; the first
also prints the path tbcurv was imported from.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

REFERENCE_MODULES = (
    "numpy", "argparse", "csv", "dataclasses", "decimal", "email.parser",
    "fractions", "re", "statistics", "typing", "unittest",
)


def reference() -> None:
    import importlib

    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def main() -> None:
    root, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, os.path.join(root, "src"))
    import tbcurv

    for manifold, dim, coeffs in spec["manifolds"]:
        tbcurv.make_manifold(manifold, dim, coeffs=coeffs)
    for fam in spec["families"]:
        if "preset" in fam:
            tbcurv.preset(fam["preset"])
        elif fam.get("beta_flatness"):
            tbcurv.NaturalMetricFamily(fam["alpha"], tbcurv.flatness_beta(fam["alpha"]))
        else:
            tbcurv.NaturalMetricFamily(fam["alpha"], fam["beta"])
    elapsed = time.perf_counter() - _T0
    print(json.dumps({"setup_s": elapsed, "tbcurv": tbcurv.__file__}))


if __name__ == "__main__":
    if sys.argv[1:] == ["--reference"]:
        reference()
    else:
        main()
