"""Print the deterministic outputs of the shipped scenarios, for comparing
two checkouts byte for byte.

Prints ``report_body`` of every config under ``configs/`` at seed 0, then
the rows and the log-log slope of five sweeps: squeeze over ``dt`` and
``N``, rotation over ``dt``, su11-metaplectic-loop over ``h`` and
packet-harmonic over ``lambda``, and then, for the u2, su11 and heisenberg
families, the structure constants and each basis direction's generator
H(e_i: 0) at the zero point.  Floats are printed with ``repr``, so equal
output means bitwise equal values.  Not a test module: run it as

    PYTHONPATH=src python tests/report_bodies.py > bodies.txt

in each checkout, and compare the two files with ``cmp``.
"""

from pathlib import Path

import numpy as np

from semiclab.cli import load_config, report_body, run_scenario, sweep
from semiclab.scenarios import heisenberg_family, su11_family, u2_family

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

SWEEPS = [
    ("squeeze.yaml", "dt", [4e-2, 2e-2, 1e-2, 5e-3]),
    ("squeeze.yaml", "N", [4.0, 6.0, 8.0, 12.0]),
    ("rotation.yaml", "dt", [4e-2, 2e-2, 1e-2]),
    ("su11-metaplectic-loop.yaml", "h", [4e-3, 2e-3, 1e-3]),
    ("packet-harmonic.yaml", "lambda", [0.1, 0.01, 0.001]),
]


def main() -> None:
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        print(f"== {path.name}")
        print(report_body(run_scenario(load_config(path), seed=0)))
    for name, parameter, grid in SWEEPS:
        result = sweep(load_config(CONFIG_DIR / name), parameter, grid)
        print(f"== sweep {name} {parameter}")
        for value, residual in result["rows"]:
            print(repr(float(value)), repr(float(residual)))
        print("slope", repr(float(result["slope"])))
    for name, build in (("u2", u2_family), ("su11", su11_family),
                        ("heisenberg", heisenberg_family)):
        fam = build()
        print(f"== family {name}")
        print("structure", repr(fam.algebra.structure.tolist()))
        m, size = fam.algebra.dim, len(fam.system.forms[0])
        for i in range(m):
            gen = fam.generator(np.eye(m)[i], np.zeros(size))
            print(f"generator {i}", repr(gen.hpp.tolist()), repr(gen.hpm.tolist()),
                  repr(gen.hbar))


if __name__ == "__main__":
    main()
