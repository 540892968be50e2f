"""Print the deterministic outputs of the shipped scenarios, for comparing
two checkouts byte for byte.

Prints ``report_body`` of every config under ``configs/`` at seed 0, then
the rows and the log-log slope of five sweeps: squeeze over ``dt`` and
``N``, rotation over ``dt``, su11-metaplectic-loop over ``h`` and
packet-harmonic over ``lambda``, then, for the u2, su11 and heisenberg
families, the structure constants and each basis direction's generator
H(e_i: 0) at the zero point, and last the two-axis vacuum pairing with its
certificate (value, radius, order-doubling delta) on the base plane and
the mixed plane of ``test_basis_change_invariance_mixing``, a path that no
shipped scenario reaches.  Floats are printed with ``repr``, so equal
output means bitwise equal values.  Not a test module: run it as

    PYTHONPATH=src python tests/report_bodies.py > bodies.txt

in each checkout, and compare the two files with ``cmp``.
"""

from pathlib import Path

import numpy as np

from semiclab.cli import load_config, report_body, run_scenario, sweep
from semiclab.constrained import QuadSpec, inner_constrained_detailed, make_plane
from semiclab.fock import ModeBasis, vacuum_state
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
    b1, b2 = np.array([1.0, 0.3]), np.array([-0.2, 0.9])
    th = 0.6
    t = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]]) @ np.diag(
        [1.1, 0.9])
    planes = [("base", make_plane([b1, b2])),
              ("mixed", make_plane([t[0, 0] * b1 + t[0, 1] * b2,
                                    t[1, 0] * b1 + t[1, 1] * b2],
                                   a=abs(np.linalg.det(t))))]
    vac = vacuum_state(ModeBasis(2, 4))
    for name, plane in planes:
        value, cert = inner_constrained_detailed(
            vac, vac, plane, QuadSpec(pad=30, order=48, self_check=1e-7))
        print(f"== two-axis vacuum {name}")
        print("value", repr(value), "radius", repr(cert.radius),
              "delta", repr(cert.order_doubling_delta))


if __name__ == "__main__":
    main()
