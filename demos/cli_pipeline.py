"""Drive the full file-based pipeline through the command line interface.

certify-gap -> constants -> solve -> sweep, all from one config file, each
stage writing its artifacts into the output directory: plain text, apart
from split.npy, the eigenpairs that certify-gap computes once and the later
stages load.  Running the pipeline twice with the same seed reproduces
every byte.
"""

import pathlib
import tempfile

from latticegap.cli import main

CONFIG = """\
dimension = 3
box.radius = 3
potential.kind = checkerboard
potential.amplitude = 1.0
nonlinearity.kind = power
nonlinearity.p = 4.0
rho.mode = fraction
rho.values = 0.4, 0.2, 0.1, 0.0
seed = 11
solver.multistart = 3
solver.max_boundary_mass = 0.25
"""

with tempfile.TemporaryDirectory(prefix="latticegap_demo_") as tmp:
    workdir = pathlib.Path(tmp)
    config = workdir / "run.cfg"
    config.write_text(CONFIG)
    out = workdir / "out"

    for command in ("certify-gap", "constants", "validate", "sweep"):
        status = main([command, "--config", str(config), "--out", str(out)])
        print(f"$ latticegap {command} --config run.cfg --out out   -> exit {status}")
        assert status == 0

    print(f"\nartifacts in {out}:")
    for path in sorted(out.iterdir()):
        print(f"  {path.name:24s} {path.stat().st_size:7d} bytes")

    print("\nsweep.csv:")
    print((out / "sweep.csv").read_text())
