"""Start-up cost and dependencies: no route loads scipy, the quadrature
route, annealing and the CLI leave the thread pool and numpy.ma unloaded,
and every route runs with scipy absent."""

import json
import os
import subprocess
import sys
from pathlib import Path

import phasecon

SRC = str(Path(phasecon.__file__).resolve().parents[1])

CHILD = """
import json, sys
sys.path.insert(0, {src!r})
import phasecon as pc
from phasecon import cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m.startswith("concurrent.futures") or m.split(".")[:2] == ["numpy", "ma"])

c = pc.reference_constellation("psk", 8)
p = pc.ChannelParams.from_snr_pnsd(12.0, 20.0)
grid = pc.QuadratureGrid.of_degree(7)
pc.ami_quadrature(c, p, grid)
pc.pami_quadrature(c, p, grid)
pc.sa_optimize(8, p, pc.PAMI, grid, pc.SAConfig(iterations=20, seed=0))
pc.save_constellation({path!r}, c)
code = cli.main(["evaluate", {path!r}, "--snr-db", "12", "--pnsd-deg", "20",
                 "--objective", "PAMI"])
before = loaded()
bits = pc.pami_monte_carlo(c, p, 1000, seed=0).bits
scipy = [m for m in sys.modules if m.split(".")[0] == "scipy"]
print(json.dumps({{"code": code, "before": before, "bits": bits, "scipy": scipy}}))
"""

# Every route with scipy made unimportable: `import scipy` raises.
NO_SCIPY_CHILD = """
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, {src!r})
import phasecon as pc
from phasecon import cli

c = pc.reference_constellation("psk", 8)
grid = pc.QuadratureGrid.of_degree(7)
bits = []
for pnsd in (0.0, 20.0):
    p = pc.ChannelParams.from_snr_pnsd(12.0, pnsd)
    bits += [pc.ami_quadrature(c, p, grid).bits, pc.pami_quadrature(c, p, grid).bits,
             pc.ami_monte_carlo(c, p, 2000, seed=0).bits,
             pc.pami_monte_carlo(c, p, 2000, seed=0).bits]
bits.append(pc.log_bessel_i0(30.0))
pc.save_constellation({path!r}, c)
code = cli.main(["validate", {path!r}, "--snr-db", "12", "--pnsd-deg", "20",
                 "--samples", "2000"])
print(json.dumps({{"code": code, "bits": bits}}))
"""


def run_child(source: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PHASECON_THREADS"}
    done = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_quadrature_and_cli_do_not_load_scipy_or_the_pool(tmp_path):
    # Nor numpy.ma, which np.unique imports.  Nor does Monte Carlo load
    # scipy, after the quadrature and the CLI.
    result = run_child(CHILD.format(src=SRC, path=str(tmp_path / "psk8.json")))
    assert result["code"] == 0
    assert result["before"] == []
    assert 0.0 < result["bits"] <= 3.0
    assert result["scipy"] == []


def test_every_route_runs_without_scipy(tmp_path):
    result = run_child(NO_SCIPY_CHILD.format(src=SRC, path=str(tmp_path / "psk8.json")))
    assert result["code"] == 0
    assert all(0.0 < b <= 3.0 for b in result["bits"][:-1])
    assert 25.0 < result["bits"][-1] < 30.0
