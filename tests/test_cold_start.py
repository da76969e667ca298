"""Start-up cost: the quadrature route and the CLI load neither scipy nor
the thread pool; the first Monte Carlo call loads scipy."""

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
                  or m.startswith("concurrent.futures"))

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
print(json.dumps({{"code": code, "before": before, "bits": bits,
                  "after": "scipy.special" in sys.modules}}))
"""


def test_quadrature_and_cli_do_not_load_scipy_or_the_pool(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PHASECON_THREADS"}
    code = CHILD.format(src=SRC, path=str(tmp_path / "psk8.json"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    assert result["before"] == []
    assert 0.0 < result["bits"] <= 3.0
    assert result["after"]
