"""A fresh interpreter running wallspan must not import numpy.ma.

On numpy >= 2, `np.unique` imports `numpy.ma` lazily, which took 15-16 ms
(`python -X importtime`, numpy 2.4, 2 cores) on every cold `wallspan` run;
numpy 1.x imports it eagerly, and there the check is skipped.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wallspan

SCRIPT = """
import contextlib, io, sys
import numpy
if "numpy.ma" in sys.modules:
    print("preloaded")
    sys.exit(0)
from wallspan import CampaignConfig, WallParams, cli, run_campaign, sw_upper_bound
sw_upper_bound(WallParams(2, 2))
run_campaign(CampaignConfig(m_values=(1, 2), n_values=(0, 3), samples_per_case=3))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["cohomology", "--m", "4", "--n", "5"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_wallspan_does_not_import_numpy_ma():
    src = str(Path(wallspan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    if run.stdout.strip() == "preloaded":
        pytest.skip("this numpy imports numpy.ma eagerly")
    assert run.stdout.strip() == "False"
