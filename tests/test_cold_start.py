"""What a fresh interpreter running wallspan executes of numpy and of the standard library.

`clifford` and `fields` bind numpy lazily: its code runs on the first array
operation, so `import wallspan`, the obstruction layer and the `invariants`
and `cohomology` commands never execute it.  numpy's `__init__` imports
`numpy.linalg` on both 1.x and 2.x, so `numpy.linalg` in `sys.modules` is
the sign that numpy ran; `numpy` itself is in `sys.modules` either way.

On numpy >= 2, `np.unique` imports `numpy.ma` lazily, which took 15-16 ms
(`python -X importtime`, numpy 2.4, 2 cores) on every cold `wallspan` run;
numpy 1.x imports it eagerly, and there that check is skipped.

The same interpreters load neither `dataclasses` nor `inspect`: the records
are NamedTuples and subclasses of `invariants.Record`.  `import wallspan`
alone does not load `hashlib` either, which only the config hash needs.
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


def _run(script: str) -> str:
    """stdout of `script` in a fresh interpreter that finds this wallspan."""
    src = str(Path(wallspan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return run.stdout.strip()


def test_wallspan_does_not_import_numpy_ma():
    out = _run(SCRIPT)
    if out == "preloaded":
        pytest.skip("this numpy imports numpy.ma eagerly")
    assert out == "False"


def _cli(*args: str) -> str:
    return f"""
import contextlib, io
from wallspan import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({list(args)!r}) == 0
"""


NO_NUMPY = {
    "import": "import wallspan",
    "obstruction": """
from wallspan import WallParams, sw_upper_bound, total_sw_wall
for m, n in ((1, 2), (4, 5), (10, 24), (16, 255)):
    total_sw_wall(WallParams(m, n))
    sw_upper_bound(WallParams(m, n))
""",
    "invariants": _cli("invariants", "--m", "1", "--n", "2"),
    "cohomology": _cli("cohomology", "--m", "4", "--n", "5"),
}


@pytest.mark.parametrize("name", NO_NUMPY)
def test_numpy_never_executes(name):
    # nor do `dataclasses` and `inspect`, which numpy's own import would load
    absent = {"numpy.linalg", "dataclasses", "inspect"} | ({"hashlib"} if name == "import" else set())
    script = NO_NUMPY[name] + f"\nimport sys\nprint(sorted({sorted(absent)!r} & sys.modules.keys()))"
    assert _run(script) == "[]"


def test_array_work_executes_numpy():
    script = """
import sys, types
from wallspan.clifford import build_family
build_family(7).perm  # the words are ints; their arrays are the first numeric use
print("numpy.linalg" in sys.modules, type(sys.modules["numpy"]) is types.ModuleType)
"""
    assert _run(script) == "True True"


def test_numpy_imported_first_is_the_one_wallspan_uses():
    script = """
import numpy
import wallspan
print(wallspan.clifford.np is numpy and wallspan.fields.np is numpy)
"""
    assert _run(script) == "True"
