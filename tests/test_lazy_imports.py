"""scipy loads only where it is used: the magic searches, params_from_unitary
and thermodynamic MPU mode import it on their first call.  multiprocessing
loads only for a sweep on a process pool.  Each check runs in
a fresh interpreter, since this suite's own process has loaded scipy long
before.  This module imports no scipy itself: the first-call probe imports
FIRST_CALLS from it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paulient.magic import SearchConfig, local_min_operator_magic, params_from_unitary
from paulient.mpu import mpu_zz_chain, pauli_power_mpu
from paulient.operators import Bipartition, haar_random_unitary

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

_CLI_PROBE = """
import json, sys
import numpy as np
from paulient.cli import main
from paulient.operators import haar_random_unitary
from paulient.serialize import save_matrix

tmp = sys.argv[1]
after_import = ["scipy" in sys.modules, "multiprocessing" in sys.modules]
save_matrix(tmp + "/u.txt", haar_random_unitary(16, np.random.default_rng(1)))
codes = [main(["pe-exact", "--matrix", tmp + "/u.txt", "--na", "2", "--nb", "2",
               "--out", tmp + "/pe.csv"])]
after_pe = "multiprocessing" in sys.modules
codes.append(main(["spinchain-run", "--model", "xyz", "--sweep", "Jz=0.5", "--n", "4",
                   "--mode", "exact", "--seed", "1", "--out", tmp + "/sweep.csv"]))
print(json.dumps([after_import, after_pe, codes,
                  sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

_FIRST_CALL_PROBE = """
import json, sys
from test_lazy_imports import FIRST_CALLS

before = "scipy" in sys.modules
value = FIRST_CALLS[sys.argv[1]]()
print(json.dumps([before, "scipy" in sys.modules, [float(v).hex() for v in value]]))
"""

FIRST_CALLS = {
    "local_min_operator_magic": lambda: [local_min_operator_magic(
        haar_random_unitary(4, np.random.default_rng(5)), Bipartition(1, 1),
        SearchConfig(restarts=2, seed=3))[0]],
    "params_from_unitary": lambda: params_from_unitary(
        haar_random_unitary(4, np.random.default_rng(6))),
    "pauli_power_mpu thermodynamic": lambda: [pauli_power_mpu(
        mpu_zz_chain(np.pi / 8), 0, 0, mode="thermodynamic")],
}


def _run(source: str, *args: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", source, *args], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_commands_without_scipy_leave_it_unloaded(tmp_path):
    after_import, after_pe, codes, loaded = _run(_CLI_PROBE, str(tmp_path))
    # multiprocessing loads with the first pooled sweep only
    assert after_import == [False, False] and not after_pe
    assert codes == [0, 0]
    assert loaded == []
    assert (tmp_path / "pe.csv").read_text().splitlines()[-1][0].isdigit()
    assert (tmp_path / "sweep.csv").read_text().splitlines()[-1][0].isdigit()


@pytest.mark.parametrize("name", sorted(FIRST_CALLS))
def test_first_call_loads_scipy_and_gives_the_in_suite_value(name):
    before, after, value = _run(_FIRST_CALL_PROBE, name)
    assert not before and after
    assert value == [float(v).hex() for v in FIRST_CALLS[name]()]
