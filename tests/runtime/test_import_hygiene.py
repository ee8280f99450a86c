"""A default run imports no optional third-party package.

The package has no required runtime dependency: routing searches its own
adjacency dict, and only the ``vectorized`` allocator needs numpy.  A fresh
interpreter runs the default fluid and detailed paths and then reports which
of the heavy optional packages ended up in ``sys.modules``; another, with
numpy blocked, must refuse only the ``vectorized`` allocator.
"""

import json
import os
import subprocess
import sys

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

SCRIPT = """
import json, sys
from repro import api
for name, backend in [("smoke", None), ("fattree_smoke", None), ("smoke", "detailed")]:
    api.run(api.load_scenario(name), backend=backend)
print(json.dumps(sorted(m for m in ("networkx", "numpy") if m in sys.modules)))
"""


#: Blocks numpy (``import numpy`` raises ImportError), then asks for the
#: ``vectorized`` allocator and runs ``smoke`` on the default one.
NO_NUMPY_SCRIPT = """
import json, sys
sys.modules["numpy"] = None
from repro import api
from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.flow import FlowTransport
from repro.sim.machine import QuantumMachine
try:
    FlowTransport(SimulationEngine(), QuantumMachine(4), allocator="vectorized")
    error = None
except SimulationError as exc:
    error = str(exc)
result = api.run(api.load_scenario("smoke"))
print(json.dumps({"error": error, "makespan_us": result.makespan_us}))
"""


def _run_fresh(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_default_runs_import_neither_networkx_nor_numpy():
    assert _run_fresh(SCRIPT) == []


def test_without_numpy_only_the_vectorized_allocator_is_refused():
    outcome = _run_fresh(NO_NUMPY_SCRIPT)
    assert outcome["error"] is not None and "numpy" in outcome["error"]
    assert outcome["makespan_us"] > 0
