"""A default run imports no optional third-party package.

The package has no required runtime dependency: routing searches its own
adjacency dict, and only the ``vectorized`` allocator needs numpy.  A fresh
interpreter runs the default fluid and detailed paths and then reports which
of the heavy optional packages ended up in ``sys.modules``.
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


def test_default_runs_import_neither_networkx_nor_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, check=True)
    assert json.loads(result.stdout.strip().splitlines()[-1]) == []
