"""The runtime depends on numpy alone.

scipy and networkx stay in the ``dev`` extra as test oracles (the
filter designs and the dependence graph are checked against them);
nothing a ``repro`` process loads may import them, even when they are
installed.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Imports the CLI and the Python API, builds the 84-cell paper sweep
#: plan, then prints every loaded module of a package that must not
#: load.
PROBE = """
import json, sys
import repro.cli, repro.api
plan = repro.api.SweepRequest().validate().plan()
assert len(plan.requests) == 84, len(plan.requests)
heavy = sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("scipy", "networkx")
    or name == "numpy.f2py" or name.startswith("numpy.f2py.")
)
print(json.dumps(heavy))
"""


def _setup_keywords() -> dict:
    tree = ast.parse((ROOT / "setup.py").read_text())
    call = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "setup"
    )
    return {kw.arg: kw.value for kw in call.keywords}


def test_install_requires_is_numpy_only():
    keywords = _setup_keywords()
    assert ast.literal_eval(keywords["install_requires"]) == ["numpy"]
    dev = ast.literal_eval(keywords["extras_require"])["dev"]
    assert {"scipy", "networkx"} <= set(dev)


def test_fresh_interpreter_loads_no_scipy_networkx_or_f2py():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []
