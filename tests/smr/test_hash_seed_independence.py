"""SMR results must not depend on the interpreter's string-hash salt.

``hash(str)`` is salted per process (PYTHONHASHSEED), so any protocol choice
derived from it differs between runs and between parallel workers.  This
runs the same small SMR deployment in two fresh interpreters with different
salts and requires identical outcomes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

SCRIPT = """
import json
from repro.committees import ClanConfig
from repro.smr.runtime import SmrRuntime

runtime = SmrRuntime(ClanConfig.single_clan(7, 4), seed=3)
client = runtime.new_client("c")
runtime.start()
for i in range(24):
    runtime.submit(client, ("set", f"k{i}", i))
runtime.run(until=3.0)
node = runtime.deployment.nodes[0]
print(json.dumps({
    "blocks": [v.block_digest.hex() for v, _ in node.ordered_log if v.block_digest],
    "events": runtime.deployment.sim.processed_events,
}))
"""


def _run(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def test_smr_run_is_identical_under_different_hash_seeds():
    first = _run("1")
    assert first["blocks"], "the run must commit blocks for the check to bite"
    assert _run("2") == first
