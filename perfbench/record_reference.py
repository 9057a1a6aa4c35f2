"""Record the JSON ``results`` of the deterministic CLI ops.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``, which ``run.py`` compares every
deterministic op of the ``cli`` workload against.  Re-record only
when a change to the printed values is intended.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for op in run.cli_ops(0):
            if op.check != "reference":
                continue
            done = run.run_process([sys.executable, "-m", "spherehess", *op.argv], Path(tmp))
            if done.code != 0:
                sys.stderr.write(f"{op.label} exited {done.code}:\n{done.stderr}")
                return 1
            reference[op.label] = json.loads(done.stdout)["results"]
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} ops in {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
