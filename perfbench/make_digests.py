"""Rewrite digests.json: the exact solver values of every default-seed instance.

    python3 perfbench/make_digests.py

Run it only when an instance list in workloads.py changes.  A change to the
program must reproduce the checked-in digests, never rewrite them.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from worker import DEFAULT_SEED, DIGESTS, ROOT  # first: puts the checkout's src/ on sys.path

from run import WORKLOADS
from workloads import digest, make_instances, make_plan


def main() -> None:
    digests = {}
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            plan = make_plan(workload, DEFAULT_SEED, ROOT / "data")
            instances = make_instances(plan["instances"], Path(workdir))
            digests[workload] = {i.id: digest(i.check(i.run())) for i in instances}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
