"""Record the expected output of every pool call into perfbench/expected/.

    python3 perfbench/pin.py [workload ...]

Run from the root of a checkout of the commit whose outputs are the
reference.  Each file maps a call key to the observed output of that call;
worker.py compares later runs against it with check.mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from worker import HERE, import_program


def main(names) -> int:
    import_program(os.getcwd())
    from workloads import WORKLOADS

    workdir = os.path.join(os.getcwd(), ".perfbench", "pin")
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        entries = []
        for call in workload.pool_calls():
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            _times, raw = workload.run(call, workdir)
            observed = workload.observe(call, workdir, raw)
            entries.append(f"{json.dumps(call.key)}: {json.dumps(observed, sort_keys=True)}")
            print(call.key, flush=True)
        path = os.path.join(HERE, "expected", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("{\n" + ",\n".join(entries) + "\n}\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
