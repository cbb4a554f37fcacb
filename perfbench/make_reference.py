"""Write reference.json: the outcomes of every workload's inputs for the seeds
that get a stored reference, computed by the library in ``src``.

    python3 perfbench/make_reference.py [SEED ...]      (default: 0 1)

Regenerate only when a change to the numerics is meant to move results, and
say which values moved and why.
"""

import json
import os
import sys

import workloads
from run import THREAD_VARS


def main(seeds):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    lib, _ = workloads.setup()
    out = {}
    for name in workloads.NAMES:
        out[name] = {}
        for seed in seeds:
            wl = workloads.make(name, lib, seed)
            out[name][str(seed)] = [wl.reference(inp, wl.call(inp)) for inp in wl.inputs]
            print(f"{name} seed {seed}: {len(wl.inputs)} inputs", flush=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [0, 1])
