"""Regenerate the stored reference outputs of every workload.

    PYTHONPATH=src python3 perfbench/make_reference.py [--workload NAME ...]

Runs one repetition of each workload for every input seed and writes
``perfbench/reference/<workload>.json``. Run it only at a commit whose
outputs are the accepted reference; a later change is checked against them.
"""

import argparse
import json
import os
import sys
import time

import workloads
from child import environment


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", action="append", choices=workloads.NAMES)
    args = p.parse_args(argv)
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
    os.makedirs(out_dir, exist_ok=True)
    for name in args.workload or workloads.NAMES:
        w = workloads.make(name)
        seeds = {}
        for seed in range(workloads.INPUT_SEEDS):
            t = time.perf_counter()
            state = w.setup(seed)
            seeds[str(seed)] = w.outputs(w.run(state, 0))
            if hasattr(w, "teardown"):
                w.teardown(state)
            fails = workloads.known_failures(seeds[str(seed)])
            print(f"{name} seed {seed}: {time.perf_counter() - t:.1f} s"
                  + (f", failing checks {fails}" if fails else ""), flush=True)
        env = environment(None, w)
        record = {
            "workload": name,
            "rel_tol": workloads.REL_TOL,
            "abs_tol": workloads.ABS_TOL,
            "env": {k: env[k] for k in ("python", "numpy", "scipy", "openblas_version",
                                        "blas_threads", "nproc", "git_commit")},
            "seeds": seeds,
        }
        with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
