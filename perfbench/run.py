"""filtermaps benchmark: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object with every end-to-end metric; with ``--trace 1`` it carries every
per-layer metric instead. The lines before it print each metric with its
unit, ``fail_frac`` and the sample count. A fuller record, with the
environment, goes to ``perfbench/out/``. See ``perfbench/README.md``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("filter_1d", "filter_2d", "verify_small", "sweep_cli")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3

#: Wall-clock budget of one run; a run must end within 180 s.
RUN_BUDGET_S = 170.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="shrink grids and step counts; no reference check (smoke test)")
    return p.parse_args(argv)


def _child(args, mode: str, deadline: float) -> dict:
    """Run child.py in its own process group; kill the whole group on timeout."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"benchmark {mode} process exceeded the run budget")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"benchmark {mode} process failed with exit code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "filtermaps", "__init__.py")):
        print(f"error: no filtermaps source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S

    setup = []
    if not args.trace:
        setup = [_child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = _child(args, "run", deadline)

    samples = res["run_s"]
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and res["identical"] and attempted > 0
    if args.trace:
        metrics = {m["name"]: {"value": m["value"], "unit": m["unit"]} for m in res["layers"]}
    else:
        metrics = {
            "run_s": {"value": statistics.median(samples), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "oracle_dg": {"value": res["oracle_dg"], "unit": "dg"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "input_seed": res["input_seed"],
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "identical_repetitions": res["identical"],
        "run_s_samples": samples, "setup_s_samples": setup,
        "known_failures": res["known_failures"], "errors": res["errors"],
        "metrics": metrics, "env": res["env"],
    }
    if args.trace:
        record["labels"] = {m["name"]: m["label"] for m in res["layers"]}
        record["spans_file"] = res["spans_file"]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  fail_frac = {record['fail_frac']:.6g} ({failed}/{attempted} operations)")
    print(f"{args.workload}  run_s samples = {len(samples)}; identical repetitions = {res['identical']}")
    for name in res["known_failures"]:
        print(f"{args.workload}  property check fails: {name} (a failure only if it passed at the reference)")
    for err in res["errors"][:5]:
        print(f"{args.workload}  error: {err}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
