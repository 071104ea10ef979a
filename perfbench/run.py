"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Prints the pinned environment as one JSON line, then one ``name value
unit`` line per metric, and last one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
separate traced run. Exits 1 when a correctness check fails and 2 when
the program's sources are missing.
"""
import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import workloads as W  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (W.SRC / "repro").is_dir():
        print(f"perfbench: program sources not found under {W.SRC}", file=sys.stderr)
        return 2

    W.pin_environment()
    try:
        wl = W.workloads()[args.workload]
        res = W.run_workload(wl, args.seed, args.seconds, bool(args.trace), STARTED)
    finally:
        W.shutdown()
        shutil.rmtree(W.SCRATCH, ignore_errors=True)

    for p in res.problems:
        print(f"perfbench: FAIL {p}", file=sys.stderr)
    print(json.dumps({"env": res.env}))
    for name, v in res.metrics.items():
        print(f"{name} {v:.6g} {W.unit(name)}")
    print(f"fail_frac {res.failed / res.attempted:.6g} ratio")
    print(
        json.dumps(
            {
                "correct": res.correct,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {
                    n: {"value": v, "unit": W.unit(n)} for n, v in res.metrics.items()
                },
            }
        )
    )
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
