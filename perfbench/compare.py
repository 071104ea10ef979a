"""Compare saved benchmark outputs of two commits.

    python3 perfbench/compare.py --base base_*.txt --new new_*.txt

Each file is the standard output of one ``run.py`` call. Prints, per
metric, the median of each side and new/base. Refuses (exit 2) to
compare runs whose core count, Spark master or workload settings differ,
because timings from different core counts are not comparable.
"""
import argparse
import json
import statistics
import sys

#: Settings that must match for two results to be comparable.
PINNED = ("nproc", "master", "driver_memory", "workload", "scale", "block_bytes")


def load(path: str) -> tuple[dict, dict]:
    """The (env, result) pair of one saved run output."""
    env = result = None
    with open(path) as f:
        for line in f:
            if line.startswith("{"):
                obj = json.loads(line)
                if "env" in obj:
                    env = obj["env"]
                else:
                    result = obj
    if env is None or result is None:
        raise ValueError(f"{path}: no env line or no result line")
    return env, result


def check_comparable(envs: list[dict]) -> None:
    """Raise ValueError unless every env agrees on the pinned settings."""
    for key in PINNED:
        seen = {json.dumps(e.get(key)) for e in envs}
        if len(seen) > 1:
            raise ValueError(f"runs differ in {key}: {sorted(seen)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base = [load(p) for p in args.base]
    new = [load(p) for p in args.new]
    try:
        check_comparable([e for e, _ in base + new])
    except ValueError as e:
        print(f"compare: refusing: {e}", file=sys.stderr)
        return 2
    for name, m in base[0][1]["metrics"].items():
        b = statistics.median(r["metrics"][name]["value"] for _, r in base)
        n = statistics.median(r["metrics"][name]["value"] for _, r in new)
        ratio = n / b if b else float("nan")
        print(f"{name:32s} {b:12.6g} {n:12.6g} {ratio:8.4f} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
