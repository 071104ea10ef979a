"""Self-test of the benchmark at a tiny scale.

    python3 perfbench/selftest.py

Runs every workload, untraced and traced, on three small datasets and
checks that each emits exactly the metrics BENCHMARK.json names, with
their units; that the traced pass's spans nest; and that the substrate
wrappers were installed in every importing module and removed again.
Exits non-zero on the first failed check.
"""
import dataclasses
import json
import math
import shutil
import sys
import time

import workloads as W

TINY_DATASETS = ("msg-bt", "rsim", "tpcH-lineitem")  # 1-D, 2-D, and a DB table


def declared() -> tuple[dict, dict]:
    spec = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOAD_NAMES), (
        "BENCHMARK.json workloads differ from the benchmark's"
    )
    return e2e, layer


def check_names() -> None:
    from repro.codecs.base import TABLE4_METHODS

    names = W.metric_names(TABLE4_METHODS)
    assert names["shf+zstd"] == "shf_zstd" and names["nv::btcomp"] == "nv_btcomp", names
    for n in names.values():
        assert n and n[0].isalnum() and all(c.isalnum() or c in "_.-" for c in n), n
    try:
        W.metric_names(["a+b", "a::b"])
    except ValueError:
        pass
    else:
        raise AssertionError("colliding method names were accepted")


def check_orders() -> None:
    wl = W.workloads()["sweep"]
    a, b, c = W.submission_orders(wl, 7), W.submission_orders(wl, 7), W.submission_orders(wl, 8)
    first = [next(a) for _ in range(3)]
    assert first == [next(b) for _ in range(3)], "same seed, different orders"
    assert first[0] != next(c), "different seeds, same order"
    assert all(sorted(o) == sorted(wl.datasets) for o in first)


def check_nesting_detects_escape() -> None:
    from spans import Span, Tracer

    t = Tracer(spans=[Span("parent", 10, 20), Span("child", 15, 25, parent=0)])
    try:
        t.check_nesting()
    except AssertionError:
        return
    raise AssertionError("a child span ending after its parent was accepted")


def check_compare_refuses_core_mismatch() -> None:
    from compare import check_comparable

    env = {"nproc": 4, "master": "local[4]", "workload": "sweep"}
    check_comparable([env, dict(env)])
    try:
        check_comparable([env, dict(env, nproc=16, master="local[16]")])
    except ValueError:
        return
    raise AssertionError("results from different core counts were compared")


def check_run(wl, trace: bool, expected: dict) -> None:
    res = W.run_workload(wl, seed=1, seconds=0, trace=trace, started=time.perf_counter())
    assert res.correct, f"{wl.name} trace={trace}: {res.problems}"
    assert res.attempted >= 1 and res.failed == 0, (res.attempted, res.failed)
    assert set(res.metrics) == set(expected), (
        f"{wl.name} trace={trace}: missing {set(expected) - set(res.metrics)}, "
        f"undeclared {set(res.metrics) - set(expected)}"
    )
    for name, v in res.metrics.items():
        assert W.unit(name) == expected[name], (name, W.unit(name), expected[name])
        assert isinstance(v, (int, float)) and math.isfinite(v), (name, v)
    if not trace:
        return
    res.tracer.check_nesting()
    assert res.tracer.spans, "the traced pass recorded no spans"
    by_module = {}
    for owner, attr in res.patched_sites:
        by_module.setdefault(attr, set()).add(getattr(owner, "__name__", ""))
    for name, mod in list(sys.modules.items()):
        if name.startswith("repro.") and mod is not None:
            for owner in [mod, *(v for v in vars(mod).values() if isinstance(v, type))]:
                for attr, val in vars(owner).items():
                    qual = getattr(val, "__qualname__", "")
                    assert qual != "_wrap.<locals>.wrapper", f"{name}.{attr} still wrapped"
    assert {"repro.codecs.spdp", "repro.codecs.bitshuffle", "repro.codecs.nvcomp_like"} <= (
        by_module["lz_compress"]
    ), by_module["lz_compress"]
    assert "repro.codecs.gorilla" in by_module["pack_bits"], by_module["pack_bits"]
    if "fpzip" in wl.methods:  # Huffman.encode calls pack_bits: a nested span
        assert any(
            s.name == "bitio.pack_bits" and s.parent is not None
            and res.tracer.spans[s.parent].name == "huffman.encode"
            for s in res.tracer.spans
        ), "no bitio.pack_bits span nested under huffman.encode"


def main() -> int:
    e2e, layer = declared()
    W.pin_environment()
    check_names()
    check_orders()
    check_nesting_detects_escape()
    check_compare_refuses_core_mismatch()
    W.SETUPS = 1
    try:
        for wl in W.workloads().values():
            tiny = dataclasses.replace(
                wl, scale=0.01, datasets=tuple(d for d in TINY_DATASETS if d in wl.datasets)
            )
            for trace in (False, True):
                check_run(tiny, trace, layer if trace else e2e)
                print(f"selftest: {wl.name} trace={int(trace)} ok", flush=True)
    finally:
        W.shutdown()
        shutil.rmtree(W.SCRATCH, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
