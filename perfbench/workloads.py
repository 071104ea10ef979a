"""Workloads, Spark session set-up and metrics of the repository benchmark.

Each workload is a closed loop with one client: this driver process
submits one Spark job (or one store/retrieve call) at a time to a
``local[N]`` session, N being the usable core count. The program only
ever receives generated inputs; the seed decides the order in which they
are submitted. See README.md in this directory for why each workload
exists and which metric each layer should move.

:func:`pin_environment` must run before pyspark is imported.
"""
from __future__ import annotations

import os
import re
import resource
import shlex
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"  # every file a run writes lives here
CORES = len(os.sched_getaffinity(0))
MASTER = f"local[{CORES}]"
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 64  # as the test session (conftest.py) runs
SETUPS = 3  # set-ups per run; setup_s is their median
MIN_PASSES = 2
WARMUP_DATASETS = ("msg-bt", "citytemp", "tpcH-lineitem")
WARMUP_SCALE = 0.01
DBSIM_RETRIEVALS = 2  # read_decode_query calls per stored table

WORKLOAD_NAMES = ("sweep", "smallblocks")
E2E_UNITS = {"setup_s": "s", "roundtrip_mbs": "MB/s", "hmean_cr": "ratio", "driver_peak_rss_mb": "MB"}

DBSIM_METRICS = (
    "dbsim.store_ms_p50",
    "dbsim.read_ms_p50",
    "dbsim.decode_ms_p50",
    "dbsim.decode_ms_p90",
    "dbsim.query_ms_p50",
    "dbsim.read_share",
)

#: Table 10's vectorised codecs: no per-value Python loop, no LZ77.
VECTOR_METHODS = ("shf+zstd", "ndzip-C", "ndzip-G", "BUFF", "GFC", "MPC", "nv::btcomp")


def pin_environment() -> None:
    """Fix cores, driver memory, temp dirs and import paths before Spark starts.

    Spark reads ``PYSPARK_SUBMIT_ARGS`` when it launches the JVM, and
    executors import ``repro`` through ``PYTHONPATH``, so both are set
    here, and every temp dir points inside ``SCRATCH``.
    """
    tmp = SCRATCH / "tmp"
    local = SCRATCH / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    args = [
        "--master", MASTER,
        "--driver-memory", DRIVER_MEMORY,
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", f"spark.local.dir={local}",
        "--conf", f"spark.sql.warehouse.dir={SCRATCH / 'warehouse'}",
        "--conf", f"spark.driver.extraJavaOptions={java_opts}",
        "pyspark-shell",
    ]
    path = os.environ.get("PYTHONPATH")
    os.environ.update(
        PYSPARK_SUBMIT_ARGS=shlex.join(args),
        PYSPARK_PYTHON=sys.executable,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        SPARK_LOCAL_DIRS=str(local),
        TMPDIR=str(tmp),
    )
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR
    sys.path.insert(0, str(SRC))


def unit(metric: str) -> str:
    """The unit of a metric, from its name."""
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if "_ms_" in metric:
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mbs"):
        return "MB/s"
    if metric.endswith((".tasks", ".cells")):
        return "count"
    if metric.endswith(".bytes_in"):
        return "bytes"
    return "ratio"


def metric_name(method: str) -> str:
    """Method name as a metric-name component (``nv::btcomp`` -> ``nv_btcomp``)."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", method).strip("_")


def metric_names(methods) -> dict[str, str]:
    """Map every method to its metric name; raise if two collide."""
    out = {m: metric_name(m) for m in methods}
    if len(set(out.values())) != len(out):
        raise ValueError(f"method names collide as metric names: {out}")
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]
    scale: float
    block_bytes: int | None  # None: one whole-dataset block per cell
    datasets: tuple[str, ...]  # submission order before the seed permutes it
    dbsim_probe: bool  # traced run also times the Table 11 store/retrieve path


def workloads() -> dict[str, Workload]:
    from repro.codecs.base import TABLE4_METHODS
    from repro.data.corpus import corpus

    names = tuple(s.name for s in corpus())
    # 3-D fields keep a fixed first extent at small scales, so they would
    # dominate the 4 KiB block count; 1-D and 2-D datasets shrink with scale
    flat = tuple(s.name for s in corpus() if len(s.extent) <= 2)
    return {
        "sweep": Workload("sweep", tuple(TABLE4_METHODS), 0.1, None, names, True),
        "smallblocks": Workload("smallblocks", VECTOR_METHODS, 0.02, 4096, flat, False),
    }


def _rng(seed: int):
    """A generator for any integer seed (NumPy rejects negative ones)."""
    import numpy as np

    return np.random.default_rng(seed % 2**64)


def submission_orders(wl: Workload, seed: int) -> Iterator[list[str]]:
    """Dataset submission orders, one per pass, drawn from ``seed``.

    Each pass gets its own order, so one run samples several task
    placements instead of resting on one.
    """
    rng = _rng(seed)
    while True:
        yield [wl.datasets[i] for i in rng.permutation(len(wl.datasets))]


# --- Spark session -----------------------------------------------------------

def start_session():
    """A fresh SparkSession, stopping the active one (the JVM is kept)."""
    from pyspark.sql import SparkSession

    active = SparkSession.getActiveSession()
    if active is not None:
        active.stop()
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(p))
    out, stack = [], [pid]
    while stack:
        for c in children.get(stack.pop(), []):
            out.append(c)
            stack.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def shutdown() -> None:
    """Stop Spark and the JVM, and wait until the JVM and its workers have ended."""
    import signal
    import subprocess

    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    active = SparkSession.getActiveSession()
    if active is not None:
        active.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = gw.proc
    kids = _descendants(proc.pid)
    gw.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 30
    for pid in kids:
        while _alive(pid):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                deadline = time.monotonic() + 5
            time.sleep(0.05)


def environment(wl: Workload, seed: int) -> dict:
    """The pinned settings and versions recorded with every result."""
    import platform

    import numpy
    import pyspark

    return {
        "nproc": CORES,
        "master": MASTER,
        "driver_memory": DRIVER_MEMORY,
        "progress_bar": False,
        "workload": wl.name,
        "scale": wl.scale,
        "block_bytes": wl.block_bytes,
        "seed": seed,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
    }


def _git_sha() -> str:
    import subprocess

    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return "unknown"  # a plain source checkout
    out = subprocess.run(
        ["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return out.stdout.strip() or "unknown"


# --- one Spark pass ----------------------------------------------------------

@dataclass
class Pass:
    wall_s: float
    plan_s: float
    exec_s: float
    aggregate_s: float
    cells: int
    failed: int
    input_bytes: int  # sum of orig_bytes over cells
    busy_s: float  # sum of executor comp_ns + decomp_ns
    sizes: dict  # (dataset, method, block) -> comp_bytes
    metrics: object  # per-(dataset, method) pandas frame
    problems: list[str]


def _aggregate(wl: Workload, m) -> None:
    """Turn per-dataset metrics into the workload's paper tables."""
    import pandas as pd

    from repro.core import tables

    if wl.block_bytes is None:  # Tables 4, 5, 6 and Fig. 7b
        tables.table4(m)
        tables.table5(m)
        tables.table6(m)
        tables.ranking_summary(m)
    else:  # one block-size row group of Table 10
        by = m.groupby("method")
        pd.DataFrame(
            {
                "avg-CR": by.cr.apply(tables.stats_hmean),
                "avg-CT (GB/s)": by.ct_gbs.mean(),
                "avg-DT (GB/s)": by.dt_gbs.mean(),
            }
        ).T


def run_pass(spark, wl: Workload, order: list[str], tag: str, *, oracle: bool = False) -> Pass:
    """run_benchmark -> collect -> per_dataset_metrics -> tables, timed by phase."""
    from repro.core.harness import run_benchmark
    from repro.core.tables import metrics_pdf

    sc = spark.sparkContext
    t0 = time.perf_counter()
    res = run_benchmark(
        spark, wl.methods, scale=wl.scale, datasets=order, block_bytes=wl.block_bytes
    ).cache()
    t1 = time.perf_counter()
    sc.setJobGroup(f"exec-{tag}", "harness action")
    rows = res.collect()
    t2 = time.perf_counter()
    sc.setJobGroup(f"aggregate-{tag}", "tables")
    m = metrics_pdf(res)
    _aggregate(wl, m)
    t3 = time.perf_counter()
    problems = [
        f"{r.dataset}/{r.method}/{r.block_id}: executor roundtrip mismatch"
        for r in rows
        if r.error == "roundtrip mismatch"
    ]
    if oracle:
        problems += _oracle_check(res)
    res.unpersist()
    ok = [r for r in rows if r.ok]
    return Pass(
        wall_s=t3 - t0,
        plan_s=t1 - t0,
        exec_s=t2 - t1,
        aggregate_s=t3 - t2,
        cells=len(rows),
        failed=len(rows) - len(ok),
        input_bytes=sum(r.orig_bytes for r in rows),
        busy_s=sum(r.comp_ns + r.decomp_ns for r in ok) / 1e9,
        sizes={(r.dataset, r.method, r.block_id): r.comp_bytes for r in rows},
        metrics=m,
        problems=problems,
    )


_ORACLE_SQL = """
SELECT method, COUNT(*) / SUM(1.0 / cr) AS hmean_cr
FROM (
  SELECT dataset, domain, method, SUM(orig_bytes) * 1.0 / SUM(comp_bytes) AS cr
  FROM results WHERE ok GROUP BY dataset, domain, method
) GROUP BY method
"""


def _oracle_check(res) -> list[str]:
    """Spark SQL harmonic-mean CR per method against DuckDB."""
    from repro.core.harness import harmonic_mean_cr, per_dataset_metrics
    from repro.oracle import assert_equivalent

    try:
        assert_equivalent(
            harmonic_mean_cr(per_dataset_metrics(res), ["method"]), _ORACLE_SQL, results=res
        )
    except AssertionError as e:
        return [f"Spark SQL hmean_cr differs from DuckDB: {e}"]
    return []


def _codec_tasks(sc, group: str) -> int:
    """Tasks of the widest stage in one job group: the codec stage.

    A collect over a cached result runs the codec stage once and then a
    second stage of the same width that reads the cached partitions, so
    summing stages would count the codec tasks twice.
    """
    st = sc.statusTracker()
    widths = [0]
    for job in st.getJobIdsForGroup(group):
        info = st.getJobInfo(job)
        for sid in info.stageIds if info is not None else ():
            stage = st.getStageInfo(sid)
            if stage is not None:
                widths.append(stage.numCompletedTasks)
    return max(widths)


# --- in-process codec passes (no Spark) --------------------------------------

def _blocks(arr, block_bytes):
    """The harness's cells for one dataset: (flat values, dims) per block."""
    flat = arr.reshape(-1)
    if block_bytes is None:
        return [(flat, arr.shape if arr.ndim > 1 else None)]
    step = max(block_bytes // arr.itemsize, 1)
    return [(flat[o : o + step], None) for o in range(0, flat.size, step)] or [(flat, None)]


def codec_pass(wl: Workload, order, arrays, tracer=None):
    """Compress, decompress and verify every cell in this process.

    Returns (wall seconds, per-(dataset, method) compressed bytes, cells,
    failed cells, problems). With a tracer, each codec call is a span
    named ``codecs.<method>``.
    """
    import numpy as np

    from repro.codecs.base import CodecFailure, load_codec

    names = metric_names(wl.methods)
    codecs = {m: load_codec(m) for m in wl.methods}
    sizes: dict[tuple[str, str], int] = {}
    cells = failed = 0
    problems = []
    t0 = time.perf_counter()
    for ds in order:
        for vals, dims in _blocks(arrays[ds], wl.block_bytes):
            for m in wl.methods:
                cells += 1
                span = tracer.span(f"codecs.{names[m]}") if tracer else nullcontext()
                try:
                    with span:
                        blob = codecs[m].compress(vals, dims=dims)
                        out = codecs[m].decompress(blob)
                except CodecFailure:
                    failed += 1
                    continue
                if not np.array_equal(out.view(np.uint8), vals.view(np.uint8)):
                    problems.append(f"{ds}/{m}: in-process roundtrip mismatch")
                sizes[(ds, m)] = sizes.get((ds, m), 0) + len(blob)
    return time.perf_counter() - t0, sizes, cells, failed, problems


def substrate_targets():
    """The substrate functions the traced pass wraps, with their span names."""
    from repro.codecs import huffman, lz77
    from repro.core import bitio
    from spans import Target

    return [
        Target(lz77, "lz_compress", "lz77.compress", nbytes="lz77.bytes_in"),
        Target(lz77, "lz_decompress", "lz77.decompress"),
        Target(huffman.Huffman, "encode", "huffman.encode"),
        Target(huffman.Huffman, "decode", "huffman.decode"),
        Target(bitio, "pack_bits", "bitio.pack_bits"),
        Target(bitio, "unpack_bits", "bitio.unpack_bits"),
        Target(bitio, "bitshuffle_bits", "bitio.bitshuffle"),
        Target(bitio, "bitunshuffle_bits", "bitio.bitunshuffle"),
    ]


# --- dbsim: the Table 11 write and read paths ------------------------------

def dbsim_probe(spark, wl: Workload, order, arrays, seed: int) -> tuple[dict, int, list[str]]:
    """Store every (DB dataset, Table 11 method) table, then retrieve it.

    Returns (per-layer metrics, retrievals made, problems).
    """
    import numpy as np

    from repro.core.tables import TABLE11_METHODS
    from repro.data.corpus import get_spec
    from repro.dbsim.store import read_decode_query, store_compressed

    db = [d for d in order if get_spec(d).domain == "DB"]
    cells = [(d, m) for d in db for m in TABLE11_METHODS]
    cells = [cells[i] for i in _rng(seed).permutation(len(cells))]
    workdir = SCRATCH / "dbsim"

    def path(d, m):
        return str(workdir / f"{d}__{metric_name(m)}")

    # the first Parquet write and read of a session pay one-off reader init
    d0, m0 = cells[0]
    store_compressed(spark, path(d0, m0), d0, m0, scale=wl.scale)
    read_decode_query(spark, path(d0, m0), d0, m0)

    store_ms, read_ms, decode_ms, query_ms, retrieval_ms = [], [], [], [], []
    problems = []
    for d, m in cells:
        t0 = time.perf_counter()
        store_compressed(spark, path(d, m), d, m, scale=wl.scale)
        store_ms.append((time.perf_counter() - t0) * 1e3)
        for _ in range(DBSIM_RETRIEVALS):
            t0 = time.perf_counter()
            q = read_decode_query(spark, path(d, m), d, m)
            retrieval_ms.append((time.perf_counter() - t0) * 1e3)
            read_ms.append(q.read_ms)
            decode_ms.append(q.decode_ms)
            query_ms.append(q.query_ms)
            if q.n_rows != arrays[d].shape[0]:
                problems.append(f"dbsim {d}/{m}: {q.n_rows} rows, expected {arrays[d].shape[0]}")
    metrics = {
        "dbsim.store_ms_p50": statistics.median(store_ms),
        "dbsim.read_ms_p50": statistics.median(read_ms),
        "dbsim.decode_ms_p50": statistics.median(decode_ms),
        "dbsim.decode_ms_p90": float(np.percentile(decode_ms, 90)),
        "dbsim.query_ms_p50": statistics.median(query_ms),
        "dbsim.read_share": sum(read_ms) / sum(retrieval_ms),
    }
    return metrics, len(retrieval_ms), problems


# --- a whole run -------------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    env: dict
    problems: list[str] = field(default_factory=list)
    tracer: object = None  # the traced pass's spans.Tracer
    patched_sites: list = field(default_factory=list)


def set_up(wl: Workload, order, started: float):
    """Start a session, generate the inputs and run a warm-up pass.

    Returns (spark, arrays, set-up seconds since ``started``, generate
    seconds, problems seen by the warm-up pass).
    """
    import dataclasses

    from repro.data.corpus import generate, get_spec

    spark = start_session()
    t0 = time.perf_counter()
    arrays = {d: generate(get_spec(d), wl.scale) for d in order}
    gen_s = time.perf_counter() - t0
    # the whole pass path on a tiny corpus: loads every codec into the
    # fresh Python workers and compiles the aggregation queries; the same
    # for every seed, so set-up cost does not depend on the seed
    tiny = dataclasses.replace(wl, scale=WARMUP_SCALE, datasets=WARMUP_DATASETS)
    warm = run_pass(spark, tiny, list(WARMUP_DATASETS), "warmup")
    return spark, arrays, time.perf_counter() - started, gen_s, warm.problems


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, started: float) -> Result:
    """Set up ``SETUPS`` times, then measure (untraced) or trace one pass of each layer.

    ``started`` is the process start on the ``perf_counter`` clock; the
    first set-up is timed from it, so it includes the JVM launch.
    """
    from repro.core.tables import stats_hmean

    orders = submission_orders(wl, seed)
    order = next(orders)
    setup_s, gen_s, problems = [], [], []
    for i in range(SETUPS):
        spark, arrays, s, g, pr = set_up(wl, order, started if i == 0 else time.perf_counter())
        setup_s.append(s)
        gen_s.append(g)
        problems += pr
    env = environment(wl, seed)
    env["setup_s_each"] = setup_s
    if trace:
        return _traced_run(
            spark, wl, order, arrays, seed, env, statistics.median(gen_s), problems
        )

    passes = [run_pass(spark, wl, order, "0")]
    n = max(MIN_PASSES, round(seconds / passes[0].wall_s))
    passes += [run_pass(spark, wl, next(orders), str(i), oracle=i == n - 1) for i in range(1, n)]
    problems += [p for ps in passes for p in ps.problems]
    if any(ps.sizes != passes[0].sizes for ps in passes):
        problems.append("compressed sizes differ between passes")
    env["pass_s"] = [[ps.plan_s, ps.exec_s, ps.aggregate_s] for ps in passes]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "roundtrip_mbs": statistics.median(ps.input_bytes / 1e6 / ps.wall_s for ps in passes),
        "hmean_cr": stats_hmean(passes[0].metrics.cr),
        "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return Result(
        correct=not problems,
        attempted=sum(ps.cells for ps in passes),
        failed=sum(ps.failed for ps in passes),
        metrics=metrics,
        env=env,
        problems=problems,
    )


def _traced_run(spark, wl, order, arrays, seed, env, generate_s, problems) -> Result:
    from repro.codecs.base import TABLE4_METHODS
    from repro.core.tables import stats_hmean
    from spans import Tracer, patched

    sc = spark.sparkContext
    p = run_pass(spark, wl, order, "traced", oracle=True)
    tasks = _codec_tasks(sc, "exec-traced")
    unique = sum(arrays[d].nbytes for d in order)
    metrics = {
        "harness.plan_s": p.plan_s,
        "harness.exec_s": p.exec_s,
        "harness.tasks": tasks,
        "harness.cells": p.cells,
        "harness.copy_amp": p.input_bytes / unique,
        "harness.codec_busy_s": p.busy_s,
        "harness.core_util": p.busy_s / (p.exec_s * CORES),
        "harness.overhead_s": p.exec_s - p.busy_s / CORES,
        "tables.aggregate_s": p.aggregate_s,
        "corpus.generate_s": generate_s,
    }

    # in-process passes: untraced, then traced with substrate wrappers
    plain_s, plain_sizes, cells, failed, pr1 = codec_pass(wl, order, arrays)
    tracer = Tracer()
    with patched(tracer, substrate_targets()) as sites:
        traced_s, traced_sizes, c2, f2, pr2 = codec_pass(wl, order, arrays, tracer)
    cells, failed = cells + c2, failed + f2
    problems = problems + p.problems + pr1 + pr2
    try:
        tracer.check_nesting()
    except AssertionError as e:
        problems.append(str(e))
    spark_sizes: dict[tuple[str, str], int] = {}
    for (d, m, _), n in p.sizes.items():
        if n is not None:
            spark_sizes[(d, m)] = spark_sizes.get((d, m), 0) + n
    if traced_sizes != spark_sizes or plain_sizes != spark_sizes:
        problems.append("in-process compressed sizes differ from the Spark pass")

    self_s = tracer.self_s()
    by_method = p.metrics.groupby("method")
    ct, dt = by_method.ct_gbs.mean() * 1e3, by_method.dt_gbs.mean() * 1e3
    cr = by_method.cr.apply(stats_hmean)
    for m, name in metric_names(TABLE4_METHODS).items():
        metrics[f"codecs.{name}.ct_mbs"] = ct.get(m, 0.0)
        metrics[f"codecs.{name}.dt_mbs"] = dt.get(m, 0.0)
        metrics[f"codecs.{name}.cr"] = cr.get(m, 0.0)
        metrics[f"codecs.{name}.self_s"] = self_s.get(f"codecs.{name}", 0.0)
    for t in substrate_targets():
        metrics[f"{t.span}_s"] = self_s.get(t.span, 0.0)
    metrics["lz77.bytes_in"] = tracer.counts.get("lz77.bytes_in", 0)
    metrics["trace.overhead"] = traced_s / plain_s

    attempted = p.cells + cells
    failed += p.failed
    db = dict.fromkeys(DBSIM_METRICS, 0.0)
    if wl.dbsim_probe:
        db, n, pr = dbsim_probe(spark, wl, order, arrays, seed)
        attempted, problems = attempted + n, problems + pr
    metrics.update(db)
    return Result(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        env=env,
        problems=problems,
        tracer=tracer,
        patched_sites=sites,
    )

