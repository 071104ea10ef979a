"""Spark benchmark harness: codecs as per-partition UDFs (§5.1.1).

The driver splits every dataset into its (dataset, block) payloads once
and places them in one bin per core, longest first by payload bytes.
Each bin is one Spark task: ``mapInPandas`` runs every method on every
block of its bin inside the executor (compress, decompress, verify
bit-exact roundtrip, time both) and emits one result row per
(dataset, block, method). Every metric table (4, 5, 6, 7, 8, 9, 10) is a
Spark SQL aggregation over the result DataFrame — Catalyst does the
grouping/harmonic means, and tests cross-check those aggregations against
the DuckDB oracle.
"""
from __future__ import annotations

import heapq
import time
import zipimport
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    BooleanType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.codecs.base import GPU_METHODS, TABLE4_METHODS
from repro.data.corpus import corpus, generate, get_spec

RESULT_SCHEMA = StructType(
    [
        StructField("dataset", StringType()),
        StructField("domain", StringType()),
        StructField("method", StringType()),
        StructField("block_id", LongType()),
        StructField("orig_bytes", LongType()),
        StructField("comp_bytes", LongType()),
        StructField("comp_ns", LongType()),
        StructField("decomp_ns", LongType()),
        StructField("ok", BooleanType()),
        StructField("error", StringType()),
    ]
)


class Block(NamedTuple):
    """One (dataset, block) payload; every method runs on it."""

    dataset: str
    domain: str
    block_id: int
    dtype: str
    dims: tuple[int, ...] | None
    payload: bytes


def _split_payloads(arr: np.ndarray, block_bytes: int | None) -> list[bytes]:
    raw = np.ascontiguousarray(arr).tobytes()
    if block_bytes is None:
        return [raw]
    step = max(block_bytes, arr.dtype.itemsize)
    step -= step % arr.dtype.itemsize  # whole elements per block
    return [raw[o : o + step] for o in range(0, len(raw), step)] or [b""]


def plan_bins(
    cores: int,
    *,
    scale: float = 1.0,
    datasets: Sequence[str] | None = None,
    block_bytes: int | None = None,
    use_dims: bool = True,
) -> list[list[Block]]:
    """Split every dataset into blocks once and pack them into one bin per core.

    ``min(#blocks, cores)`` bins, filled longest first by payload bytes
    (LPT): every block runs the same methods, so bytes is the cost proxy.
    Ties break on (dataset, block_id), so the plan depends only on the
    inputs, not on the order of ``datasets``. ``datasets=None`` means the
    whole corpus; an empty selection is an error.
    """
    if datasets is not None and not datasets:
        raise ValueError("datasets is empty; pass None for the whole corpus")
    specs = corpus() if datasets is None else [get_spec(n) for n in datasets]
    blocks = []
    for spec in specs:
        arr = generate(spec, scale)
        # dims metadata only applies when compressing the whole dataset —
        # a byte-range block no longer matches the logical grid extent
        whole = block_bytes is None
        dims = tuple(arr.shape) if (whole and use_dims and arr.ndim > 1) else None
        for block_id, payload in enumerate(_split_payloads(arr, block_bytes)):
            blocks.append(
                Block(spec.name, spec.domain, block_id, str(arr.dtype), dims, payload)
            )
    bins: list[list[Block]] = [[] for _ in range(min(len(blocks), cores))]
    loads = [(0, i) for i in range(len(bins))]  # (bytes, bin) min-heap
    for b in sorted(blocks, key=lambda b: (-len(b.payload), b.dataset, b.block_id)):
        load, i = heapq.heappop(loads)
        bins[i].append(b)
        heapq.heappush(loads, (load + len(b.payload), i))
    return bins


def _keep_zip_directory(self) -> None:
    """``zipimporter.invalidate_caches`` that keeps the directory it read."""


def _executor_setup() -> None:
    """Stop this Python worker re-reading its zip archives on every task.

    PySpark's worker calls ``importlib.invalidate_caches()`` before every
    task (``worker_util.setup_spark_files``). On CPython 3.11 and 3.12
    that makes each cached ``zipimporter`` re-read its archive's whole
    central directory, and a worker caches 16 of them: 12 over
    ``pyspark.zip``, 2 over the spark-core jar and 2 over py4j. Timed
    inside warm workers on a 4-core container, one call took 151-239 ms,
    about half of a no-op 4-task ``mapInPandas`` job. From here on, for
    the life of this worker, the call leaves zip archives alone;
    ``FileFinder`` directories are still invalidated as before.

    This is safe because the archives already on the worker's path are
    Spark's install files, which nothing rewrites while it runs. A zip
    shipped later (``addPyFile``) is a new path, so it gets a new importer
    that reads its directory when it is built. Only an archive
    overwritten in place at an existing path would be missed.

    Workers are reused across tasks, so each executor entry point calls
    this first: every later task in that worker skips the re-read. It is
    idempotent. Only executor entry points call it, never the driver.
    """
    zipimport.zipimporter.invalidate_caches = _keep_zip_directory


def _run_block(block: Block, method: str, repeats: int) -> tuple:
    """Compress, decompress, verify and time one cell; a RESULT_SCHEMA row."""
    from repro.codecs.base import CodecFailure, load_codec  # executor import

    arr = np.frombuffer(block.payload, dtype=np.dtype(block.dtype))
    measured = (None, None, None)  # comp_bytes, comp_ns, decomp_ns
    ok, error = False, None
    try:
        codec = load_codec(method)
        reps = max(repeats, 1)
        comp_ns = decomp_ns = 2**63 - 1
        blob = b""
        for _ in range(reps):  # paper: repeated runs, best-of kept stable
            t0 = time.perf_counter_ns()
            blob = codec.compress(arr, dims=block.dims)
            comp_ns = min(comp_ns, time.perf_counter_ns() - t0)
        out_arr = np.zeros(0)
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            out_arr = codec.decompress(blob)
            decomp_ns = min(decomp_ns, time.perf_counter_ns() - t0)
        ok = bool(np.array_equal(out_arr.view(np.uint8), arr.view(np.uint8)))
        measured = (len(blob), int(comp_ns), int(decomp_ns))
        error = None if ok else "roundtrip mismatch"
    except CodecFailure as e:
        error = f"-: {e}"
    except Exception as e:  # runtime errors: the paper's killed runs
        error = f"{type(e).__name__}: {e}"
    row = (block.dataset, block.domain, method, block.block_id, int(arr.nbytes))
    return (*row, *measured, ok, error)


def run_bins(
    spark: SparkSession,
    bins: Sequence[Sequence[Block]],
    methods: Sequence[str],
    repeats: int = 1,
) -> DataFrame:
    """One Spark task per bin, running every method on every block in it.

    The bins travel in the pickled closure, so each payload is shipped
    once, not once per method; the range id selects the task's bin.
    """
    methods, n = list(methods), len(bins)

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        _executor_setup()
        for pdf in batches:
            for i in pdf["id"]:
                recs = [_run_block(b, m, repeats) for b in bins[i] for m in methods]
                yield pd.DataFrame(recs, columns=RESULT_SCHEMA.fieldNames())

    return spark.range(0, n, 1, n).mapInPandas(kernel, schema=RESULT_SCHEMA)


def run_benchmark(
    spark: SparkSession,
    methods: Sequence[str] = tuple(TABLE4_METHODS),
    **kwargs,
) -> DataFrame:
    """Run the codec sweep; returns the per-(dataset, block, method) results.

    ``repeats`` is the timed runs per cell (best kept); the other keywords
    go to :func:`plan_bins`, with one bin per core of the session.
    """
    repeats = kwargs.pop("repeats", 1)
    bins = plan_bins(spark.sparkContext.defaultParallelism, **kwargs)
    return run_bins(spark, bins, methods, repeats)


#: Modeled host<->device rate for the GPU-class codecs (§6.1.4). There is
#: no GPU (DESIGN.md substitution #3): their kernels run as vectorized
#: NumPy, and their end-to-end wall time adds this transfer, the overhead
#: Observation 5 names as why ndzip-CPU beats ndzip-GPU end to end. 12 GB/s
#: is a typical effective PCIe 3.0 x16 rate, the bus of the paper's Quadro
#: RTX 6000 platform.
PCIE_BYTES_PER_SEC = 12e9


def per_dataset_metrics(results: DataFrame) -> DataFrame:
    """CR/CT/DT per (dataset, method) — Spark SQL over the raw results.

    CT/DT are computed from the sums (§5.2: original size over time), and
    GPU-class methods' end-to-end times add the modeled PCIe transfers.
    A cell with any failed block is the paper's "-": it has no row here,
    and :func:`failures` lists it.

    There is one row per cell, few enough for one partition: grouping
    them there is one single-partition shuffle instead of one over
    ``spark.sql.shuffle.partitions``. The expressions are SQL strings, so
    the driver builds the plan in a handful of calls to the JVM.
    """
    sums = ("orig_bytes", "comp_bytes", "comp_ns", "decomp_ns")
    gpu = ", ".join(f"'{m}'" for m in sorted(GPU_METHODS))
    # compress and decompress each move the original and the compressed
    # bytes across PCIe once, in opposite directions
    xfer = f"(orig_bytes + comp_bytes) / {PCIE_BYTES_PER_SEC!r}D"

    def wall_ms(ns: str) -> str:
        s = f"({ns} / 1e9)"
        return f"CASE WHEN method IN ({gpu}) THEN ({s} + {xfer}) * 1e3 ELSE {s} * 1e3 END"

    return (
        results.repartition(1)
        .groupBy("dataset", "domain", "method")
        .agg(*(F.expr(f"sum({c}) AS {c}") for c in sums), F.expr("bool_and(ok) AS ok"))
        .where("ok")
        .selectExpr(
            "dataset",
            "domain",
            "method",
            "orig_bytes",
            "comp_bytes",
            "orig_bytes / comp_bytes AS cr",
            "orig_bytes / (comp_ns / 1e9) / 1e9 AS ct_gbs",
            "orig_bytes / (decomp_ns / 1e9) / 1e9 AS dt_gbs",
            f"{wall_ms('comp_ns')} AS comp_wall_ms",
            f"{wall_ms('decomp_ns')} AS decomp_wall_ms",
        )
    )


def harmonic_mean_cr(metrics: DataFrame, by: Sequence[str]) -> DataFrame:
    """Harmonic-mean CR grouped by ``by`` (the paper's CR aggregate)."""
    return metrics.groupBy(*by).agg(
        (F.count("cr") / F.sum(1.0 / F.col("cr"))).alias("hmean_cr")
    )


def failures(results: DataFrame) -> DataFrame:
    """The "-" cells: per (dataset, method) rows that did not succeed."""
    return results.where(~F.col("ok")).select("dataset", "method", "error").distinct()


# --- Tables 7/8: parallel scaling -------------------------------------------

#: One row per fixed-size chunk of the scaling dataset.
_CHUNK_SCHEMA = "method string, dtype string, payload binary"


def _compress_only(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    _executor_setup()
    from repro.codecs.base import load_codec

    for pdf in batches:
        sizes = []
        for row in pdf.itertuples(index=False):
            arr = np.frombuffer(bytes(row.payload), dtype=np.dtype(row.dtype))
            codec = load_codec(row.method)
            sizes.append(len(codec.compress(arr)))
        yield pd.DataFrame({"comp_bytes": sizes})


def _decompress_only(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    _executor_setup()
    from repro.codecs.base import load_codec

    for pdf in batches:
        sizes = []
        for row in pdf.itertuples(index=False):
            codec = load_codec(row.method)
            sizes.append(int(codec.decompress(bytes(row.payload)).nbytes))
        yield pd.DataFrame({"orig_bytes": sizes})


def scaling_benchmark(
    spark: SparkSession,
    method: str,
    partition_counts: Iterable[int] = (1, 2, 4, 8, 16, 24, 32, 48),
    *,
    scale: float = 1.0,
    chunk_bytes: int = 1 << 18,
    dataset: str = "msg-bt",
) -> pd.DataFrame:
    """Measured throughput vs Spark-partition count (threads → partitions,
    DESIGN.md substitution #9; Tables 7 and 8).

    The dataset is split into fixed chunks; for each partition count a
    compress-only job and a decompress-only job are run and their
    *wall-clock* times taken — the speedup therefore includes scheduler
    overhead and core saturation exactly as the paper's thread sweeps
    include pthread overhead (efficiency declines past the core count).
    """
    arr = generate(get_spec(dataset), scale)
    raw = arr.tobytes()
    chunks = [raw[o : o + chunk_bytes] for o in range(0, len(raw), chunk_bytes)]
    dtype = str(arr.dtype)
    from repro.codecs.base import load_codec

    codec = load_codec(method)
    comp_chunks = [
        codec.compress(np.frombuffer(c, dtype=np.dtype(dtype))) for c in chunks
    ]
    total = len(raw)

    def timed_count(payloads, fn, column: str, p: int) -> float:
        """Wall seconds of one ``fn`` job over ``p`` partitions of ``payloads``.

        The input is created, repartitioned and cached before the clock
        starts, so the timed job is codec work plus task scheduling only.
        """
        pdf = pd.DataFrame({"method": method, "dtype": dtype, "payload": payloads})
        df = spark.createDataFrame(pdf, schema=_CHUNK_SCHEMA).repartition(p).cache()
        df.count()
        try:
            t0 = time.perf_counter()
            n = df.mapInPandas(fn, schema=f"{column} long").count()
            wall = time.perf_counter() - t0
        finally:
            df.unpersist()
        assert n == len(payloads)
        return wall

    # untimed warm-up, one task per core, each with one chunk: a job that
    # needs a new Python worker pays its startup and codec import, which
    # would otherwise land in the first timed job to run that many tasks
    cores = spark.sparkContext.defaultParallelism
    warm = spark.range(0, cores, 1, cores).select(
        F.lit(method).alias("method"),
        F.lit(dtype).alias("dtype"),
        F.lit(chunks[0]).alias("payload"),
    )
    assert warm.mapInPandas(_compress_only, schema="comp_bytes long").count() == cores

    rows = []
    for p in partition_counts:
        wall_c = timed_count(chunks, _compress_only, "comp_bytes", p)
        wall_d = timed_count(comp_chunks, _decompress_only, "orig_bytes", p)
        rows.append(
            {
                "partitions": p,
                "comp_mbs": total / wall_c / 1e6,
                "decomp_mbs": total / wall_d / 1e6,
            }
        )
    out = pd.DataFrame(rows)
    out["comp_speedup"] = out.comp_mbs / out.comp_mbs.iloc[0]
    out["comp_efficiency"] = out.comp_speedup / out.partitions
    out["decomp_speedup"] = out.decomp_mbs / out.decomp_mbs.iloc[0]
    out["decomp_efficiency"] = out.decomp_speedup / out.partitions
    return out
