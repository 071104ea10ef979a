"""One entrypoint per paper table: ``python -m repro.run <name>...``.

Each entry of :data:`ENTRIES` runs one experiment of §6 and returns what
it prints, keyed by its file under ``benchmarks/out/``.
``benchmarks/bench_tables.py`` runs every entry, writes those files and
checks each table's shape against the paper's Observations.

``REPRO_SCALE`` sets the corpus scale (default 0.5, about 32K values and
6 MB over the 33 datasets; 1.0 is about 64K values per dataset). Tables
7/8 run at their own fixed scale.
"""
from __future__ import annotations

import argparse
import os
import tempfile
from typing import NamedTuple

import pandas as pd
from pyspark.sql import SparkSession

from repro.codecs.base import TABLE4_METHODS
from repro.core.harness import failures, scaling_benchmark
from repro.core.tables import (
    TABLE11_METHODS,
    full_sweep,
    metrics_pdf,
    ranking_summary,
    table4,
    table5,
    table6,
    table9,
    table10,
)
from repro.data.corpus import corpus_table
from repro.dbsim.store import format_table11, table11
from repro.roofline.model import measure_machine_roof, profile_codecs

#: Tables 7/8: the paper's four parallel-capable methods.
SCALING_METHODS = ["pFPC", "shf+LZ4", "shf+zstd", "ndzip-C"]
#: msg-bt at this scale is 8 MiB, 32 chunks of 256 KiB; the bench's Obs. 7
#: check (best speedup > 1.2) was set at this scale.
SCALING_SCALE = 16.0


class Result(NamedTuple):
    """One entry's run: what it prints, and what the bench's checks read."""

    files: dict[str, list]  # out-file stem -> frames and text, in print order
    data: dict  # measurements the shape checks read that no frame shows


def scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.5"))


def render(parts: list) -> str:
    """Frames at 3 decimals, one line per row, and text verbatim, in order."""
    with pd.option_context("display.width", 250, "display.max_columns", 50):
        return "".join(
            p if isinstance(p, str) else p.round(3).to_string() + "\n" for p in parts
        )


def corpus(spark) -> Result:
    """Table 3: the 33 synthetic datasets' size, entropy and extent."""
    return Result({"table03": [corpus_table(scale())]}, {})


def sweep(spark) -> Result:
    """Tables 4, 5 and 6 and Fig. 7b's ranking, from one 33×14 sweep."""
    res = full_sweep(spark, scale=scale())
    m = metrics_pdf(res)
    failed = failures(res).toPandas()
    res.unpersist()
    rs = ranking_summary(m)
    t4 = [
        table4(m),
        f"\nFriedman chi2={rs.friedman.statistic:.2f} p={rs.friedman.p_value:.2e} "
        f"CD={rs.cd:.3f}\nranking: {' > '.join(rs.order)}\n"
        f"top clique: {rs.groups[0] if rs.groups else '-'}\n",
    ]
    if len(failed):
        t4 += ["\nfailed cells (paper's '-'):\n", failed]
    files = {"table04": t4, "table05": [table5(m)], "table06": [table6(m)]}
    return Result(files, {"ranking": rs})


def scaling(spark) -> Result:
    """Tables 7 and 8: (de)compression throughput over Spark partitions.

    The partition counts are ``scaling_benchmark``'s defaults, the paper's
    thread counts 1 to 48 (DESIGN.md substitution #9).
    """
    frames = []
    for m in SCALING_METHODS:
        t = scaling_benchmark(spark, m, scale=SCALING_SCALE)
        t.insert(0, "method", m)
        frames.append(t)
    return Result({"table07_08": [pd.concat(frames, ignore_index=True)]}, {})


def dimension(spark) -> Result:
    """Table 9: harmonic-mean CR with and without dimension metadata."""
    return Result({"table09": [table9(spark, scale=scale())]}, {})


def blocksizes(spark) -> Result:
    """Table 10: CR, CT and DT under 4K, 64K and 8M blocks."""
    return Result({"table10": [table10(spark, scale=scale())]}, {})


def query(spark) -> Result:
    """Table 11: read + decode + query time in the simulated in-memory DB,
    then each method's mean read + decode time per dataset."""
    with tempfile.TemporaryDirectory(prefix="fcbench_dbsim_") as workdir:
        raw = table11(spark, workdir, TABLE11_METHODS, scale=scale())
    retrieval = raw.groupby("method")[["read_ms", "decode_ms"]].sum().sum(axis=1)
    means = (retrieval / raw.name.nunique()).reindex(TABLE11_METHODS).to_frame("mean_ms").T
    return Result(
        {"table11": [format_table11(raw, TABLE11_METHODS), "\n", means]}, {"raw": raw}
    )


def roofline(spark) -> Result:
    """Fig. 11's numbers: the machine roof and each method's place under it."""
    roof = measure_machine_roof()
    pts = profile_codecs(TABLE4_METHODS, roof, scale=scale())
    pdf = pd.DataFrame(
        [
            {
                "method": p.method,
                "ai_ops_per_byte": p.ai,
                "achieved_gops": p.achieved_gops,
                "roof_gops": p.roof_gops,
                "bound": p.bound,
                "utilization": p.utilization,
            }
            for p in pts
        ]
    )
    head = (
        f"machine roof: mem={roof.mem_bw_gbs:.1f} GB/s, "
        f"compute={roof.compute_gops:.1f} GOPS, ridge AI={roof.ridge_ai:.2f} ops/byte\n"
    )
    return Result({"roofline": [head, pdf]}, {})


ENTRIES = {
    "corpus": corpus,
    "sweep": sweep,
    "scaling": scaling,
    "dimension": dimension,
    "blocksizes": blocksizes,
    "query": query,
    "roofline": roofline,
}


def get_spark() -> SparkSession:
    s = (
        SparkSession.builder.appName("repro.run")
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.run",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("names", nargs="+", choices=list(ENTRIES))
    names = parser.parse_args(argv).names
    spark = get_spark()
    try:
        for name in names:
            for file, parts in ENTRIES[name](spark).files.items():
                print(f"=== {file} ===\n{render(parts)}")
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
