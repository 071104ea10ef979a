"""Spark harness tests: per-partition codec UDFs + oracle-checked SQL."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.codecs.base import load_codec
from repro.core.harness import (
    Block,
    failures,
    harmonic_mean_cr,
    per_dataset_metrics,
    plan_bins,
    run_benchmark,
    run_bins,
)
from repro.data.corpus import generate, get_spec
from repro.oracle import assert_equivalent

FAST_METHODS = ["ndzip-C", "MPC", "nv::btcomp", "BUFF", "shf+zstd"]
TINY = dict(scale=0.05, datasets=["citytemp", "gas-price", "astro-mhd"])


@pytest.fixture(scope="module")
def results(spark):
    return run_benchmark(spark, FAST_METHODS, **TINY).cache()


class TestRunBenchmark:
    def test_row_per_dataset_method(self, results):
        rows = results.groupBy("dataset", "method").count().collect()
        assert len(rows) == 3 * len(FAST_METHODS)

    def test_all_roundtrips_ok(self, results):
        bad = results.where(~F.col("ok")).collect()
        assert not bad, bad

    def test_metrics_positive(self, results):
        m = per_dataset_metrics(results).toPandas()
        assert (m.cr > 0).all()
        assert (m.ct_gbs > 0).all()
        assert (m.dt_gbs > 0).all()

    def test_astro_mhd_compresses_most(self, results):
        m = per_dataset_metrics(results).toPandas()
        by_ds = m.groupby("dataset").cr.median()
        assert by_ds["astro-mhd"] == by_ds.max()

    def test_gpu_walltime_includes_transfer(self, results):
        m = per_dataset_metrics(results).toPandas()
        row = m[(m.method == "MPC")].iloc[0]
        kernel_ms = row.orig_bytes / row.ct_gbs / 1e9 * 1e3
        assert row.comp_wall_ms > kernel_ms  # PCIe model added


class TestSparkSQLAggregationsOracle:
    """Every aggregation used for the tables is diffed against DuckDB."""

    def test_per_dataset_cr_matches_duckdb(self, spark, results):
        raw = results.toPandas()
        got = per_dataset_metrics(results).select("dataset", "method", "cr")
        assert_equivalent(
            got,
            """
            SELECT dataset, method,
                   CAST(SUM(orig_bytes) AS DOUBLE) / SUM(comp_bytes) AS cr
            FROM res WHERE ok GROUP BY dataset, method
            """,
            res=raw,
        )

    def test_harmonic_mean_matches_duckdb(self, spark, results):
        m = per_dataset_metrics(results).cache()
        got = harmonic_mean_cr(m, ["method"])
        assert_equivalent(
            got,
            "SELECT method, COUNT(cr) / SUM(1.0/cr) AS hmean_cr FROM m GROUP BY method",
            m=m.toPandas(),
        )

    def test_domain_grouping_matches_duckdb(self, spark, results):
        m = per_dataset_metrics(results)
        got = harmonic_mean_cr(m, ["domain", "method"])
        assert_equivalent(
            got,
            """
            SELECT domain, method, COUNT(cr) / SUM(1.0/cr) AS hmean_cr
            FROM m GROUP BY domain, method
            """,
            m=m.toPandas(),
        )


class TestFailurePath:
    def test_buff_failure_recorded_not_raised(self, spark):
        # BUFF declines non-finite input: the NaN payload must come back
        # as a "-" cell, not raise out of the executor
        arr = np.array([1.0, np.nan, 2.0])
        block = Block("x", "HPC", 0, "float64", None, arr.tobytes())
        res = run_bins(spark, [[block]], ["BUFF"]).toPandas()
        assert not res.ok.iloc[0]
        assert res.error.iloc[0].startswith("-")
        assert pd.isna(res.comp_bytes.iloc[0])

    def test_cell_with_a_failed_block_is_dash(self, spark):
        # BUFF declines block 1's NaN: the whole x/BUFF cell is "-", not a
        # CR from block 0 alone; Gorilla's cell keeps both blocks
        good = np.linspace(0.0, 1.0, 512)
        bad = good.copy()
        bad[3] = np.nan
        blocks = [
            Block("x", "HPC", i, "float64", None, a.tobytes())
            for i, a in enumerate((good, bad))
        ]
        res = run_bins(spark, [blocks], ["BUFF", "Gorilla"])
        m = per_dataset_metrics(res).toPandas()
        assert list(m.method) == ["Gorilla"]
        assert m.orig_bytes.iloc[0] == 8192
        assert failures(res).toPandas().method.tolist() == ["BUFF"]

    def test_failures_view(self, spark):
        res = run_benchmark(
            spark, ["BUFF", "ndzip-C"], scale=0.05, datasets=["astro-pt"]
        )
        f = failures(res).toPandas()
        assert len(f) == 0 or set(f.method) <= {"BUFF", "ndzip-C"}


class TestBlockMode:
    def test_block_split_covers_all_bytes(self):
        bins = plan_bins(4, scale=0.05, datasets=["citytemp"], block_bytes=4096)
        sizes = pd.Series([len(b.payload) for bin_ in bins for b in bin_])
        arr = generate(get_spec("citytemp"), 0.05)
        assert sizes.sum() == arr.nbytes
        assert (sizes % arr.dtype.itemsize == 0).all()

    def test_blocked_roundtrip(self, spark):
        res = run_benchmark(
            spark,
            ["Gorilla", "nv::btcomp"],
            scale=0.05,
            datasets=["gas-price"],
            block_bytes=4096,
        ).toPandas()
        assert res.ok.all()
        assert res.block_id.max() > 0


class TestPlanner:
    """Driver-side placement: one bin per core, longest first by bytes."""

    BLOCKED = dict(scale=0.05, datasets=["citytemp", "gas-price", "astro-mhd"], block_bytes=4096)

    def test_every_block_in_exactly_one_bin(self):
        bins = plan_bins(4, **self.BLOCKED)
        placed = sorted((b.dataset, b.block_id) for bin_ in bins for b in bin_)
        expected = []
        for name in self.BLOCKED["datasets"]:
            nbytes = generate(get_spec(name), 0.05).nbytes
            expected += [(name, i) for i in range(-(-nbytes // 4096))]
        assert placed == sorted(expected)

    def test_bin_count_is_min_of_blocks_and_cores(self):
        assert len(plan_bins(4, **TINY)) == 3  # one whole-dataset block each
        assert len(plan_bins(2, **TINY)) == 2
        assert len(plan_bins(4, **self.BLOCKED)) == 4

    def test_largest_bin_within_lpt_bound(self):
        bins = plan_bins(4, **self.BLOCKED)
        loads = [sum(len(b.payload) for b in bin_) for bin_ in bins]
        largest = max(len(b.payload) for bin_ in bins for b in bin_)
        assert max(loads) <= sum(loads) / len(bins) + largest

    def test_plan_ignores_dataset_order(self):
        permuted = dict(self.BLOCKED, datasets=self.BLOCKED["datasets"][::-1])
        assert plan_bins(4, **permuted) == plan_bins(4, **self.BLOCKED)
        whole = dict(TINY, datasets=TINY["datasets"][::-1])
        assert plan_bins(4, **whole) == plan_bins(4, **TINY)

    def test_empty_selection_is_an_error(self):
        """Only ``None`` means the whole corpus."""
        with pytest.raises(ValueError, match="datasets"):
            plan_bins(4, scale=0.05, datasets=[])

    def test_one_partition_per_bin(self, spark, results):
        cores = spark.sparkContext.defaultParallelism
        assert results.rdd.getNumPartitions() == min(3, cores)
        blocked = run_benchmark(spark, ["nv::btcomp"], **self.BLOCKED)
        assert blocked.rdd.getNumPartitions() == len(plan_bins(cores, **self.BLOCKED))

    def test_sizes_match_in_process_codecs(self, results):
        got = {(r.dataset, r.method): r.comp_bytes for r in results.collect()}
        for name in TINY["datasets"]:
            arr = generate(get_spec(name), TINY["scale"])
            dims = arr.shape if arr.ndim > 1 else None
            for m in FAST_METHODS:
                blob = load_codec(m).compress(arr.reshape(-1), dims=dims)
                assert got[(name, m)] == len(blob), (name, m)
