"""Every ``repro.run`` entry as one benchmark.

Each test runs one entry, writes what it prints to ``benchmarks/out/``
and then checks the tables' shape against the paper's Observations.
The files are written before the checks, so a run that fails a check
leaves the numbers that failed it. Every failure message carries the
measured values.
"""
from pathlib import Path

import pandas as pd
import pytest

from repro import run
from repro.core.tables import DIM_METHODS

OUT_DIR = Path(__file__).parent / "out"


def check_corpus(r):
    (tab,) = r.files["table03"]
    assert len(tab) == 33, f"{len(tab)} datasets"


def check_sweep(r):
    t4 = r.files["table04"][0]
    rs = r.data["ranking"]
    assert "Overall-avg" in t4.index, f"rows: {list(t4.index)}"
    # headline shape checks against the paper's Table 4 / Fig. 7:
    # bitshuffle-class on top, GFC ranks low
    assert rs.order[0] in ("shf+zstd", "shf+LZ4", "fpzip"), f"ranking: {rs.order}"
    assert rs.order.index("GFC") > len(rs.order) // 2, f"ranking: {rs.order}"

    (t5,) = r.files["table05"]
    assert list(t5.index) == ["avg. comp", "avg. decomp"], f"rows: {list(t5.index)}"
    # GPU-class vectorized methods must outrun the serial per-value codecs
    comp = t5.loc["avg. comp"]
    assert comp["MPC"] > comp["Gorilla"], f"avg. comp GB/s: {comp.to_dict()}"
    assert comp["nv::btcomp"] > comp["Chimp"], f"avg. comp GB/s: {comp.to_dict()}"

    (t6,) = r.files["table06"]
    assert not any(c.startswith("nv::") for c in t6.columns), f"columns: {list(t6.columns)}"
    # Observation 5: serial codecs dominate wall time despite PCIe modeling
    wall = t6.loc["avg. comp"]
    assert wall["Gorilla"] > wall["MPC"], f"avg. comp ms: {wall.to_dict()}"


def check_scaling(r):
    (t,) = r.files["table07_08"]
    # Observation 7: parallel compressors scale up with workers
    best = t.groupby("method").comp_speedup.max()
    for m in ("pFPC", "shf+zstd"):
        assert best[m] > 1.2, f"{m}; best comp_speedup: {best.to_dict()}"


def check_dimension(r):
    (t9,) = r.files["table09"]
    assert list(t9.index) == DIM_METHODS, f"rows: {list(t9.index)}"
    # Observation 6: compression is 1-d friendly — no significant difference
    assert (t9.p_value.dropna() > 0.05).all(), f"p-values: {t9.p_value.to_dict()}"


def check_blocksizes(r):
    (t10,) = r.files["table10"]
    sizes = set(t10.index.get_level_values("blocksize"))
    assert sizes == {"4K", "64K", "8M"}, f"block sizes: {sizes}"
    # Observation 8: throughputs improve with larger blocks
    ct4 = t10.loc[("4K", "avg-CT (GB/s)")]
    ct64 = t10.loc[("64K", "avg-CT (GB/s)")]
    assert (ct64 > ct4).all(), f"avg-CT GB/s:\n{pd.DataFrame({'4K': ct4, '64K': ct64})}"


def check_query(r):
    raw = r.data["raw"]
    ok = raw[raw.error.isna()]
    assert len(ok) > 0, f"errors: {raw.error.unique().tolist()}"
    # Observation 9: retrieval cost tracks end-to-end speed — fpzip's slow
    # decode must cost more than the bitshuffle methods'
    per_method = ok.groupby("method").decode_ms.mean()
    msg = f"mean decode ms: {per_method.to_dict()}"
    assert per_method["fpzip"] > per_method["shf+zstd"], msg


CHECKS = {
    "corpus": check_corpus,
    "sweep": check_sweep,
    "scaling": check_scaling,
    "dimension": check_dimension,
    "blocksizes": check_blocksizes,
    "query": check_query,
}


@pytest.mark.parametrize("name", list(run.ENTRIES))
def test_entry(benchmark, spark, name):
    result = benchmark.pedantic(run.ENTRIES[name], args=(spark,), rounds=1, iterations=1)
    for file, parts in result.files.items():
        (OUT_DIR / f"{file}.txt").write_text(run.render(parts))
    if name in CHECKS:
        CHECKS[name](result)
