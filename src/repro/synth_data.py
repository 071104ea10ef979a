"""Synthetic TPC-style data, deterministic in ``seed``.

``tpc_numeric_matrix`` builds the corpus's DB-domain datasets.
``lineitem`` and ``orders`` are Spark tables with the same column
distributions, for the tests that check Spark SQL against the DuckDB
oracle; SF=1.0 is roughly TPC-H SF1 and those tests use SF<=0.01.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


# --- FCBench extension: numeric TPC column matrices --------------------------
# The paper's DB-domain datasets (Table 3) are the numeric columns extracted
# from TPC-H / TPCx-BB / TPC-DS transactions. These produce the same column
# *kinds* (money amounts at 2 decimals, quantities, rates, keys-as-floats) as
# raw NumPy matrices for the compression corpus, reusing the distributions of
# the DataFrame generators above.

def tpc_numeric_matrix(kind: str, rows: int, cols: int, seed: int) -> np.ndarray:
    """Numeric (rows, cols) float matrix shaped like a TPC fact table.

    ``kind`` picks the column mix: ``"order"``/``"store"``/``"web"``/
    ``"catalog"`` are money-heavy (2-decimal) mixes, ``"lineitem"`` is the
    quantity/price/discount/tax mix of TPC-H lineitem.
    """
    g = _rng(seed)
    out = np.empty((rows, cols), dtype=np.float64)
    if kind == "lineitem":
        patterns = ["quantity", "price", "rate", "rate"]
    elif kind == "order":
        patterns = ["price"]
    elif kind in ("store", "web", "catalog"):
        patterns = ["price", "quantity", "rate", "key"]
    else:
        raise ValueError(f"unknown TPC kind {kind!r}")
    for c in range(cols):
        p = patterns[c % len(patterns)]
        if p == "quantity":
            out[:, c] = g.integers(1, 51, rows).astype(np.float64)
        elif p == "price":
            out[:, c] = np.round(g.random(rows) * 90000 + 900, 2)
        elif p == "rate":
            out[:, c] = np.round(g.random(rows) * 0.1, 2)
        else:  # key
            out[:, c] = g.integers(1, rows + 1, rows).astype(np.float64)
    return out
