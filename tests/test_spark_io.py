"""Spark graph I/O tests (S4), every relational result oracle-checked."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi, watts_strogatz
from repro.graphs.spark_io import (
    degree_df,
    edges_df,
    edges_to_pdf,
    nodes_df,
    weighted_cascade_df,
)
from repro.graphs.weights import weighted_cascade
from repro.oracle import assert_equivalent


DEGREE_SQL = """
    SELECT n.node,
           COALESCE(o.c, 0) AS out_degree,
           COALESCE(i.c, 0) AS in_degree
    FROM nodes n
    LEFT JOIN (SELECT src AS node, COUNT(*) AS c FROM edges GROUP BY src) o
      ON n.node = o.node
    LEFT JOIN (SELECT dst AS node, COUNT(*) AS c FROM edges GROUP BY dst) i
      ON n.node = i.node
"""


@pytest.fixture(scope="module")
def csr():
    return build_csr(erdos_renyi(120, 0.05, seed=3))


def test_edges_pdf_matches_csr(csr):
    pdf = edges_to_pdf(csr)
    assert len(pdf) == csr.m
    assert np.array_equal(pdf["dst"].to_numpy(), csr.indices)
    assert np.array_equal(pdf["src"].to_numpy(), csr.edge_sources())
    assert pdf["eid"].tolist() == list(range(csr.m))


def test_edges_df_roundtrip(spark, csr):
    w = weighted_cascade(csr)
    got = edges_df(spark, csr, w).toPandas().sort_values("eid").reset_index(drop=True)
    assert len(got) == csr.m
    assert np.allclose(got["weight"], w)


def test_nodes_df_covers_all(spark, csr):
    got = nodes_df(spark, csr).toPandas()
    assert sorted(got["node"]) == list(range(csr.n))


def test_degree_df_against_oracle(spark, csr):
    edges_pdf = edges_to_pdf(csr)
    nodes_pdf = nodes_df(spark, csr).toPandas()
    assert_equivalent(
        degree_df(spark, csr),
        DEGREE_SQL,
        edges=edges_pdf,
        nodes=nodes_pdf,
    )


def test_oracle_catches_wrong_result(spark, csr):
    wrong = degree_df(spark, csr).withColumn("in_degree", F.col("in_degree") + 1)
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            DEGREE_SQL,
            edges=edges_to_pdf(csr),
            nodes=nodes_df(spark, csr).toPandas(),
        )


def test_degree_df_matches_csr_methods(spark, csr):
    got = degree_df(spark, csr).toPandas().sort_values("node").reset_index(drop=True)
    assert np.array_equal(got["out_degree"].to_numpy(), csr.out_degree())
    assert np.array_equal(got["in_degree"].to_numpy(), csr.in_degree())


def test_weighted_cascade_df_against_oracle(spark, csr):
    edges_pdf = edges_to_pdf(csr)
    assert_equivalent(
        weighted_cascade_df(spark, csr),
        """
        SELECT e.eid, e.src, e.dst, 1.0 / i.c AS weight
        FROM edges e
        JOIN (SELECT dst, COUNT(*) AS c FROM edges GROUP BY dst) i
          ON e.dst = i.dst
        """,
        edges=edges_pdf,
    )


def test_weighted_cascade_df_matches_numpy(spark, csr):
    got = (
        weighted_cascade_df(spark, csr)
        .toPandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    assert np.allclose(got["weight"].to_numpy(), weighted_cascade(csr))


def test_degree_df_on_graph_with_isolated_nodes(spark):
    # watts_strogatz keeps everyone connected; build a graph with a gap
    from tests.helpers import from_edges

    csr = from_edges(6, [[0, 1], [1, 2]])
    got = degree_df(spark, csr).toPandas().sort_values("node")
    assert got["out_degree"].tolist() == [1, 1, 0, 0, 0, 0]
    assert got["in_degree"].tolist() == [0, 1, 1, 0, 0, 0]
