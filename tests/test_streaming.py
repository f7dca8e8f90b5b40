"""Structured Streaming driver ≡ batch bucket driver (Figure 4).

The bucketed parquet replay through ``foreachBatch`` must leave the
SIRStream in exactly the state the batch driver produces: same time,
same active set, same δ scores, same ranked-list order — and the
queries processed on top of it must return identical results.
"""
import numpy as np
import pytest

from repro.core import SIRStream, build_elements, mttd, mtts
from repro.corpus import REDDIT, TWITTER, generate_queries, generate_stream
from repro.spark.streaming import bucket_schema, run_streaming, write_buckets

from stream_fixtures import SMALL_L, SMALL_T

PARAMS = dict(n_elements=400, z=10, duration=360, seed=17)
LAM, ETA = TWITTER.lam, TWITTER.eta


@pytest.fixture(scope="module")
def stream():
    return generate_stream(TWITTER, **PARAMS)


@pytest.fixture(scope="module")
def batch_state(stream):
    st = SIRStream(T=SMALL_T, L=SMALL_L, lam=LAM, eta=ETA)
    st.load(build_elements(stream))
    st.run_all()
    return st


@pytest.fixture(scope="module")
def stream_state(spark, stream, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("buckets"))
    n = write_buckets(stream, path, SMALL_L)
    assert n == -(-stream.t_end // SMALL_L)  # one file per bucket
    return run_streaming(spark, path, stream.model.phi, SMALL_T, SMALL_L, LAM, ETA)


def test_bucket_schema_round_trip(spark, stream, tmp_path):
    path = str(tmp_path / "b")
    write_buckets(stream, path, SMALL_L)
    df = spark.read.schema(bucket_schema()).parquet(path)
    assert df.count() == stream.n


def test_same_time_and_active_set(batch_state, stream_state):
    assert stream_state.t == batch_state.t
    assert stream_state.window.active == batch_state.window.active
    assert stream_state.n_ingested == batch_state.n_ingested


def test_same_delta_scores(batch_state, stream_state):
    a, b = batch_state.window, stream_state.window
    assert set(a.delta) == set(b.delta)
    for eid, d in a.delta.items():
        assert d == pytest.approx(b.delta[eid], rel=1e-12, abs=1e-15)


def test_same_ranked_lists(batch_state, stream_state):
    topics = set(batch_state.rl.lists) | set(stream_state.rl.lists)
    for i in topics:
        assert batch_state.rl.items(i) == stream_state.rl.items(i), f"topic {i}"


def test_same_children(batch_state, stream_state):
    for eid in batch_state.window.active:
        a = sorted(c.eid for c in batch_state.window.children_of(eid))
        b = sorted(c.eid for c in stream_state.window.children_of(eid))
        assert a == b


def test_query_results_identical(stream, batch_state, stream_state):
    qs = generate_queries(stream, 6, seed=9, t_min=SMALL_T)
    for q in qs:
        a1, b1 = mtts(batch_state, q, 5), mtts(stream_state, q, 5)
        assert a1.eids == b1.eids and a1.value == pytest.approx(b1.value)
        a2, b2 = mttd(batch_state, q, 5), mttd(stream_state, q, 5)
        assert a2.eids == b2.eids and a2.value == pytest.approx(b2.value)


def test_streaming_element_reconstruction(stream, stream_state):
    """Elements rebuilt from parquet rows carry identical content."""
    ref = {e.eid: e for e in build_elements(stream)}
    got = stream_state.window.store
    assert set(got) == set(ref)
    for eid, e in list(got.items())[:50]:
        r = ref[eid]
        assert e.ts == r.ts
        assert np.array_equal(e.words, r.words)
        assert e.tp == pytest.approx(r.tp)
        assert np.array_equal(e.refs, r.refs)
        for i in e.sigma:
            assert np.allclose(e.sigma[i], r.sigma[i])


def test_dense_buckets_same_as_batch(spark, tmp_path):
    """Reddit-dense buckets (~125 rows, many sharing a timestamp): the
    sink must ingest a parent before its same-ts child, as the batch
    driver does, or the child's reference is dropped."""
    stream = generate_stream(REDDIT, n_elements=3000, z=16, duration=360, seed=0)
    batch = SIRStream(T=SMALL_T, L=SMALL_L, lam=REDDIT.lam, eta=REDDIT.eta)
    batch.load(build_elements(stream))
    batch.run_all()
    path = str(tmp_path / "b")
    write_buckets(stream, path, SMALL_L)
    st = run_streaming(spark, path, stream.model.phi, SMALL_T, SMALL_L, REDDIT.lam, REDDIT.eta)
    assert st.window.children == batch.window.children
    assert st.window.delta == batch.window.delta
    assert st.rl.lists == batch.rl.lists
