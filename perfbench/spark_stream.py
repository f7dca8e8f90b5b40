"""stream-spark: a Reddit-profile stream replayed through Structured
Streaming (``repro.spark.streaming.run_streaming``), then the Catalyst δ
and ranked lists of the final window rebuilt with ``spark_tables`` →
``delta_scores_df`` → ``ranked_lists_df``.

The first T of the stream is ingested on the driver during set-up and
its bucket files removed, so the timed replay starts on a full window
and every micro-batch both inserts and expires.
"""
from __future__ import annotations

import math
import os
import shutil
import tempfile
import threading
import time

from common import (
    ABS, L, REL, T, Z, Outcome, pct, prebuilt_state, state_diff, state_problems,
)

#: micro-batches per second of measuring time (≈ 180 ms each, warm)
BATCHES_PER_S = 5
REDDIT_PER_BUCKET = 83
WARMUP_BATCHES = 5
SPARK_CORES = 2
DRIVER_MEMORY = "1g"
_DURATIONS = ("triggerExecution", "addBatch", "walCommit", "queryPlanning")
#: units of the metrics only this workload reports; it is run by hand and
#: is not among the workloads of BENCHMARK.json (see README.md)
UNITS = {
    "rebuild_s": "s", "spark.trigger_ms": "ms", "spark.addBatch_ms": "ms",
    "spark.walCommit_ms": "ms", "spark.queryPlanning_ms": "ms",
    "spark.sink.make_element_us_per_elem": "us", "spark.sink.ingest_ms": "ms",
    "spark.batches": "count", "spark.delta_scores_df_s": "s",
    "spark.ranked_lists_df_s": "s", "spark.write_buckets_s": "s",
}


def _session(work_dir: str):
    """A local SparkSession configured like ``jobs/_common.session``.

    The JVM's and the gateway's scratch files are kept inside ``work_dir``.
    """
    local = os.path.join(work_dir, "spark-local")
    os.makedirs(local, exist_ok=True)
    cores = max(1, min(SPARK_CORES, os.cpu_count() or 1))
    os.environ["SPARK_LOCAL_DIRS"] = local
    os.environ["TMPDIR"] = local
    tempfile.tempdir = local
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options -Djava.io.tmpdir={local} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench-stream-spark")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop(spark) -> None:
    """Stop the session and wait for the JVM process to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def _listener():
    from pyspark.sql.streaming import StreamingQueryListener

    class Progress(StreamingQueryListener):
        """Collects micro-batch durations per streaming query id."""

        def __init__(self):
            self.started: list[str] = []
            self.progress: dict[str, list[dict]] = {}
            self.terminated: set[str] = set()
            self.cond = threading.Condition()

        def onQueryStarted(self, event):
            with self.cond:
                self.started.append(str(event.id))

        def onQueryProgress(self, event):
            p = event.progress
            with self.cond:
                self.progress.setdefault(str(p.id), []).append(
                    {"batch": p.batchId, "rows": p.numInputRows, **dict(p.durationMs)})

        def onQueryIdle(self, event):
            pass

        def onQueryTerminated(self, event):
            with self.cond:
                self.terminated.add(str(event.id))
                self.cond.notify_all()

        def batches_of_last(self, timeout: float = 30.0) -> list[dict]:
            """Progress of the most recently started query, once it ended."""
            with self.cond:
                qid = self.started[-1]
                self.cond.wait_for(lambda: qid in self.terminated, timeout)
                return [b for b in self.progress.get(qid, []) if b["rows"] > 0]

    return Progress()


def stream_spark(seed: int, seconds: float, tracer=None, work_dir: str = ".") -> Outcome:
    from repro.core import SIRStream, build_elements
    from repro.corpus import REDDIT, generate_stream

    out = Outcome()
    n_batches = max(1, int(BATCHES_PER_S * seconds))
    duration = T + L * n_batches
    n = REDDIT_PER_BUCKET * duration // L
    root = os.path.join(work_dir, f"stream-spark-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)

    start = time.perf_counter()
    spark = _session(work_dir)
    session_s = time.perf_counter() - start
    try:
        from repro.spark import delta_scores_df, ranked_lists_df
        from repro.spark.streaming import run_streaming, write_buckets
        from repro.spark.tables import spark_tables

        listener = _listener()
        spark.streams.addListener(listener)
        write_s: list[float] = []

        def buckets_after_T(stream, path):
            """Bucket files of the stream, minus those the state holds."""
            shutil.rmtree(path, ignore_errors=True)
            t0 = time.perf_counter()
            write_buckets(stream, path, L)
            write_s.append(time.perf_counter() - t0)
            files = sorted(f for f in os.listdir(path) if f.startswith("bucket-"))
            for f in files:
                if int(f.split("-")[1].split(".")[0]) <= T:
                    os.remove(os.path.join(path, f))
            return sorted(f for f in os.listdir(path) if f.startswith("bucket-"))

        def setup():
            stream = generate_stream(REDDIT, n_elements=n, z=Z, duration=duration, seed=seed)
            files = buckets_after_T(stream, os.path.join(root, "timed"))
            return stream, files, prebuilt_state(stream, T)

        stream, files, state = out.setup(setup)
        out.setup_reps = [s + session_s for s in out.setup_reps]
        write_setup_s = list(write_s)
        lam, eta, phi = stream.profile.lam, stream.profile.eta, stream.model.phi

        # Warm-up: a short replay of copies of the first files into a
        # throwaway state; the first replay in a JVM runs far slower.
        t0 = time.perf_counter()
        warm = os.path.join(root, "warm")
        os.makedirs(warm)
        for f in files[:WARMUP_BATCHES]:
            shutil.copy2(os.path.join(root, "timed", f), warm)  # keeps mtime order
        run_streaming(spark, warm, phi, T, L, lam, eta,
                      state=SIRStream(T=T, L=L, lam=lam, eta=eta))
        listener.batches_of_last()
        out.warmup_s = time.perf_counter() - t0

        n_before = state.n_ingested
        t0 = time.perf_counter()
        try:
            run_streaming(spark, os.path.join(root, "timed"), phi, T, L, lam, eta, state=state)
        except Exception as exc:
            out.fail(f"streaming replay raised {exc!r}", len(files))
        replay_s = time.perf_counter() - t0
        batches = listener.batches_of_last()
        out.attempted = len(files)
        out.metrics["ingest_elems_per_s"] = (state.n_ingested - n_before) / replay_s
        out.samples["bucket"] = len(batches)
        # 125 micro-batches at 25 s leave 6 beyond a p95, fewer than the ten
        # a p95 needs: only the median is a metric here, and every batch's
        # durations are in the record.
        out.metrics["bucket_p50_ms"] = pct([b["triggerExecution"] for b in batches], 50)
        if len(batches) != len(files):
            out.fail(f"{len(batches)} micro-batches for {len(files)} bucket files")

        # Check: streaming ≡ batch run_all over the same stream, and δ and
        # ranked lists equal values recomputed from scratch.
        batch = SIRStream(T=T, L=L, lam=lam, eta=eta)
        batch.load(build_elements(stream))
        batch.run_all()
        _check_streamed(out, state, batch, len(files))

        # Rebuild of the final window's δ and ranked lists in Catalyst.
        tables = spark_tables(spark, stream)
        out.attempted += 1
        t0 = time.perf_counter()
        delta = delta_scores_df(tables["elems"], tables["tokens"], tables["elem_topics"],
                                tables["topic_words"], tables["refs"], state.t, T, lam, eta)
        rows = delta.toPandas()
        t1 = time.perf_counter()
        ranked = ranked_lists_df(delta).toPandas()
        t2 = time.perf_counter()
        out.metrics["rebuild_s"] = t2 - t0
        out.info.update(delta_scores_df_s=t1 - t0, ranked_lists_df_s=t2 - t1)
        problems = _rebuild_problems(batch, rows, ranked)
        if problems:
            out.fail(f"Catalyst rebuild: {problems[:3]}")

        if tracer is not None:
            traced_state = prebuilt_state(stream, T)
            t_files = buckets_after_T(stream, os.path.join(root, "traced"))
            n_before = traced_state.n_ingested
            with tracer.active():
                t0 = time.perf_counter()
                run_streaming(spark, os.path.join(root, "traced"), phi, T, L, lam, eta,
                              state=traced_state)
                t_replay = time.perf_counter() - t0
            t_batches = listener.batches_of_last()
            out.attempted += len(t_files)
            _check_streamed(out, traced_state, batch, len(t_files))
            out.traced = {
                "ingest_elems_per_s": (traced_state.n_ingested - n_before) / t_replay,
                "bucket_p50_ms": pct([b["triggerExecution"] for b in t_batches], 50),
            }
            layers = tracer.layer_metrics()
            n_elem = layers.pop("scoring.make_element.calls", 0)
            if n_elem:
                layers["spark.sink.make_element_us_per_elem"] = layers.pop(
                    "scoring.make_element.us_per_elem")
            layers["spark.sink.ingest_ms"] = (
                1e3 * tracer.totals["state.ingest_bucket"][1] / max(1, len(t_batches)))
            layers["spark.batches"] = len(t_batches)
            for key in _DURATIONS:
                name = "trigger" if key == "triggerExecution" else key
                layers[f"spark.{name}_ms"] = pct([b.get(key, 0) for b in t_batches], 50)
            layers["spark.delta_scores_df_s"] = out.info["delta_scores_df_s"]
            layers["spark.ranked_lists_df_s"] = out.info["ranked_lists_df_s"]
            layers["spark.write_buckets_s"] = pct(write_setup_s, 50)
            out.layers = layers
            out.spans = [{"run": tracer.run_id, "kind": "micro-batch", **b} for b in t_batches]
        out.info.update(n_elements=stream.n, n_batches=len(files), session_s=session_s,
                        write_buckets_s=write_setup_s, spark_master=spark.sparkContext.master,
                        micro_batches=batches)
        spark.streams.removeListener(listener)
    finally:
        _stop(spark)
        shutil.rmtree(root, ignore_errors=True)
    return out


def _check_streamed(out: Outcome, state, batch, n_buckets: int) -> None:
    """Fail the buckets whose streamed state differs from the batch run.

    A bucket fails when the streamed window lacks a child → parent
    reference that one of its elements made in the batch run; any other
    difference fails every bucket of the replay.
    """
    problems = state_diff(state, batch) + state_problems(state)
    if not problems:
        return
    missing = set()
    for parent, kids in batch.window.children.items():
        have = set(state.window.children.get(parent, ()))
        missing.update(kid for kid in kids if kid not in have and kid[0] > T)
    buckets = {-(-ts // L) * L for ts, _ in missing}
    if buckets:
        eids = sorted(eid for _, eid in missing)[:5]
        out.fail(f"streamed state lost {len(missing)} child references (children {eids}...) "
                 f"in {len(buckets)} buckets: {problems[:2]}", len(buckets))
    else:
        out.fail(f"streamed state differs from batch: {problems[:3]}", n_buckets)


def _rebuild_problems(state, rows, ranked) -> list[str]:
    """Catalyst δ rows and ranks against the batch state of the same time."""
    out = []
    spark_delta = {(int(r.eid), int(r.topic)): float(r.delta) for r in rows.itertuples()}
    mine = {(eid, i): v for eid, d in state.window.delta.items() for i, v in d.items()}
    if set(spark_delta) != set(mine):
        out.append(f"{len(set(spark_delta) ^ set(mine))} (eid, topic) keys differ")
    for key, v in mine.items():
        if key in spark_delta and not math.isclose(spark_delta[key], v, rel_tol=REL, abs_tol=ABS):
            out.append(f"delta{key} {spark_delta[key]!r} != {v!r}")
            break
    by_topic: dict[int, list] = {}
    for r in ranked.sort_values(["topic", "rank"]).itertuples():
        by_topic.setdefault(int(r.topic), []).append(int(r.eid))
    for i, eids in by_topic.items():
        if eids != [eid for eid, _ in state.rl.items(i)]:
            out.append(f"ranked_lists_df order differs on topic {i}")
    return out
