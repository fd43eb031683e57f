#!/usr/bin/env python3
"""Cold DIAL benchmark: one workload per invocation.

    python3 perfbench/run.py --workload wa_dial --seed 0 --seconds 8 --trace 0

Run from the root of a source checkout; ``src/`` is put on the import
path of the driver and of Spark's Python workers, so nothing needs
installing. Each invocation

1. sets up ``N_SETUPS`` times, each time in a fresh Spark session:
   dataset generation from ``--seed``, base encoding (``EmbeddingStore``)
   and the Rules CAND where the workload uses it;
2. calls ``run_al`` / ``run_rf_qbc`` directly on the last set-up, never
   through ``Runner.al_result``, with the result cache pointed at an empty
   directory, so no result is ever served from a cache: at least
   ``MIN_TIMED_CALLS`` calls, until their times add up to ``--seconds``
   (the first call in a process also pays for JVM code generation and
   Python worker start-up; the median keeps both kinds of call in view);
3. with ``--trace 1``, makes one more call with every layer traced
   (``layers.py``) and reports per-layer metrics instead of end-to-end
   ones.

Every call's outputs are checked; a call that raises or fails a check
counts as failed. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
describe the host and each metric's samples. Everything the run writes
stays under ``.perfbench_work/`` (removed at exit) and ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

from spans import Span, Tracer
from workloads import END_TO_END, NAME_RE, PER_LAYER, ROUNDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
N_SETUPS = 3
MIN_TIMED_CALLS = 2
DRIVER_MEMORY = "2g"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment ------------------------------------------------------------
def spark_conf(work: Path) -> dict:
    """Session settings pinned as the repo's test and job sessions pin them."""
    return {
        "spark.sql.shuffle.partitions": "64",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.ui.showConsoleProgress": "false",
        "spark.ui.retainedJobs": "100000",
        "spark.local.dir": str(work / "spark"),
        "spark.sql.warehouse.dir": str(work / "warehouse"),
    }


def configure_env(work: Path) -> int:
    """Set everything that must be in place before pyspark or repro is
    imported; → the number of local Spark cores."""
    cores = min(4, len(os.sched_getaffinity(0)))
    for sub in ("tmp", "spark", "cache"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    java_opts = f"-Djava.io.tmpdir={work / 'tmp'} -XX:-UsePerfData"
    os.environ.update(
        REPRO_CACHE_DIR=str(work / "cache"),  # repro.exp.cache reads it at import
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        PYSPARK_PYTHON=sys.executable,
        PYSPARK_DRIVER_PYTHON=sys.executable,
        TMPDIR=str(work / "tmp"),
        SPARK_LOCAL_DIRS=str(work / "spark"),
        SPARK_LAUNCHER_OPTS=java_opts,  # the short-lived JVM spark-submit starts first
        PYSPARK_SUBMIT_ARGS=(
            f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "--conf spark.ui.showConsoleProgress=false "
            f"--conf spark.driver.extraJavaOptions='{java_opts}' pyspark-shell"
        ),
    )
    sys.path.insert(0, str(SRC))
    return cores


def start_spark(conf: dict):
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in conf.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm() -> None:
    """Stop the JVM that pyspark launched and wait until it has exited."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits on EOF from its driver
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def snapshot(d: Path) -> dict:
    if not d.is_dir():
        return {}
    return {
        str(p.relative_to(d)): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in sorted(d.rglob("*"))
    }


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def host_info(spark, cores: int) -> dict:
    mem = "unknown"
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem = line.split(":", 1)[1].strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": mem,
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "spark_version": spark.version,
        "spark_cores": cores,
        "driver_memory": DRIVER_MEMORY,
        "spark_conf": dict(sorted(spark.sparkContext.getConf().getAll())),
    }


# -- one set-up and one AL run ------------------------------------------------
class _Untraced:
    @contextmanager
    def span(self, name, **counts):
        yield Span(0, name, None, 0.0, counts=dict(counts))


def set_up(wl, seed: int, conf: dict, cfg, traced: bool):
    """Fresh Spark session → dataset → EmbeddingStore (→ Rules CAND).
    → (seconds, state dict)."""
    from repro.core.encoders import EmbeddingStore
    from repro.data.er_synth import make_dataset
    from repro.simjoin.rules import rules_cand

    t0 = time.perf_counter()
    spark = start_spark(conf)
    tracer = Tracer(spark.sparkContext) if traced else _Untraced()
    with tracer.span("data.make_dataset") as s:
        ds = make_dataset(spark, wl.dataset, scale=wl.scale, seed=seed)
        s.counts["rows_out"] = len(ds.r_pdf) + len(ds.s_pdf)
    with tracer.span("encoders.store", rows_in=len(ds.r_pdf) + len(ds.s_pdf)):
        store = EmbeddingStore(spark, ds, cfg.d)
    rc, rc_count = None, None
    if wl.uses_rules:
        with tracer.span("simjoin.rules_cand") as s:
            rc = rules_cand(spark, ds).cache()
            rc_count = s.counts["rows_out"] = rc.count()
    seconds = time.perf_counter() - t0
    return seconds, dict(spark=spark, ds=ds, store=store, rc=rc, rc_count=rc_count,
                         tracer=tracer if traced else None)


def al_call(wl, cfg, st):
    from repro.core.baselines import run_rf_qbc
    from repro.core.dial import run_al

    if wl.loop == "al":
        return run_al(st["spark"], st["ds"], cfg, store=st["store"], rules_cand=st["rc"])
    return run_rf_qbc(st["spark"], st["ds"], cfg, st["rc"], store=st["store"])


def quality(res) -> dict:
    return {
        "all_pairs_f1": float(res.final["all_pairs"]["f1"]),
        "test_f1": float(res.final["test"]["f1"]),
        "cand_recall": float(res.final["cand_recall"]),
    }


def check_result(res, cfg, wl, st) -> list[str]:
    """Output checks of one AL run (the ones its result exposes)."""
    from repro.core.dial import _resolve_cand_size

    errs = []
    if len(res.history) != cfg.rounds:
        errs.append(f"{len(res.history)} rounds recorded, expected {cfg.rounds}")
    cap = cfg.seed_pos + cfg.seed_neg + cfg.rounds * cfg.budget
    want_cand = st["rc_count"] if wl.uses_rules else _resolve_cand_size(cfg, st["ds"])
    prev = 0
    for h in res.history:
        if not prev <= h["n_labeled"] <= cap:
            errs.append(f"round {h['round']}: n_labeled={h['n_labeled']} outside [{prev}, {cap}]")
        prev = h["n_labeled"]
        # run_rf_qbc records no cand_size; its |CAND| is checked in the traced run
        if "cand_size" in h and h["cand_size"] != want_cand:
            errs.append(f"round {h['round']}: |CAND|={h['cand_size']}, expected {want_cand}")
    for k, v in quality(res).items():
        if not (math.isfinite(v) and 0.0 <= v <= 100.0):
            errs.append(f"{k}={v} outside [0, 100]")
    return errs


# -- summaries ----------------------------------------------------------------
def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p50/p90/p95/p99/p99.9 with at least ten samples
    beyond it, as (p, value); None when there are too few samples."""
    xs = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        rank = math.ceil(p / 100 * len(xs))  # nearest-rank
        if rank >= 1 and len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return None


def describe(name: str, values: list[float], unit: str) -> str:
    tail = tail_percentile(values)
    tail_s = f"p{tail[0]:g}={tail[1]:.4f}" if tail else "no percentile with >=10 samples beyond it"
    return (f"# {name}: median {statistics.median(values):.4f} {unit} over n={len(values)} "
            f"samples; {tail_s}; samples={[round(v, 4) for v in values]}")


def per_layer_metrics(tracer, root, rounds: int, untraced_s: float, kernels: dict,
                      q: dict) -> dict:
    def spans_of(name):
        return [s for s in tracer.spans if s.name == name]

    def wall(name):
        return sum(s.wall_s for s in spans_of(name))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans_of(name))

    def spark(name, attr):
        return sum(tracer.inclusive(s, attr) for s in spans_of(name))

    def share(a, b):
        return a / b if b > 0 else 0.0

    sp, rc, rt = "matcher.score_pairs", "simjoin.rules_cand", "ibc.retrieve_cand"
    # kernel seconds are single-threaded driver replays, while a layer's wall
    # time runs its partitions in parallel, so a kernel share can exceed 1
    kernel_score = kernels["align_features"] + kernels["predict"]
    v = {
        "data.make_dataset.wall_s": wall("data.make_dataset"),
        "data.records": count("data.make_dataset", "rows_out"),
        "encoders.store.wall_s": wall("encoders.store"),
        "encoders.records_per_s": share(count("encoders.store", "rows_in"), wall("encoders.store")),
        "kernel.encode_batch.wall_s": kernels["encode_batch"],
        "simjoin.rules_cand.wall_s": wall(rc),
        "simjoin.rules_cand.rows_out": count(rc, "rows_out"),
        "simjoin.rules_cand.spark_stages": spark(rc, "own_stages"),
        "matcher.fit.calls": len(spans_of("matcher.fit")),
        "matcher.fit.wall_s": wall("matcher.fit"),
        "matcher.train_features.wall_s": wall("matcher.train_features"),
        f"{sp}.calls": len(spans_of(sp)),
        f"{sp}.wall_s": wall(sp),
        f"{sp}.pairs": count(sp, "rows_out"),
        f"{sp}.pairs_per_s": share(count(sp, "rows_out"), wall(sp)),
        f"{sp}.spark_jobs": spark(sp, "own_jobs"),
        f"{sp}.spark_stages": spark(sp, "own_stages"),
        "kernel.align_features.wall_s": kernels["align_features"],
        "kernel.predict.wall_s": kernels["predict"],
        f"{sp}.kernel_share": share(kernel_score, wall(sp)),
        "blocker.fit.calls": len(spans_of("blocker.fit")),
        "blocker.fit.wall_s": wall("blocker.fit"),
        "blocker.fit.members": count("blocker.fit", "members"),
        f"{rt}.calls": len(spans_of(rt)),
        f"{rt}.wall_s": wall(rt),
        f"{rt}.rows_out": count(rt, "rows_out"),
        f"{rt}.spark_jobs": spark(rt, "own_jobs"),
        f"{rt}.spark_stages": spark(rt, "own_stages"),
        "kernel.knn_numpy.wall_s": kernels["knn_numpy"],
        "ibc.kernel_share": share(kernels["knn_numpy"], wall(rt)),
        "ibc.cand_overlap_prev": kernels["cand_overlap_prev"],
        "evaluate.calls": len(spans_of("evaluate")),
        "evaluate.wall_s": wall("evaluate"),
        "evaluate.spark_jobs": spark("evaluate", "own_jobs"),
        "evaluate.all_pairs_f1": q["all_pairs_f1"],
        "evaluate.test_f1": q["test_f1"],
        "selectors.select.wall_s": wall("selectors.select"),
        "forest.fit.wall_s": wall("forest.fit"),
        "baselines.score_forest.wall_s": wall("baselines.score_forest"),
        "baselines.score_forest.pairs": count("baselines.score_forest", "rows_out"),
        "dial.loop.wall_s": root.wall_s,
        "dial.loop.self_s": tracer.self_s(root),
        "dial.spark_jobs_per_round": tracer.inclusive(root, "own_jobs") / rounds,
        "dial.spark_stages_per_round": tracer.inclusive(root, "own_stages") / rounds,
        "dial.tracing_overhead_s": root.wall_s - untraced_s,
        "perfbench.capture.wall_s": wall("perfbench.capture"),
    }
    units = {m.name: m.unit for m in PER_LAYER}
    assert set(v) == set(units), set(v) ^ set(units)
    return {k: {"value": float(x), "unit": units[k]} for k, x in v.items()}


# -- the run ------------------------------------------------------------------
def run(args, work: Path, cores: int) -> tuple[dict, dict]:
    """→ (final result object, details for the report and the out file)."""
    from repro.core.dial import ALConfig
    from repro.exp.runner import BENCH_CFG

    wl = WORKLOADS[args.workload]
    cfg = replace(ALConfig(seed=args.seed, **BENCH_CFG), rounds=ROUNDS)
    conf = spark_conf(work)
    bench_cache = ROOT / ".bench_cache"
    cache_before = snapshot(bench_cache)
    attempted = failed = 0
    errors: list[str] = []
    setup_s: list[float] = []
    al_s: list[float] = []
    qualities: list[dict] = []
    details: dict = {"workload": wl.name, "seed": args.seed, "trace": args.trace}

    def fail(msg: str) -> None:
        nonlocal failed
        failed += 1
        errors.append(msg)
        print(f"# FAILED: {msg}", file=sys.stderr)

    st = None
    for i in range(N_SETUPS):
        if st is not None:
            st["spark"].stop()
            st = None
        attempted += 1
        try:
            dt, st = set_up(wl, args.seed, conf, cfg, traced=bool(args.trace) and i == N_SETUPS - 1)
            setup_s.append(dt)
        except Exception:
            fail(f"set-up {i}: {traceback.format_exc()}")
    if st is None:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}, details
    ds = st["ds"]
    details["sizes"] = {
        "R": len(ds.r_pdf), "S": len(ds.s_pdf), "DUPS": len(ds.dups_pdf),
        "test": len(ds.test_pdf), "rules_cand": st["rc_count"], "N": cfg.committee_size,
        "rounds": cfg.rounds, "budget": cfg.budget,
    }
    details["host"] = host_info(st["spark"], cores)

    def one_call(label: str, span=nullcontext):
        nonlocal attempted
        attempted += 1
        try:
            if st["rc"] is not None:  # run_rf_qbc unpersists the Rules CAND it was given
                st["rc"].cache().count()
            with span():
                t0 = time.perf_counter()
                res = al_call(wl, cfg, st)
                dt = time.perf_counter() - t0
        except Exception:
            fail(f"{label}: {traceback.format_exc()}")
            return None, None
        errs = check_result(res, cfg, wl, st)
        q = quality(res)
        if qualities and q != qualities[0]:
            errs.append(f"quality {q} differs from the first run's {qualities[0]}")
        qualities.append(q)
        if errs:
            fail(f"{label}: " + "; ".join(errs))
            return None, res
        return dt, res

    measured, n_calls = 0.0, 0
    while n_calls < MIN_TIMED_CALLS or measured < args.seconds:
        t0 = time.perf_counter()
        dt, _ = one_call(f"AL run {n_calls}")
        n_calls += 1
        if dt is not None:
            al_s.append(dt)
        measured += time.perf_counter() - t0 if dt is None else dt

    metrics: dict = {}
    if args.trace:
        metrics = traced_call(wl, cfg, st, al_s, one_call, fail, details)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = details["samples"] = {
        "setup_s": setup_s, "al_run_s": al_s, "driver_peak_rss_mb": [rss_mb],
        **{k: [q[k] for q in qualities] for k in (qualities[0] if qualities else ())},
    }
    if not args.trace and al_s and qualities:
        for m in END_TO_END:
            metrics[m.name] = {"value": float(statistics.median(samples[m.name])), "unit": m.unit}

    st["spark"].stop()
    if snapshot(bench_cache) != cache_before:
        fail(".bench_cache/ changed during the run")
    if any((work / "cache").iterdir()):
        fail("the AL loop wrote to the result cache")
    details["errors"] = errors
    expected = {m.name for m in (PER_LAYER if args.trace else END_TO_END)}
    correct = failed == 0 and set(metrics) == expected and all(NAME_RE.fullmatch(k) for k in metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, details


def traced_call(wl, cfg, st, al_s, one_call, fail, details) -> dict:
    """One more AL call with every layer traced → per-layer metrics; the
    spans go into ``details`` for the record written at exit."""
    import layers

    tracer, cap = st["tracer"], layers.Capture()
    spans = []

    @contextmanager
    def root_span():
        with tracer.span("dial.loop") as s:
            spans.append(s)
            yield

    with layers.traced_layers(tracer, cap):
        dt, res = one_call("traced AL run", span=root_span)
    if res is None:
        cap.release()
        return {}
    root = spans[0]
    errs = []
    kids = tracer.children(root.id)
    if abs(sum(c.wall_s for c in kids) + tracer.self_s(root) - root.wall_s) > 1e-6:
        errs.append("child spans plus dial.loop.self_s do not add up to the traced run")
    for name in wl.bypasses:
        n = sum(s.name == name for s in tracer.spans)
        if n:
            errs.append(f"{name} called {n} times, expected 0")
    if (bad := layers.probs_out_of_range(cap)):
        errs.append(f"{bad} scored probabilities outside [0, 1]")
    for c in cap.retrievals:
        if len(c["cand"]) != c["cand_size"]:
            errs.append(f"retrieved |CAND|={len(c['cand'])}, expected {c['cand_size']}")
    cand_scorings = [c["rows"] for c in cap.forest if c["pairs"] is not st["ds"].test]
    if wl.loop == "rf_qbc" and cand_scorings != [st["rc_count"]] * cfg.rounds:
        errs.append(f"score_forest scored {cand_scorings} Rules CAND pairs per round, "
                    f"expected {st['rc_count']} in each of {cfg.rounds} rounds")
    if (msg := layers.check_retrieval_oracle(cap)):
        errs.append(msg)
    if errs:
        fail("traced AL run: " + "; ".join(errs))
    tracer.collect_spark_counts()
    details["spans"] = tracer.to_json()
    kernels = {
        "encode_batch": layers.replay_encode(st["ds"], cfg.d),
        "knn_numpy": layers.replay_knn(cap),
        "cand_overlap_prev": layers.cand_overlap_prev(cap),
    }
    kernels["align_features"], kernels["predict"] = layers.replay_scoring(cap)
    cap.release()
    # the JVM keeps warming up over a run, so compare with the latest untraced call
    untraced = al_s[-1] if al_s else float("nan")
    return per_layer_metrics(tracer, root, cfg.rounds, untraced, kernels, quality(res))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    cores = configure_env(work)
    try:
        result, details = run(args, work, cores)
    finally:
        try:
            stop_jvm()
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:
                pass  # another run still uses it
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**details, "result": result}, indent=1, default=str)
    )
    host = details.get("host", {})
    print("# host " + json.dumps({k: v for k, v in host.items() if k != "spark_conf"}))
    print("# spark_conf " + json.dumps(host.get("spark_conf", {})))
    print("# sizes " + json.dumps(details.get("sizes", {})))
    units = {"all_pairs_f1": "%", "test_f1": "%"}
    units.update({m.name: m.unit for m in END_TO_END})
    for name, values in details.get("samples", {}).items():
        if values:
            print(describe(name, values, units[name]))
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
