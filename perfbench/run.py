"""Seeded one-core benchmark of the pythongis_ray engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run: generate the workload's inputs from the seed (one process),
compute the DuckDB reference once, then, three times over: start and
warm a Ray session with ``num_cpus = nproc`` (one ``setup_s`` sample)
and run the workload's job back to back for a third of ``--seconds``
(at least twice), checking every output against the reference. The last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full run record (host, input sizes, per-job timings and load,
failed checks) is appended to ``--record`` (default
``perfbench/.work/results.jsonl``); ``perfbench/compare.py`` compares
two such files.

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
repository root; ``perfbench/README.md`` explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

SETUP_REPEATS = 3        # sessions per run: setup_s is their median
MIN_JOBS_PER_SESSION = 2
JOB_TIMEOUT_S = 30      # a job stalled this long fails; the session restarts
RUN_DEADLINE_S = 110    # nothing new starts after this many seconds of a run
LOAD_FLAG_PER_CPU = 2.0  # 1-min loadavg per CPU above which a job is flagged
WARM_UP_SCALE = "tiny"

UNITS = {"wall_s": "s", "rows_per_s": "rows/s", "setup_s": "s",
         "peak_rss_mb": "MB", "fail_ratio": "ratio"}


class JobTimeout(Exception):
    pass


def nproc() -> int:
    """CPUs as GNU ``nproc`` counts them: the affinity mask, overridden
    by ``OMP_NUM_THREADS`` and capped by ``OMP_THREAD_LIMIT``."""
    n = len(os.sched_getaffinity(0))
    for var, cap in (("OMP_NUM_THREADS", False), ("OMP_THREAD_LIMIT", True)):
        try:
            v = int(os.environ.get(var, "").split(",")[0])
        except ValueError:
            continue
        if v > 0:
            n = min(n, v) if cap else v
    return n


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT_S} s")


# ----------------------------------------------------------- processes

def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, IndexError, ValueError):
        return 0.0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


class RssSampler(threading.Thread):
    """Peak summed RSS of the driver and its Ray worker processes,
    sampled from /proc while ``active`` is set."""

    INTERVAL_S = 0.1
    RESCAN_EVERY = 5

    def __init__(self):
        super().__init__(daemon=True)
        self.active = threading.Event()
        self.stop = threading.Event()
        self.peak_mb = 0.0

    def run(self):
        me = os.getpid()
        pids: list[int] = []
        n = 0
        while not self.stop.is_set():
            if not self.active.wait(self.INTERVAL_S):
                continue
            if n % self.RESCAN_EVERY == 0:
                pids = [p for p in descendants(me) if _is_ray_worker(p)]
            n += 1
            total = _rss_mb(me) + sum(_rss_mb(p) for p in pids)
            if self.active.is_set():
                self.peak_mb = max(self.peak_mb, total)
            self.stop.wait(self.INTERVAL_S)


# --------------------------------------------------------- ray session

class Session:
    """The Ray session the benchmark starts, warms and stops itself."""

    def __init__(self, trace_dir: str | None, warm_ctx):
        self.trace_dir = trace_dir
        self.warm_ctx = warm_ctx
        self.executor_stats = None

    def start(self) -> float:
        """Start Ray and warm the worker pool; return the seconds taken."""
        import logging

        import ray

        t0 = time.perf_counter()
        env = {"env_vars": {"PYTHONPATH": ROOT}}
        if self.trace_dir:
            from perfbench import trace

            env["env_vars"][trace.TRACE_DIR_ENV] = self.trace_dir
            env["worker_process_setup_hook"] = "perfbench.trace.install_worker"
        ray.init(num_cpus=nproc(), include_dashboard=False,
                 log_to_driver=False, logging_level="ERROR",
                 object_store_memory=512 * 2**20, runtime_env=env)
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        if self.trace_dir and self.executor_stats is None:
            from perfbench import trace

            self.executor_stats = trace.install_driver(self.trace_dir)
        # worker-pool warm-up: the flagship job on the tiny input
        from perfbench import workloads

        workloads.flagship_job(self.warm_ctx)
        return time.perf_counter() - t0

    def stop(self):
        import ray

        pids = descendants(os.getpid())
        ray.shutdown()
        deadline = time.monotonic() + 15
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        for p in pids:
            if _alive(p):
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        while any(_alive(p) for p in pids) and time.monotonic() < deadline + 5:
            time.sleep(0.05)


# ---------------------------------------------------------------- run

def prepare(w, seed: int, scale: str, work: str):
    """Generate one input directory and open its DuckDB views."""
    import duckdb

    from perfbench import gen, workloads

    n_docs, replicate = w.sizes[scale]
    sf_dir = os.path.join(work, f"{w.name}-{scale}")
    t0 = time.perf_counter()
    info = gen.generate(sf_dir, seed, n_docs)
    info["gen_s"] = time.perf_counter() - t0
    con = duckdb.connect()
    con.sql(f"SET threads = {nproc()}")
    workloads.duck_views(con, sf_dir, replicate)
    ctx = workloads.Ctx(sf_dir, replicate, con, os.path.join(work, "sink"))
    info["replicate"] = replicate
    info["input_rows"] = w.rows(ctx)
    info["hot_cells"] = gen.hot_cells(workloads.doc_ids(sf_dir), replicate,
                                      workloads.SHUFFLE_ROWS_PER_TASK)
    return ctx, info


def _in_time(t_run: float) -> bool:
    return time.perf_counter() - t_run < RUN_DEADLINE_S


def run_job(w, ctx, session: Session, sampler: RssSampler, jobs: list,
            t_run: float, traced_job: str | None = None) -> list:
    """Run, time and check one job; append its record to ``jobs``.
    Returns the failed checks (empty on success)."""
    load_before = os.getloadavg()[0]
    flag = os.path.join(session.trace_dir, "ON") if traced_job else None
    if flag:
        with open(flag, "w") as f:
            f.write(traced_job)
    sampler.active.set()
    signal.alarm(JOB_TIMEOUT_S)
    t0 = time.perf_counter()
    out, fails = None, []
    try:
        out = w.job(ctx)
    except JobTimeout as e:
        fails = [f"timeout: {e}"]
    except Exception as e:  # a failed job is counted, the run goes on
        fails = [f"error: {type(e).__name__}: {e}"]
    finally:
        wall = time.perf_counter() - t0
        signal.alarm(0)
        sampler.active.clear()
        if flag:
            os.remove(flag)
    if not fails:
        fails = w.check(ctx, out)
    elif fails[0].startswith("timeout"):
        # tear the stalled session down; the remaining jobs continue
        session.stop()
        if _in_time(t_run):
            session.start()
    rec = {"wall_s": wall, "load_before": load_before,
           "load_after": os.getloadavg()[0], "failures": fails,
           "high_load": load_before > LOAD_FLAG_PER_CPU * nproc()}
    jobs.append(rec)
    for msg in fails:
        print(f"[{w.name}] job {len(jobs)} FAILED check: {msg}",
              file=sys.stderr)
    return fails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--record", default=os.path.join(WORK, "results.jsonl"))
    args = ap.parse_args(argv)
    t_run = time.perf_counter()

    sys.path.insert(0, ROOT)
    if not os.path.isdir(os.path.join(ROOT, "pythongis_ray")):
        print("perfbench: the pythongis_ray package is not in this checkout",
              file=sys.stderr)
        return 2
    n = nproc()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    import pyarrow as pa

    pa.set_cpu_count(n)
    pa.set_io_thread_count(n)
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{w.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    signal.signal(signal.SIGALRM, _on_alarm)
    sampler = RssSampler()
    sampler.start()
    session = None
    try:
        ctx, info = prepare(w, args.seed, args.scale, work)
        warm_ctx, _ = prepare(workloads.WORKLOADS["geo_flagship"],
                              args.seed, WARM_UP_SCALE, work)
        t0 = time.perf_counter()
        ctx.ref = w.reference(ctx)
        info["reference_s"] = time.perf_counter() - t0
        trace_dir = None
        if args.trace:
            trace_dir = os.path.join(work, "trace")
            os.makedirs(trace_dir)
        session = Session(trace_dir, warm_ctx)
        record = {"workload": w.name, "seed": args.seed, "scale": args.scale,
                  "trace": args.trace, "seconds": args.seconds,
                  "host": host_record(), "input": info, "setup_samples": []}
        if args.trace:
            record["setup_samples"].append(session.start())
            result = traced_run(w, ctx, session, sampler, args.seconds,
                                t_run, record)
        else:
            result = timed_run(w, ctx, session, sampler, args.seconds, t_run,
                               record)
    finally:
        if session is not None:
            session.stop()
        sampler.stop.set()
        sampler.join()
        shutil.rmtree(work, ignore_errors=True)
    record["host"]["loadavg_end"] = os.getloadavg()
    os.makedirs(os.path.dirname(os.path.abspath(args.record)), exist_ok=True)
    with open(args.record, "a") as f:
        f.write(json.dumps(record) + "\n")
    print_summary(record)
    print(json.dumps(result), flush=True)
    return 0


def host_record() -> dict:
    import numpy
    import pyarrow
    import ray

    return {"nproc": nproc(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(),
            "load_flag_threshold": LOAD_FLAG_PER_CPU * nproc(),
            "versions": {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
                         "numpy": numpy.__version__,
                         "python": sys.version.split()[0]}}


def _loop(w, ctx, session, sampler, seconds, t_run, jobs, min_jobs,
          collect=None):
    """Run jobs until ``seconds`` have passed and ``min_jobs`` ran. With
    ``collect``, each job is traced and ``collect(job_id, job)`` is
    called after it succeeds."""
    t0 = time.perf_counter()
    k = 0
    while (time.perf_counter() - t0 < seconds or k < min_jobs) and _in_time(t_run):
        k += 1
        job_id = f"job-{len(jobs) + 1}" if collect else None
        fails = run_job(w, ctx, session, sampler, jobs, t_run, job_id)
        if collect and not fails:
            collect(job_id, jobs[-1])


def _result(jobs: list, metrics: dict) -> dict:
    failed = sum(bool(j["failures"]) for j in jobs)
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
            "metrics": metrics}


def timed_run(w, ctx, session, sampler, seconds, t_run, record) -> dict:
    """Jobs are pooled over SETUP_REPEATS sessions, each timed for its
    set-up and then measured for an equal share of ``seconds``: a
    session-wide slowdown (process placement, host load) then moves
    one third of the jobs, not the whole run."""
    jobs: list = []
    peaks: list = []
    for i in range(SETUP_REPEATS):
        if i and not _in_time(t_run):
            break
        if i:
            session.stop()
        record["setup_samples"].append(session.start())
        sampler.peak_mb = 0.0
        _loop(w, ctx, session, sampler, seconds / SETUP_REPEATS, t_run, jobs,
              MIN_JOBS_PER_SESSION)
        peaks.append(sampler.peak_mb)
    record["peak_rss_mb_per_session"] = peaks
    # with no successful job, the failed jobs' walls keep wall_s a number
    walls = ([j["wall_s"] for j in jobs if not j["failures"]]
             or [j["wall_s"] for j in jobs])
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "rows_per_s": record["input"]["input_rows"] / wall,
        "setup_s": statistics.median(record["setup_samples"]),
        "peak_rss_mb": statistics.median(peaks),
        "fail_ratio": sum(bool(j["failures"]) for j in jobs) / len(jobs),
    }
    record["jobs"] = jobs
    record["metrics"] = {k: {"value": v, "unit": UNITS[k]}
                         for k, v in values.items()}
    metrics = {k: v for k, v in record["metrics"].items()
               if k in end_to_end_names()}
    return _result(jobs, metrics)


def end_to_end_names() -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)["end_to_end"]}


def traced_run(w, ctx, session, sampler, seconds, t_run, record) -> dict:
    from perfbench import layers, trace

    untraced: list = []
    _loop(w, ctx, session, sampler, seconds / 2, t_run, untraced, 2)
    per_job: list = []

    def collect(job_id, job):
        procs = trace.read_job(session.trace_dir, job_id)
        ops = session.executor_stats.take()
        per_job.append(layers.job_metrics(procs, ops, job["wall_s"],
                                          ctx.sink_metrics))

    traced: list = []
    _loop(w, ctx, session, sampler, seconds / 2, t_run, traced, 2,
          collect=collect)
    jobs = untraced + traced
    record["jobs"] = jobs
    record["per_job_layers"] = per_job
    values = layers.median_metrics(per_job)
    ok_u = [j["wall_s"] for j in untraced if not j["failures"]]
    ok_t = [j["wall_s"] for j in traced if not j["failures"]]
    values["trace_overhead_s"] = (statistics.median(ok_t) - statistics.median(ok_u)
                                  if ok_u and ok_t else float("nan"))
    record["metrics"] = {k: {"value": v, "unit": layers.UNITS[k]}
                         for k, v in values.items()}
    return _result(jobs, record["metrics"])


def print_summary(record: dict) -> None:
    info = record["input"]
    print(f"# {record['workload']} seed={record['seed']} scale={record['scale']}"
          f" trace={record['trace']} nproc={record['host']['nproc']}"
          f" docs={info['docs']} replicate={info['replicate']}"
          f" input_rows={info['input_rows']} input_bytes={info['bytes']}"
          f" gen_s={info['gen_s']:.3f} reference_s={info['reference_s']:.3f}")
    walls = " ".join(f"{j['wall_s']:.3f}" for j in record["jobs"])
    flagged = sum(j["high_load"] for j in record["jobs"])
    print(f"# jobs={len(record['jobs'])} walls_s=[{walls}] "
          f"high_load_jobs={flagged} setup_samples_s="
          f"{[round(s, 3) for s in record['setup_samples']]}")
    for k, m in record["metrics"].items():
        print(f"{k:28s} {m['value']:14.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
