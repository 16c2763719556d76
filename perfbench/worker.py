"""One pass of a workload in a fresh process: set up, time every job, check.

Usage: worker.py WORKLOAD SEED TRACE SPAWN_TIME OUT_JSON

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` includes interpreter start.  Each pass runs in its
own process so the process-wide caches of ``cycibl`` start cold, as they do
for every shell invocation.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback


def main(argv) -> int:
    workload, seed, trace, spawn_t, out_path = argv
    seed, trace, spawn_t = int(seed), trace == "1", float(spawn_t)

    import hostspeed
    import tracer as tracing
    import workloads

    # one core for this worker and the CLI children it waits on, so that the
    # host-speed probe measures the core the jobs run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    jobs = workloads.job_list(workload, seed)
    workdir = os.path.join(os.path.dirname(out_path), f"work-{os.getpid()}")
    os.makedirs(workdir)
    tracing.import_all()
    tr = None
    if trace:
        tr = tracing.Tracer()
        tr.install()
        tr.begin_job("setup")
    try:
        ctx = workloads.setup(workload, jobs, workdir, out_path if trace else None)
        setup_s = time.monotonic() - spawn_t
        if tr is None:
            tracing.assert_untraced()

        # the host-speed probe runs after set-up and after every job, outside
        # the timed spans; see hostspeed.py
        if workload == "cli-oneshot":
            probe, probe_ref = hostspeed.spawn_probe, hostspeed.REF_SPAWN_S
        else:
            probe, probe_ref = hostspeed.probe, hostspeed.REF_PROBE_S
        probes = [probe()]
        results, walls, errors = [], [], []
        for j, (name, kind, params) in enumerate(jobs):
            if tr is not None:
                tr.begin_job(name)
            t0 = time.perf_counter()
            try:
                res, err = workloads.run_job(ctx, j, name, kind, params), None
            except Exception:
                res, err = None, traceback.format_exc(limit=3)
            walls.append(time.perf_counter() - t0)
            probes.append(probe())
            results.append(res)
            errors.append(err)
        wall_s = sum(walls)
        who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

        stats = None
        if tr is not None:
            tr.uninstall()
            tracing.assert_untraced()
            stats = tr.stats()
            tr.dump_spans(out_path + ".spans")
            if workload == "cli-oneshot":
                stats["cli"] = _merge_children(stats, out_path, jobs, walls)

        records = []
        for j, (name, kind, params) in enumerate(jobs):
            err = errors[j]
            digest = None
            if err is None:
                try:
                    err = workloads.check_job(ctx, j, name, kind, params, results[j])
                    digest = workloads.digest(workloads.canonical(kind, results[j]))
                except Exception:
                    err = traceback.format_exc(limit=3)
            records.append({"name": name, "wall_s": walls[j], "error": err,
                            "digest": digest})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(out_path, "w") as fh:
        json.dump({"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
                   "probes": probes, "probe_ref": probe_ref, "jobs": records, "trace": stats}, fh)
    return 0


def _merge_children(stats, out_path, jobs, walls) -> dict:
    """Fold the traced CLI children's span statistics into this pass."""
    import workloads

    totals = {"import_s": 0.0, "main_s": 0.0, "process_overhead_s": 0.0,
              "shim_s": 0.0}
    for j in range(len(jobs)):
        path = workloads.cli_trace_path(out_path, j)
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            child = json.load(fh)
        for key in ("self_s", "job_self_s", "calls", "extra"):
            for name, v in child[key].items():
                stats[key][name] = stats[key].get(name, 0) + v
        stats["spans"] += child["spans"]
        totals["import_s"] += child["import_s"]
        totals["main_s"] += child["main_s"]
        totals["shim_s"] += child["shim_s"]
        totals["process_overhead_s"] += walls[j] - child["main_s"] - child["shim_s"]
    return totals


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
