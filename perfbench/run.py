"""The cycibl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/cycibl`` must exist).  The
benchmark repeats passes of the workload's job list for about ``--seconds``
seconds; every pass is a fresh worker process, so ``cycibl``'s process-wide
caches start cold each time, and jobs run one at a time in a closed loop.
Every end-to-end metric is the median over the untraced passes, with each
time put on the host-speed reference scale of ``hostspeed.py`` (the raw
medians are printed to stderr beside them).  With
``--trace 1`` untraced and traced passes alternate and the per-layer metrics
(medians over the traced passes) are printed instead, with the tracing
overhead.  Every job's output is checked; at the default seed its digest
must also match ``digests.json``.  The last stdout line is the JSON result;
a readable summary goes to stderr.  The exit code is nonzero on any failure.

``--record-digests`` rewrites the workload's reference digests from one
pass at the default seed (only after every property check passes).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")
RUN_DIR = ".bench_run"
PASS_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]

MODULE_SHARES = ("words", "algebra", "homology", "linalg", "dibl", "ribbon",
                 "green", "models", "fileio", "cli", "other")

# (metric, unit, better); see per_layer() for how each is derived.
PER_LAYER = [
    ("words.canonical_words.calls", "count", "lower"),
    ("words.canonical_words.self_s", "s", "lower"),
    ("words.canonical_words.yield_ratio", "ratio", "higher"),
    ("words.canonicalize.calls", "count", "lower"),
    ("words.product_cochain.calls", "count", "lower"),
    ("words.product_cochain.self_s", "s", "lower"),
    ("words.CochainTensor.eval_tuple.calls", "count", "lower"),
    ("words.CochainTensor.eval_tuple.self_s", "s", "lower"),
    ("algebra.hochschild_b_cyclic.calls", "count", "lower"),
    ("algebra.hochschild_b_cyclic.self_s", "s", "lower"),
    ("algebra.dual_b.self_s", "s", "lower"),
    ("algebra.check_cyclic_dga.self_s", "s", "lower"),
    ("homology.dual_differential_table.self_s", "s", "lower"),
    ("homology.dual_differential_table.nnz", "count", "lower"),
    ("homology.cochain_homology.self_s", "s", "lower"),
    ("homology.chain_homology.self_s", "s", "lower"),
    ("linalg.graded_homology.self_s", "s", "lower"),
    ("linalg.graded_homology.basis_keys", "count", "lower"),
    ("linalg.graded_homology.diff_nnz", "count", "lower"),
    ("linalg.Eliminator.reduce.calls", "count", "lower"),
    ("linalg.Eliminator.reduce.self_s", "s", "lower"),
    ("linalg.Eliminator.add.calls", "count", "lower"),
    ("dibl.q210.calls", "count", "lower"),
    ("dibl.q210.self_s", "s", "lower"),
    ("dibl.q210.distinct_ratio", "ratio", "higher"),
    ("dibl.q120.calls", "count", "lower"),
    ("dibl.q120.self_s", "s", "lower"),
    ("dibl.q110.calls", "count", "lower"),
    ("dibl.q110.self_s", "s", "lower"),
    ("dibl.ibl_relations_check.self_s", "s", "lower"),
    ("dibl.twisted_q110.calls", "count", "lower"),
    ("dibl.twisted_q110.self_s", "s", "lower"),
    ("dibl.mu_from_mc.self_s", "s", "lower"),
    ("ribbon.enumerate_graphs.calls", "count", "lower"),
    ("ribbon.enumerate_graphs.self_s", "s", "lower"),
    ("ribbon.enumerate_graphs.repeat_ratio", "ratio", "lower"),
    ("ribbon.RibbonGraph.canonical_signature.calls", "count", "lower"),
    ("ribbon.RibbonGraph.canonical_signature.self_s", "s", "lower"),
    ("ribbon.RibbonGraph.automorphism_order.self_s", "s", "lower"),
    ("ribbon.graph_pairing.calls", "count", "lower"),
    ("ribbon.graph_pairing.self_s", "s", "lower"),
    ("ribbon.pushforward_mc.self_s", "s", "lower"),
    ("green.green_pipeline.self_s", "s", "lower"),
    ("green.check_g_properties.self_s", "s", "lower"),
    ("green.schwartz_kernel.self_s", "s", "lower"),
    ("models.build.self_s", "s", "lower"),
    ("fileio.load.self_s", "s", "lower"),
    ("fileio.dump.self_s", "s", "lower"),
    ("fileio.dump.bytes", "B", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.process_overhead_s", "s", "lower"),
] + [(f"{m}.self_share", "%", "lower") for m in MODULE_SHARES] + [
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def job_tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile of job wall time with ten jobs beyond it:
    (value, percentile)."""
    xs = sorted(walls)
    k = len(xs) - 11
    if k < 0:
        raise ValueError("job_tail_s needs at least eleven jobs")
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(passes: list[dict]) -> dict:
    """End-to-end figures of a run, every time on the host-speed reference
    scale (hostspeed.py): medians over its passes; the job statistics are
    taken over each job's median time."""
    scaled = [hostspeed.on_reference_scale([j["wall_s"] for j in p["jobs"]], p["probes"],
                                           p["probe_ref"])
              for p in passes]
    jobs = [statistics.median(t[j] for t in scaled) for j in range(len(scaled[0]))]
    return {"setup_s": statistics.median(p["setup_s"] * p["probe_ref"] / p["probes"][0]
                                         for p in passes),
            "wall_s": statistics.median(sum(t) for t in scaled),
            "job_p50_s": statistics.median(jobs),
            "job_tail_s": job_tail(jobs)[0],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(p: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    st = p["trace"]
    self_s, calls, extra = st["self_s"], st["calls"], st["extra"]
    cli = st.get("cli") or {"import_s": 0.0, "main_s": 0.0, "process_overhead_s": 0.0,
                            "shim_s": 0.0}
    out = {}
    for name, unit, _ in PER_LAYER:
        if name.endswith(".self_share") or name.startswith("trace."):
            continue
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls.get(base, 0)
        elif stat == "self_s":
            out[name] = self_s.get(base, 0.0)
        elif stat == "yield_ratio":
            out[name] = _ratio(extra.get(base + ".yielded", 0),
                               extra.get(base + ".scanned", 0))
        elif stat == "distinct_ratio":
            n = calls.get(base, 0)
            out[name] = _ratio(n - extra.get(base + ".repeats", 0), n)
        elif stat == "repeat_ratio":
            out[name] = _ratio(extra.get(base + ".repeats", 0), calls.get(base, 0))
        elif base == "cli":
            out[name] = cli[stat]
        else:
            out[name] = extra.get(name, 0)
    # shares of the timed job list, less what the CLI shim adds: self time
    # of each module's spans; the CLI's share also holds each child's
    # start, import and exit (its wall time outside main), and "other" is
    # what no span covers
    job_self = st["job_self_s"]
    mods = {m: 0.0 for m in MODULE_SHARES}
    for name, v in job_self.items():
        mods[name.split(".")[0]] += v
    mods["cli"] += cli["process_overhead_s"]
    wall = p["wall_s"] - cli["shim_s"]
    mods["other"] = max(0.0, wall - sum(mods.values()))
    for m, v in mods.items():
        out[f"{m}.self_share"] = 100.0 * _ratio(v, wall)
    out["trace.spans"] = st["spans"]
    return out


def _check_program(root: str, env: dict) -> str | None:
    """Compile and import the checkout's package; None when it is usable."""
    if not os.path.isfile(os.path.join(root, "src", "cycibl", "__init__.py")):
        return "no cycibl source under src/ in the working directory"
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import tracer; "
            "tracer.import_all(); import cycibl; print(cycibl.__file__)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60)
    want = os.path.join(root, "src", "cycibl")
    if proc.returncode != 0 or not proc.stdout.strip().startswith(want):
        return f"cannot import cycibl from {want}: {proc.stderr.strip()[-500:]}"
    return None


def run_pass(workload, seed, trace, env, out_dir, timeout) -> dict:
    out_path = os.path.join(out_dir, f"{workload}-{'traced' if trace else 'plain'}.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    spawn_t = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
         "1" if trace else "0", repr(spawn_t), out_path],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    with open(out_path) as fh:
        result = json.load(fh)
    result["duration_s"] = time.monotonic() - spawn_t
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONHASHSEED="0")
    problem = _check_program(root, env)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != workloads.DEFAULT_SEED:
        print("error: digests are recorded at the default seed", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, RUN_DIR)
    os.makedirs(out_dir, exist_ok=True)

    start = time.monotonic()
    passes = {False: [], True: []}

    def traced_next() -> bool:
        return bool(args.trace) and len(passes[True]) < len(passes[False])

    while True:
        trace = traced_next()
        elapsed = time.monotonic() - start
        passes[trace].append(run_pass(args.workload, args.seed, trace, env, out_dir,
                                      PASS_TIMEOUT_S - elapsed))
        if args.record_digests:
            break
        # start another pass only if it should end within the time
        done = passes[False] and (passes[True] or not args.trace)
        nxt = traced_next()
        est = statistics.median(p["duration_s"] for p in (passes[nxt] or passes[not nxt]))
        elapsed = time.monotonic() - start
        if done and elapsed + est > min(args.seconds, PASS_TIMEOUT_S):
            break

    records = [j for p in passes[False] + passes[True] for j in p["jobs"]]
    failures = [f"{r['name']}: {r['error']}" for r in records if r["error"]]
    if args.record_digests:
        if failures:
            print("error: not recording digests of failing jobs", file=sys.stderr)
        else:
            refs = {}
            if os.path.exists(DIGESTS):
                with open(DIGESTS) as fh:
                    refs = json.load(fh)
            refs[args.workload] = {r["name"]: r["digest"] for r in records}
            with open(DIGESTS, "w") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
    elif args.seed == workloads.DEFAULT_SEED:
        with open(DIGESTS) as fh:
            refs = json.load(fh).get(args.workload, {})
        failures += [f"{n}: digest differs from the reference"
                     for n in workloads.digest_mismatches(refs, records)]

    plain = end_to_end(passes[False])
    if args.trace:
        layers = [per_layer(p) for p in passes[True]]
        values = {name: statistics.median(l[name] for l in layers)
                  for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = end_to_end(passes[True])["wall_s"] - plain["wall_s"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": plain[name], "unit": unit} for name, unit in END_TO_END}

    n = len(passes[False][0]["jobs"])
    _, pct = job_tail([0.0] * n)
    print(f"{args.workload} seed {args.seed}: {len(passes[False])} untraced + "
          f"{len(passes[True])} traced passes of {n} jobs; job_tail_s is p{pct:.1f} "
          f"of {n} jobs, 10 beyond; failed_frac {len(failures) / len(records):.4f}",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    probe = statistics.median(c for p in passes[False] for c in p["probes"])
    print(f"  raw wall_s {statistics.median(p['wall_s'] for p in passes[False]):.6g} s, "
          f"raw setup_s {statistics.median(p['setup_s'] for p in passes[False]):.6g} s; "
          f"host probe {1e3 * probe:.3f} ms (reference {1e3 * passes[False][0]['probe_ref']:.3f} ms)",
          file=sys.stderr)
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
