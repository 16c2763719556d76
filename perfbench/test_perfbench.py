"""Self-tests of the benchmark.

Run from the repository root with either
    python3 perfbench/test_perfbench.py
    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_job_list_is_a_function_of_the_seed():
    for w in workloads.WORKLOADS:
        jobs = workloads.job_list(w, 7)
        assert jobs == workloads.job_list(w, 7)
        assert jobs != workloads.job_list(w, 8), w
        names = [name for name, _, _ in jobs]
        assert len(set(names)) == len(names), w
        assert len(jobs) >= 21, w  # job_tail_s needs ten jobs beyond it


def test_digest_rejects_one_flipped_coefficient():
    from cycibl.models import build_sn
    from cycibl.ribbon import pushforward_mc

    s = build_sn(3).structure
    fam = pushforward_mc(s, s, {}, weight_bound=5, genus_bound=0, l_bound=2)
    ref = workloads.digest(workloads.canonical("pushforward_zero", fam))
    refs = {"job": ref}
    same = [{"name": "job", "digest": ref}]
    assert workloads.digest_mismatches(refs, same) == []
    values = fam.entries[(1, 0)].values
    key = next(iter(values))
    values[key] = -values[key]
    flipped = workloads.digest(workloads.canonical("pushforward_zero", fam))
    assert workloads.digest_mismatches(refs, [{"name": "job", "digest": flipped}]) == ["job"]


def test_self_time_on_nested_overlapping_spans():
    # root [0,10]; a [1,4] with child [2,3]; b [3,6] overlaps a; c [8,12]
    # runs past the root and is clipped to [8,10]
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    got = tracer.self_times(starts, ends, parents)
    assert got == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_wrappers_are_removed_after_a_traced_run():
    tracer.import_all()
    import cycibl.homology
    import cycibl.models
    import cycibl.words

    originals = (cycibl.words.canonical_words, cycibl.homology.canonical_words,
                 vars(cycibl.words.CochainTensor)["eval_tuple"])
    tracer.assert_untraced()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert getattr(cycibl.homology.canonical_words, tracer.MARK) == "words.canonical_words"
        assert getattr(cycibl.words.CochainTensor.eval_tuple, tracer.MARK)
        try:
            tracer.assert_untraced()
            raise AssertionError("installed wrappers were not detected")
        except RuntimeError:
            pass
        tr.begin_job("job")
        s = cycibl.models.build_sn(3).structure
        assert len(list(cycibl.homology.canonical_words(s.basis, 4))) > 0
    finally:
        tr.uninstall()
    tracer.assert_untraced()
    assert (cycibl.words.canonical_words, cycibl.homology.canonical_words,
            vars(cycibl.words.CochainTensor)["eval_tuple"]) == originals
    stats = tr.stats()
    assert stats["calls"]["words.canonical_words"] == 1
    assert stats["calls"]["models.build"] == 1
    assert stats["extra"]["words.canonical_words.scanned"] == 2 ** 4


def test_reference_scale_divides_out_the_host_speed():
    ref = hostspeed.REF_PROBE_S
    # a host twice as slow as the reference halves every job's time, and the
    # median of the nearest probes ignores the one caught in a burst (9x)
    probes = [2 * ref, 2 * ref, 2 * ref, 2 * ref, 9 * ref]
    got = hostspeed.on_reference_scale([1.0, 4.0, 2.0, 6.0], probes, ref)
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, [0.5, 2.0, 1.0, 3.0])), got
    try:
        hostspeed.on_reference_scale([1.0], [ref], ref)
        raise AssertionError("a missing probe was not detected")
    except ValueError:
        pass


def test_job_tail_has_ten_jobs_beyond():
    value, pct = run.job_tail([float(x) for x in range(1, 21)])
    assert (value, pct) == (10.0, 50.0)
    value, pct = run.job_tail([float(x) for x in range(1, 41)])
    assert (value, pct) == (30.0, 75.0)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in run.PER_LAYER]


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
