"""Span tracer that wraps public ``cycibl`` functions from outside the package.

The wrappers are installed only for a traced pass and removed afterwards;
``assert_untraced`` proves that an end-to-end (untraced) pass runs the
original functions.  Spans are kept in flat arrays (name, parent, start,
end) and written out when the pass ends; self time is computed offline as
span time minus the union of its children's intervals.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter

MARK = "_perfbench_span"

# (defining module, attribute, span name, kind).  kind is "span" (timed
# call), "gen" (generator: one span per resumption) or "count" (call count
# only, for functions too hot and too small to time one by one).
TARGETS = [
    ("words", "canonical_words", "words.canonical_words", "gen"),
    ("words", "canonicalize", "words.canonicalize", "count"),
    ("words", "product_cochain", "words.product_cochain", "span"),
    ("words", "CochainTensor.eval_tuple", "words.CochainTensor.eval_tuple", "span"),
    ("algebra", "hochschild_b_cyclic", "algebra.hochschild_b_cyclic", "span"),
    ("algebra", "dual_b", "algebra.dual_b", "span"),
    ("algebra", "check_cyclic_dga", "algebra.check_cyclic_dga", "span"),
    ("algebra", "check_ainfty", "algebra.check_ainfty", "span"),
    ("homology", "dual_differential_table", "homology.dual_differential_table", "span"),
    ("homology", "cochain_homology", "homology.cochain_homology", "span"),
    ("homology", "chain_homology", "homology.chain_homology", "span"),
    ("linalg", "graded_homology", "linalg.graded_homology", "span"),
    ("linalg", "Eliminator.reduce", "linalg.Eliminator.reduce", "span"),
    ("linalg", "Eliminator.add", "linalg.Eliminator.add", "count"),
    ("dibl", "q110", "dibl.q110", "span"),
    ("dibl", "q210", "dibl.q210", "span"),
    ("dibl", "q120", "dibl.q120", "span"),
    ("dibl", "canonical_mc", "dibl.canonical_mc", "span"),
    ("dibl", "twisted_q110", "dibl.twisted_q110", "span"),
    ("dibl", "mu_from_mc", "dibl.mu_from_mc", "span"),
    ("dibl", "ibl_relations_check", "dibl.ibl_relations_check", "span"),
    ("dibl", "twisted_boundary_vs_bar_dual", "dibl.twisted_boundary_vs_bar_dual", "span"),
    ("ribbon", "enumerate_graphs", "ribbon.enumerate_graphs", "span"),
    ("ribbon", "RibbonGraph.canonical_signature", "ribbon.RibbonGraph.canonical_signature", "span"),
    ("ribbon", "RibbonGraph.automorphism_order", "ribbon.RibbonGraph.automorphism_order", "span"),
    ("ribbon", "graph_pairing", "ribbon.graph_pairing", "span"),
    ("ribbon", "pushforward_mc", "ribbon.pushforward_mc", "span"),
    ("green", "green_pipeline", "green.green_pipeline", "span"),
    ("green", "check_g_properties", "green.check_g_properties", "span"),
    ("green", "gdg_rewriting_holds", "green.gdg_rewriting_holds", "span"),
    ("green", "schwartz_kernel", "green.schwartz_kernel", "span"),
    ("green", "harmonic_substructure", "green.harmonic_substructure", "span"),
    ("models", "build_sn", "models.build", "span"),
    ("models", "build_cpn", "models.build", "span"),
    ("models", "random_cyclic_dga", "models.build", "span"),
    ("fileio", "load_json", "fileio.load", "span"),
    ("fileio", "structure_from_dict", "fileio.load", "span"),
    ("fileio", "cochain_from_dict", "fileio.load", "span"),
    ("fileio", "family_from_dict", "fileio.load", "span"),
    ("fileio", "kernel_from_dict", "fileio.load", "span"),
    ("fileio", "dump_json", "fileio.dump", "span"),
    ("fileio", "structure_to_dict", "fileio.dump", "span"),
    ("fileio", "cochain_to_dict", "fileio.dump", "span"),
    ("fileio", "family_to_dict", "fileio.dump", "span"),
    ("fileio", "kernel_to_dict", "fileio.dump", "span"),
    ("fileio", "operator_to_dict", "fileio.dump", "span"),
]

MODULES = ("words", "algebra", "homology", "linalg", "dibl", "ribbon",
           "green", "models", "fileio", "cli")


def _cycibl_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "cycibl" or n.startswith("cycibl."))]


def import_all():
    for name in MODULES:
        importlib.import_module("cycibl." + name)


def assert_untraced():
    """Raise if any attribute of a loaded ``cycibl`` module, or of a class
    defined there, is a tracer wrapper."""
    for mod in _cycibl_modules():
        for key, val in vars(mod).items():
            if getattr(val, MARK, None) is not None:
                raise RuntimeError(f"{mod.__name__}.{key} is still wrapped")
            if isinstance(val, type):
                for ckey, cval in vars(val).items():
                    if getattr(cval, MARK, None) is not None:
                        raise RuntimeError(
                            f"{mod.__name__}.{key}.{ckey} is still wrapped")


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus the length of the union
    of its children's intervals clipped to it (children may overlap)."""
    n = len(starts)
    covered = [0.0] * n
    run_lo = [0.0] * n
    run_hi = [None] * n
    for c in sorted(range(n), key=starts.__getitem__):
        p = parents[c]
        if p < 0:
            continue
        lo, hi = max(starts[c], starts[p]), min(ends[c], ends[p])
        if hi <= lo:
            continue
        if run_hi[p] is None or lo > run_hi[p]:
            if run_hi[p] is not None:
                covered[p] += run_hi[p] - run_lo[p]
            run_lo[p], run_hi[p] = lo, hi
        elif hi > run_hi[p]:
            run_hi[p] = hi
    for p in range(n):
        if run_hi[p] is not None:
            covered[p] += run_hi[p] - run_lo[p]
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def _freeze(x):
    """Hashable value snapshot of a cochain or contraction tensor."""
    if x is None:
        return None
    if isinstance(x, dict):
        return frozenset(x.items())
    return (x.arity, x.weight_bound, frozenset(x.values.items()))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.jobs: list[tuple[str, int]] = []  # (job name, first span index)
        self.calls: Counter = Counter()
        self.extra: Counter = Counter()
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin_job(self, job: str):
        self.jobs.append((job, len(self.start)))

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def note_distinct(self, stat: str, key):
        seen = self._seen.setdefault(stat, set())
        if key in seen:
            self.extra[stat + ".repeats"] += 1
        else:
            seen.add(key)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, kind, fn):
        tracer = self
        hook, post = _HOOKS.get(name), _POST.get(name)
        if kind == "count":
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return fn(*args, **kwargs)
        elif kind == "gen":
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if hook:
                    hook(tracer, args, kwargs)
                gen = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.extra[name + ".yielded"] += 1
                    yield item
        else:
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if hook:
                    args, kwargs = hook(tracer, args, kwargs) or (args, kwargs)
                idx = tracer._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if post:
                    post(tracer, out)
                return out
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        """Wrap every target in its defining module, in every ``cycibl``
        module that imported it by name, and on its class for methods."""
        import_all()
        mods = _cycibl_modules()
        for module, attr, name, kind in TARGETS:
            owner = importlib.import_module("cycibl." + module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                orig = vars(owner)[attr]
                self._patch(owner, attr, orig, self._wrap(name, kind, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, kind, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def stats(self) -> dict:
        """Per-name self time (all spans, and spans of the timed jobs only),
        call counts and extra counts."""
        selfs = self_times(self.start, self.end, self.parent)
        first_job = next((i for job, i in self.jobs if job != "setup"), len(selfs))
        self_s: Counter = Counter()
        job_self_s: Counter = Counter()
        for i, nid in enumerate(self.name):
            self_s[self.names[nid]] += selfs[i]
            if i >= first_job:
                job_self_s[self.names[nid]] += selfs[i]
        return {"self_s": dict(self_s), "job_self_s": dict(job_self_s),
                "calls": dict(self.calls),
                "extra": dict(self.extra), "spans": len(self.start)}

    def dump_spans(self, path: str):
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "jobs": self.jobs,
                  "count": len(self.start),
                  "layout": ["name:i32", "parent:i32", "start:f64", "end:f64"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


# -- per-target hooks: counts measured where the work happens ------------------

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _canonical_words_hook(tracer, args, kwargs):
    basis, weight = _arg(args, kwargs, 0, "basis"), _arg(args, kwargs, 1, "weight")
    if weight and weight > 0:
        tracer.extra["words.canonical_words.scanned"] += len(basis) ** weight


def _q210_hook(tracer, args, kwargs):
    key = (_freeze(_arg(args, kwargs, 1, "psi1")),
           _freeze(_arg(args, kwargs, 2, "psi2")),
           _freeze(_arg(args, kwargs, 3, "T")))
    tracer.note_distinct("dibl.q210", hash(key))


def _enumerate_graphs_hook(tracer, args, kwargs):
    tracer.note_distinct("ribbon.enumerate_graphs",
                         (args, tuple(sorted(kwargs.items()))))


def _graded_homology_hook(tracer, args, kwargs):
    """Wrap the two callbacks as child spans that count what they return."""
    args = list(args)
    basis_fn = _arg(args, kwargs, 0, "basis_fn")
    diff_fn = _arg(args, kwargs, 1, "diff_fn")

    def traced_basis(d):
        out = tracer.span("homology.basis_fn", basis_fn, d)
        tracer.extra["linalg.graded_homology.basis_keys"] += len(out)
        return out

    def traced_diff(key):
        out = tracer.span("homology.diff_fn", diff_fn, key)
        tracer.extra["linalg.graded_homology.diff_nnz"] += len(out)
        return out

    for pos, key, fn in ((0, "basis_fn", traced_basis), (1, "diff_fn", traced_diff)):
        if len(args) > pos:
            args[pos] = fn
        else:
            kwargs[key] = fn
    return tuple(args), kwargs


def _table_post(tracer, table):
    tracer.extra["homology.dual_differential_table.nnz"] += sum(
        len(col) for col in table.values())


def _dump_post(tracer, out):
    if isinstance(out, str):
        tracer.extra["fileio.dump.bytes"] += len(out.encode())


_HOOKS = {
    "words.canonical_words": _canonical_words_hook,
    "dibl.q210": _q210_hook,
    "ribbon.enumerate_graphs": _enumerate_graphs_hook,
    "linalg.graded_homology": _graded_homology_hook,
}
_POST = {
    "homology.dual_differential_table": _table_post,
    "fileio.dump": _dump_post,
}
