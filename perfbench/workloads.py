"""Workload definitions: seeded job lists, set-up, job runners and checks.

A job list is pure data, ``(name, kind, params)``, so it can be compared
across calls.  ``setup`` builds (and axiom-checks) the models a workload
needs and, for ``cli-oneshot``, writes them and the cochain files to disk.
``run_job`` is the timed call; ``check_job`` and ``canonical`` run after
every job of the pass has been timed.  Random structures are named by their
real letter count: ``random_cyclic_dga(dim)`` builds 2 + 4*floor((dim-2)/4)
letters, so only 6 and 10 are used.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

WORKLOADS = ("homology", "relations", "transfer", "cli-oneshot")
DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
CLI_ENTRY = "import sys; from cycibl.cli import main; sys.exit(main())"


def _random_models(workload: str, seed: int, letters: int, anchors) -> list[str]:
    """One random structure per anchor.  The workload seed picks each
    structure's ``random_cyclic_dga`` seed, so its coefficients, but its
    degree profile is that of ``random_cyclic_dga(letters, seed=anchor)``:
    the work a job does then hardly depends on the workload seed."""
    from cycibl.models import random_cyclic_dga

    def profile(sd):
        s = random_cyclic_dga(letters, seed=sd, check=False)
        return s.manifold_dim, s.basis.degrees

    rng = random.Random(f"{workload}/{seed}/{letters}")
    names = []
    for anchor in anchors:
        want = profile(anchor)
        while True:
            cand = rng.randrange(1_000_000)
            name = f"r{letters}-{cand}"
            if name not in names and profile(cand) == want:
                names.append(name)
                break
    return names


def job_list(workload: str, seed: int) -> list[tuple[str, str, dict]]:
    """The seeded, ordered job list of a workload."""
    jobs = []

    def add(name, kind, **params):
        jobs.append((name, kind, params))

    if workload == "homology":
        for w in range(4, 9):
            for reduced in (False, True):
                add(f"cochain S3 w{w}{' reduced' if reduced else ''}",
                    "cochain_homology", model="S3", weight=w, reduced=reduced)
        for w in range(3, 7):
            add(f"cochain CP2 w{w}", "cochain_homology", model="CP2", weight=w,
                reduced=False)
        for w in range(3, 6):
            add(f"cochain CP3 w{w}", "cochain_homology", model="CP3", weight=w,
                reduced=False)
        coch = _random_models(workload, seed, 6, (0, 1))
        chain = _random_models(workload, seed, 6, (2, 3))
        (big,) = _random_models(workload, seed, 10, (0,))
        for model in coch:
            for w in (2, 3):
                add(f"cochain {model} w{w}", "cochain_homology", model=model,
                    weight=w, reduced=False)
        for model in chain:
            add(f"chain {model} w4", "chain_homology", model=model, weight=4)
        for w in (3, 4):
            add(f"chain {big} w{w}", "chain_homology", model=big, weight=w)
    elif workload == "relations":
        for model, w in (("S3", 7), ("CP2", 6), ("CP3", 5)):
            add(f"relations {model} w{w}", "relations", model=model, weight=w)
        for i, model in enumerate(_random_models(workload, seed, 6, range(14))):
            w = 4 if i < 2 else 3
            add(f"relations {model} w{w}", "relations", model=model, weight=w)
        add("relations S3 w5 flipped-T", "relations_mutant", model="S3", weight=5)
        for model, top in (("S3", 7), ("CP2", 4)):
            for w in range(1, top + 1):
                add(f"twisted-boundary {model} w{w}", "twisted_boundary",
                    model=model, weight=w)
    elif workload == "transfer":
        # the 40 short green jobs are spread in four blocks over the pass,
        # so their median samples the whole pass rather than one moment
        greens = _random_models(workload, seed, 6, range(40))
        # anchor 3 is the structure of criterion 9
        pushes = _random_models(workload, seed, 6, (3, 4))
        for block in range(4):
            for model in greens[10 * block:10 * block + 10]:
                add(f"green {model}", "green", model=model)
            if block % 2 == 0:
                model = pushes[block // 2]
                add(f"pushforward {model} w6", "pushforward_kernel", model=model,
                    weight=6)
            else:
                model = ("S3", "CP2")[block // 2]
                for g in (0, 1):
                    add(f"pushforward {model} zero-kernel g{g}",
                        "pushforward_zero", model=model, genus=g)
    elif workload == "cli-oneshot":
        ra, rb = _random_models(workload, seed, 6, (0, 1))
        for model in ("S3", "CP2", "CP3", ra, rb):
            add(f"cli algebra-check {model}", "cli", cmd="algebra-check",
                model=model)
        rng = random.Random(f"{workload}/{seed}/words")
        for op in ("boundary", "product", "coproduct", "twisted-boundary",
                   "twisted-coproduct"):
            for i, model in enumerate(("S3", "CP2", "S3", "CP2")):
                words = [(rng.randint(4, 7), rng.randrange(1_000_000))
                         for _ in range(2 if op == "product" else 1)]
                add(f"cli eval {op} {model} #{i}", "cli", cmd="eval", op=op,
                    model=model, words=words)
        for model, w, reduced in (("S3", 5, False), ("S3", 5, True),
                                  ("CP2", 4, False)):
            add(f"cli homology {model} w{w}{' reduced' if reduced else ''}",
                "cli", cmd="homology", model=model, weight=w, reduced=reduced)
        for model in (ra, rb):
            add(f"cli green {model}", "cli", cmd="green", model=model)
        for k, l, g, legs, tri in ((2, 1, 0, 3, False), (3, 1, 0, 5, True)):
            add(f"cli graphs {k} {l} {g} legs{legs}", "cli", cmd="graphs",
                k=k, l=l, g=g, legs=legs, trivalent=tri)
        for model, w, g in (("S3", 5, 1), ("CP2", 4, 0)):
            add(f"cli pushforward {model} zero-kernel w{w} g{g}", "cli",
                cmd="pushforward", model=model, weight=w, genus=g)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _build(name: str):
    from cycibl.models import build_cpn, build_sn, random_cyclic_dga

    if name == "S3":
        return build_sn(3).structure
    if name.startswith("CP"):
        return build_cpn(int(name[2:])).structure
    letters, seed = name[1:].split("-")
    s = random_cyclic_dga(int(letters), seed=int(seed))
    if len(s.basis) != int(letters):
        raise RuntimeError(f"{name}: built {len(s.basis)} letters")
    return s


def _models_of(jobs) -> list[str]:
    names = []
    for _, _, params in jobs:
        if "model" in params and params["model"] not in names:
            names.append(params["model"])
    return names


def _dual_words(s, picks):
    from cycibl.words import canonical_words

    out = []
    for w, pick in picks:
        words = list(canonical_words(s.basis, w))
        out.append(words[pick % len(words)])
    return out


def setup(workload: str, jobs, workdir: str, trace_path: str | None) -> dict:
    """Build every model the job list names; for the CLI also write the
    model and cochain files it reads."""
    ctx = {"models": {name: _build(name) for name in _models_of(jobs)},
           "workdir": workdir, "trace_path": trace_path, "words": {}}
    if workload == "cli-oneshot":
        from cycibl import fileio
        from cycibl.words import dual_word

        for name, s in ctx["models"].items():
            fileio.dump_json(fileio.structure_to_dict(s),
                             os.path.join(workdir, f"{name}.json"))
        for j, (_, _, params) in enumerate(jobs):
            if params["cmd"] != "eval":
                continue
            s = ctx["models"][params["model"]]
            words = _dual_words(s, params["words"])
            ctx["words"][j] = words
            for i, u in enumerate(words):
                psi = dual_word(s.basis, u, slot_shift=s.slot_shift)
                fileio.dump_json(fileio.cochain_to_dict(s, psi),
                                 os.path.join(workdir, f"psi-{j}-{i}.json"))
    return ctx


# ---------------------------------------------------------------------------
# timed jobs
# ---------------------------------------------------------------------------

def _cli_argv(ctx, j, params) -> list[str]:
    wd = ctx["workdir"]
    cmd = params["cmd"]
    if cmd == "graphs":
        argv = ["graphs", str(params["k"]), str(params["l"]), str(params["g"]),
                "--legs", str(params["legs"]), "--format", "records"]
        return argv + (["--trivalent"] if params["trivalent"] else [])
    model = os.path.join(wd, f"{params['model']}.json")
    if cmd in ("algebra-check", "green"):
        return [cmd, model]
    if cmd == "homology":
        argv = ["homology", model, "--twist", "mc", "--weight-bound",
                str(params["weight"]), "--format", "records"]
        return argv + (["--reduced"] if params["reduced"] else [])
    if cmd == "pushforward":
        return ["pushforward", model, "--weight-bound", str(params["weight"]),
                "--genus-bound", str(params["genus"])]
    argv = ["eval", params["op"], "--algebra", model,
            "--psi", os.path.join(wd, f"psi-{j}-0.json")]
    if params["op"] == "product":
        argv += ["--psi2", os.path.join(wd, f"psi-{j}-1.json")]
    return argv


def cli_trace_path(pass_path: str, j: int) -> str:
    return os.path.join(os.path.dirname(pass_path), f"cli-job-{j}.trace")


def _run_cli(ctx, j, params):
    argv = _cli_argv(ctx, j, params)
    if ctx["trace_path"]:
        stats = cli_trace_path(ctx["trace_path"], j)
        cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), stats, *argv]
    else:
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_job(ctx, j: int, name: str, kind: str, params: dict):
    """One call into the public API (one CLI process for ``cli``)."""
    from cycibl import dibl, green, homology, ribbon
    from cycibl.algebra import check_ainfty
    from cycibl.words import canonical_words, dual_word

    if kind == "cli":
        return _run_cli(ctx, j, params)
    s = ctx["models"][params["model"]]
    if kind == "cochain_homology":
        return homology.cochain_homology(s, dibl.canonical_mc(s), params["weight"],
                                         reduced=params["reduced"])
    if kind == "chain_homology":
        return homology.chain_homology(s, params["weight"])
    if kind == "relations":
        return dibl.ibl_relations_check(s, params["weight"])
    if kind == "relations_mutant":
        T = dibl.t_tensor(s)
        T[(0, 1)] = -T[(0, 1)]
        return dibl.ibl_relations_check(s, params["weight"], T=T)
    if kind == "twisted_boundary":
        mc = dibl.canonical_mc(s)
        return [dibl.twisted_boundary_vs_bar_dual(
                    s, mc, dual_word(s.basis, u, slot_shift=s.slot_shift))
                for u in canonical_words(s.basis, params["weight"])]
    if kind == "green":
        g, proj, stages = green.green_pipeline(s)
        rep = green.check_g_properties(s, g, proj)
        return g, rep, [green.gdg_rewriting_holds(s, st) for st in stages]
    if kind == "pushforward_kernel":
        # criterion-9 transfer: pipeline kernel over the harmonic part, then
        # its identities (weight-3 part, A-infinity, square-zero boundary)
        wb = params["weight"]
        g, _, _ = green.green_pipeline(s)
        kernel = green.schwartz_kernel(s, g)
        harm = green.harmonic_substructure(s, [0, 1])
        fam = ribbon.pushforward_mc(s, harm, kernel.entries, weight_bound=wb,
                                    l_bound=1)
        e10 = fam.entry(1, 0)
        mc_h = dibl.canonical_mc(harm).entry(1, 0)
        ok = {"weight3": e10.restricted(3).equal_values(mc_h.restricted(3)),
              "ainfty": check_ainfty(dibl.mu_from_mc(harm, e10, wb - 1),
                                     wb - 1).passed,
              "square_zero": True}
        for w in range(1, wb + 1):
            for u in canonical_words(harm.basis, w):
                psi = dual_word(harm.basis, u, slot_shift=harm.slot_shift)
                once = dibl.twisted_q110(harm, fam, psi)
                if not dibl.twisted_q110(harm, fam, once).is_zero():
                    ok["square_zero"] = False
        return fam, ok
    if kind == "pushforward_zero":
        return ribbon.pushforward_mc(s, s, {}, weight_bound=5,
                                     genus_bound=params["genus"], l_bound=2)
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# correctness: seed-independent properties, then canonical serialization
# ---------------------------------------------------------------------------

def sphere_table(weight_bound: int, reduced: bool) -> dict:
    """Criterion 13: stable classes of the twisted 3-sphere complex."""
    out = {(2 * w, w): 1 for w in range(1, weight_bound)}
    if not reduced:
        out.update({(-w, w): 1 for w in range(1, weight_bound, 2)})
    return out


def projective_table(n: int, weight_bound: int) -> dict:
    """CP^n: generators at degree 2i+(w-1)n-1 and the unit powers, odd w."""
    out = {}
    for w in range(1, weight_bound, 2):
        for i in range(1, n + 1):
            out[(2 * i + (w - 1) * n - 1, w)] = 1
        out[(-w, w)] = 1
    return out


def _known_table(s, model, weight, reduced):
    if model == "S3":
        return sphere_table(weight, reduced)
    if model.startswith("CP") and not reduced:
        return projective_table(int(model[2:]), weight)
    return None


def _records_table(stdout: str) -> dict:
    return {(r["degree"], r["weight"]): r["dim"]
            for r in json.loads(stdout) if r["stable"]}


def check_job(ctx, j: int, name: str, kind: str, params: dict, result) -> str | None:
    """None when the result has every seed-independent property, else why not."""
    from cycibl import dibl
    from cycibl.homology import chain_homology
    from cycibl.models import build_sn

    s = ctx["models"].get(params.get("model"))
    if kind == "cochain_homology":
        got = result.stable_classes()
        want = _known_table(s, params["model"], params["weight"], params["reduced"])
        if want is None:
            # random 6-letter algebras: weight one is the harmonic core {1, w}
            got = {k: v for k, v in got.items() if k[1] == 1}
            want = {(-1, 1): 1, (s.manifold_dim - 1, 1): 1}
        return None if got == want else f"stable classes {got} != {want}"
    if kind == "chain_homology":
        # the acyclic blocks do not change the primal homology of the core
        want = chain_homology(build_sn(s.manifold_dim).structure,
                              params["weight"]).stable_classes()
        got = result.stable_classes()
        return None if got == want else f"stable classes {got} != {want}"
    if kind == "relations":
        return None if result.passed else result.summary()
    if kind == "relations_mutant":
        if result.passed or not result.failures:
            return "flipped contraction tensor was not caught"
        return None
    if kind == "twisted_boundary":
        bad = sum(1 for left, right in result if not left.equal_values(right))
        return f"{bad} words differ" if bad else None
    if kind == "green":
        _, rep, rewriting = result
        if not rep.passed:
            return rep.summary()
        return None if all(rewriting) else "gdg rewriting fails at a stage"
    if kind == "pushforward_kernel":
        _, ok = result
        return None if all(ok.values()) else f"criterion-9 identities: {ok}"
    if kind == "pushforward_zero":
        if not result.entry(1, 0).equal_values(dibl.canonical_mc(s).entry(1, 0)):
            return "entry (1,0) is not the canonical element"
        extra = [k for k, t in result.entries.items() if k != (1, 0) and not t.is_zero()]
        return f"nonzero entries {extra}" if extra else None
    if kind == "cli":
        return _check_cli(ctx, j, params, result)
    return f"no check for {kind}"


def _check_cli(ctx, j, params, result) -> str | None:
    from cycibl import dibl, fileio
    from cycibl.ribbon import enumerate_graphs
    from cycibl.words import dual_word

    code, out, err = result
    if code != 0:
        return f"exit {code}: {err.strip()[-300:]}"
    cmd = params["cmd"]
    if cmd == "algebra-check":
        return None  # exit 0 means every axiom holds
    if cmd == "graphs":
        got = [r["automorphisms"] for r in json.loads(out)]
        want = [aut for _, aut in enumerate_graphs(
            params["k"], params["l"], params["g"], params["legs"],
            trivalent=params["trivalent"])]
        return None if got == want else f"graph classes {got} != {want}"
    s = ctx["models"][params["model"]]
    if cmd == "homology":
        want = _known_table(s, params["model"], params["weight"], params["reduced"])
        got = _records_table(out)
        return None if got == want else f"stable classes {got} != {want}"
    if cmd == "green":
        props = json.loads(out)["properties"]
        return None if all(props.values()) else f"properties {props}"
    if cmd == "pushforward":
        fam = fileio.family_from_dict(s, json.loads(out))
        if not fam.entry(1, 0).equal_values(dibl.canonical_mc(s).entry(1, 0)):
            return "entry (1,0) is not the canonical element"
        return None
    # eval: the file round trip must give the library's own answer
    psis = [dual_word(s.basis, u, slot_shift=s.slot_shift) for u in ctx["words"][j]]
    op = params["op"]
    if op == "boundary":
        want = dibl.q110(s, psis[0])
    elif op == "product":
        want = dibl.q210(s, psis[0], psis[1])
    elif op == "coproduct":
        want = dibl.q120(s, psis[0])
    elif op == "twisted-boundary":
        want = dibl.twisted_q110(s, dibl.canonical_mc(s), psis[0])
    else:
        want = dibl.twisted_q120(s, dibl.canonical_mc(s), psis[0])
    got = fileio.cochain_from_dict(s, json.loads(out))
    return None if got.equal_values(want) else "eval output differs from the library"


def _cochain_text(t) -> list:
    return [t.arity, t.weight_bound,
            sorted([[list(map(list, k)), str(v)] for k, v in t.values.items()])]


def _family_text(fam) -> list:
    return [[l, g, _cochain_text(fam.entries[(l, g)])] for (l, g) in sorted(fam.entries)]


def canonical(kind: str, result) -> str:
    """Canonical serialization of a job's result, for the digest."""
    if kind in ("cochain_homology", "chain_homology"):
        doc = result.rows()
    elif kind in ("relations", "relations_mutant"):
        doc = [result.passed, sorted([n, repr(w)] for n, w in result.failures)]
    elif kind == "twisted_boundary":
        doc = [_cochain_text(left) for left, _ in result]
    elif kind == "green":
        g, rep, rewriting = result
        doc = [g.degree, sorted([list(k), str(v)] for k, v in g.entries()),
               sorted(rep.results.items()), rewriting]
    elif kind == "pushforward_kernel":
        fam, ok = result
        doc = [_family_text(fam), sorted(ok.items())]
    elif kind == "pushforward_zero":
        doc = _family_text(result)
    elif kind == "cli":
        doc = [result[0], result[1]]
    else:
        raise ValueError(f"no serialization for {kind}")
    return json.dumps(doc, sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_mismatches(refs: dict, records: list[dict]) -> list[str]:
    """Names of jobs whose result digest differs from the reference."""
    return [r["name"] for r in records
            if r["digest"] is not None and refs.get(r["name"]) != r["digest"]]
