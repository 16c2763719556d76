"""Command line front end.

Exit codes: 0 success, 1 property failure, 2 input error (one line on
stderr), 3 internal error: any exception other than the input errors
raised where files and arguments are validated (its traceback on stderr).
Structured output is byte-stable across runs for identical inputs.

Start-up is part of every command's cost, so each handler imports what it
runs.  Every command loads ``cli``, ``fileio``, ``algebra``, ``linalg``,
``signs`` and ``words``; ``eval`` adds ``dibl``, ``homology`` adds
``dibl`` and ``homology``, ``green`` adds ``green``, ``graphs`` adds
``ribbon``, and ``pushforward`` adds ``dibl``, ``green`` and ``ribbon``.
No package module imports ``dataclasses`` (and with it ``inspect`` and
``ast``).
"""

from __future__ import annotations

import argparse
import sys

from . import fileio
from .algebra import check_cyclic_dga
from .fileio import InputError, dump_json, load_json


def _emit(text: str, output: str | None):
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"--output {output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _structure(path: str, paired: bool = True):
    """The algebra of a file, with a nondegenerate pairing if ``paired``."""
    s = fileio.structure_from_dict(load_json(path))
    if paired:
        try:
            s.dual_basis()
        except ValueError as exc:  # no pairing, or a degenerate one
            raise InputError(str(exc)) from None
    return s


def _canonical_mc(s):
    """The canonical twist of a file's algebra, which must have a product."""
    from .dibl import canonical_mc

    if 2 not in s.mu:
        raise InputError(f"{s.name}: no product to build the canonical twist from")
    return canonical_mc(s)


def cmd_algebra_check(args) -> int:
    s = _structure(args.file, paired=False)
    rep = check_cyclic_dga(s)
    if not any(rep.checked.values()):
        raise InputError("no relation instance checked")
    _emit(rep.summary() + "\n", args.output)
    return 0 if rep.passed else 1


def _checked_input(path: str, twist, paired: bool, need=None):
    """The algebra of a file and the family of ``twist`` (None, 'mc' or a
    family file whose (1, 0) entry reaches weight ``need`` if given), checked
    before any computation: an input error names the first relation that
    fails on the algebra, or on the family a twist file induces: a cyclic
    A-infinity structure (degrees, relations, cyclicity), as its bar
    differential needs, that may drop the unit."""
    s = _structure(path, paired)
    fam = None
    checks = [(s.name, s)]
    if twist == "mc":
        fam = _canonical_mc(s)
    elif twist:
        from .dibl import mu_from_mc

        fam = fileio.family_from_dict(s, load_json(twist))
        e10 = fam.entry(1, 0)
        if None not in (need, e10.weight_bound) and e10.weight_bound < need:
            raise InputError(f"{twist}: the (1,0) entry is truncated at "
                             f"weight {e10.weight_bound}; homology needs "
                             f"weight {need}")
        induced = mu_from_mc(s, e10, max(2, max(e10.weights(), default=2) - 1))
        checks.append((twist, induced.replace(unit=None, augmentation=None)))
    for where, structure in checks:
        for name, witness, _, _ in check_cyclic_dga(structure).failures[:1]:
            raise InputError(f"{where}: fails {name} at {witness}")
    return s, fam


def cmd_homology(args) -> int:
    from .homology import cochain_homology

    twist = None if args.twist == "none" else args.twist
    s, fam = _checked_input(args.file, twist, paired=twist is not None,
                            need=args.weight_bound + 2)
    rep = cochain_homology(s, fam, args.weight_bound, reduced=args.reduced)
    if args.format == "records":
        doc = [{"degree": d, "weight": w, "dim": n, "stable": st}
               for d, w, n, st in rep.nonzero_rows()]
        _emit(dump_json(doc), args.output)
    else:
        _emit(rep.table() + "\n", args.output)
    return 0


def cmd_graphs(args) -> int:
    from .ribbon import EnumerationBudgetExceeded, enumerate_graphs

    try:
        found = enumerate_graphs(args.k, args.l, args.g, args.legs,
                                 trivalent=args.trivalent)
    except EnumerationBudgetExceeded as exc:
        raise InputError(str(exc)) from None
    if args.format == "records":
        doc = []
        for graph, aut in found:
            doc.append({
                "vertices": [list(v) for v in graph.vertices],
                "edges": [list(e) for e in graph.edges],
                "boundary_legs": [list(b) for b in graph.boundary_legs()],
                "automorphisms": aut,
            })
        _emit(dump_json(doc), args.output)
    else:
        lines = [f"classes of type ({args.k},{args.l},{args.g}) "
                 f"with {args.legs} legs: {len(found)}"]
        for graph, aut in found:
            lines.append(f"  vertices {graph.vertices} edges {graph.edges} "
                         f"legs/boundary {[len(b) for b in graph.boundary_legs()]} "
                         f"|Aut| = {aut}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_pushforward(args) -> int:
    from .ribbon import pushforward_mc

    s, _ = _checked_input(args.file, None, paired=True)
    kernel = {}
    if args.kernel_file:
        kernel = fileio.kernel_from_dict(s, load_json(args.kernel_file))
    fam = pushforward_mc(s, s, kernel, weight_bound=args.weight_bound,
                         genus_bound=args.genus_bound)
    _emit(dump_json(fileio.family_to_dict(fam)), args.output)
    return 0


def cmd_green(args) -> int:
    from .green import check_g_properties, green_pipeline, schwartz_kernel

    s, _ = _checked_input(args.file, None, paired=True)
    g, proj, stages = green_pipeline(s)
    rep = check_g_properties(s, g, proj)
    kernel = schwartz_kernel(s, g)
    doc = {
        "operator": fileio.operator_to_dict(s, g),
        "kernel": fileio.kernel_to_dict(s, kernel.entries, degree=kernel.degree),
        "properties": {k: bool(v) for k, v in rep.results.items()},
        "note": rep.note,
    }
    _emit(dump_json(doc), args.output)
    return 0 if rep.passed else 1


def _cochain(s, path: str):
    """A cochain file for ``eval``, whose operations take arity 1."""
    psi = fileio.cochain_from_dict(s, load_json(path))
    if psi.arity != 1:
        raise InputError(f"{path}: not an arity-1 cochain")
    return psi


def cmd_eval(args) -> int:
    from .dibl import q110, q120, q210, twisted_q110, twisted_q120

    s, fam = _checked_input(args.algebra, args.twist,
                            paired=args.op != "boundary" or bool(args.twist))
    psi = _cochain(s, args.psi)
    if args.op == "boundary":
        out = q110(s, psi)
    elif args.op == "product":
        if not args.psi2:
            raise InputError("product needs --psi2")
        psi2 = _cochain(s, args.psi2)
        out = q210(s, psi, psi2)
    elif args.op == "coproduct":
        out = q120(s, psi)
    elif args.op == "twisted-boundary":
        out = twisted_q110(s, fam or _canonical_mc(s), psi)
    else:
        out = twisted_q120(s, fam or _canonical_mc(s), psi)
    _emit(dump_json(fileio.cochain_to_dict(s, out)), args.output)
    return 0


def cmd_model(args) -> int:
    from .models import build_cpn, build_sn, truncated_polynomial

    if args.which == "sn":
        s = build_sn(args.n).structure
    elif args.which == "cpn":
        s = build_cpn(args.n).structure
    elif args.degree <= 0 or args.degree % 2:
        raise InputError(f"--degree must be even and positive, got {args.degree}")
    else:
        s = truncated_polynomial(args.n, args.degree)
    _emit(dump_json(fileio.structure_to_dict(s)), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """Bad arguments are input errors: one line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"input error: {self.prog}: {message}\n")


def _at_least(least: int):
    """An argparse type: an integer no less than ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return parse


_nonnegative = _at_least(0)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; each registers only the options its
    handler reads."""
    p = _Parser(
        prog="cycibl",
        description="exact computations with cyclic cochains: boundary, "
                    "product, coproduct, twisting, ribbon-graph pairings, "
                    "homology, and the homotopy-operator pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, fmt=False, weight=False):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(fn=fn)
        sp.add_argument("--output", default=None)
        if fmt:
            sp.add_argument("--format", choices=("table", "records"),
                            default="table")
        if weight:
            sp.add_argument("--weight-bound", type=_at_least(1), default=6,
                            dest="weight_bound")
        return sp

    sp = command("algebra-check", cmd_algebra_check, "validate an algebra file")
    sp.add_argument("file")

    sp = command("homology", cmd_homology,
                 "graded homology of the cochain complex", fmt=True, weight=True)
    sp.add_argument("file")
    sp.add_argument("--twist", default="none",
                    help="'none', 'mc', or a twist-family file")
    sp.add_argument("--reduced", action="store_true")

    sp = command("graphs", cmd_graphs, "list ribbon graph classes", fmt=True)
    sp.add_argument("k", type=_nonnegative)
    sp.add_argument("l", type=_nonnegative)
    sp.add_argument("g", type=_nonnegative)
    sp.add_argument("--legs", type=_nonnegative, default=3)
    sp.add_argument("--trivalent", action="store_true")

    sp = command("pushforward", cmd_pushforward, "transferred twist element",
                 weight=True)
    sp.add_argument("file")
    sp.add_argument("--kernel-file", default=None, dest="kernel_file")
    sp.add_argument("--genus-bound", type=_nonnegative, default=0,
                    dest="genus_bound")

    sp = command("green", cmd_green, "homotopy-operator pipeline")
    sp.add_argument("file")

    sp = command("eval", cmd_eval, "apply an operation to cochain files")
    sp.add_argument("op", choices=("boundary", "product", "coproduct",
                                   "twisted-boundary", "twisted-coproduct"))
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--psi", required=True)
    sp.add_argument("--psi2", default=None)
    sp.add_argument("--twist", default=None)

    sp = command("model", cmd_model, "emit a built-in model as an algebra file")
    sp.add_argument("which", choices=("sn", "cpn", "truncated-polynomial"))
    sp.add_argument("--n", type=_at_least(1), required=True)
    sp.add_argument("--degree", type=int, default=2)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
