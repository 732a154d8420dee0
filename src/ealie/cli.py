"""Command-line front end: build instances, run suites, export root data.

Exit status: 0 when every requested suite passes, 1 on any suite failure,
2 on usage errors, 3 on an internal error: an exception raised while
building or checking, reported by ``run`` without a report, so a crash never
reads as an axiom failure.  Reports are JSON with sorted keys; exports are
JSON Lines ordered lexicographically by (finite, lattice).  Identical arguments
and seed produce byte-identical output.
"""

import argparse
import json
import sys

from .axioms import check_D, check_props, check_T, serre_check, tameness_check
from .constructions import (
    SqrtExtensionAlgebra,
    TorusMatrixAlgebra,
    affinize,
    check_extension_conditions,
    degree_derivation_spec,
)
from .decomp import core_and_center_window, decompose_window
from .ears import check_ears_axioms, support_checks
from .finroot import FiniteRootSystem, Root
from .quantum_torus import SignMatrix
from .reporting import AxiomReport, CheckResult

__all__ = ["main", "run"]

SUITE_ORDER = ("T", "D", "EARS", "SERRE", "TAME", "PROPS", "CON")

ALLOWED_SUITES = {
    "quantum-torus": ("D", "SERRE", "EARS"),
    "affinized": ("T", "D", "EARS", "SERRE", "TAME", "PROPS"),
    "sp-classical": ("T", "D", "SERRE", "TAME", "PROPS", "EARS"),
    "sqrt-extension": ("T", "SERRE", "TAME", "PROPS", "EARS"),
    "cocycle-extension": ("CON",),
}
CONSTRUCTIONS = tuple(ALLOWED_SUITES)

# Options each construction never reads; setting one to anything but its
# default is a usage error, so a report never shows a value that was not used.
# ``main`` refuses ``--window`` at nullity 0 by the same rule.
UNREAD_OPTIONS = {
    "quantum-torus": ("primes",),
    "affinized": ("primes",),
    "sp-classical": ("nu", "q", "primes", "underived"),
    "sqrt-extension": ("nu", "q", "underived"),
    "cocycle-extension": ("window", "seed", "primes", "underived"),
}


def _parse_q(parser, nu, text):
    entries = []
    if text:
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if item in ("1", "+1"):
                entries.append(1)
            elif item == "-1":
                entries.append(-1)
            else:
                parser.error("q entries must be ±1")
    try:
        return SignMatrix.from_upper(nu, entries)
    except ValueError as err:
        parser.error(str(err))


def _at_least(minimum):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value

    return parse


def _names_some(what):
    """An argparse type: a comma-separated list naming at least one ``what``."""

    def parse(text):
        if not any(item.strip() for item in text.split(",")):
            raise argparse.ArgumentTypeError(f"names no {what}, got {text!r}")
        return text

    return parse


# Every matrix construction needs rank l >= 2 (type C_l with l >= 2).
MIN_RANK = 2


def _parse_primes(parser, text):
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            out.append(int(item))
        except ValueError:
            parser.error(f"invalid prime {item!r}")
    return out


def _parse_suites(parser, construction, text):
    allowed = ALLOWED_SUITES[construction]
    if text is None:
        return [s for s in SUITE_ORDER if s in allowed]
    picked = []
    for item in text.split(","):
        item = item.strip().upper()
        if not item:
            continue
        if item not in SUITE_ORDER:
            parser.error(f"unknown suite {item!r}")
        if item not in allowed:
            parser.error(f"suite {item} is not applicable to {construction}")
        picked.append(item)
    return [s for s in SUITE_ORDER if s in picked]


def _instance_meta(args, extra=None):
    meta = {
        "construction": args.construction,
        "ell": args.ell,
        "nu": args.nu,
        "window": args.window,
        "seed": args.seed,
    }
    if args.construction in ("quantum-torus", "affinized", "cocycle-extension"):
        meta["q_upper"] = args.q or ""
    if args.construction in ("sp-classical", "sqrt-extension"):
        meta["rank"] = args.ell
    if args.construction == "sqrt-extension":
        meta["type"] = FiniteRootSystem.label
        meta["primes"] = args.primes or "2,3"
    if extra:
        meta.update(extra)
    return meta


def _build_algebra(parser, args):
    """The algebra plus, when distinct, the underlying graded algebra for D."""
    c = args.construction
    try:
        if c == "quantum-torus":
            q = _parse_q(parser, args.nu, args.q)
            alg = TorusMatrixAlgebra(args.ell, q, derived=not args.underived)
            return alg, alg
        if c == "affinized":
            q = _parse_q(parser, args.nu, args.q)
            base = TorusMatrixAlgebra(args.ell, q, derived=not args.underived)
            return affinize(base), base
        if c == "sp-classical":
            alg = TorusMatrixAlgebra(args.ell, SignMatrix(0), real_only=True)
            return alg, alg
        if c == "sqrt-extension":
            primes = _parse_primes(parser, args.primes or "2,3")
            alg = SqrtExtensionAlgebra(args.ell, primes)
            return alg, None
    except ValueError as err:
        parser.error(str(err))
    parser.error(f"construction {c} does not build a windowed algebra")


def _run_con_suite(parser, args):
    q = _parse_q(parser, args.nu, args.q)
    spec = degree_derivation_spec(args.ell, q)
    base = spec.base
    samples = []
    zero_nu = (0,) * args.nu
    for finite in list(base.fin.simple_roots)[:2]:
        piece = base.root_piece(Root(finite=finite, lattice=zero_nu))
        if piece:
            samples.append(piece[0])
    zero_piece = base.root_piece(Root(finite=base.fin.zero, lattice=zero_nu))
    if zero_piece:
        samples.append(zero_piece[0])
    results = [
        CheckResult(name, passed, detail)
        for name, passed, detail in check_extension_conditions(spec, samples)
    ]
    return AxiomReport("CON", results, _instance_meta(args, {"extension": spec.name}))


def _ears_report(args, win):
    """The EARS report (root-system axioms, then support checks) and the support sets."""
    sup, sup_results = support_checks(win)
    return AxiomReport("EARS", check_ears_axioms(win) + sup_results, _instance_meta(args)), sup


def _collect_reports(parser, args, suites):
    if args.construction == "cocycle-extension":
        return {"CON": _run_con_suite(parser, args)}

    alg, graded = _build_algebra(parser, args)
    win = decompose_window(alg, args.window)
    reports = {}
    win_graded = None
    core = None
    for suite in suites:
        if suite == "T":
            reports["T"] = check_T(win, seed=args.seed)
        elif suite == "D":
            if graded is alg:
                win_graded = win
            elif win_graded is None:
                win_graded = decompose_window(graded, args.window)
            reports["D"] = check_D(win_graded, seed=args.seed)
        elif suite == "EARS":
            reports["EARS"] = _ears_report(args, win)[0]
        elif suite == "SERRE":
            reports["SERRE"] = serre_check(win)
        elif suite in ("TAME", "PROPS"):
            if core is None:
                core = core_and_center_window(win)
            if suite == "TAME":
                reports["TAME"] = tameness_check(win, core)
            else:
                reports["PROPS"] = check_props(win, core)
    return reports


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_check(parser, args):
    suites = _parse_suites(parser, args.construction, args.suites)
    reports = _collect_reports(parser, args, suites)
    witnesses = {}
    for suite, report in reports.items():
        failed = [r.as_json() for r in report.results if not r.passed]
        if failed:
            witnesses[suite] = failed
    payload = {
        "instance": _instance_meta(args),
        "suite_results": {suite: rep.as_json() for suite, rep in reports.items()},
        "witnesses": witnesses,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0 if all(rep.passed for rep in reports.values()) else 1


def _cmd_export(parser, args):
    if args.construction == "cocycle-extension":
        parser.error("cocycle-extension has no windowed root data to export")
    alg, _ = _build_algebra(parser, args)
    win = decompose_window(alg, args.window)
    lines = []
    for root in sorted(win.roots()):
        record = {
            "finite": list(root.finite),
            "lattice": list(root.lattice),
            "dim": win.dim(root),
            "norm": str(win.norm(root)),
            "isotropic": win.is_isotropic(root),
        }
        lines.append(json.dumps(record, sort_keys=True))
    footer = {
        "nullity": alg.nu,
        "type": win.fin.label,
        "rank": win.fin.rank,
        "window": args.window,
    }
    lines.append(json.dumps(footer, sort_keys=True))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_serre(parser, args):
    if "SERRE" not in ALLOWED_SUITES[args.construction]:
        parser.error(f"suite SERRE is not applicable to {args.construction}")
    alg, _ = _build_algebra(parser, args)
    win = decompose_window(alg, args.window)
    report = serre_check(win)
    payload = {"instance": _instance_meta(args), "serre": report.as_json()}
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_ears(parser, args):
    if "EARS" not in ALLOWED_SUITES[args.construction]:
        parser.error(f"suite EARS is not applicable to {args.construction}")
    alg, _ = _build_algebra(parser, args)
    win = decompose_window(alg, args.window)
    report, sup = _ears_report(args, win)
    payload = {
        "instance": _instance_meta(args),
        "ears": report.as_json(),
        "support": {
            "S": sorted(list(s) for s in sup.s_set),
            "L": sorted(list(s) for s in sup.l_set),
            # E would hold the supports of extra-long roots (alpha with alpha/2
            # a root); C_l has none, so it is null, kept for the report schema
            "E": None,
        },
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_list(parser, args):
    for name in CONSTRUCTIONS:
        suites = ",".join(ALLOWED_SUITES[name])
        sys.stdout.write(f"{name}: suites {suites}\n")
    return 0


def _add_common(sp):
    sp.add_argument("--construction", choices=CONSTRUCTIONS, default="affinized")
    sp.add_argument("--ell", "--rank", type=_at_least(MIN_RANK), default=2,
                    help="matrix rank l, the finite type C_l (>= 2)")
    sp.add_argument("--nu", type=_at_least(0), default=0, help="lattice rank (>= 0)")
    sp.add_argument("--q", default="", help="strict upper triangle of q, comma-separated ±1")
    sp.add_argument("--window", type=_at_least(0), default=1, help="lattice window max-norm bound (>= 0)")
    sp.add_argument("--primes", type=_names_some("prime"), default=None,
                    help="comma-separated primes for the field extension (default 2,3)")
    sp.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sp.add_argument("--underived", action="store_true",
                    help="keep the full matrix algebra instead of its derived subalgebra")
    sp.add_argument("--out", default="", help="write the report here instead of stdout")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ealie",
        description="Exact windowed verification of lattice-graded Lie algebra axioms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp_check = sub.add_parser("check", help="run verification suites")
    _add_common(sp_check)
    sp_check.add_argument("--suites", type=_names_some("suite"), default=None,
                          help="comma-separated subset of " + ",".join(SUITE_ORDER))

    sp_export = sub.add_parser("export", help="export window root data as JSON lines")
    _add_common(sp_export)

    sp_serre = sub.add_parser("serre", help="run only the Serre relation check")
    _add_common(sp_serre)

    sp_ears = sub.add_parser("ears", help="run only the root system checks")
    _add_common(sp_ears)

    sub.add_parser("list-constructions", help="list constructions and their suites")

    args = parser.parse_args(argv)
    # errors found from here on name the subcommand, as argparse's own do
    cmd = sub.choices[args.command]
    if args.command != "list-constructions":
        for name in UNREAD_OPTIONS[args.construction]:
            if getattr(args, name) != cmd.get_default(name):
                cmd.error(f"--{name} is not read by construction {args.construction}")
        # nullity 0 has one lattice degree, the empty one, at every window
        if args.nu == 0 and args.window != cmd.get_default("window"):
            cmd.error("--window is not read at nullity 0")
    if args.command == "check":
        return _cmd_check(cmd, args)
    if args.command == "export":
        return _cmd_export(cmd, args)
    if args.command == "serre":
        return _cmd_serre(cmd, args)
    if args.command == "ears":
        return _cmd_ears(cmd, args)
    return _cmd_list(cmd, args)


def run(argv=None):
    """The process entry point: ``main``, with an uncaught exception mapped to exit 3.

    An exception escaping the interpreter exits 1, the status of a suite
    failure, so it is reported here instead: its traceback, then one
    ``ealie: internal error`` line, on stderr.  ``main`` itself lets
    exceptions propagate to in-process callers.  SystemExit (usage errors,
    exit 2) and KeyboardInterrupt pass through.
    """
    try:
        return main(argv)
    except Exception as err:
        import traceback  # only a crash pays for this import, not every start-up

        traceback.print_exc()
        sys.stderr.write(f"ealie: internal error: {type(err).__name__}: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(run())
