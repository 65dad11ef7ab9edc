"""Command-line interface.

    qlattice verify SUITE [SUITE ...] [options]   run verification suites
    qlattice evolve --size AxBxC --mode circular --out mesh.obj
    qlattice report --json path

verify exits 0 only if every executed suite passes; evolve exits 0 only if
the lattice evolves and its mesh has the expected face count, and also
prints the largest concyclicity (planarity) residual of its faces and the
number of its cubes with a non-convex face; report exits 0 only if the file
holds a schema-valid report of a passing run.
"""

from __future__ import annotations

import argparse
import json
import sys

from jsonschema import ValidationError

from .. import geometry as geo
from ..errors import QLatticeError
from . import mesh
from .report import Report, validate_report
from .rng import case_rng
from .suites import SUITES, SuiteConfig, run_suite, samples_ignored


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qlattice",
                                description="circular-lattice / tetrahedron-equation "
                                            "verification lab")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run one or more verification suites")
    v.add_argument("suites", nargs="+", metavar="SUITE",
                   help="suite name, or 'all'; known: %s" % ", ".join(sorted(SUITES)))
    # every run default is SuiteConfig's
    v.add_argument("--q", type=float, default=SuiteConfig.q, help="deformation parameter q")
    v.add_argument("--b-mod", type=float, default=SuiteConfig.b_mod,
                   help="|b| of the modular parameter")
    v.add_argument("--b-arg", type=float, default=SuiteConfig.b_arg,
                   help="arg(b) of the modular parameter, radians")
    v.add_argument("--N", type=int, default=SuiteConfig.n_cyclic, dest="n_cyclic",
                   help="cyclic order (root of unity)")
    v.add_argument("--cutoff", type=int, default=SuiteConfig.cutoff,
                   help="Fock truncation level")
    v.add_argument("--max-index", type=int, default=SuiteConfig.max_index,
                   help="largest external index of the exhaustive Fock sweep")
    v.add_argument("--seed", type=int, default=SuiteConfig.seed)
    v.add_argument("--samples", type=int, default=SuiteConfig.samples)
    v.add_argument("--tol", type=float, default=SuiteConfig.tol)
    v.add_argument("--workers", type=int, default=SuiteConfig.workers,
                   help="worker processes; at most one process per CPU is started")
    v.add_argument("--box", type=_parse_size, default=SuiteConfig.box,
                   help="covariant box, AxBxC")
    v.add_argument("--perturb", action="store_true",
                   help="negative control: corrupt the map/weight and require "
                        "the residual to exceed the tolerance")
    v.add_argument("--keep-cases", action="store_true",
                   help="include per-case residuals in the report")
    v.add_argument("--out", type=str, default=None,
                   help="write JSON report(s); one file per suite")
    v.add_argument("--csv", type=str, default=None,
                   help="also write per-case residuals as CSV (implies --keep-cases)")

    e = sub.add_parser("evolve", help="grow a lattice and export an OBJ mesh")
    e.add_argument("--size", type=str, default="3x3x3")
    e.add_argument("--mode", choices=("circular", "quadrilateral"), default="circular")
    e.add_argument("--seed", type=int, default=SuiteConfig.seed)
    e.add_argument("--out", type=str, required=True)

    r = sub.add_parser("report", help="validate and summarize a stored report")
    r.add_argument("--json", type=str, required=True)
    return p


def _parse_size(text):
    try:
        parts = tuple(int(x) for x in text.lower().split("x"))
        if len(parts) != 3 or any(v < 1 for v in parts):
            raise ValueError
        return parts
    except ValueError:
        raise SystemExit("bad size %r, expected AxBxC" % text)


def _at_case(worst_case) -> str:
    return "" if worst_case is None else " at case %d" % worst_case


def _print_line(rep: Report):
    flag = "PASS" if rep.passed else "FAIL"
    mode = " [negative control]" if rep.negative_control else ""
    print("%-20s %s  max residual %.3e%s  (tol %.0e, %d cases, %.1fs)%s"
          % (rep.suite, flag, rep.max_residual, _at_case(rep.worst_case), rep.tolerance,
             rep.counts["cases"], rep.wall_s, mode))


def suite_config(args, name: str) -> SuiteConfig:
    """The SuiteConfig of suite name from parsed verify options."""
    return SuiteConfig(
        suite=name, seed=args.seed, samples=args.samples, tol=args.tol,
        workers=args.workers, q=args.q, b_mod=args.b_mod, b_arg=args.b_arg,
        n_cyclic=args.n_cyclic, cutoff=args.cutoff, max_index=args.max_index,
        box=args.box, perturb=args.perturb,
        keep_cases=args.keep_cases or args.csv is not None)


def cmd_verify(args) -> int:
    names = list(args.suites)
    if names == ["all"]:
        names = sorted(SUITES)
    ok = True
    for name in names:
        try:
            cfg = suite_config(args, name)
            rep = run_suite(cfg)
        except QLatticeError as exc:
            print("%-20s ERROR %s" % (name, exc))
            ok = False
            continue
        _print_line(rep)
        if samples_ignored(cfg):
            print("%-20s NOTE --samples %d ignored: this suite's %d cases are fixed"
                  % (name, args.samples, rep.counts["cases"]))
        if args.out:
            path = args.out if len(names) == 1 else "%s.%s.json" % (args.out, name)
            rep.to_json(path)
        if args.csv:
            path = args.csv if len(names) == 1 else "%s.%s.csv" % (args.csv, name)
            rep.to_csv(path)
        ok = ok and rep.passed
    return 0 if ok else 1


def cmd_evolve(args) -> int:
    shape = _parse_size(args.size)
    try:
        state = geo.random_initial_state(shape, case_rng(args.seed, 0), mode=args.mode)
        geo.staircase_evolve(state)
        mesh.export_obj(state, args.out)
    except QLatticeError as exc:
        print("ERROR %s" % exc)
        return 1
    verts, faces = mesh.import_obj(args.out)
    expected = mesh.expected_face_count(shape)
    print("wrote %s: %d vertices, %d faces (expected %d)"
          % (args.out, len(verts), len(faces), expected))
    residual, bent = geo.lattice_residuals(state, args.mode)
    print("largest %s residual %.3e over the faces; cubes with a non-convex face: %d"
          % ("concyclicity" if args.mode == "circular" else "planarity", residual, bent))
    if len(faces) != expected:
        print("ERROR face count %d differs from the expected %d" % (len(faces), expected))
        return 1
    return 0


def cmd_report(args) -> int:
    try:
        with open(args.json) as fh:
            data = json.load(fh)
        validate_report(data)
    except (OSError, ValueError, ValidationError) as exc:
        # a schema error's str() carries the whole schema; its message is one line
        print("ERROR %s: %s" % (args.json, getattr(exc, "message", exc)))
        return 1
    print("%s: %s (max residual %.3e%s, tolerance %.0e)"
          % (data["suite"], "PASS" if data["pass"] else "FAIL",
             data["max_residual"], _at_case(data.get("worst_case")), data["tolerance"]))
    return 0 if data["pass"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "evolve":
        return cmd_evolve(args)
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
