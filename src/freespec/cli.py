"""Command-line front end: fixtures, verifications, and reports.

Exit codes: 0 for a positive verdict (member / free / success), 1 for a
certified refutation, 2 for an inconclusive outcome of a one-sided search,
64 for usage errors, 65 for malformed tuple files, 70 for numerical
failures, a failed write of an output file or of stdout and any other
unexpected error.  Reports go to stdout as an aligned table, or as JSON
with ``--json``; every numeric claim in a report traces to an operation
output.
"""

import argparse
import dataclasses
import json
import os
import re
import sys
import time

import numpy as np

from .errors import (FreespecError, NumericalError, ParameterError,
                     TupleFormatError, UnsupportedCaseError)
from .linalg import HermitianTuple, ToleranceProfile
from .pencil import Pencil, membership

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NUMERICAL = 70


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only a plain number such as -0.5 for a value, not
        # an option; take "-0.5,0" (a hull point) for a value too.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise _UsageError(message)


# Largest accepted count option: above it a sample loop would allocate
# gigabytes or run for hours before reporting anything.
MAX_COUNT = 100_000


def _count(text):
    """A count option: an integer from 1 to ``MAX_COUNT``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > MAX_COUNT:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_COUNT}, got {value}")
    return value


def _point(text):
    """A level-1 point: comma-separated finite real coordinates."""
    try:
        finite = np.isfinite(np.array(text.split(","), dtype=float)).all()
    except ValueError:
        finite = False
    if not finite:
        raise argparse.ArgumentTypeError(f"expected comma-separated finite numbers, got {text!r}")
    return text


def _common_options(parser, suppress):
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--json", action="store_true", default=default(False),
                        help="emit the report as JSON on stdout")
    parser.add_argument("--seed", type=int, default=default(None),
                        help="seed for sampled searches (default: FREESPEC_SEED or 0)")
    for tol in dataclasses.fields(ToleranceProfile):  # one flag per tolerance
        name, value = tol.name.removesuffix("_tol"), tol.default
        parser.add_argument(f"--tol-{name}", type=float, default=default(value),
                            help=f"override the {name} tolerance (default {value:g})")


_COMMANDS = ("fixture", "membership", "extreme", "dilate", "spin", "choi", "dual", "ball", "drop",
             "hull", "chain", "verify-paper")


def _build_parser(argv):
    """The parser of the command that ``argv`` names; of every command when
    it names none or asks for help."""
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    if named not in _COMMANDS or "-h" in argv or "--help" in argv:
        named = None
    parser = _Parser(prog="freespec",
                     description="Free spectrahedron and matrix convex set checks")
    _common_options(parser, suppress=False)
    # The same options are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values given before it.
    common = _Parser(add_help=False)
    _common_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, text):
        if named in (None, name):
            return sub.add_parser(name, parents=[common], help=text)

    if p := add("fixture", "write a named fixture tuple to a JSON file"):
        from .fixtures import fixture_names
        p.add_argument("name", help="one of: " + ", ".join(fixture_names()))
        p.add_argument("--out", required=True)
    if p := add("membership", "pencil membership of a point"):
        p.add_argument("--pencil", required=True)
        p.add_argument("--point", required=True)
    if p := add("extreme", "extreme-point certificate for a point"):
        p.add_argument("--pencil", required=True)
        p.add_argument("--point", required=True)
    if p := add("dilate", "greedy dilation up to an Arveson extreme point"):
        p.add_argument("--pencil", required=True)
        p.add_argument("--point", required=True)
        p.add_argument("--out", help="write the dilated tuple here")
    if p := add("spin", "construct a spin tuple and report residuals"):
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--out")
    if p := add("choi", "matrix-range membership via the block matrix"):
        p.add_argument("--basis", required=True, help="full-span coefficient tuple")
        p.add_argument("--point", required=True)
    if p := add("dual", "dual pencil of a full-span tuple"):
        p.add_argument("--basis", required=True)
        p.add_argument("--out", required=True)
    if p := add("ball", "membership in a ball-family set"):
        p.add_argument("--set", required=True, choices=["matrix", "selfdual", "wmax", "qd"])
        p.add_argument("--point", required=True)
    if p := add("drop", "projection membership (exact case or witness search)"):
        p.add_argument("--pencil", required=True)
        p.add_argument("--keep", type=int, required=True)
        p.add_argument("--point", required=True)
    if p := add("hull", "level-1 hull membership for generator tuples"):
        p.add_argument("--generator", action="append", required=True,
                       help="generator tuple file/fixture (repeatable)")
        p.add_argument("--point", required=True, type=_point,
                       help="comma-separated real coordinates, e.g. '0,-0.6667'")
    if p := add("chain", "containment-chain sampling experiment"):
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--samples", type=_count, default=200)
    add("verify-paper", "run the full acceptance suite")
    return parser


def _tolerances(args):
    return ToleranceProfile(hermitian_tol=args.tol_hermitian, psd_tol=args.tol_psd,
                            rank_tol=args.tol_rank)


def _seed(args):
    source, raw = ("--seed", args.seed) if args.seed is not None \
        else ("FREESPEC_SEED", os.environ.get("FREESPEC_SEED", "0"))
    try:
        seed = int(raw)
    except ValueError:
        raise _UsageError(f"{source} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise _UsageError(f"{source} must be non-negative, got {seed}")
    return seed


def _load(ref, tol, length_hint=None):
    """Resolve a tuple reference: a file path (read at the profile's
    Hermitian tolerance), a fixture name, or 'zeros'."""
    if ref == "zeros":
        if length_hint is None:
            raise ParameterError("'zeros' needs a pencil to infer the tuple length")
        return HermitianTuple(np.zeros((length_hint, 1, 1), dtype=complex))
    from .fixtures import fixture_names, load_fixture
    from .tupleio import read_tuple
    if os.path.exists(ref):
        return read_tuple(ref, tol)[0]
    if ref in fixture_names():
        return load_fixture(ref)[0]
    raise TupleFormatError(f"{ref!r} is neither a file nor a known fixture")


def _write(path, tup, comment):
    """Write a tuple file; a failed write raises ``_OutputError``."""
    from .tupleio import write_tuple
    try:
        write_tuple(path, tup, comment=comment)
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(report, as_json):
    if as_json:
        report = {key: _jsonable(value) for key, value in report.items()}
        print(json.dumps(report, indent=1, sort_keys=True, default=str, allow_nan=False))
        return
    width = max(len(k) for k in report)
    for key, value in report.items():
        print(f"{key.ljust(width)}  {_human(value)}")


def _jsonable(value):
    """A flattened report value as strict JSON data: arrays as lists, complex
    numbers as [re, im], non-finite floats as "inf", "-inf" or "nan"."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, complex):
        return [_jsonable(value.real), _jsonable(value.imag)]
    return str(value) if isinstance(value, float) and not np.isfinite(value) else value


def _human(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, np.ndarray):
        return np.array2string(value, precision=6)
    return str(value)


def _flatten(report):
    flat = {}
    for key, value in report.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{inner}": v for inner, v in value.items()})
        else:
            flat[key] = value
    return flat


def _verdict_code(verdict):
    """The exit code of a membership verdict: 1 refuted, 2 accepted by a
    one-sided search, 0 accepted."""
    if not verdict.member:
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE if verdict.heuristic else EXIT_OK


def _run(args):
    """Run one command; returns its report and exit code.  The command
    fills in its inputs, verdicts, margins and residuals; the rest of the
    report is the same for every command."""
    tol = _tolerances(args)
    seed = _seed(args)
    start = time.perf_counter()
    report = {"command": args.command, "inputs": {}, "verdicts": {}, "margins": {},
              "residuals": {}, "tolerances": dataclasses.asdict(tol), "seed": seed,
              "wall_time": 0.0}
    code = _command(args, tol, seed, report)
    report["wall_time"] = time.perf_counter() - start
    return report, code


def _command(args, tol, seed, report):
    """Fill in ``report`` for one command and return its exit code."""
    if args.command == "fixture":
        from .fixtures import load_fixture
        tup, comment = load_fixture(args.name)
        _write(args.out, tup, comment)
        report.update(inputs={"name": args.name, "out": args.out},
                      verdicts={"written": True, "size": tup.n, "length": tup.g})
        return EXIT_OK

    if args.command in ("membership", "extreme", "dilate"):
        A = Pencil(_load(args.pencil, tol))
        X = _load(args.point, tol, length_hint=A.g)
        report["inputs"] = {"pencil": args.pencil, "point": args.point}

    if args.command == "membership":
        verdict = membership(A, X, tol)
        report.update(verdicts={"member": verdict.member, "boundary": verdict.boundary,
                                "kernel_dim": verdict.kernel_dim},
                      margins={"min_eigenvalue": verdict.margin})
        return _verdict_code(verdict)

    if args.command == "extreme":
        from .extremality import Verdict, classify
        cert = classify(A, X, tol)
        report.update(verdicts={"verdict": cert.verdict.value,
                                "kernel_dim": cert.kernel_dim,
                                "commutant_dim": cert.commutant_dim,
                                "column_nullity": cert.beta_nullity_column,
                                "hermitian_nullity": cert.beta_nullity_hermitian,
                                "caveats": list(cert.caveats)},
                      margins={"min_eigenvalue": cert.min_eigenvalue},
                      residuals=cert.residuals)
        return EXIT_OK if cert.verdict == Verdict.FREE else EXIT_REFUTED

    if args.command == "dilate":
        from .extremality import arveson_dilate
        result = arveson_dilate(A, X, tol=tol)
        if args.out and result.success:
            _write(args.out, result.point, "arveson dilation output")
        report["verdicts"] = {"success": result.success, "steps": len(result.steps),
                              "final_size": result.size,
                              "failure_reason": result.failure_reason}
        return EXIT_OK if result.success else EXIT_INCONCLUSIVE

    if args.command == "spin":
        from .spin import anticommutation_residual, spin_tuple
        tup = spin_tuple(args.g)
        residual = anticommutation_residual(tup)
        if args.out:
            _write(args.out, tup, f"spin tuple of length {args.g}")
        report.update(inputs={"g": args.g, "out": args.out},
                      verdicts={"size": tup.n, "length": tup.g},
                      residuals={"anticommutation_residual": residual})
        return EXIT_OK

    if args.command in ("choi", "dual"):
        from .duality import FullSpanBasis, choi_membership, dual_pencil
        basis = FullSpanBasis(_load(args.basis, tol), tol)

    if args.command == "choi":
        verdict = choi_membership(basis, _load(args.point, tol, length_hint=basis.g), tol)
        report.update(inputs={"basis": args.basis, "point": args.point},
                      verdicts={"member": verdict.member, "boundary": verdict.boundary,
                                "kernel_dim": verdict.kernel_dim},
                      margins={"min_eigenvalue": verdict.margin},
                      residuals={"reconstruction_residual": basis.reconstruction_residual()})
        return _verdict_code(verdict)

    if args.command == "dual":
        B = dual_pencil(basis, tol)
        _write(args.out, B, f"dual pencil of {args.basis}")
        report.update(inputs={"basis": args.basis, "out": args.out},
                      verdicts={"written": True, "size": B.n, "length": B.g})
        return EXIT_OK

    if args.command == "ball":
        from .ballsets import (matrix_ball_membership, qd_membership, selfdual_ball_membership,
                               wmax_ball_membership)
        X = _load(args.point, tol)
        if args.set == "matrix":
            verdict = matrix_ball_membership(X, tol)
        elif args.set == "selfdual":
            verdict = selfdual_ball_membership(X, tol)
        else:
            estimate = wmax_ball_membership if args.set == "wmax" else qd_membership
            verdict = estimate(X, seed=seed, tol=tol)
        report.update(inputs={"set": args.set, "point": args.point},
                      verdicts={"member": verdict.member, "heuristic": verdict.heuristic,
                                "witness_direction":
                                    None if verdict.witness is None else verdict.witness.tolist()},
                      margins={"margin": verdict.margin})
        return _verdict_code(verdict)

    if args.command == "drop":
        from .drops import project_membership_special, witness_search
        pencil = Pencil(_load(args.pencil, tol))
        # 'zeros' takes --keep's length, clamped to 1..g so that a bad --keep
        # builds nothing; a point of any other length is refused.
        X = _load(args.point, tol, length_hint=min(max(args.keep, 1), pencil.g))
        if len(X) != args.keep:
            raise _UsageError(f"--keep {args.keep} but the point has length {len(X)}")
        inputs = {"pencil": args.pencil, "keep": args.keep, "point": args.point}
        try:
            verdict = project_membership_special(pencil, X, tol, seed=seed)
        except UnsupportedCaseError:
            result = witness_search(pencil, X, seed=seed, tol=tol)
            report.update(inputs={**inputs, "mode": "witness-search"},
                          verdicts={"witness_found": result.found,
                                    "restarts_used": result.restarts_used},
                          margins={"best_infeasibility": result.best_infeasibility})
            return EXIT_OK if result.found else EXIT_INCONCLUSIVE
        report.update(inputs={**inputs, "mode": "registered-exact"},
                      verdicts={"member": verdict.member, "boundary": verdict.boundary,
                                "heuristic": verdict.heuristic,
                                "witness_direction": verdict.witness},
                      margins={"min_eigenvalue": verdict.margin})
        return _verdict_code(verdict)

    if args.command == "hull":
        from .drops import level1_hull_membership
        generators = [_load(ref, tol) for ref in args.generator]
        y = np.array(args.point.split(","), dtype=float)
        verdict = level1_hull_membership(generators, y, seed=seed, tol=tol)
        report.update(inputs={"generators": list(args.generator), "point": args.point},
                      verdicts={"member": verdict.member, "heuristic": verdict.heuristic,
                                "separating_direction":
                                    None if verdict.witness is None else verdict.witness.tolist()},
                      margins={"margin": verdict.margin})
        return _verdict_code(verdict)

    if args.command == "chain":
        from .ballsets import containment_chain_experiment
        result = containment_chain_experiment(args.g, samples=args.samples,
                                              seed=seed, tol=tol)
        report.update(inputs={"g": args.g, "samples": args.samples},
                      verdicts={"violations": list(result.violations),
                                "witness_in_matrix_ball": result.witness_in_matrix_ball,
                                "notes": list(result.notes)},
                      margins={"witness_pencil_top": result.witness_pencil_top_eigenvalue})
        return EXIT_OK if not result.violations else EXIT_REFUTED

    if args.command == "verify-paper":
        from .acceptance import run_acceptance
        results = run_acceptance(tol=tol, seed=seed)
        for r in results:  # keep a --json stdout one JSON document
            print(r.line(), file=sys.stderr if args.json else sys.stdout)
        report["verdicts"] = {f"criterion_{r.number}": "pass" if r.passed else "FAIL"
                              for r in results}
        report["all_passed"] = all(r.passed for r in results)
        return EXIT_OK if report["all_passed"] else EXIT_REFUTED

    raise _UsageError(f"unknown command {args.command!r}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
        report, code = _run(args)
        _emit(_flatten(report), args.json)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TupleFormatError as exc:
        print(f"tuple file error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FreespecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout (``| head``, say).  Point stdout at
        # devnull so that the flush at exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("output error: stdout was closed before the report was written",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:
        # Exit 1 is reserved for certified refutations: any other failure
        # (a LAPACK error, say) is reported as numerical.
        detail = " ".join(str(exc).split())
        print(f"numerical failure: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
