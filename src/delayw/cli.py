"""Command-line front end: evaluate W, list spectra, design gains,
cross-check, and simulate.

Every command prints a JSON envelope on stdout::

    {"schema_version": "1", "command": ..., "inputs": ...,
     "result": ..., "warnings": [...]}

with the parsed inputs echoed back and every numeric rendered with 17
significant digits, so identical flags produce byte-identical output.
The one non-JSON mode is ``spectrum --format csv``, which emits a bare
root table instead (header ``branch,re,im,multiplicity``).

Exit codes: 0 success, 2 invalid input, 3 infeasible assignment,
4 verification mismatch.
"""

import argparse
import json
import math
import sys

from .assign import _MODES
from .errors import (
    AlphaOutOfRange,
    ConditionViolated,
    DelayWError,
    DomainError,
    InsufficientData,
    MismatchDetected,
    NonFiniteInput,
    NotAssignableAsRightmost,
)
from .lambertw import lambert_w
from .oracle import cross_validate
from .sim import (
    ConstantHistory,
    InitialData,
    LinearHistory,
    estimate_dominant_eig_detailed,
    simulate,
)
from .spectrum import ClosedLoopParams, Gains, SystemParams, close_loop, spectrum

SCHEMA_VERSION = "1"

COMPLEX_GRAMMAR = (
    'complex literal: "<re>", "<im>i", or "<re>+<im>i" / "<re>-<im>i"; '
    'spaces and scientific notation allowed, "j" accepted for "i" '
    '(examples: "-1", "2i", "-0.092484+1.9973i", "1e-2-2.5e+1i")'
)


def parse_complex(text):
    """Parse the documented complex-literal grammar into a complex."""
    t = text.replace(" ", "").replace("I", "i").replace("J", "j").replace("i", "j")
    if not t:
        raise DomainError("empty complex literal")
    # complex() rejects a bare trailing j without a mantissa ("1+j", "-j")
    if t.endswith("j") and (len(t) == 1 or t[-2] in "+-"):
        t = t[:-1] + "1j"
    try:
        val = complex(t)
    except ValueError:
        raise DomainError(f"cannot parse {text!r}; expected {COMPLEX_GRAMMAR}") from None
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise NonFiniteInput(f"complex literal must be finite, got {text!r}")
    return val


# ---------------------------------------------------------------------------
# JSON emission with a fixed numeric format


def _g(x):
    return "%.17g" % x


def _dump(obj, indent=0):
    """Render obj as indented JSON: a complex as {"re", "im"}, a record
    as its fields in declaration order, a tuple like a list."""
    pad = "  " * indent
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    elif hasattr(obj, "_asdict"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = (f"{pad}  {json.dumps(k)}: {_dump(v, indent + 1)}" for k, v in obj.items())
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = (f"{pad}  {_dump(v, indent + 1)}" for v in obj)
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        # JSON has no inf/nan literals; those only reach here inside
        # mismatch reports, as strings they stay machine-readable
        return _g(obj) if math.isfinite(obj) else json.dumps(repr(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _inputs_echo(args):
    return {key: val for key, val in sorted(vars(args).items())
            if key not in ("command", "handler") and val is not None}


# exception attribute -> error payload key, in output order
_ERROR_FIELDS = (("residual", "residual"), ("margin", "margin"), ("gains", "would_be_gains"),
                 ("closed_loop", "would_be_closed_loop"), ("window", "admissible_v"))


def _error_payload(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for attr, key in _ERROR_FIELDS:
        val = getattr(exc, attr, None)
        if val is not None:
            payload[key] = val
    report = getattr(exc, "report", None)
    if report is not None:
        # CrossValidation declares rect first; the payload puts it last
        for key in ("spectrum_count", "oracle_count", "max_distance", "rect"):
            payload[key] = getattr(report, key)
    return payload


def _exit_code(exc):
    if isinstance(exc, MismatchDetected):
        return 4
    if isinstance(exc, (NotAssignableAsRightmost, ConditionViolated, AlphaOutOfRange)):
        return 3
    return 2


# ---------------------------------------------------------------------------
# shared flag handling


def _add_loop_flags(p):
    p.add_argument("--a", type=float, help="plant current-state coefficient")
    p.add_argument("--a1d", type=float, help="plant delayed-state coefficient")
    p.add_argument("--b", type=float, help="plant input gain")
    p.add_argument("--k", type=float, help="current-state feedback gain (default 0)")
    p.add_argument("--k1d", type=float, help="delayed-state feedback gain (default 0)")
    p.add_argument("--alpha", type=float, help="closed-loop current coefficient")
    p.add_argument("--beta", type=float, help="closed-loop delayed coefficient")
    p.add_argument("--h", type=float, required=True, help="delay (positive)")


def _closed_loop_from(args):
    """Build ClosedLoopParams from either flag form.

    Direct form: --alpha --beta --h.  Plant form: --a --a1d --b --h with
    optional gains --k --k1d (omitted gains mean the open loop).
    """
    direct = args.alpha is not None or args.beta is not None
    plant = any(getattr(args, name) is not None for name in ("a", "a1d", "b", "k", "k1d"))
    if direct and plant:
        raise DomainError(
            "give either --alpha --beta --h or --a --a1d --b --h [--k --k1d], not a mix"
        )
    if direct:
        if args.alpha is None or args.beta is None:
            raise DomainError("closed-loop form needs both --alpha and --beta")
        return ClosedLoopParams(args.alpha, args.beta, args.h)
    missing = [f"--{name}" for name in ("a", "a1d", "b") if getattr(args, name) is None]
    if missing:
        raise DomainError(f"plant form needs {' '.join(missing)}")
    sysp = SystemParams(args.a, args.a1d, args.b, args.h)
    k = args.k if args.k is not None else 0.0
    k1d = args.k1d if args.k1d is not None else 0.0
    return close_loop(sysp, Gains(k=k, k1d=k1d))


# ---------------------------------------------------------------------------
# commands


def cmd_wk(args):
    return lambert_w(args.branch, complex(args.re, args.im), tol=args.tol), []


def cmd_spectrum(args):
    cl = _closed_loop_from(args)
    sp = spectrum(cl, args.branches)
    if args.format == "csv":
        rows = (f"{r.branch},{_g(r.s.real)},{_g(r.s.imag)},{r.multiplicity}" for r in sp.roots)
        return "\n".join(("branch,re,im,multiplicity", *rows)) + "\n", []
    margin = sp.rightmost.real
    return {
        "closed_loop": cl,
        "roots": [
            {"branch": r.branch, "re": r.s.real, "im": r.s.imag, "multiplicity": r.multiplicity}
            for r in sp.roots
        ],
        "rightmost": sp.rightmost,
        "stable": margin < 0.0,
        "margin": margin,
    }, []


def _target_from(args):
    literal = args.target is not None
    parts = args.target_re is not None or args.target_im is not None
    if literal and parts:
        raise DomainError("give --target or --target-re/--target-im, not both")
    if literal:
        return parse_complex(args.target)
    if args.target_re is None:
        raise DomainError("a target is required: --target or --target-re [--target-im]")
    return complex(args.target_re, args.target_im if args.target_im is not None else 0.0)


_ASSIGNERS = {fn.__name__.removeprefix("assign_").replace("_", "-"): fn for _, fn in _MODES}


def cmd_assign(args):
    target = _target_from(args)
    a1d = args.a1d if args.a1d is not None else 0.0
    sysp = SystemParams(args.a, a1d, args.b, args.h, input_delay=args.input_delay)
    if args.alpha is not None and args.mode != "real-both":
        raise DomainError("--alpha selects the decay coefficient for --mode real-both only")
    assign = _ASSIGNERS[args.mode]
    res = assign(sysp, target) if args.alpha is None else assign(sysp, target, alpha_choice=args.alpha)
    sp = spectrum(res.closed_loop, args.branches)
    return {
        "mode": res.mode.value,
        "gains": res.gains,
        "closed_loop": res.closed_loop,
        "predicted_rightmost": res.predicted_rightmost,
        "certificate": res.certificate,
        "confirmation": {
            "branches": args.branches,
            "rightmost": sp.rightmost,
            "distance_to_target": abs(sp.rightmost - res.predicted_rightmost),
        },
    }, []


def cmd_verify(args):
    cl = _closed_loop_from(args)
    report = cross_validate(cl, args.branches, match_tol=args.match_tol)
    return {
        "match": True,
        "spectrum_count": report.spectrum_count,
        "oracle_count": report.oracle_count,
        "max_distance": report.max_distance,
        "match_tol": args.match_tol,
        "rect": report.rect,
    }, []


def _history_from(text, x0):
    if text is None:
        return ConstantHistory(x0)
    kind, sep, rest = text.partition(":")
    if not sep:
        raise DomainError('history must look like "const:<c>" or "linear:<c0>,<c1>"')
    try:
        if kind == "const":
            return ConstantHistory(float(rest))
        if kind == "linear":
            c0, c1 = (float(part) for part in rest.split(","))
            return LinearHistory(c0, c1)
    except ValueError:
        raise DomainError(f"cannot parse history {text!r}") from None
    raise DomainError(f"unknown history form {kind!r}; use const: or linear:")


def cmd_simulate(args):
    cl = _closed_loop_from(args)
    init = InitialData(args.x0, _history_from(args.phi, args.x0))
    traj = simulate(cl, init, args.tfinal, args.step)
    warnings = []
    if traj.truncated:
        warnings.append(
            f"trajectory truncated at t = {_g(traj.times[-1])}: |x| reached the overflow limit"
        )
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(traj.to_csv())
        except OSError as exc:
            raise DomainError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    prediction = spectrum(cl, 0).rightmost
    result = {
        "n_samples": len(traj.times),
        "step": traj.step,
        "t_end": traj.times[-1],
        "truncated": traj.truncated,
        "csv_path": args.out,
        "predicted_rightmost": prediction,
        "estimate": None,
        "deviation": None,
    }
    try:
        est = estimate_dominant_eig_detailed(traj)
    except InsufficientData as exc:
        warnings.append(f"estimate unavailable: {exc}")
    else:
        result["estimate"] = est
        result["deviation"] = abs(est.value - prediction)
    return result, warnings


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="delayw",
        description="Spectra, stability, and eigenvalue assignment for x'(t) = alpha*x(t) + beta*x(t-h).",
        epilog="exit codes: 0 ok, 2 invalid input, 3 infeasible assignment, 4 verification mismatch",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wk", help="evaluate one branch of the Lambert W function")
    p.add_argument("--branch", type=int, required=True, help="branch index k")
    p.add_argument("--re", type=float, required=True, help="Re z")
    p.add_argument("--im", type=float, default=0.0, help="Im z (default 0)")
    p.add_argument("--tol", type=float, default=1e-14, help="residual tolerance")
    p.set_defaults(handler=cmd_wk)

    p = sub.add_parser("spectrum", help="enumerate characteristic roots by branch")
    _add_loop_flags(p)
    p.add_argument("--branches", type=int, default=4, help="branch pairs to include (default 4)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser(
        "assign",
        help="design feedback gains placing the rightmost eigenvalue",
        epilog="target grammar: " + COMPLEX_GRAMMAR,
    )
    p.add_argument("--a", type=float, required=True, help="plant current-state coefficient")
    p.add_argument("--a1d", type=float, help="plant delayed-state coefficient (default 0)")
    p.add_argument("--b", type=float, required=True, help="plant input gain (nonzero)")
    p.add_argument("--h", type=float, required=True, help="delay (positive)")
    p.add_argument("--input-delay", action="store_true", help="plant is x' = a*x + b*u(t-h)")
    p.add_argument("--target", help="desired rightmost eigenvalue, " + COMPLEX_GRAMMAR)
    p.add_argument("--target-re", type=float, help="real part of the target")
    p.add_argument("--target-im", type=float, help="imaginary part of the target (default 0)")
    p.add_argument(
        "--mode",
        choices=tuple(_ASSIGNERS),
        default="both",
        help="which gains carry the design (default: both)",
    )
    p.add_argument("--alpha", type=float, help="decay coefficient choice for --mode real-both")
    p.add_argument("--branches", type=int, default=3, help="branches for the confirmation spectrum")
    p.set_defaults(handler=cmd_assign)

    p = sub.add_parser("verify", help="cross-check the spectrum against the counting oracle")
    _add_loop_flags(p)
    p.add_argument("--branches", type=int, default=4, help="branch pairs to verify (default 4)")
    p.add_argument("--match-tol", type=float, default=1e-8, help="per-root match tolerance")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("simulate", help="integrate the loop and estimate the dominant eigenvalue")
    _add_loop_flags(p)
    p.add_argument("--x0", type=float, default=1.0, help="state at t = 0 (default 1)")
    p.add_argument(
        "--phi",
        help='history on [-h, 0): "const:<c>" or "linear:<c0>,<c1>" '
        "with phi(t) = c0 + c1*t (default: const:<x0>)",
    )
    p.add_argument("--tfinal", type=float, required=True, help="integration horizon (>= h)")
    p.add_argument("--step", type=float, help="target step, snapped to divide h (default h/1000)")
    p.add_argument("--out", help="write the trajectory CSV (header t,x) to this path")
    p.set_defaults(handler=cmd_simulate)

    return parser


def _glue_target(argv):
    """Join "--target -1+2i" into "--target=-1+2i".

    argparse would otherwise read a leading minus as an option prefix
    and reject the value.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--target" and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(_glue_target(argv))
    code, warnings = 0, []
    try:
        result, warnings = args.handler(args)
    except DelayWError as exc:
        code, result = _exit_code(exc), _error_payload(exc)
    if isinstance(result, str):
        # csv mode bypasses the envelope
        print(result, end="")
        return code
    print(_dump({
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": _inputs_echo(args),
        "result": result,
        "warnings": warnings,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
