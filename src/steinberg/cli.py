"""Command-line interface.

Every subcommand prints one JSON envelope {command, inputs, result, version}
on stdout (or a human-readable rendering with --pretty) and exits 0 when the
requested check passes or certifies, 1 on a mathematical failure, 2 on bad
usage or malformed input.  The library checks every argument it is given, so
exit 2 is any `ValueError`: a composite p or ell, a negative bound, a zero
twist, a discriminant or level that `factorize` cannot factor into proven
primes, a bound above the sieve limit `arith.MAX_SIEVE_BOUND`.  The library's
parsers read curves and twists as argv is read, so an error names its argument,
and `inputs` echoes the parsed arguments (curves as lists, a twist as {"modulus": d}).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .arith import is_prime
from .certificates import DEFAULT_SEARCH_BOUND, Conclusion, check_theorem_a, validate_pair
from .congruence import QuadraticCharacter, certify_congruence, index_gamma0, sturm_bound
from .dataset import parse_curve_file, scan_level
from .frobenius import ap_table
from .local_reduction import conductor, steinberg_primes, tate_local
from .weierstrass import WeierstrassModel, parse_curve

__all__ = ["run", "main"]

# the worked pair: opposite signs at 19, congruent mod 5 after twisting by 19
_EXAMPLE_A = "[1,1,1,-614,-5501]"
_EXAMPLE_B = "[1,-1,1,-1191,507615]"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); surface it instead
        raise ValueError(message)


def _argument(parse):
    """An argparse `type` that keeps the library's reason for refusing the text."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:  # argparse would print only "invalid <type> value"
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_curve = _argument(parse_curve)
_twist = _argument(lambda text: QuadraticCharacter(int(text)))


def _cmd_localdata(args):
    model = args.curve
    primes = model.bad_primes if args.prime is None else [args.prime]
    return {
        "conductor": conductor(model),
        "local_data": [tate_local(model, p).to_dict() for p in primes],
        "steinberg_primes": [[p, sign] for p, sign in steinberg_primes(model)],
    }, 0


def _cmd_ap(args):
    return ap_table(args.curve, args.bound).to_dict(), 0


def _cmd_check_theorem(args):
    verdict = check_theorem_a(args.curve, args.p, args.ell, args.search_bound)
    return verdict.to_dict(), 0 if verdict.conclusion is Conclusion.EXISTENCE_CERTIFIED else 1


def _cmd_sturm(args):
    return {
        "level": args.level,
        "weight": args.weight,
        "index": index_gamma0(args.level),
        "sturm_bound": sturm_bound(args.level, args.weight),
    }, 0


def _cmd_certify(args):
    cert = certify_congruence(args.curve_a, args.curve_b, args.ell, args.twist)
    return cert.to_dict(), 0 if cert.passed else 1


def _read_table(path):
    """The table's records, read lazily: `scan_level` checks p and ell first."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield from parse_curve_file(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _cmd_scan(args):
    if args.twist is None:  # the default twist is by p, which is known only now
        args.twist = QuadraticCharacter(args.p)
    report = scan_level(_read_table(args.file), args.p, args.ell, args.twist)
    return report.to_dict(), 0 if report.candidates else 1


def _cmd_paper_example(args):
    # the fixed inputs, echoed like parsed ones; built per call, so no memo outlives it
    args.curve_a, args.curve_b = model_a, model_b = parse_curve(_EXAMPLE_A), parse_curve(_EXAMPLE_B)
    args.p, args.ell, args.twist = p, ell, twist = 19, 5, QuadraticCharacter(19)
    verdict = check_theorem_a(model_a, p, ell)
    cert = certify_congruence(model_a, model_b, ell, twist)
    consistency = validate_pair(model_a, model_b, p, cert)
    result = {
        "local_data_a": [tate_local(model_a, q).to_dict() for q in model_a.bad_primes],
        "local_data_b": [tate_local(model_b, q).to_dict() for q in model_b.bad_primes],
        "verdict": verdict.to_dict(),
        "congruence": cert.to_dict(),
        "pair_consistency": consistency.to_dict(),
    }
    ok = (
        verdict.conclusion is Conclusion.EXISTENCE_CERTIFIED
        and cert.passed
        and consistency.consistent
    )
    return result, 0 if ok else 1


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human-readable output instead of JSON")

    parser = _Parser(prog="steinberg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("localdata", parents=[common], help="reduction data at the bad primes")
    sp.add_argument("curve", type=_curve, help="curve as [a1,a2,a3,a4,a6]")
    sp.add_argument("--prime", type=int, default=None, help="restrict to one prime")
    sp.set_defaults(handler=_cmd_localdata, render=_pretty_localdata)

    sp = sub.add_parser("ap", parents=[common], help="table of a_p up to a bound")
    sp.add_argument("curve", type=_curve)
    sp.add_argument("--bound", type=int, required=True)
    sp.set_defaults(handler=_cmd_ap, render=_pretty_ap)

    sp = sub.add_parser("check-theorem", parents=[common], help="run the existence test at (p, ell)")
    sp.add_argument("curve", type=_curve)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--search-bound", type=int, default=DEFAULT_SEARCH_BOUND)
    sp.set_defaults(handler=_cmd_check_theorem, render=_pretty_check_theorem)

    sp = sub.add_parser("sturm", parents=[common], help="Sturm bound for Gamma_0(level)")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--weight", type=int, default=2)
    sp.set_defaults(handler=_cmd_sturm, render=_pretty_sturm)

    sp = sub.add_parser("certify", parents=[common], help="certify a twisted congruence mod ell")
    sp.add_argument("curve_a", type=_curve)
    sp.add_argument("curve_b", type=_curve)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--twist", type=_twist, default="1", help="Kronecker modulus of the twist (default trivial)")
    sp.set_defaults(handler=_cmd_certify, render=_pretty_certify)

    sp = sub.add_parser("scan", parents=[common], help="scan a curve table for opposite-sign pairs")
    sp.add_argument("file")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--twist", type=_twist, default=None, help="Kronecker modulus (default: p)")
    sp.set_defaults(handler=_cmd_scan, render=_pretty_scan)

    sp = sub.add_parser("paper-example", parents=[common], help="run the built-in worked example end to end")
    sp.set_defaults(handler=_cmd_paper_example, render=_pretty_paper_example)
    return parser


def _render_table(rows, out):
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip(), file=out)


def _pretty_localdata(result, out):
    print(f"conductor: {result['conductor']}", file=out)
    rows = [("p", "type", "v_min_disc", "f_p", "a_p")]
    for rec in result["local_data"]:
        rows.append((rec["p"], rec["reduction_type"], rec["v_min_disc"], rec["conductor_exponent"], rec["a_p"]))
    _render_table(rows, out)
    signs = ", ".join(f"{p}:{s:+d}" for p, s in result["steinberg_primes"])
    print(f"steinberg primes: {signs or '(none)'}", file=out)


def _pretty_ap(result, out):
    print(f"curve {result['curve']}, primes up to {result['bound']}:", file=out)
    for p, ap in result["entries"]:
        print(f"  a_{p} = {ap}", file=out)


def _pretty_check_theorem(result, out):
    print(f"curve {result['curve']}  p={result['p']}  ell={result['ell']}", file=out)
    checks = result["checks"]
    for name, ok in checks.items():
        if name != "irreducibility":
            print(f"  {name}: {'ok' if ok else 'FAILED'}", file=out)
    cert = checks["irreducibility"]
    if result["ell"] == 2:  # the witness search needs odd ell
        print("  irreducibility: not searched (ell = 2)", file=out)
    elif cert is None:
        print(f"  irreducibility: no witness up to q <= {result['search_bound']}", file=out)
    else:
        print(
            f"  irreducibility: q={cert['q']}, charpoly X^2 - {cert['charpoly'][0]}X + {cert['charpoly'][1]} "
            f"(disc {cert['disc_mod_ell']} mod {result['ell']} is a nonresidue)",
            file=out,
        )
    print(f"conclusion: {result['conclusion']}", file=out)


def _pretty_sturm(result, out):
    print(f"level {result['level']}, weight {result['weight']}", file=out)
    print(f"index of Gamma_0: {result['index']}", file=out)
    print(f"sturm bound: {result['sturm_bound']}", file=out)


def _pretty_certify(result, out):
    print(f"curves {result['curve_a']} ~ {result['curve_b']} (mod {result['ell']})", file=out)
    print(f"twist modulus: {result['twist']['modulus']}", file=out)
    print(f"twisted level {result['twisted_level']}, sturm bound {result['sturm_bound']}", file=out)
    print(
        f"primes checked: {result['primes_checked']}, excluded: {result['excluded_primes'] or '(none)'}",
        file=out,
    )
    if result["status"] == "pass":
        print("status: PASS", file=out)
    else:
        n, ta, tb = result["counterexample"]
        var = "p" if is_prime(n) else "n"  # a prime power where the reduction types differ
        print(f"status: FAIL at {var}={n} (a_{var} = {ta} vs {tb})", file=out)


def _pretty_scan(result, out):
    print(f"level {result['level']}, p={result['p']}, ell={result['ell']}, twist {result['twist']['modulus']}", file=out)
    if result["sign_table"]:
        print("signs at p:", file=out)
        for label, sign in result["sign_table"]:
            print(f"  {label}: {sign:+d}", file=out)
    for rec in result["skipped"]:
        print(f"skipped {rec['label']}: {rec['reason']}", file=out)
    for pair in result["candidates"]:
        a, b = pair["labels"]
        print(f"pair {a}, {b}: congruent mod {result['ell']} (PASS)", file=out)
    for note in result["notes"]:
        print(f"note: {note}", file=out)


def _pretty_paper_example(result, out):
    for name, key in (("A", "local_data_a"), ("B", "local_data_b")):
        local_data = result[key]
        print(f"== local data, curve {name} ==", file=out)
        _pretty_localdata(
            {
                "conductor": math.prod(r["p"] ** r["conductor_exponent"] for r in local_data),
                "local_data": local_data,
                "steinberg_primes": [[r["p"], r["a_p"]] for r in local_data if r["conductor_exponent"] == 1],
            },
            out,
        )
    print("== existence test ==", file=out)
    _pretty_check_theorem(result["verdict"], out)
    print("== congruence ==", file=out)
    _pretty_certify(result["congruence"], out)
    cons = result["pair_consistency"]
    print("== pair consistency ==", file=out)
    print(f"  p = -1 (mod ell): {'ok' if cons['p_is_minus_one_mod_ell'] else 'FAILED'}", file=out)
    print(f"  unramified at p: {'ok' if cons['unramified_at_p'] else 'FAILED'}", file=out)
    print(f"consistent: {cons['consistent']}", file=out)


def _plain(value):
    """JSON for a parsed argument: a curve as its coefficients, a twist as its record."""
    return list(value.a_invariants) if isinstance(value, WeierstrassModel) else value.to_dict()


def run(argv, stdout=None, stderr=None) -> int:
    """Entry point usable in-process; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        result, code = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 2
    if args.pretty:
        args.render(result, out)
    else:
        inputs = {k: v for k, v in vars(args).items() if k not in ("command", "pretty", "handler", "render")}
        envelope = {"command": args.command, "inputs": inputs, "result": result, "version": __version__}
        print(json.dumps(envelope, indent=2, default=_plain), file=out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
