"""Command-line entry point.

Every subcommand prints a single JSON run report on stdout:

    {"subcommand": ..., "parameters": ..., "results": ...,
     "status": "pass" | "fail" | "error", "elapsed": seconds}

Exit code 0 iff status is "pass".  Exact quantities are serialized as
strings (polynomials, rationals); floats are plainly floats.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from .qfock import parse_word, vacuum_expectation
from .qpoly import QPoly
from .wick import wick_expectation

# Every other quonlib module is imported by the subcommand that drives it,
# when it runs: numpy alone costs most of an interpreter's start-up, and
# only the commands that compute in floats load it.


class ResultSizeError(ValueError):
    """An exact result has an integer too long for a report to print."""


def _jsonable(obj):
    if isinstance(obj, (QPoly, Fraction)):
        try:
            return str(obj)
        except ValueError:      # Python's int_max_str_digits
            raise ResultSizeError(
                f"an exact result has an integer of more than "
                f"{sys.get_int_max_str_digits()} digits, the printable-result "
                f"limit of a report") from None
    if isinstance(obj, dict):
        return {_key(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):      # numpy scalars and arrays
        return obj.tolist()
    return obj


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


# largest |exponent| of a decimal literal a rational option takes, far past
# the bounds quoted (1.7e-26); Fraction would build 10^|exponent| first
EXPONENT_LIMIT = 4000
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _rational(text):
    """A rational option's value as a Fraction, refusing a decimal exponent
    past EXPONENT_LIMIT before Fraction builds its power of ten."""
    match = _EXPONENT.search(text)
    if match and abs(int(match.group(1))) > EXPONENT_LIMIT:
        raise ValueError(f"exponent of {text!r} is past the limit of "
                         f"{EXPONENT_LIMIT}")
    return Fraction(text)


# -- subcommand implementations (each returns (results, passed)) -----------
# passed is None for an error whose results still stand: a verify-all
# criterion that raised


def _cmd_vev(args):
    word = parse_word(args.word)
    rewrite = vacuum_expectation(word)
    wick = wick_expectation(word)
    ok = rewrite == wick
    return {"word": args.word, "rewrite": rewrite, "wick": wick,
            "methods_agree": ok, "value": rewrite}, ok


def _cmd_gram(args):
    from . import gram
    # the exact determinant first: its range 1..EXACT_LIMIT is the narrower
    det = gram.det_gram_exact(args.n) if args.exact else None
    row = gram.exponent_row(args.n)
    results = {"n": args.n, "dim": len(row)}
    if args.exact:
        results["det_poly"] = det
        results["match"] = det == gram.zagier_determinant(args.n)
    if args.at is not None:
        import numpy as np
        # a power past the float range is inf, which the report refuses
        with np.errstate(over="ignore"):
            powers = np.vander([args.at], max(row.values()) + 1,
                               increasing=True)[0].tolist()
        results["row_at_q"] = {w: powers[e] for w, e in row.items()}
    if not args.exact and args.at is None:
        results["row"] = {w: QPoly.monomial(e) for w, e in row.items()}
    return results, results.get("match", True)


def _cmd_zagier(args):
    from . import gram
    det = gram.det_gram_exact(args.n)
    zag = gram.zagier_determinant(args.n)
    results = {"n": args.n, "det_poly": zag,
               "factors": gram.zagier_factors(args.n),
               "match": det == zag}
    return results, results["match"]


def _cmd_positivity(args):
    import numpy as np

    from . import gram
    samples = list(np.linspace(args.lo, args.hi, args.samples))
    scan = gram.positivity_scan(args.n, samples)
    ok = gram.all_positive(scan)
    return {"n": args.n,
            "eigen_table": [{"q": q, "min_eigenvalue": e} for q, e in scan],
            "all_positive": ok}, ok


def _cmd_observables(args):
    from . import observables
    modes = tuple(range(args.modes))
    if args.check == "commutator":
        rep = observables.check_commutators(modes, args.cap)
        return {"check": "commutator", **rep}, rep["all_exact"]
    if args.check == "locality":
        ok = observables.check_locality(modes, args.cap)["all_exact"]
        return {"check": "locality", "all_exact": ok}, ok
    energies = {k: Fraction(k + 1) for k in modes}
    rep = observables.check_free_hamiltonian(modes, args.cap, energies)
    return {"check": "hamiltonian", "energies": energies,
            "diagonal_exact": rep["exact"]}, rep["exact"]


def _cmd_para(args):
    from . import parastat
    kind = "parabose" if args.kind == "bose" else "parafermi"
    # occupancy builds the modes its words touch, and a cap changes only
    # the parabose trilinear check, where it sets the protected states
    reads = () if args.check == "occupancy" else ("modes",)
    if (args.kind, args.check) == ("bose", "trilinear"):
        reads += ("cap",)
    for name in ("modes", "cap"):
        if name not in reads and getattr(args, name) is not None:
            raise ValueError(f"--kind {args.kind} --check {args.check} "
                             f"does not read --{name}")
    if args.check == "occupancy":
        return parastat.check_occupancy(kind, args.p)
    # the report's parameters give the mode count the check read
    if args.modes is None:
        args.modes = 2
    if "cap" in reads and args.cap is None:
        raise ValueError(f"--kind {args.kind} --check {args.check} "
                         f"needs --cap")
    # the vacuum check creates one quantum, which cap 1 holds
    cap = args.cap if args.check == "trilinear" else 1
    r = parastat.build_green(kind, args.p, args.modes, cap=cap)
    if args.check == "trilinear":
        rep = parastat.check_trilinear(r)
        return rep, rep["exact"]
    rep = parastat.check_vacuum_conditions(r)
    return rep, rep["pass"]


def _cmd_gentile(args):
    from . import parastat
    rep = parastat.gentile_demo(args.theta)
    ok = rep["parafermi_sector_vanishes"]
    return rep, ok


def _cmd_speicher(args):
    from . import speicher
    word = parse_word(args.word)
    est, target, tol, ok = speicher.check_estimate(
        word, args.q, args.N, args.samples, args.seed)
    sigmas = abs(est.mean - target) / est.stderr if est.stderr else 0.0
    return {"mean": est.mean, "stderr": est.stderr, "target": target,
            "sigmas": sigmas, "tolerance": tol, "samples": est.samples,
            "N": args.N,
            "diagrams": est.diagrams,
            "crossing_edges": est.crossing_edges,
            "multiply_adds": est.multiply_adds}, ok


def _cmd_bounds(args):
    from . import bounds
    if args.bounds_cmd == "convert":
        if args.vf is not None:
            v = _rational(args.vf)
            q = bounds.q_from_v(v, bounds.FERMIONIC)
            res = {"v_f": v, "q": q, "q_float": float(q)}
        elif args.vb is not None:
            v = _rational(args.vb)
            q = bounds.q_from_v(v, bounds.BOSONIC)
            res = {"v_b": v, "q": q, "q_float": float(q)}
        else:
            q = _rational(args.q)
            res = {"q": q,
                   "v_f": bounds.v_from_q(q, bounds.FERMIONIC),
                   "v_b": bounds.v_from_q(q, bounds.BOSONIC)}
        return res, True
    if args.bounds_cmd == "propagate":
        prop = bounds.propagate_statistics(_rational(args.qe))
        return {"q_e": prop.q_fermionic,
                "q_gamma": float(prop.q_bosonic_exact),
                "q_gamma_exact": prop.q_bosonic_exact,
                "q_gamma_leading": prop.q_bosonic_leading,
                "v_gamma_exact": prop.v_bosonic_exact,
                "v_gamma_leading": prop.v_bosonic_leading}, True
    if args.bounds_cmd == "composite":
        q = _rational(args.q)
        qc = bounds.composite_q(q, args.n)
        return {"q_constituent": q, "n": args.n,
                "q_composite": qc, "q_composite_float": float(qc)}, True
    if args.bounds_cmd == "overlap":
        exact, approx = bounds.compositeness_overlap(args.la, args.lb)
        return {"exact_norm_sq": exact, "approx_norm_sq": approx}, True
    momenta = tuple(int(x) for x in args.momenta.split(","))
    rep = bounds.conservation_residual_check(
        _rational(args.qe), momenta, max_particles=args.cap)
    return rep, rep["sweep"]["passed"]


def _cmd_verify_all(args):
    from . import verify
    rep = verify.run_all()
    if args.stable_output:      # before stderr prints them, too
        rep["elapsed"] = 0.0
        for c in rep["criteria"]:
            c["elapsed"] = 0.0
    for c in rep["criteria"]:
        line = "ERROR" if "error" in c else "PASS" if c["passed"] else "FAIL"
        print(f"[{line}] criterion {c['id']}: {c['name']} "
              f"({c['elapsed']}s)", file=sys.stderr)
    if any("error" in c for c in rep["criteria"]):
        return rep, None
    return rep, rep["passed"]


# -- argument parsing ------------------------------------------------------


def _finite(text):
    """A float option's value; nan and inf have no JSON form in a report."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int_at_least(low, kind, limit=None):
    """The type of an integer option whose values below low, or above
    limit() when a limit is given, are usage errors that name the option."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}")
        if limit is not None and value > limit():
            raise argparse.ArgumentTypeError(
                f"above the limit of {limit()}: {text!r}")
        return value
    return integer


def _max_samples():
    # imported only when --samples is given: speicher loads numpy, which
    # the speicher command loads anyway
    from .speicher import MAX_SAMPLES
    return MAX_SAMPLES


def _gram():
    # imported when an option of gram, zagier or positivity is checked
    # against its limit: those commands import gram anyway, and gram
    # loads no numpy
    from . import gram
    return gram


# a check over no modes, no particles or no samples would pass over nothing
_positive = _int_at_least(1, "a positive integer")


def build_parser():
    p = argparse.ArgumentParser(
        prog="quon",
        description="Exact quon-algebra computations and verification checks")
    p.add_argument("--stable-output", action="store_true",
                   help="zero every elapsed field so identical invocations "
                        "produce byte-identical output")
    sub = p.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("vev", help="vacuum expectation of an operator word")
    s.add_argument("--word", required=True)
    s.set_defaults(fn=_cmd_vev)

    s = sub.add_parser("gram", help="n-quon Gram matrix")
    s.add_argument("--n", required=True, type=_int_at_least(
        1, "a positive integer", lambda: _gram().BUILD_LIMIT))
    s.add_argument("--exact", action="store_true",
                   help="compute the exact determinant and compare")
    s.add_argument("--at", type=_finite, default=None,
                   help="evaluate the matrix at this q")
    s.set_defaults(fn=_cmd_gram)

    s = sub.add_parser("zagier", help="closed-form Gram determinant")
    s.add_argument("--n", required=True, type=_int_at_least(
        1, "a positive integer", lambda: _gram().EXACT_LIMIT))
    s.set_defaults(fn=_cmd_zagier)

    s = sub.add_parser("positivity", help="Gram eigenvalue scan over q")
    s.add_argument("--n", required=True, type=_int_at_least(
        1, "a positive integer", lambda: _gram().BUILD_LIMIT))
    s.add_argument("--samples", default=50, type=_int_at_least(
        1, "a positive integer", lambda: _gram().SAMPLE_LIMIT))
    s.add_argument("--lo", type=_finite, default=-0.98)
    s.add_argument("--hi", type=_finite, default=0.98)
    s.set_defaults(fn=_cmd_positivity)

    s = sub.add_parser("observables", help="q=0 number-operator checks")
    s.add_argument("--modes", type=_positive, default=3)
    s.add_argument("--cap", type=_positive, default=3)
    s.add_argument("--check", choices=("commutator", "locality", "hamiltonian"),
                   default="commutator")
    s.set_defaults(fn=_cmd_observables)

    s = sub.add_parser("para", help="parastatistics realization checks")
    s.add_argument("--kind", choices=("bose", "fermi"), required=True)
    s.add_argument("--p", type=_positive, required=True)
    # each check reads only some of these; see _cmd_para
    s.add_argument("--modes", type=_positive, default=None)
    s.add_argument("--cap", type=_positive, default=None)
    s.add_argument("--check", choices=("trilinear", "vacuum", "occupancy"),
                   default="trilinear")
    s.set_defaults(fn=_cmd_para)

    s = sub.add_parser("gentile", help="occupancy-cap basis-dependence demo")
    s.add_argument("--theta", type=_finite, default=0.7853981633974483)
    s.set_defaults(fn=_cmd_gentile)

    s = sub.add_parser("speicher", help="random-sign ansatz Monte Carlo")
    s.add_argument("--word", required=True)
    s.add_argument("--q", type=_finite, required=True)
    s.add_argument("--N", type=_positive, default=100)
    # one sample has no standard error; SeedSequence takes no negative seed
    s.add_argument("--samples", default=2000,
                   type=_int_at_least(2, "an integer >= 2", _max_samples))
    s.add_argument("--seed", type=_int_at_least(0, "an integer >= 0"),
                   default=0)
    s.set_defaults(fn=_cmd_speicher)

    s = sub.add_parser("bounds", help="violation-parameter arithmetic")
    bs = s.add_subparsers(dest="bounds_cmd", required=True)
    c = bs.add_parser("convert")
    one = c.add_mutually_exclusive_group(required=True)
    one.add_argument("--vf")
    one.add_argument("--vb")
    one.add_argument("--q")
    c.set_defaults(fn=_cmd_bounds)
    c = bs.add_parser("propagate")
    c.add_argument("--qe", required=True)
    c.set_defaults(fn=_cmd_bounds)
    c = bs.add_parser("composite")
    c.add_argument("--q", required=True)
    c.add_argument("--n", type=_positive, required=True)
    c.set_defaults(fn=_cmd_bounds)
    c = bs.add_parser("overlap")
    c.add_argument("--la", type=_finite, required=True)
    c.add_argument("--lb", type=_finite, required=True)
    c.set_defaults(fn=_cmd_bounds)
    c = bs.add_parser("conservation")
    c.add_argument("--qe", required=True)
    c.add_argument("--momenta", default="1,2,5,9")
    c.add_argument("--cap", type=_positive, default=3)
    c.set_defaults(fn=_cmd_bounds)

    s = sub.add_parser("verify-all", help="run the full verification suite")
    s.set_defaults(fn=_cmd_verify_all)
    return p


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        results, ok = args.fn(args)
        results = _jsonable(results)
        status = "error" if ok is None else "pass" if ok else "fail"
    except (ValueError, ZeroDivisionError) as exc:
        results = {"error": f"{type(exc).__name__}: {exc}"}
        status = "error"
    params = {k: v for k, v in vars(args).items() if k != "fn"}
    elapsed = 0.0 if args.stable_output else round(time.perf_counter() - t0, 3)
    report = {"subcommand": args.subcommand,
              "parameters": _jsonable(params),
              "results": results,
              "status": status,
              "elapsed": elapsed}
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:       # a float result overflowed to inf or nan
        status = "error"
        report.update(results={"error": f"{type(exc).__name__}: {exc}"},
                      status=status)
        text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    return 0 if status == "pass" else 1


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (quon ... | head): send what is left, and
        # the flush at exit, to devnull rather than a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
