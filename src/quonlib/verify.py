"""The full machine-checkable verification suite.

Each criterion function returns a small dict with a boolean `passed` and
enough detail to diagnose a failure, or, when its check raises, `passed`
false and the typed `error`; run_all executes every criterion.
The CLI `verify-all` subcommand and the acceptance tests both run these,
so there is exactly one definition of what "verified" means.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from . import bounds, gram, observables, parastat, speicher
from .qfock import (ANNIHILATOR, CREATOR, apply_terms, fock_words,
                    parse_word, vacuum_expectation)
from .wick import wick_expectation


def _criterion(cid, name):
    def deco(fn):
        def wrapper():
            t0 = time.perf_counter()
            report = {"id": cid, "name": name}
            try:
                details = fn()
                report["passed"] = bool(details.pop("passed"))
            except Exception as exc:
                details = {}
                report.update(passed=False,
                              error=f"{type(exc).__name__}: {exc}")
            report.update(elapsed=round(time.perf_counter() - t0, 3),
                          details=details)
            return report
        wrapper.cid = cid
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


@_criterion(1, "Zagier determinant identity")
def zagier_identity():
    exact_ok = {n: gram.det_gram_exact(n) == gram.zagier_determinant(n)
                for n in (2, 3, 4)}
    n_float = 5
    g = gram.gram_matrix(n_float)
    worst = 0.0
    for x in np.linspace(-0.94, 0.94, 20):
        dv = float(np.linalg.det(g.evaluate_float(x)))
        zv = gram.zagier_eval_float(n_float, x)
        worst = max(worst, abs(dv - zv) / abs(zv))
    return {"passed": all(exact_ok.values()) and worst <= 1e-9,
            "exact": exact_ok, "n_float": n_float,
            "worst_float_rel_err": worst}


def random_vev_word(rng):
    npairs = rng.randint(1, 6)
    syms = []
    for _ in range(npairs):
        m = rng.randint(1, 4)
        syms.append((ANNIHILATOR, m))
        syms.append((CREATOR, m))
    rng.shuffle(syms)
    return tuple(syms)


@_criterion(2, "Wick-rewrite oracle equivalence")
def wick_rewrite_equivalence():
    words = 500
    rng = random.Random(20240817)
    mismatches = []
    for _ in range(words):
        w = random_vev_word(rng)
        if wick_expectation(w) != vacuum_expectation(w):
            mismatches.append(w)
    return {"passed": not mismatches, "words": words,
            "mismatches": mismatches[:5]}


@_criterion(3, "Gram positivity and rank collapse at q = ±1")
def gram_positivity():
    samples = list(np.linspace(-0.98, 0.98, 50))
    scans = {n: gram.positivity_scan(n, samples) for n in range(1, 5)}
    min_eigs = {n: min(e for _, e in scan) for n, scan in scans.items()}
    ranks_ok = all(gram.rank_at_limit(n, s) == 1
                   for n in range(2, 5) for s in (1, -1))
    eigvec_ok = all(gram.limit_eigenvector_check(n, s)[0]
                    for n in range(2, 5) for s in (1, -1))
    pos_ok = all(gram.all_positive(scan) for scan in scans.values())
    return {"passed": pos_ok and ranks_ok and eigvec_ok,
            "min_eigenvalues": min_eigs, "ranks_one": ranks_ok,
            "sign_eigenvector": eigvec_ok}


@_criterion(4, "Defining relation on the free Fock action")
def quon_relation():
    """a_k a†_l |w> - q a†_l a_k |w> = delta_kl |w> on every word w of up
    to 5 letters over 3 modes, each polynomial packed as its value at
    q = 2^shift (see QPoly.from_packed).  At one result word, a power's
    coefficient counts letter positions: +1 for each of the len(w) + 1 of
    a†_l w that the first term removes at that power, -1 for each of the
    len(w) of w that the second does, so it is at most len(w) + 1 in size
    and no digit carries, whatever power each position is weighed by."""
    modes, longest = 3, 5
    words = fock_words(range(modes), longest)
    shift = (longest + 1).bit_length() + 1
    q = 1 << shift
    for k in range(modes):
        for l in range(modes):
            a_k, c_l = (ANNIHILATOR, k), (CREATOR, l)
            relation = (((a_k, c_l), 1), ((c_l, a_k), -q))
            for w in words:
                lhs = apply_terms(relation, {w: 1}, q)
                want = {w: 1} if k == l else {}
                if lhs != want:
                    return {"passed": False, "failure": (k, l, w)}
    return {"passed": True, "words_checked": len(words), "modes": modes}


@_criterion(5, "q=0 transition-operator commutator")
def transition_commutator():
    modes, cap = (0, 1, 2), 3
    all_exact = observables.check_commutators(modes, cap)["all_exact"]
    # the series is genuinely infinite degree: depth 0 must fail somewhere
    shallow_fails = any(
        any(len(w) == 2 for w in
            observables.commutator_residual(modes, cap, k, l, m, 0))
        for k, l, m in itertools.product(modes, repeat=3))
    return {"passed": all_exact and shallow_fails,
            "deep_exact": all_exact, "shallow_depth_fails": shallow_fails}


def _canonical_relations_exact(r):
    """p=1 realizations obey the ordinary (anti)commutators."""
    sign = 1 if r.kind == "parafermi" else -1
    a, c = r.annihilate, r.create
    for x, k, l in itertools.product(r.protected_states(), range(r.modes),
                                     range(r.modes)):
        one = {x: 1}
        if parastat.combine((1, a(k, c(l, one))), (sign, c(l, a(k, one))),
                            (-(k == l), one)):
            return False
        if r.kind == "parafermi" and parastat.combine(
                (1, a(k, a(l, one))), (1, a(l, a(k, one)))):
            return False
    return True


@_criterion(6, "Green parastatistics: trilinear relation and occupancy")
def parastatistics():
    occ, occ_ok = parastat.check_occupancy("parafermi", 2)
    anti, anti_ok = parastat.check_occupancy("parabose", 2)
    tri_f = parastat.check_trilinear(parastat.build_green("parafermi", 2, 2))
    tri_b = parastat.check_trilinear(
        parastat.build_green("parabose", 2, 3, cap=2))
    p1_ok = all(_canonical_relations_exact(
        parastat.build_green(kind, 1, 2, cap=cap))
        for kind, cap in (("parafermi", None), ("parabose", 4)))
    passed = tri_f["exact"] and tri_b["exact"] and occ_ok and anti_ok and p1_ok
    return {"passed": passed, "trilinear_parafermi": tri_f["exact"],
            "trilinear_parabose": tri_b["exact"],
            "trilinear_parabose_columns": {
                k: tri_b[k] for k in ("dim", "protected_states")},
            "same_mode_norms": {f"n{n}": occ["norms"][f"same_mode_n{n}"]
                                for n in (2, 3)},
            "antisym_norms": {f"n{n}": anti["norms"][f"distinct_modes_n{n}"]
                              for n in (2, 3)},
            "p1_canonical": p1_ok}


@_criterion(7, "Gentile basis dependence vs parafermi invariance")
def gentile():
    rot = parastat.gentile_demo(math.pi / 4)
    idt = parastat.gentile_demo(0.0)
    passed = (rot["gentile_allowed_norm_sq"] > parastat.FLOAT_ZERO
              and idt["gentile_allowed_norm_sq"] <= parastat.FLOAT_ZERO
              and rot["parafermi_sector_vanishes"]
              and idt["parafermi_sector_vanishes"])
    return {"passed": passed, "rotated": rot["gentile_allowed_norm_sq"],
            "unrotated": idt["gentile_allowed_norm_sq"],
            "parafermi_vanishes": rot["parafermi_sector_vanishes"]}


@_criterion(8, "Speicher Monte Carlo convergence")
def speicher_convergence():
    w = parse_word("a1 a2 c1 c2")
    est, target, tol, main_ok = speicher.check_estimate(w, 0.5, 100, 2000,
                                                        987654321)

    # corners: all-plus signs give the bosonic VEV exactly at any N
    bose_word = parse_word("a1 a1 c1 c1")
    plus = speicher.sample_sign_matrix(8, 1.0, 0)
    bose_ok = speicher.expectation_given_signs(bose_word, plus) == 2

    # q = -1: finite-N values approach the fermionic VEV monotonically
    fermi_vals = []
    for n in (10, 50, 200):
        minus = speicher.sample_sign_matrix(n, -1.0, 0)
        fermi_vals.append(float(speicher.expectation_given_signs(w, minus)))
    fermi_target = wick_expectation(w)(-1.0)
    gaps = [abs(v - fermi_target) for v in fermi_vals]
    fermi_ok = gaps[0] > gaps[1] > gaps[2]

    return {"passed": main_ok and bose_ok and fermi_ok,
            "mean": est.mean, "stderr": est.stderr, "target": target,
            "tolerance": tol, "bose_corner_exact": bose_ok,
            "fermi_corner_gaps": gaps}


@_criterion(9, "Exact bound propagation arithmetic")
def bound_propagation():
    v_f = Fraction(17, 10 ** 27)           # 1.7e-26 exactly
    q_e = bounds.q_from_v(v_f, bounds.FERMIONIC)
    prop = bounds.propagate_statistics(q_e)
    ok = (q_e == Fraction(-1) + Fraction(34, 10 ** 27)
          and prop.q_bosonic_leading == 1 - Fraction(68, 10 ** 27)
          and prop.v_bosonic_leading == Fraction(34, 10 ** 27)
          and q_e != -1 and prop.q_bosonic_leading != 1)
    return {"passed": ok,
            "q_e": str(q_e), "q_gamma_leading": str(prop.q_bosonic_leading),
            "v_gamma_leading": str(prop.v_bosonic_leading),
            "q_gamma_exact": str(prop.q_bosonic_exact)}


@_criterion(10, "Conservation of statistics: q_b(-1) = 1, residual "
                "vanishing to first order")
def conservation():
    # the gate holds for every q_b with q_b(-1) = 1 and a simple root, not
    # for q_e^2 alone; the controls, off 1 at q_e = -1, must fail it
    return bounds.conservation_sweep()


@_criterion(11, "Composite statistics sign rule")
def composite_rule():
    # at q = -1 the exponents n^2, n and n^3 agree; q = 1/2 tells them apart
    max_n = 10
    signs_ok = all(
        bounds.composite_q(Fraction(-1), n) == Fraction((-1) ** n)
        for n in range(1, max_n + 1))
    half_ok = all(
        bounds.composite_q(Fraction(1, 2), n) == Fraction(1, 2 ** (n * n))
        for n in range(1, max_n + 1))
    return {"passed": signs_ok and half_ok, "max_n": max_n,
            "exponent_at_one_half": half_ok}


ALL_CRITERIA = [
    zagier_identity,
    wick_rewrite_equivalence,
    gram_positivity,
    quon_relation,
    transition_commutator,
    parastatistics,
    gentile,
    speicher_convergence,
    bound_propagation,
    conservation,
    composite_rule,
]


def run_all():
    """Every criterion's report, each one's error its own."""
    reports = [fn() for fn in ALL_CRITERIA]
    return {"criteria": reports,
            "passed": all(r["passed"] for r in reports),
            "elapsed": round(sum(r["elapsed"] for r in reports), 3)}
