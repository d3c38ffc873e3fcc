"""End-to-end acceptance checks.

Each numbered verification criterion runs once per session (results are
cached module-wide) and prints a single pass/fail line, so the -s output
doubles as a human-readable report.
"""

import dataclasses
import json
import time
from fractions import Fraction

import pytest

from quonlib import verify

_reports = None
_total_elapsed = None


def _run_suite():
    global _reports, _total_elapsed
    if _reports is None:
        t0 = time.perf_counter()
        _reports = [fn() for fn in verify.ALL_CRITERIA]
        _total_elapsed = time.perf_counter() - t0
    return _reports


@pytest.mark.parametrize("index", range(len(verify.ALL_CRITERIA)),
                         ids=[f"criterion_{fn.cid:02d}_{fn.__name__}"
                              for fn in verify.ALL_CRITERIA])
def test_criterion(index):
    rep = _run_suite()[index]
    verdict = "PASS" if rep["passed"] else "FAIL"
    print(f"[{verdict}] criterion {rep['id']}: {rep['name']} "
          f"({rep['elapsed']}s)")
    assert rep["passed"], rep["details"]


def test_criterion_12_full_suite_runtime():
    _run_suite()
    verdict = "PASS" if _total_elapsed < 900 else "FAIL"
    print(f"[{verdict}] criterion 12: full suite runtime "
          f"({round(_total_elapsed, 3)}s < 900s)")
    assert _total_elapsed < 900


def test_cli_verify_all_exit_code(capsys, monkeypatch):
    # every criterion already ran above; this checks only the CLI wiring,
    # on two cheap criteria and a stub that fails
    from quonlib import cli
    cheap = [verify.bound_propagation, verify.composite_rule]
    failing = verify._criterion(99, "always fails")(lambda: {"passed": False})
    for criteria, want_code, want_status in ((cheap, 0, "pass"),
                                             (cheap + [failing], 1, "fail")):
        monkeypatch.setattr(verify, "ALL_CRITERIA", criteria)
        code = cli.run(["--stable-output", "verify-all"])
        rep = json.loads(capsys.readouterr().out)
        assert code == want_code
        assert rep["status"] == want_status
        assert len(rep["results"]["criteria"]) == len(criteria)


def _verdicts(reports):
    return {r["id"]: (r["passed"], "error" in r) for r in reports}


def test_a_moved_speicher_mean_fails_criterion_8_alone(monkeypatch):
    # the mean moved to q + 1, past the tolerance (bias bound 0.02) but
    # within the reach D + |q| = 1.5 that check_estimate keeps failable
    from quonlib import speicher
    real = speicher.mc_estimate

    def moved(*args):
        return dataclasses.replace(real(*args), mean=1.5)

    monkeypatch.setattr(speicher, "mc_estimate", moved)
    faulted = _verdicts(verify.run_all()["criteria"])
    want = _verdicts(_run_suite())
    want[8] = (False, False)
    assert faulted == want


def test_a_composite_exponent_of_n_fails_criterion_11_alone(monkeypatch):
    # q^n agrees with q^(n^2) at q = -1 for every n; only the exact point
    # q = 1/2 tells the two apart
    from quonlib import bounds
    monkeypatch.setattr(bounds, "composite_q",
                        lambda q, n: Fraction(q) ** n)
    faulted = _verdicts(verify.run_all()["criteria"])
    want = _verdicts(_run_suite())
    want[11] = (False, False)
    assert faulted == want


def test_a_fock_weight_of_q_to_the_2i_fails_criterion_4(monkeypatch):
    # the annihilator weighs position i by q^(2i): the action at q^2.
    # Criterion 4 packs its polynomials into ints, whose read-back must
    # still tell 1 + q^2 - q from 1
    from quonlib import qfock
    real = qfock.apply_symbol

    def squared(symbol, state, q):
        return real(symbol, state, q * q)

    monkeypatch.setattr(qfock, "apply_symbol", squared)
    rep = verify.quon_relation()
    assert (rep["passed"], "error" in rep) == (False, False)
    assert rep["details"]["failure"] == (0, 0, (0,))


def test_a_criterion_that_raises_is_its_own_error(capsys, monkeypatch):
    # every criterion still reports, and the raising one is typed
    from quonlib import bounds, cli

    def raises(q, n):
        raise ValueError("composite_q is broken")

    monkeypatch.setattr(bounds, "composite_q", raises)
    code = cli.run(["--stable-output", "verify-all"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 1
    assert rep["status"] == "error"
    criteria = rep["results"]["criteria"]
    assert [c["id"] for c in criteria] == [fn.cid for fn in
                                           verify.ALL_CRITERIA]
    errors = [c for c in criteria if "error" in c]
    assert [(c["id"], c["passed"], c["error"]) for c in errors] == [
        (11, False, "ValueError: composite_q is broken")]
    assert all(c["passed"] for c in criteria if "error" not in c)
    assert "[ERROR] criterion 11: Composite statistics sign rule" in err
    assert err.count("[PASS]") == len(criteria) - 1
