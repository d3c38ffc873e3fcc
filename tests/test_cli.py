import contextlib
import dataclasses
import importlib.resources
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from quonlib import cli, gram, parastat, speicher, verify

# two criteria that take milliseconds, standing in for the full suite
CHEAP_CRITERIA = [verify.bound_propagation, verify.composite_rule]


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture(scope="module")
def schema():
    ref = importlib.resources.files("quonlib") / "schemas" / "report.schema.json"
    return json.loads(ref.read_text())


def validate(report, schema):
    jsonschema.validate(report, schema)


def test_vev_both_methods(capsys, schema):
    code, rep = run_cli(capsys, "vev", "--word", "a1 a2 c1 c2")
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["results"]["value"] == "q"
    assert rep["results"]["methods_agree"] is True
    validate(rep, schema)


def test_vev_parse_error(capsys, schema):
    code, rep = run_cli(capsys, "vev", "--word", "z9")
    assert code == 1
    assert rep["status"] == "error"
    assert "error" in rep["results"]
    validate(rep, schema)


def test_gram_exact(capsys, schema):
    code, rep = run_cli(capsys, "gram", "--n", "3", "--exact")
    assert code == 0
    assert rep["results"]["match"] is True
    assert rep["results"]["dim"] == 6
    validate(rep, schema)


def usage_error(capsys, argv):
    """The stderr of argv, which must end in an argparse usage error."""
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_gram_limit_error(capsys):
    # past gram.BUILD_LIMIT, refused before anything is built
    err = usage_error(capsys, ["gram", "--n", "7"])
    assert "argument --n: above the limit of 6: '7'" in err


def test_gram_exact_past_the_exact_limit_is_a_typed_error(schema):
    # --exact honours EXACT_LIMIT, though det_gram_exact(5) with the limit
    # raised takes about 0.13 s: past it there is no exact determinant the
    # closed form is compared with
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "quonlib.cli", "--stable-output", "gram",
         "--n", "5", "--exact"],
        env=env, capture_output=True, text=True, timeout=60)
    rep = json.loads(proc.stdout)
    assert proc.returncode == 1
    assert rep["status"] == "error"
    assert rep["results"]["error"] == (
        "GramLimitError: n=5 outside supported range 1..4 of the exact"
        " determinant")
    validate(rep, schema)


def test_zagier(capsys, schema):
    code, rep = run_cli(capsys, "zagier", "--n", "2")
    assert code == 0
    assert rep["results"]["det_poly"] == "1 - q^2"
    assert rep["results"]["match"] is True
    validate(rep, schema)


def test_zagier_past_the_exact_limit_is_a_usage_error(capsys):
    # nothing to compare the closed form with past gram.EXACT_LIMIT
    err = usage_error(capsys, ["zagier", "--n", "5"])
    assert "argument --n: above the limit of 4: '5'" in err


def test_positivity(capsys, schema):
    code, rep = run_cli(capsys, "positivity", "--n", "2", "--samples", "5")
    assert code == 0
    assert rep["results"]["all_positive"] is True
    assert len(rep["results"]["eigen_table"]) == 5
    validate(rep, schema)


def test_positivity_at_n6(capsys):
    # the blocks of S_6 are at most 16 x 16; the 720 x 720 matrix is
    # never formed
    code, rep = run_cli(capsys, "positivity", "--n", "6", "--samples", "50")
    assert code == 0
    assert rep["results"]["all_positive"] is True
    assert len(rep["results"]["eigen_table"]) == 50


@pytest.mark.parametrize("n", [0, 7])
def test_positivity_outside_the_build_range(capsys, n):
    err = usage_error(capsys, ["positivity", "--n", str(n)])
    assert (f"argument --n: not a positive integer: '{n}'" if n < 1 else
            f"argument --n: above the limit of 6: '{n}'") in err


@pytest.mark.parametrize("argv, option", [
    (["observables", "--modes", "0"], "--modes"),
    (["observables", "--check", "locality", "--modes", "-1"], "--modes"),
    (["observables", "--cap", "0"], "--cap"),
    (["positivity", "--n", "3", "--samples", "0"], "--samples"),
    (["speicher", "--word", "a1 c1", "--q", "0.5", "--N", "0"], "--N"),
    (["para", "--kind", "fermi", "--p", "0"], "--p"),
    (["para", "--kind", "fermi", "--p", "1", "--modes", "0"], "--modes"),
    (["para", "--kind", "bose", "--p", "1", "--cap", "-1"], "--cap"),
    (["bounds", "composite", "--q", "1/2", "--n", "0"], "--n"),
    (["zagier", "--n", "0"], "--n"),
    (["gram", "--n", "0", "--exact"], "--n"),
    (["gram", "--n", "0"], "--n"),
    (["bounds", "conservation", "--qe=-1/2", "--cap", "0"], "--cap"),
    (["bounds", "conservation", "--qe=-1/2", "--cap", "-1"], "--cap"),
])
def test_a_count_below_one_is_a_usage_error(capsys, argv, option):
    # a check over no modes, no particles or no samples would pass over
    # nothing
    err = usage_error(capsys, argv)
    assert f"argument {option}: not a positive integer" in err


@pytest.mark.parametrize("option, value, domain", [
    ("--samples", "1", "an integer >= 2"),
    ("--samples", "0", "an integer >= 2"),
    ("--seed", "-1", "an integer >= 0"),
])
def test_speicher_samples_and_seed_outside_their_domain_are_usage_errors(
        capsys, option, value, domain):
    # one sample has no standard error, and no seed is negative
    with pytest.raises(SystemExit) as exc:
        cli.run(["speicher", "--word", "a1 c1", "--q", "0.5", option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: not {domain}: {value!r}" in captured.err


def test_positivity_samples_past_the_limit_is_a_usage_error(capsys):
    # parsed only: past gram.SAMPLE_LIMIT the scan's arrays outgrow its
    # bound
    parser = cli.build_parser()
    head = ["positivity", "--n", "6", "--samples"]
    limit = gram.SAMPLE_LIMIT
    assert parser.parse_args([*head, str(limit)]).samples == limit
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*head, str(limit + 1)])
    assert exc.value.code == 2
    assert (f"argument --samples: above the limit of {limit}: "
            f"'{limit + 1}'") in capsys.readouterr().err


def test_speicher_samples_past_the_limit_is_a_usage_error(capsys):
    # parsed only, so that no test runs 10^7 samples
    parser = cli.build_parser()
    head = ["speicher", "--word", "a1 c1", "--q", "0.5", "--samples"]
    limit = speicher.MAX_SAMPLES
    assert parser.parse_args([*head, str(limit)]).samples == limit
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*head, str(limit + 1)])
    assert exc.value.code == 2
    assert (f"argument --samples: above the limit of {limit}: "
            f"'{limit + 1}'") in capsys.readouterr().err


def test_a_closed_stdout_ends_quietly():
    # the report (about 450 kB) overfills the pipe, which is closed after
    # a few bytes
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen(
            [sys.executable, "-m", "quonlib.cli", "positivity", "--n", "2",
             "--samples", "5000"], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert err == ""        # no BrokenPipeError traceback


def test_observables_commutator(capsys, schema):
    code, rep = run_cli(capsys, "observables", "--modes", "2", "--cap", "2")
    assert code == 0
    assert rep["results"]["all_exact"] is True
    validate(rep, schema)


def test_observables_past_the_work_limit_is_refused_at_once(capsys, schema):
    # about 1.1e10 basis words, and 10^21.4 term applications of 21
    # letters each
    t0 = time.perf_counter()
    code, rep = run_cli(capsys, "observables", "--modes", "10", "--cap", "10")
    assert time.perf_counter() - t0 < 1
    assert code == 1
    assert rep["status"] == "error"
    assert rep["results"]["error"] == (
        f"WorkLimitError: observables --check commutator takes about "
        f"10^22.7 term applications, past the limit of {parastat.WORK_LIMIT}")
    validate(rep, schema)


def test_observables_depth_is_cap_minus_one_not_an_option(capsys):
    # one term less misses states below the cap, and more changes no verdict
    with pytest.raises(SystemExit) as exc:
        cli.run(["observables", "--depth", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    code, rep = run_cli(capsys, "observables", "--modes", "2", "--cap", "3")
    assert code == 0
    assert rep["results"]["depth"] == 2
    assert "depth" not in rep["parameters"]


def test_para_trilinear(capsys, schema):
    code, rep = run_cli(capsys, "para", "--kind", "fermi", "--p", "2")
    assert code == 0
    assert rep["results"]["exact"] is True
    validate(rep, schema)


def test_gentile(capsys, schema):
    code, rep = run_cli(capsys, "gentile")
    assert code == 0
    assert rep["results"]["parafermi_sector_vanishes"] is True
    validate(rep, schema)


def test_speicher(capsys, schema):
    code, rep = run_cli(capsys, "speicher", "--word", "a1 a2 c1 c2",
                        "--q", "0.5", "--N", "50", "--samples", "200",
                        "--seed", "7")
    assert code == 0
    assert rep["results"]["stderr"] > 0
    assert rep["results"]["diagrams"] == 1
    assert rep["results"]["crossing_edges"] == 1
    assert rep["results"]["multiply_adds"] == 200 * 50 ** 2
    assert rep["parameters"]["seed"] == 7
    validate(rep, schema)


def test_speicher_three_chords_within_the_bias_bound(capsys, schema):
    # the finite-N mean (about 0.1515) is 42 standard errors from
    # q^3 = 0.125 but within the bias bound 2(1 - 100*99*98/100^3)
    code, rep = run_cli(capsys, "speicher", "--word", "a1 a2 a3 c1 c2 c3",
                        "--q", "0.5", "--samples", "200")
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["results"]["sigmas"] > 40
    assert rep["results"]["tolerance"] == pytest.approx(0.0596)
    validate(rep, schema)


def test_speicher_fails_an_estimate_past_the_tolerance(capsys, monkeypatch,
                                                       schema):
    real = speicher.mc_estimate

    def moved(*args):
        est = real(*args)
        return dataclasses.replace(est, mean=0.125 + 0.0597)

    monkeypatch.setattr(speicher, "mc_estimate", moved)
    code, rep = run_cli(capsys, "speicher", "--word", "a1 a2 a3 c1 c2 c3",
                        "--q", "0.5", "--samples", "200")
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["results"]["tolerance"] < 0.0597
    validate(rep, schema)


def test_speicher_long_chain(capsys, schema):
    # 27 chords, each crossing its neighbours: 26 edges over 27 labels; 516
    # is the least N whose bias bound is below 1 + 0.5^26, the largest
    # deviation of a mean of the one diagram
    tokens = ["a1"]
    for i in range(2, 28):
        tokens += [f"a{i}", f"c{i - 1}"]
    word = " ".join(tokens + ["c27"])
    code, rep = run_cli(capsys, "speicher", "--word", word, "--q", "0.5",
                        "--N", "516", "--samples", "50")
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["results"]["crossing_edges"] == 26
    validate(rep, schema)


def test_speicher_contraction_limit_error(capsys, schema):
    # all 14 chords interleave pairwise: 91 edges, more than one einsum
    # takes; below N = 136 the bias bound refuses the word first
    word = " ".join([f"a{i}" for i in range(1, 15)] +
                    [f"c{i}" for i in range(1, 15)])
    code, rep = run_cli(capsys, "speicher", "--word", word, "--q", "0.5",
                        "--N", "136", "--samples", "2")
    assert code == 1
    assert rep["status"] == "error"
    assert rep["results"]["error"].startswith("ContractionLimitError: ")
    assert "91 edges" in rep["results"]["error"]
    validate(rep, schema)


def _speicher_refusal(capsys, monkeypatch, n):
    """The report of 8 x a1 then 8 x c1 at N = n, which must come in under
    a second with no contraction planned: its 40320 diagrams would take
    about a minute to plan."""
    def refuse(*args, **kwargs):
        raise AssertionError("a contraction was planned")
    monkeypatch.setattr(speicher.np, "einsum_path", refuse)
    word = " ".join(["a1"] * 8 + ["c1"] * 8)
    t0 = time.perf_counter()
    code, rep = run_cli(capsys, "speicher", "--word", word, "--q", "0.5",
                        "--N", str(n), "--samples", "2")
    assert time.perf_counter() - t0 < 1
    assert code == 1
    assert rep["status"] == "error"
    return rep


def test_speicher_below_the_chord_count_is_refused_before_planning(
        capsys, monkeypatch, schema):
    # at N = 2 no assignment gives each of the 8 chords its own component,
    # so the bias bound is 2 D = 80640, past D + |target| = 40394.2
    rep = _speicher_refusal(capsys, monkeypatch, 2)
    assert rep["results"]["error"] == (
        "BiasBoundError: at N=2 the bias bound 80640 reaches D + |quon "
        "value| = 40394.2 for D=40320, the largest deviation a mean can "
        "have, so every estimate would pass")
    validate(rep, schema)


def test_speicher_refuses_every_n_whose_tolerance_cannot_fail(
        capsys, monkeypatch, schema):
    # N = 42 is above the 8 chords, but its bias bound still reaches
    # D + |target|; N = 43 is the least it does not (tests/test_speicher.py)
    rep = _speicher_refusal(capsys, monkeypatch, 42)
    assert rep["results"]["error"].startswith(
        "BiasBoundError: at N=42 the bias bound ")
    validate(rep, schema)


def test_speicher_work_budget_error(schema):
    # 8 chords, all crossing: 28 edges under the operand limit, but about
    # N^8 = 10^16 multiply-adds per sample
    word = " ".join([f"a{i}" for i in range(1, 9)] +
                    [f"c{i}" for i in range(1, 9)])
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "quonlib.cli", "speicher", "--word", word,
         "--q", "0.5"],
        env=env, capture_output=True, text=True, timeout=60)
    rep = json.loads(proc.stdout)
    assert proc.returncode == 1
    assert rep["status"] == "error"
    assert rep["results"]["error"].startswith("ContractionLimitError: ")
    assert "multiply-adds" in rep["results"]["error"]
    validate(rep, schema)


def test_parameters_name_only_settings_the_subcommand_reads(capsys, schema):
    _, rep = run_cli(capsys, "bounds", "convert", "--vf", "1/2")
    assert "seed" not in rep["parameters"]
    validate(rep, schema)
    _, rep = run_cli(capsys, "speicher", "--word", "a1 c1", "--q", "0.5",
                     "--N", "10", "--samples", "20")
    assert rep["parameters"]["seed"] == 0
    _, rep = run_cli(capsys, "para", "--kind", "fermi", "--p", "2")
    assert set(rep["parameters"]) == {"cap", "check", "kind", "modes", "p",
                                      "stable_output", "subcommand"}
    _, rep = run_cli(capsys, "gram", "--n", "2")
    assert set(rep["parameters"]) == {"at", "exact", "n", "stable_output",
                                      "subcommand"}


def test_gram_build_limit_cannot_be_raised(capsys):
    # BUILD_LIMIT is gram's one memory guard, and no option raises it:
    # n = 8 would be a 40320^2 intp matrix, 13 GB
    with pytest.raises(SystemExit) as exc:
        cli.run(["gram", "--n", "7", "--limit-n", "7"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_para_bose_occupancy_checks_the_antisymmetric_dual(capsys, schema):
    # the check builds the p + 1 modes its words touch, at cap 1
    code, rep = run_cli(capsys, "para", "--kind", "bose", "--p", "2",
                        "--check", "occupancy")
    assert code == 0
    assert rep["results"]["norms"] == {"distinct_modes_n1": "2",
                                       "distinct_modes_n2": "2",
                                       "distinct_modes_n3": "0"}
    assert (rep["parameters"]["modes"], rep["parameters"]["cap"]) == (
        None, None)
    validate(rep, schema)


def test_para_bose_occupancy_can_fail(capsys, monkeypatch, schema):
    # a realization that fits p + 1 quanta must not pass
    monkeypatch.setattr(parastat, "max_occupancy", lambda *a, **k: 1.0)
    code, rep = run_cli(capsys, "para", "--kind", "bose", "--p", "1",
                        "--check", "occupancy")
    assert code == 1
    assert rep["status"] == "fail"
    validate(rep, schema)


def _readme_examples():
    """The argv of every `quon` line of the README's fenced sh blocks, the
    trailing comment dropped; verify-all is left to test_acceptance.py."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples, in_sh = [], False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("quon "):
            examples.append(shlex.split(line, comments=True)[1:])
    return [argv for argv in examples if argv != ["verify-all"]]


README_EXAMPLES = _readme_examples()


def test_readme_has_its_examples():
    assert len(README_EXAMPLES) >= 12
    assert ["vev", "--word", "a1 a2 c1 c2"] in README_EXAMPLES


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=" ".join)
def test_readme_example_passes(capsys, schema, argv):
    # a README example cannot drift from the parser: a removed option or
    # a changed verdict fails here
    code, rep = run_cli(capsys, "--stable-output", *argv)
    assert (code, rep["status"]) == (0, "pass"), rep["results"]
    validate(rep, schema)


def test_cli_import_leaves_heavy_modules_out():
    # every quon command is a fresh interpreter, which pays for each import
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, quonlib.cli; print(sorted("
            "{'numpy', 'scipy', 'sympy', 'jsonschema'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# the subcommands whose exact arithmetic never needs numpy
NUMPY_FREE_COMMANDS = (
    ["vev", "--word", "a1 a2 c1 c2"],
    ["gram", "--n", "3"],
    ["gram", "--n", "3", "--exact"],
    ["zagier", "--n", "4"],
    ["observables", "--modes", "3", "--cap", "3"],
    ["para", "--kind", "fermi", "--p", "2", "--check", "trilinear"],
    ["para", "--kind", "bose", "--p", "2", "--check", "occupancy"],
    ["gentile", "--theta", "0.7853981633974483"],
    ["bounds", "convert", "--vf", "17/1000000000000000000000000000"],
    ["bounds", "propagate", "--qe=-1/2"],
    ["bounds", "composite", "--q=-1", "--n", "2"],
    ["bounds", "overlap", "--la", "0.5", "--lb", "0.25"],
    ["bounds", "conservation", "--qe=-1/2"],
)
# the subcommands that compute in floats
NUMPY_COMMANDS = (
    ["gram", "--n", "3", "--at", "0.5"],
    ["positivity", "--n", "4", "--samples", "50"],
    ["speicher", "--word", "a1 a2 c1 c2", "--q", "0.5", "--N", "100",
     "--samples", "2000", "--seed", "1"],
    ["verify-all"],
)


@pytest.mark.parametrize(
    "argv, loads", [(argv, False) for argv in NUMPY_FREE_COMMANDS]
    + [(argv, True) for argv in NUMPY_COMMANDS], ids=lambda v: (
        " ".join(v) if isinstance(v, list) else f"numpy={v}"))
def test_numpy_loads_only_for_the_float_commands(argv, loads):
    # each command in a fresh interpreter, as `quon` runs it: numpy alone
    # costs most of a process that does not need it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import contextlib, io, sys\n"
            "from quonlib import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = cli.run(['--stable-output', *sys.argv[1:]])\n"
            "print(code, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["0", str(loads)], proc.stderr


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=" ".join)
def test_exact_commands_do_not_import_dataclasses(argv):
    # `dataclasses` brings `inspect` with it, a few ms of each exact
    # command's start-up; only the float commands, through numpy and
    # speicher, may load it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import contextlib, io, sys\n"
            "from quonlib import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = cli.run(['--stable-output', *sys.argv[1:]])\n"
            "print(code, 'dataclasses' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def test_exact_subcommands_run_without_numpy(schema):
    # numpy blocked: importing it anywhere raises ImportError
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import contextlib, io, json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from quonlib import cli\n"
            "out = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        code = cli.run(['--stable-output', *argv])\n"
            "    out.append([code, json.loads(buf.getvalue())])\n"
            "print(json.dumps(out))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(NUMPY_FREE_COMMANDS)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert len(runs) == len(NUMPY_FREE_COMMANDS)
    for argv, (code, rep) in zip(NUMPY_FREE_COMMANDS, runs):
        assert (code, rep["status"]) == (0, "pass"), argv
        validate(rep, schema)


@pytest.mark.parametrize("cap", ["0", "5"])
def test_para_fermi_rejects_a_cap_it_cannot_use(capsys, schema, cap):
    # a parafermi site holds at most one quantum, so no check of it reads
    # a cap: one would be named in the parameters without playing any part
    # in the result; 0 is no cap at all
    if cap == "0":
        with pytest.raises(SystemExit) as exc:
            cli.run(["para", "--kind", "fermi", "--p", "2", "--cap", cap])
        assert exc.value.code == 2
        assert "argument --cap: not a positive integer" in (
            capsys.readouterr().err)
        return
    for check in ("trilinear", "vacuum", "occupancy"):
        code, rep = run_cli(capsys, "--stable-output", "para", "--kind",
                            "fermi", "--p", "2", "--cap", cap, "--check",
                            check)
        assert (code, rep["status"]) == (1, "error")
        assert rep["results"]["error"] == (
            f"ValueError: --kind fermi --check {check} does not read --cap")
        validate(rep, schema)


# the options each (kind, check) of para reads
PARA_READS = {
    ("bose", "trilinear"): {"modes", "cap"},
    ("fermi", "trilinear"): {"modes"},
    ("bose", "vacuum"): {"modes"},
    ("fermi", "vacuum"): {"modes"},
    ("bose", "occupancy"): set(),
    ("fermi", "occupancy"): set(),
}


@pytest.mark.parametrize("kind, check", PARA_READS)
def test_para_reads_only_the_options_its_check_uses(capsys, schema, kind,
                                                    check):
    head = ["--stable-output", "para", "--kind", kind, "--p", "2",
            "--check", check]
    given = {"modes": ["--modes", "3"], "cap": ["--cap", "2"]}
    reads = PARA_READS[kind, check]
    code, rep = run_cli(capsys, *head,
                        *(arg for name in reads for arg in given[name]))
    assert (code, rep["status"]) == (0, "pass"), rep["results"]
    assert {name for name in given
            if rep["parameters"][name] is not None} == reads
    validate(rep, schema)
    for name in given.keys() - reads:
        code, rep = run_cli(capsys, *head, *given[name])
        assert (code, rep["status"]) == (1, "error")
        assert rep["results"]["error"] == (
            f"ValueError: --kind {kind} --check {check} does not read "
            f"--{name}")
        validate(rep, schema)
    code, rep = run_cli(capsys, *head)
    if "cap" in reads:
        # required: the cap sets the protected states
        assert rep["results"]["error"] == (
            f"ValueError: --kind {kind} --check {check} needs --cap")
    else:
        # an absent --modes reads as 2, the value the report gives
        assert (code, rep["parameters"]["modes"]) == (
            0, 2 if "modes" in reads else None)


PARA_README_REPORT = """\
{
  "elapsed": 0.0,
  "parameters": {
    "cap": null,
    "check": "trilinear",
    "kind": "fermi",
    "modes": 2,
    "p": 2,
    "stable_output": true,
    "subcommand": "para"
  },
  "results": {
    "dim": 16,
    "exact": true,
    "kind": "parafermi",
    "max_residual": 0,
    "modes": 2,
    "p": 2,
    "protected_only": false,
    "protected_states": 16
  },
  "status": "pass",
  "subcommand": "para"
}
"""


def test_readme_para_report_is_unchanged(capsys):
    assert cli.run(["--stable-output", "para", "--kind", "fermi", "--p", "2",
                    "--check", "trilinear"]) == 0
    assert capsys.readouterr().out == PARA_README_REPORT


def test_para_past_the_work_limit_is_refused_before_any_work(capsys,
                                                            schema):
    # parafermi p = 4 on 4 modes: 65536 protected states, about 5e8 term
    # applications by check_trilinear's estimate
    t0 = time.perf_counter()
    code, rep = run_cli(capsys, "para", "--kind", "fermi", "--p", "4",
                        "--modes", "4")
    assert time.perf_counter() - t0 < 0.5
    assert code == 1
    assert rep["status"] == "error"
    assert rep["results"]["error"] == (
        "WorkLimitError: check_trilinear takes about 10^8.7 term "
        "applications, past the limit of 20000000")
    validate(rep, schema)


@pytest.mark.parametrize("argv", [
    ["--kind", "bose", "--p", "2", "--modes", "3", "--cap", "3",
     "--check", "trilinear"],
    ["--kind", "fermi", "--p", "3", "--modes", "4", "--check", "vacuum"],
    ["--kind", "bose", "--p", "3", "--check", "occupancy"],
])
def test_para_passes_where_the_dense_build_was_refused(capsys, schema, argv):
    # dimension 4096: the dense float64 realizations of these took more
    # than a 128 MiB budget
    code, rep = run_cli(capsys, "para", *argv)
    assert (code, rep["status"]) == (0, "pass")
    # exact integer residuals
    assert rep["results"].get("max_residual", 0) == 0
    assert rep["results"].get("off_diagonal_residual", 0) == 0
    validate(rep, schema)


def test_bounds_convert_and_propagate(capsys, schema):
    code, rep = run_cli(capsys, "bounds", "convert", "--vf", "17/1000")
    assert code == 0
    assert rep["results"]["q"] == "-483/500"
    validate(rep, schema)
    code, rep = run_cli(capsys, "bounds", "propagate", "--qe=-1/2")
    assert code == 0
    assert rep["results"]["q_gamma_exact"] == "1/4"
    validate(rep, schema)


def test_bounds_convert_division_by_zero(capsys, schema):
    code, rep = run_cli(capsys, "bounds", "convert", "--vf", "1/0")
    assert code == 1
    assert rep["status"] == "error"
    assert rep["results"]["error"] == "ZeroDivisionError: Fraction(1, 0)"
    validate(rep, schema)


@pytest.mark.parametrize("argv", [
    ["bounds", "convert"],
    ["bounds", "convert", "--vf", "1/2", "--vb", "1/2"],
    ["gram", "--n", "2", "--at", "nan"],
    ["bounds", "overlap", "--la", "inf", "--lb", "0"],
])
def test_missing_clashing_or_non_finite_options_are_usage_errors(capsys,
                                                                 argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_float_overflow_in_results_is_a_typed_error(capsys, schema):
    # the n = 3 Gram matrix holds q^3, inf at q = 1e300: no JSON form
    code, rep = run_cli(capsys, "--stable-output", "gram", "--n", "3",
                        "--at", "1e300")
    assert code == 1
    assert rep["status"] == "error"
    assert rep["results"]["error"].startswith(
        "ValueError: Out of range float values are not JSON compliant")
    validate(rep, schema)


def test_bounds_composite(capsys, schema):
    code, rep = run_cli(capsys, "bounds", "composite", "--q=-1", "--n", "2")
    assert code == 0
    assert rep["results"]["q_composite"] == "1"
    validate(rep, schema)


def test_bounds_composite_past_the_bit_budget_is_a_typed_error(capsys,
                                                             schema):
    # without the budget (1/2)^(1025^2) is built, and only printing it
    # fails, on Python's digit limit
    code, rep = run_cli(capsys, "bounds", "composite", "--q", "1/2",
                        "--n", "1025")
    assert code == 1
    assert rep["status"] == "error"
    assert rep["results"]["error"] == (
        "ValueError: q^(n^2) for q=1/2, n=1025 takes at least 1050625 bits, "
        "past the budget of 1048576")
    validate(rep, schema)


@pytest.mark.parametrize("argv, literal", [
    (["convert", "--vf"], "1e-999999999"),
    (["convert", "--vb"], "1E+4001"),
    (["convert", "--q"], "-1e-1_000_000"),
    (["propagate", "--qe"], "-.5e99999999999999999999"),
    (["composite", "--n", "1", "--q"], "1e-5000"),
    (["conservation", "--qe"], "1e-4001"),
])
def test_bounds_decimal_exponent_past_the_limit_is_a_typed_error(
        capsys, schema, argv, literal):
    *head, flag = argv
    code, rep = run_cli(capsys, "bounds", *head, f"{flag}={literal}")
    assert code == 1
    assert rep["status"] == "error"
    assert rep["results"]["error"] == (
        f"ValueError: exponent of {literal!r} is past the limit of "
        f"{cli.EXPONENT_LIMIT}")
    validate(rep, schema)


@pytest.mark.parametrize("argv", [
    ["bounds", "conservation", "--qe=-1e-2000", "--cap", "3"],
    ["bounds", "composite", "--q", "1/2", "--n", "200"],
    ["bounds", "propagate", "--qe=-1e-3000"],
], ids=["conservation", "composite", "propagate"])
def test_a_result_past_the_printable_limit_is_a_typed_error(capsys, schema,
                                                            argv):
    # each result is exact and computed, but has an integer longer than
    # Python prints; the report says so in its own terms
    code, rep = run_cli(capsys, "--stable-output", *argv)
    assert code == 1
    assert rep["status"] == "error"
    assert rep["results"]["error"] == (
        f"ResultSizeError: an exact result has an integer of more than "
        f"{sys.get_int_max_str_digits()} digits, the printable-result limit "
        f"of a report")
    validate(rep, schema)


def test_bounds_decimal_exponent_at_the_limit_is_taken(capsys, schema):
    code, rep = run_cli(capsys, "bounds", "convert", "--vf", "1e-4000")
    assert code == 0
    assert rep["results"]["v_f"] == "1/1" + "0" * 4000
    validate(rep, schema)


def test_bounds_conservation(capsys, schema):
    code, rep = run_cli(capsys, "bounds", "conservation", "--qe=-1",
                        "--cap", "2")
    assert code == 0
    assert rep["results"]["all_zero"] is True
    # the exact sweep covers the states the residual covers
    assert rep["results"]["sweep"]["n_states"] == rep["results"]["n_states"]
    assert rep["results"]["sweep"]["passed"] is True
    validate(rep, schema)


def test_bounds_conservation_builds_its_elements_once(capsys, monkeypatch):
    from quonlib import bounds
    calls = []
    real = bounds._matrix_elements
    monkeypatch.setattr(bounds, "_matrix_elements",
                        lambda *a: calls.append(a) or real(*a))
    code, rep = run_cli(capsys, "bounds", "conservation", "--qe=-1/2",
                        "--cap", "2")
    assert code == 0
    assert calls == [((1, 2, 5, 9), 2)]


@pytest.mark.parametrize("flag, value, message", [
    ("--momenta", "1,2",
     "ValueError: momenta must be four values (k, l, p, r), got 2"),
])
def test_bounds_conservation_bad_input_is_a_typed_error(capsys, schema, flag,
                                                        value, message):
    code, rep = run_cli(capsys, "bounds", "conservation", "--qe=-1/2",
                        flag, value)
    assert code == 1
    assert rep["status"] == "error"
    assert rep["results"]["error"] == message
    validate(rep, schema)


def test_stable_output_byte_identical(capsys):
    cli.run(["--stable-output", "zagier", "--n", "3"])
    first = capsys.readouterr().out
    cli.run(["--stable-output", "zagier", "--n", "3"])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["elapsed"] == 0.0


def test_stable_output_verify_all_byte_identical(capsys, monkeypatch):
    # the sleeping stub would report a nonzero elapsed if it were kept
    slow = verify._criterion(99, "sleeps")(
        lambda: time.sleep(0.005) or {"passed": True})
    monkeypatch.setattr(verify, "ALL_CRITERIA", CHEAP_CRITERIA + [slow])
    cli.run(["--stable-output", "verify-all"])
    first = capsys.readouterr()
    cli.run(["--stable-output", "verify-all"])
    assert capsys.readouterr() == first     # stdout and stderr
    assert first.err.count("(0.0s)\n") == 3
    rep = json.loads(first.out)
    assert rep["elapsed"] == 0.0
    assert rep["results"]["elapsed"] == 0.0
    assert [c["elapsed"] for c in rep["results"]["criteria"]] == [0.0] * 3


# the exact reports of two exact subcommands, which every change to the
# polynomial kernels must leave byte for byte as they are
ZAGIER_N4_REPORT = (
    '{\n'
    '  "elapsed": 0.0,\n'
    '  "parameters": {\n'
    '    "n": 4,\n'
    '    "stable_output": true,\n'
    '    "subcommand": "zagier"\n'
    '  },\n'
    '  "results": {\n'
    '    "det_poly": "1 - 36*q^2 + 630*q^4 - 7148*q^6 + 59193*q^8 - '
    '382032*q^10 + 2004938*q^12 - 8819856*q^14 + 33292656*q^16 - '
    '109911296*q^18 + 322501266*q^20 - 852715008*q^22 + 2055752147*q^24 - '
    '4563680868*q^26 + 9404597538*q^28 - 18107068172*q^30 + 32737836213*q^32 '
    '- 55804850136*q^34 + 89956581256*q^36 - 137430862056*q^38 + '
    '199259540514*q^40 - 274319614896*q^42 + 358419693312*q^44 - '
    '443688451632*q^46 + 518556849207*q^48 - 568577821788*q^50 + '
    '578190891582*q^52 - 533315029844*q^54 + 424388975229*q^56 - '
    '249262978824*q^58 + 15252221518*q^60 + 260279850024*q^62 - '
    '551213090397*q^64 + 825851631356*q^66 - 1051544297736*q^68 + '
    '1199910712212*q^70 - 1251646818134*q^72 + 1199910712212*q^74 - '
    '1051544297736*q^76 + 825851631356*q^78 - 551213090397*q^80 + '
    '260279850024*q^82 + 15252221518*q^84 - 249262978824*q^86 + '
    '424388975229*q^88 - 533315029844*q^90 + 578190891582*q^92 - '
    '568577821788*q^94 + 518556849207*q^96 - 443688451632*q^98 + '
    '358419693312*q^100 - 274319614896*q^102 + 199259540514*q^104 - '
    '137430862056*q^106 + 89956581256*q^108 - 55804850136*q^110 + '
    '32737836213*q^112 - 18107068172*q^114 + 9404597538*q^116 - '
    '4563680868*q^118 + 2055752147*q^120 - 852715008*q^122 + 322501266*q^124 '
    '- 109911296*q^126 + 33292656*q^128 - 8819856*q^130 + 2004938*q^132 - '
    '382032*q^134 + 59193*q^136 - 7148*q^138 + 630*q^140 - 36*q^142 + '
    'q^144",\n'
    '    "factors": [\n'
    '      [\n'
    '        "1 - q^2",\n'
    '        36\n'
    '      ],\n'
    '      [\n'
    '        "1 - q^6",\n'
    '        8\n'
    '      ],\n'
    '      [\n'
    '        "1 - q^12",\n'
    '        2\n'
    '      ]\n'
    '    ],\n'
    '    "match": true,\n'
    '    "n": 4\n'
    '  },\n'
    '  "status": "pass",\n'
    '  "subcommand": "zagier"\n'
    '}\n'
)

GRAM_N3_EXACT_REPORT = (
    '{\n'
    '  "elapsed": 0.0,\n'
    '  "parameters": {\n'
    '    "at": null,\n'
    '    "exact": true,\n'
    '    "n": 3,\n'
    '    "stable_output": true,\n'
    '    "subcommand": "gram"\n'
    '  },\n'
    '  "results": {\n'
    '    "det_poly": "1 - 6*q^2 + 15*q^4 - 21*q^6 + 21*q^8 - 21*q^10 + '
    '21*q^12 - 15*q^14 + 6*q^16 - q^18",\n'
    '    "dim": 6,\n'
    '    "match": true,\n'
    '    "n": 3\n'
    '  },\n'
    '  "status": "pass",\n'
    '  "subcommand": "gram"\n'
    '}\n'
)


@pytest.mark.parametrize("argv, expected", [
    (["zagier", "--n", "4"], ZAGIER_N4_REPORT),
    (["gram", "--n", "3", "--exact"], GRAM_N3_EXACT_REPORT),
])
def test_stable_output_of_exact_reports_is_unchanged(capsys, argv, expected):
    assert cli.run(["--stable-output", *argv]) == 0
    assert capsys.readouterr().out == expected


def test_report_shape_all_subcommands(capsys, schema):
    for argv in (["vev", "--word", "a1 c1"],
                 ["zagier", "--n", "3"],
                 ["bounds", "overlap", "--la", "0.01", "--lb", "0.02"]):
        _, rep = run_cli(capsys, *argv)
        validate(rep, schema)
        assert set(rep) == {"subcommand", "parameters", "results",
                            "status", "elapsed"}


def test_gram_n6_at_a_point(capsys, schema):
    # the report gives the row, M[u, v] = row[u^-1 v]: the values of the
    # matrix's first row, bit for bit, in about 24 kB, not 10 MB
    assert cli.run(["gram", "--n", "6", "--at", "0.5"]) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) < 100_000
    rep = json.loads(out)
    assert rep["status"] == "pass"
    assert rep["results"]["dim"] == 720
    g = gram.gram_matrix(6)
    row = rep["results"]["row_at_q"]
    assert [row[",".join(map(str, w))] for w in g.perms] == (
        g.evaluate_float(0.5)[0].tolist())
    validate(rep, schema)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gram_row_report_rebuilds_the_matrix(capsys, schema, n):
    code, rep = run_cli(capsys, "gram", "--n", str(n))
    assert code == 0
    row = rep["results"]["row"]
    g = gram.gram_matrix(n)
    assert rep["results"]["dim"] == len(row) == g.dim
    for u, entries in zip(g.perms, g.entries):
        for v, entry in zip(g.perms, entries):
            u_inv_v = [u.index(x) for x in v]
            assert row[",".join(map(str, u_inv_v))] == str(entry)
    validate(rep, schema)


# -- fuzz: every argv ends in one report or an argparse usage error -------

MALFORMED = st.sampled_from(["", "x", "1/0", "0/0", "1/", "nan", "inf",
                             "-inf", "1e3", "0x10", "1.5.", "--", "½"])
INTS = st.one_of(st.integers(-2, 4).map(str), MALFORMED)
SMALL = st.one_of(st.integers(-1, 3).map(str), MALFORMED)
FLOATS = st.one_of(st.floats(-2, 2).map(repr),
                   st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   MALFORMED)
# decimal literals whose power of ten Fraction would build at once
HUGE_EXPONENTS = st.sampled_from(["1e-999999999", "1E+999999999",
                                  "-1e-1_000_000", "2.5e-4001"])
RATIONALS = st.one_of(
    st.fractions(-2, 2, max_denominator=12).map(str),
    st.integers(-2, 2).map(str),
    st.floats(-2, 2).map(repr),
    HUGE_EXPONENTS,
    # within the exponent limit, but its exact results can be too long to print
    st.just("1e-2000"),
    MALFORMED)
SYMBOLS = st.tuples(st.sampled_from("ac"), st.integers(0, 3)).map(
    lambda s: f"{s[0]}{s[1]}")
WORDS = st.one_of(st.lists(SYMBOLS, max_size=6).map(" ".join),
                  st.sampled_from(["z9", "a", "c-1", "a1  c1", "c1a1"]))


def _options(**values):
    """Each option given or left out, in a drawn order, as an argv tail."""
    drawn = [st.one_of(st.none(), value.map(
                 lambda v, f="--" + name.replace("_", "-"): [f, v]))
             for name, value in values.items()]
    return st.tuples(*drawn).map(lambda t: [o for o in t if o]).flatmap(
        st.permutations).map(lambda t: sum(t, []))


def _command(*head, **options):
    return _options(**options).map(lambda tail: [*head, *tail])


CHEAP_ARGVS = st.one_of(
    _command("vev", word=WORDS),
    _command("gram", n=INTS, at=FLOATS),
    _command("gram", "--exact", n=INTS, at=FLOATS),
    _command("zagier", n=INTS),
    _command("positivity", n=st.sampled_from(["-1", "1", "2", "3", "x"]),
             samples=INTS, lo=FLOATS, hi=FLOATS),
    _command("observables", modes=SMALL, cap=SMALL,
             check=st.sampled_from(["commutator", "locality",
                                    "hamiltonian", "x"])),
    _command("para", kind=st.sampled_from(["bose", "fermi", "x"]),
             p=st.sampled_from(["-1", "0", "1", "2", "3", "8", "40",
                                "1000000", "x"]),
             modes=st.sampled_from(["0", "1", "2", "8", "40", "1000000",
                                    "x"]),
             cap=st.one_of(INTS, st.sampled_from(["8", "40", "1000000"])),
             check=st.sampled_from(["trilinear", "vacuum", "occupancy"])),
    _command("gentile", theta=FLOATS),
    _command("speicher", word=WORDS, q=FLOATS, N=INTS, samples=INTS,
             seed=INTS),
    _command("bounds", "convert", vf=RATIONALS, vb=RATIONALS, q=RATIONALS),
    _command("bounds", "propagate", qe=RATIONALS),
    _command("bounds", "composite", q=RATIONALS, n=INTS),
    _command("bounds", "overlap", la=FLOATS, lb=FLOATS),
    _command("bounds", "conservation", qe=RATIONALS,
             momenta=st.one_of(
                 st.lists(st.integers(-2, 9), max_size=5).map(
                     lambda m: ",".join(map(str, m))),
                 MALFORMED),
             cap=st.sampled_from(["-1", "0", "1", "2", "x"])),
)
GLOBALS = st.just(["--stable-output"])


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    decoder = json.JSONDecoder(parse_constant=reject)
    report, end = decoder.raw_decode(text)
    assert end == len(text.rstrip()), "more than one document on stdout"
    return report


@settings(max_examples=1000, deadline=None)
@given(GLOBALS, CHEAP_ARGVS)
def test_fuzz_argv_ends_in_one_report_or_a_usage_error(schema, globs, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(globs + argv)
        except SystemExit as exc:
            assert exc.code == 2, err.getvalue()
            assert out.getvalue() == ""
            return
    report = _strict_json(out.getvalue())
    validate(report, schema)
    assert code == (0 if report["status"] == "pass" else 1)
