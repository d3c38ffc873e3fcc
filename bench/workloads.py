"""The benchmark's workloads: fixed operation lists with their output checks.

Each workload is a list of operations built from the benchmark seed. An
operation is a zero-argument callable that calls into quonlib, checks the
output and returns ``(ok, detail)``; the library sees only the generated
inputs. README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from common import ROOT, child_env
from quonlib import gram, qfock, speicher, wick
from quonlib.qpoly import QPoly

SCHEMA_PATH = ROOT / "src" / "quonlib" / "schemas" / "report.schema.json"

# gram: exact Gram/Zagier pipeline. n = 6 is out: one gram_matrix(6) build
# takes about 35 s.
GRAM_MAX_N = 5
FLOAT_POINTS = 20
FLOAT_RANGE = 0.94          # same interval as verify criterion 1
FLOAT_REL_TOL = 1e-9
SCAN_SAMPLES = 50
SCAN_RANGE = 0.98
MIN_EIGENVALUE = 1e-12

# words: random chord-diagram words and chain words through Monte Carlo.
RANDOM_WORDS = 300
PAIRS = (3, 7)
MODES = (1, 3)
WORD_POOL = 10              # candidates drawn per word kept, see words_ops
CHAIN_K = range(2, 10)      # q = 0.5 only up to 9 as well:
                            # expected_over_signs enumerates set partitions
# Longer chains at q = +-1 are the known-defect probe, run once per run and
# reported, never timed or counted: their sign sums reach N^k > 2^63, and
# mc_estimate's int64 einsum overflows without an error.
OVERFLOW_CHAIN_K = range(10, 14)
MC_COMPONENTS = 100
MC_SAMPLES = 200
MC_SIGMAS = 5               # q = 0.5: |mean - E_signs| <= 5 standard errors

# cli: the README examples plus verify-all, each a fresh interpreter.
CLI_COMMANDS = (
    ("vev", "--word", "a1 a2 c1 c2"),
    ("gram", "--n", "3", "--exact"),
    ("zagier", "--n", "4"),
    ("positivity", "--n", "4", "--samples", "50"),
    ("observables", "--modes", "3", "--cap", "3"),
    ("para", "--kind", "fermi", "--p", "2", "--check", "trilinear"),
    ("gentile", "--theta", "0.7853981633974483"),
    ("speicher", "--word", "a1 a2 c1 c2", "--q", "0.5", "--N", "100",
     "--samples", "2000", "--seed", None),   # None: filled from the seed
    ("bounds", "convert", "--vf", "17/1000000000000000000000000000"),
    ("bounds", "propagate", "--qe=-1/2"),
    ("bounds", "composite", "--q=-1", "--n", "2"),
    ("bounds", "conservation", "--qe=-1/2"),
    ("verify-all",),
)


@dataclass(frozen=True)
class Op:
    name: str
    fn: object      # () -> (ok, detail)


def _inversions(perm):
    return sum(perm[i] > perm[j]
               for i in range(len(perm)) for j in range(i + 1, len(perm)))


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


# -- gram ------------------------------------------------------------------


def _check_gram_matrix(g, n):
    """Every entry <u, v> of distinct-mode words is q^inv of the
    permutation taking v to u; checked independently of the Fock action."""
    perms = tuple(permutations(range(n)))
    if g.perms != perms or len(g.entries) != len(perms):
        return False, f"n={n}: wrong basis"
    for u, row in zip(perms, g.entries):
        for v, e in zip(perms, row):
            if e != QPoly.monomial(_inversions(tuple(u.index(x) for x in v))):
                return False, f"n={n}: entry <{u},{v}> = {e}"
    return True, ""


def _zagier_product_at(n, x):
    """prod_k (1 - x^(k(k+1)))^((n-k) n!/(k(k+1))) at an integer x."""
    fact = math.factorial(n)
    out = 1
    for k in range(1, n):
        out *= (1 - x ** (k * (k + 1))) ** ((n - k) * fact // (k * (k + 1)))
    return out


def gram_ops(seed):
    rng = _rng("gram", seed)
    float_points = [rng.uniform(-FLOAT_RANGE, FLOAT_RANGE)
                    for _ in range(FLOAT_POINTS)]
    scan_points = {n: sorted(rng.uniform(-SCAN_RANGE, SCAN_RANGE)
                             for _ in range(SCAN_SAMPLES))
                   for n in range(1, GRAM_MAX_N + 1)}
    zagier_points = {n: rng.choice((-1, 1)) * rng.randint(2, 9)
                     for n in range(1, GRAM_MAX_N + 1)}
    built = {}      # gram_matrix results, reused by the float determinant ops
    ops = []

    def build(n):
        built[n] = g = gram.gram_matrix(n)
        return _check_gram_matrix(g, n)

    def det_exact(n):
        det = gram.det_gram_exact(n)
        return det == gram.zagier_determinant(n), f"n={n}: det {det}"

    def zagier(n):
        x = zagier_points[n]
        value = gram.zagier_determinant(n)(x)
        return value == _zagier_product_at(n, x), f"n={n}: at q={x}"

    def float_det(x):
        dv = float(np.linalg.det(built[GRAM_MAX_N].evaluate_float(x)))
        zv = gram.zagier_eval_float(GRAM_MAX_N, x)
        rel = abs(dv - zv) / abs(zv)
        return rel <= FLOAT_REL_TOL, f"q={x}: rel err {rel:.3g}"

    def positivity(n):
        scan = gram.positivity_scan(n, scan_points[n])
        worst = min(e for _, e in scan)
        ok = len(scan) == SCAN_SAMPLES and worst > MIN_EIGENVALUE
        return ok, f"n={n}: min eigenvalue {worst:.3g}"

    def rank(n, sign):
        r = gram.rank_at_limit(n, sign)
        return r == 1, f"n={n}, q={sign}: rank {r}"

    def eigvec(n, sign):
        ok, fact = gram.limit_eigenvector_check(n, sign)
        return ok and fact == math.factorial(n), f"n={n}, q={sign}"

    for n in range(1, GRAM_MAX_N + 1):
        ops.append(Op(f"gram_matrix(n={n})", lambda n=n: build(n)))
    for n in range(1, gram.EXACT_LIMIT + 1):
        ops.append(Op(f"det_gram_exact(n={n})", lambda n=n: det_exact(n)))
    for n in range(1, GRAM_MAX_N + 1):
        ops.append(Op(f"zagier_determinant(n={n})", lambda n=n: zagier(n)))
    for i, x in enumerate(float_points):
        ops.append(Op(f"det_float(n={GRAM_MAX_N}, point={i})",
                      lambda x=x: float_det(x)))
    for n in range(1, GRAM_MAX_N + 1):
        ops.append(Op(f"positivity_scan(n={n})", lambda n=n: positivity(n)))
    for n in range(2, GRAM_MAX_N + 1):
        for sign in (1, -1):
            ops.append(Op(f"rank_at_limit(n={n}, q={sign})",
                          lambda n=n, s=sign: rank(n, s)))
            ops.append(Op(f"limit_eigenvector_check(n={n}, q={sign})",
                          lambda n=n, s=sign: eigvec(n, s)))
    return ops


def gram_warm_up():
    g = gram.gram_matrix(2)
    gram.det_gram_exact(2)
    gram.zagier_determinant(2)
    np.linalg.det(g.evaluate_float(0.5))
    gram.positivity_scan(2, [0.5])
    gram.rank_at_limit(2, 1)
    gram.limit_eigenvector_check(2, -1)


# -- words -----------------------------------------------------------------


def random_chord_word(rng, pairs, modes):
    """`pairs` annihilator/creator pairs placed as a random chord diagram
    over `modes` modes: each chord has its annihilator at the left end."""
    slots = list(range(2 * pairs))
    rng.shuffle(slots)
    word = [None] * (2 * pairs)
    for i in range(pairs):
        left, right = sorted(slots[2 * i:2 * i + 2])
        mode = rng.randint(1, modes)
        word[left] = f"a{mode}"
        word[right] = f"c{mode}"
    return " ".join(word)


def diagram_count(text):
    """Number of Wick diagrams of a word: reading right to left, each
    annihilator pairs with one of the creators of its mode to its right
    that no annihilator has taken yet."""
    free = Counter()
    count = 1
    for token in reversed(text.split()):
        mode = token[1:]
        if token[0] == "c":
            free[mode] += 1
        else:
            count *= free[mode]
            free[mode] -= 1
    return count


def balanced_words(rng, pairs, modes, n):
    """n random chord words of one size class, with the seed changing the
    words but hardly the work: of WORD_POOL * n candidates sorted by
    diagram count, keep the one at the middle of each of n equal slices."""
    pool = sorted((random_chord_word(rng, pairs, modes)
                   for _ in range(WORD_POOL * n)), key=diagram_count)
    return [pool[WORD_POOL * i + WORD_POOL // 2] for i in range(n)]


def chain_word(k):
    """a1 a2 c1 a3 c2 ... ak c(k-1) ck: chord i crosses only chord i+-1,
    so the crossing graph is a path."""
    tokens = ["a1"]
    for i in range(2, k + 1):
        tokens += [f"a{i}", f"c{i - 1}"]
    tokens.append(f"c{k}")
    return " ".join(tokens)


def _mc_exact(word, k, q, mc_seed):
    """At q = +-1 every sign is fixed, so each sample is the exact finite-N
    value of a path crossing graph."""
    est = speicher.mc_estimate(word, q, MC_COMPONENTS, MC_SAMPLES, mc_seed)
    exact = (q + (1 - q) / MC_COMPONENTS) ** (k - 1)
    ok = math.isclose(est.mean, exact, rel_tol=1e-9)
    return ok, f"mean {est.mean!r} != exact {exact!r}"


def _mc_exact_ops(rng, k):
    word = qfock.parse_word(chain_word(k))
    ops = []
    for q in (1.0, -1.0):
        s = rng.randrange(2 ** 32)
        ops.append(Op(f"mc_estimate(chain k={k}, q={q})",
                      lambda w=word, k=k, q=q, s=s: _mc_exact(w, k, q, s)))
    return ops


def words_ops(seed):
    rng = _rng("words", seed)
    ops = []

    def vev(word):
        rewrite = qfock.vacuum_expectation(word)
        diagrams = wick.wick_expectation(word)
        return rewrite == diagrams, f"rewrite {rewrite} != wick {diagrams}"

    def mc_sampled(word, q, mc_seed):
        est = speicher.mc_estimate(word, q, MC_COMPONENTS, MC_SAMPLES, mc_seed)
        ref = float(speicher.expected_over_signs(word, q, MC_COMPONENTS))
        ok = abs(est.mean - ref) <= MC_SIGMAS * est.stderr
        return ok, f"mean {est.mean!r} vs {ref!r} +- {est.stderr!r}"

    # every (pairs, modes) combination equally often, and within each the
    # same spread of diagram counts, so that the seed changes the diagrams
    # but hardly the work
    sizes = [(pairs, modes) for pairs in range(PAIRS[0], PAIRS[1] + 1)
             for modes in range(MODES[0], MODES[1] + 1)]
    per_size = [balanced_words(rng, *size, RANDOM_WORDS // len(sizes))
                for size in sizes]
    for i in range(RANDOM_WORDS):
        text = per_size[i % len(sizes)][i // len(sizes)]
        word = qfock.parse_word(text)
        ops.append(Op(f"vev[{i}]({text})", lambda w=word: vev(w)))
    for k in CHAIN_K:
        ops += _mc_exact_ops(rng, k)
        word = qfock.parse_word(chain_word(k))
        s = rng.randrange(2 ** 32)
        ops.append(Op(f"mc_estimate(chain k={k}, q=0.5)",
                      lambda w=word, s=s: mc_sampled(w, 0.5, s)))
    return ops


def overflow_probe_ops(seed):
    """The known-defect probe: chain words past CHAIN_K at q = +-1, with
    the same check as the timed ones."""
    rng = _rng("overflow-probe", seed)
    return [op for k in OVERFLOW_CHAIN_K for op in _mc_exact_ops(rng, k)]


def words_warm_up():
    word = qfock.parse_word(chain_word(2))
    qfock.vacuum_expectation(word)
    wick.wick_expectation(word)
    speicher.mc_estimate(word, 0.5, MC_COMPONENTS, 2, 0)
    speicher.expected_over_signs(word, 0.5, MC_COMPONENTS)


# -- cli -------------------------------------------------------------------


def cli_argvs(seed):
    rng = _rng("cli", seed)
    return [["--stable-output"]
            + [str(rng.randrange(2 ** 31)) if a is None else a for a in cmd]
            for cmd in CLI_COMMANDS]


def report_checker():
    """check(code, stdout): exit 0, exactly one report on stdout that
    validates against the schema, status pass. jsonschema is imported here
    so that the gram and words set-up time does not include it."""
    import jsonschema
    schema = json.loads(SCHEMA_PATH.read_text())

    def check(code, stdout):
        text = stdout.strip()
        try:
            report, end = json.JSONDecoder().raw_decode(text)
        except json.JSONDecodeError as exc:
            return False, f"stdout is not JSON: {exc}"
        if end != len(text):
            return False, "more than one document on stdout"
        try:
            jsonschema.validate(report, schema)
        except jsonschema.ValidationError as exc:
            return False, f"report fails the schema: {exc.message}"
        ok = code == 0 and report["status"] == "pass"
        return ok, f"exit {code}, status {report['status']}"
    return check


def cli_ops(seed):
    """Each command in a fresh `python -m quonlib.cli` process."""
    check = report_checker()
    env = child_env()

    def call(argv):
        proc = subprocess.run([sys.executable, "-m", "quonlib.cli", *argv],
                              env=env, capture_output=True, text=True,
                              check=False)
        return check(proc.returncode, proc.stdout)

    return [Op(" ".join(argv[1:]), lambda a=argv: call(a))
            for argv in cli_argvs(seed)]


def cli_ops_in_process(seed):
    """The same commands through quonlib.cli.run, stdout captured; for the
    traced run, whose wrappers live in this process."""
    from quonlib import cli
    check = report_checker()

    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        return check(code, out.getvalue())

    return [Op(" ".join(argv[1:]), lambda a=argv: call(a))
            for argv in cli_argvs(seed)]
