import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from quonlib import parastat, verify
from quonlib.parastat import (DimensionBudgetError, build_green,
                              check_trilinear, check_vacuum_conditions,
                              gentile_demo, max_occupancy)


# -- reference oracles: the Kronecker-product build and the dense check ----


def _embed(op, site, nsites, levels):
    """Place a single-site operator at `site` in the tensor product
    (site 0 is the leftmost kron factor)."""
    out = np.array([[1.0]])
    for i in range(nsites):
        out = np.kron(out, op if i == site else np.eye(levels))
    return out


def kron_green_components(kind, p, modes, cap=None):
    """Green components as products of embedded single-site matrices,
    with each Klein sign applied as a dense parity matmul."""
    levels = 2 if kind == "parafermi" else cap + 1
    nsites = p * modes
    low = np.zeros((levels, levels))
    for n in range(1, levels):
        low[n - 1, n] = math.sqrt(n)
    parity = np.diag([(-1.0) ** n for n in range(levels)])
    components = {}
    for alpha in range(p):
        for k in range(modes):
            op = _embed(low, alpha * modes + k, nsites, levels)
            if kind == "parafermi":
                string = [alpha * modes + k2 for k2 in range(k)]
            else:
                string = range(alpha * modes)
            for s in string:
                op = _embed(parity, s, nsites, levels) @ op
            components[(alpha, k)] = op
    return components


def dense_trilinear_residual(r):
    """max |[[a†_k, a_l]_±, a†_m] - 2 delta_lm a†_k| over the protected
    columns, from the full dense matrices."""
    sign = 1.0 if r.kind == "parabose" else -1.0
    cols = r.protected_columns()
    worst = 0.0
    for k, l, m in itertools.product(range(r.modes), repeat=3):
        c_k, a_l, c_m = r.creator(k), r.annihilators[l], r.creator(m)
        inner = c_k @ a_l + sign * (a_l @ c_k)
        t = inner @ c_m - c_m @ inner
        if l == m:
            t = t - 2 * c_k
        worst = max(worst, float(np.abs(t[:, cols]).max(initial=0.0)))
    return worst


BUILD_GRID = ([("parafermi", p, m, None) for p in (1, 2, 3) for m in (1, 2, 3)]
              + [("parabose", p, m, cap) for p, m, cap in
                 ((1, 1, 3), (1, 2, 4), (2, 1, 2), (2, 2, 1), (2, 2, 3),
                  (2, 3, 2), (3, 2, 1))])


@pytest.mark.parametrize("kind,p,modes,cap", BUILD_GRID)
def test_index_build_equals_kron_reference(kind, p, modes, cap):
    r = build_green(kind, p, modes, cap=cap)
    ref = kron_green_components(kind, p, modes, cap)
    assert r.annihilators.keys() == set(range(modes))
    for k in range(modes):
        parts = [ref[(alpha, k)] for alpha in range(p)]
        # the components of one mode touch disjoint entries, so a_k pins
        # every one of them
        assert sum(part != 0 for part in parts).max() <= 1
        for alpha, part in enumerate(parts):
            assert np.array_equal(
                np.where(part != 0, r.annihilators[k], 0.0), part), (alpha, k)
        assert np.array_equal(r.annihilators[k], sum(parts))


def test_build_holds_only_the_annihilators():
    # parabose p = 2 on 3 modes with cap 2, criterion 6's case: 6
    # components summed into 3 annihilators of 729^2
    tracemalloc.start()
    try:
        r = build_green("parabose", 2, 3, cap=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not hasattr(r, "components")
    assert peak < 3.25 * r.dim ** 2 * 8


@pytest.mark.parametrize("kind,p,modes,cap", [
    ("parafermi", 2, 4, None), ("parafermi", 3, 3, None),
    ("parafermi", 8, 1, None), ("parabose", 1, 1, 300),
    ("parabose", 1, 2, 20), ("parabose", 2, 3, 2)])
def test_byte_budget_counts_the_peak_of_build_and_check(kind, p, modes, cap):
    # the budget counts the annihilators and check_trilinear's scratch;
    # for parafermi, every column dense, the count is the peak.  A first
    # call pays the one-time costs outside the trace.
    check_trilinear(build_green(kind, 1, 1, cap=None if cap is None else 2))
    tracemalloc.start()
    try:
        r = build_green(kind, p, modes, cap=cap)
        check_trilinear(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    counted = (modes + parastat.CHECK_SCRATCH) * r.dim ** 2 * 8
    assert peak <= 1.02 * counted
    if kind == "parafermi" and modes > 1:
        assert peak >= counted


CHECK_GRID = [("parafermi", 1, 2, None), ("parafermi", 2, 2, None),
              ("parafermi", 3, 2, None), ("parabose", 1, 2, 4),
              ("parabose", 2, 2, 3), ("parabose", 3, 1, 3),
              ("parabose", 2, 2, 1)]


@pytest.mark.parametrize("kind,p,modes,cap", CHECK_GRID)
def test_column_check_matches_dense_reference(kind, p, modes, cap):
    r = build_green(kind, p, modes, cap=cap)
    rep = check_trilinear(r)
    want = dense_trilinear_residual(r)
    assert abs(rep["max_residual"] - want) <= 1e-12
    assert rep["exact"] == (want <= 1e-10)
    if kind == "parafermi":
        assert rep["max_residual"] == 0.0


def test_check_reports_the_columns_it_covers():
    rep = check_trilinear(build_green("parabose", 2, 2, cap=3))
    assert (rep["dim"], rep["protected_states"]) == (256, 16)
    # criterion 6's parabose case checks the vacuum column only
    details = verify.parastatistics()["details"]
    assert details["trilinear_parabose_columns"] == {
        "dim": 729, "protected_states": 1}
    rep = check_trilinear(build_green("parafermi", 2, 2))
    assert (rep["dim"], rep["protected_states"]) == (16, 16)


@pytest.mark.parametrize("kind,p,modes,cap,broken", [
    ("parafermi", 2, 2, None, (0, 1)),
    ("parabose", 2, 2, 3, (1, 0)),
    ("parabose", 2, 3, 2, (1, 2)),
])
def test_check_catches_a_wrong_sign_string(kind, p, modes, cap, broken):
    # drop the Klein string of one component: its relations to the other
    # components flip between commuting and anticommuting
    r = build_green(kind, p, modes, cap=cap)
    components = kron_green_components(kind, p, modes, cap)
    signed = components[broken]
    components[broken] = np.abs(signed)
    assert not np.array_equal(components[broken], signed)
    annihilators = {k: sum(components[(alpha, k)] for alpha in range(p))
                    for k in range(modes)}
    bad = dataclasses.replace(r, annihilators=annihilators)
    rep = check_trilinear(bad)
    assert not rep["exact"]
    assert rep["max_residual"] >= 1.0


def test_protected_columns():
    r = build_green("parabose", 2, 2, cap=3)
    cols = r.protected_columns()
    # two creations from a protected state stay within the cap of 3
    assert cols.tolist() == [i for i, sites in enumerate(r.occupancy)
                             if max(sites) <= 1]
    assert np.array_equal(build_green("parafermi", 2, 2).protected_columns(),
                          np.arange(16))


def test_build_validation():
    with pytest.raises(ValueError):
        build_green("bogus", 2, 2)
    with pytest.raises(ValueError):
        build_green("parabose", 2, 2)  # missing cap
    with pytest.raises(DimensionBudgetError):
        build_green("parafermi", 4, 4)  # 2^16 sites worth of dimension
    assert build_green("parafermi", 2, 2, cap=1).cap == 1
    with pytest.raises(ValueError, match="cap=2"):
        build_green("parafermi", 2, 2, cap=2)  # a site holds one quantum


def test_byte_budget_refuses_before_allocating():
    # 4 annihilators and 5 scratch matrices of 4096^2 float64 are 1.125 GiB
    tracemalloc.start()
    try:
        with pytest.raises(DimensionBudgetError,
                           match="4 annihilators and 5 check_trilinear "
                                 "scratch matrices, dense float64 "
                                 "4096x4096, take 1207959552 bytes"):
            build_green("parafermi", 3, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_parafermi_p1_is_fermi():
    r = build_green("parafermi", 1, 2)
    for k in range(2):
        a = r.annihilators[k]
        assert np.allclose(a @ a, 0)
        assert np.allclose(a @ r.creator(k) + r.creator(k) @ a, np.eye(r.dim))
    a0, a1 = r.annihilators[0], r.annihilators[1]
    assert np.allclose(a0 @ a1 + a1 @ a0, 0)


def test_parabose_p1_is_bose_below_cap():
    r = build_green("parabose", 1, 1, cap=4)
    a = r.annihilators[0]
    comm = a @ r.creator(0) - r.creator(0) @ a
    cols = r.protected_columns()
    assert np.allclose((comm - np.eye(r.dim))[:, cols], 0)


def test_cross_component_relations():
    # parafermi: distinct components commute; parabose: anticommute
    rf = kron_green_components("parafermi", 2, 1)
    b0, b1 = rf[(0, 0)], rf[(1, 0)]
    assert np.allclose(b0 @ b1 - b1 @ b0, 0)
    rb = kron_green_components("parabose", 2, 1, cap=2)
    c0, c1 = rb[(0, 0)], rb[(1, 0)]
    assert np.allclose(c0 @ c1 + c1 @ c0, 0)


def test_trilinear_parafermi():
    for p in (1, 2):
        rep = check_trilinear(build_green("parafermi", p, 2))
        assert rep["exact"]
        assert rep["max_residual"] <= 1e-12


def test_trilinear_parabose_protected():
    rep = check_trilinear(build_green("parabose", 2, 2, cap=3))
    assert rep["exact"]
    assert rep["protected_only"]


def test_vacuum_constant_is_order():
    for kind, kwargs in (("parafermi", {}), ("parabose", {"cap": 2})):
        for p in (1, 2):
            rep = check_vacuum_conditions(build_green(kind, p, 2, **kwargs))
            assert rep["pass"]
            assert all(c == pytest.approx(p) for c in
                       rep["one_particle_constant"].values())


def test_parafermi_occupancy_bound():
    # at most p quanta fit in any totally symmetric state
    r = build_green("parafermi", 2, 3)
    assert max_occupancy(r, (0, 0)) > 1e-6
    assert max_occupancy(r, (0, 0, 0)) <= 1e-12
    assert max_occupancy(r, (0, 1, 2)) <= 1e-12
    assert max_occupancy(r, (0, 1, 2), symmetric=False) > 1e-6


def test_parabose_antisymmetric_bound():
    r = build_green("parabose", 2, 3, cap=2)
    assert max_occupancy(r, (0, 1), symmetric=False) > 1e-6
    assert max_occupancy(r, (0, 1, 2), symmetric=False) <= 1e-12


def test_gentile_demo_quarter_turn():
    rep = gentile_demo(math.pi / 4)
    assert rep["gentile_allowed_norm_sq"] == pytest.approx(0.75)
    assert rep["gentile_forbidden_norm_sq"] == pytest.approx(0.25)
    assert rep["parafermi_sector_vanishes"]


def test_gentile_demo_trivial_rotation():
    rep = gentile_demo(0.0)
    # everything sits in the forbidden triple-occupancy pattern
    assert rep["gentile_allowed_norm_sq"] == pytest.approx(0.0)
    assert rep["parafermi_sector_vanishes"]


def test_gentile_allowed_formula():
    for theta in (0.3, 0.8, 1.2):
        rep = gentile_demo(theta)
        want = 1 - math.cos(theta) ** 6 - math.sin(theta) ** 6
        assert rep["gentile_allowed_norm_sq"] == pytest.approx(want)


def test_projected_state_symmetrizes():
    r = build_green("parafermi", 2, 2)
    v1 = parastat._projected_state(r, (0, 1), symmetric=True)
    v2 = parastat._projected_state(r, (1, 0), symmetric=True)
    assert np.allclose(v1, v2)
