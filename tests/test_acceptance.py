"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Exact-arithmetic criteria assert equality; numerical
criteria assert the stated tolerances, pinned here and nowhere else.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

import ncpath as nc
from ncpath.phi_engine import (
    GaussianRational,
    PhiContext,
    bareiss_determinant,
    build_phi,
    d_det,
    d_inverse_entry,
    dense_d_matrix,
    first_derivative_report,
    midslice_limit_check,
    second_derivative_report,
)

THETA_Q = [[F(0), F(1, 10)], [F(-1, 10), F(0)]]
XF = [F(7, 4), F(-1, 3)]
XIN = [F(-1, 2), F(5, 6)]


def report(number, title, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({title}): {status}" + (f" — {detail}" if detail else ""))
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_1_coupling_matrix_identities():
    t0 = time.perf_counter()
    for m in range(1, 65):
        assert d_det(m) == m + 1
        assert bareiss_determinant(dense_d_matrix(m)) == m + 1
        # tridiagonal structure: row a of the product touches three inverse rows
        def inv(a, b):
            if a < 1 or a > m:
                return F(0)
            return d_inverse_entry(m, a, b)

        for a in range(1, m + 1):
            for b in range(1, m + 1):
                entry = 2 * inv(a, b) - inv(a - 1, b) - inv(a + 1, b)
                assert entry == (1 if a == b else 0)
    elapsed = time.perf_counter() - t0
    report(1, "coupling-matrix identities", elapsed < 10.0,
           f"det and inverse exact for m = 1..64 in {elapsed:.2f}s")


def test_criterion_2_surviving_midslice_limit():
    ok = True
    for m in (2, 10, 100, 1000):
        for T in (F(1), F(3, 2)):
            value, error = midslice_limit_check(m, T)
            ok = ok and value == T * T * F(m, m + 1)
            ok = ok and error == T * T / (m + 1)
    report(2, "surviving midslice limit", ok,
           "value = T²·m/(m+1) and gap = T²/(m+1), exactly, m ∈ {2,10,100,1000}")


def test_criterion_3_second_derivative_table():
    t0 = time.perf_counter()
    alphas = [F(-1, 2), F(-1, 4), F(0), F(1, 4), F(1, 2)]
    T = F(1)
    zz_ok = True
    sum_ok = True
    jz_varies = False
    for m in range(1, 9):
        forms = {al: build_phi(PhiContext(m, T, al), THETA_Q, XF, XIN) for al in alphas}
        for a in range(m + 1):
            for b in range(m + 1):
                reps = {al: second_derivative_report(forms[al], a, b, 0, 1)
                        for al in alphas}
                # momentum-momentum: θ^{ik}θ^{jk}·Mħ/(iT); zero for (0,1) here
                for al in alphas:
                    rep_diag = second_derivative_report(forms[al], a, b, 0, 0)
                    zz_ok = zz_ok and rep_diag.zz == GaussianRational(0, -F(1, 100) / T)
                    zz_ok = zz_ok and reps[al].zz == GaussianRational(0)
                vals = list(reps.values())
                expected_sum = GaussianRational(0) if a == b else GaussianRational(
                    0, (1 if a < b else -1) * F(1, 10) * F(m + 1 - abs(a - b), m + 1))
                sum_ok = sum_ok and all(v.jz_plus_zj == expected_sum for v in vals)
                if any(vals[0].jz != v.jz for v in vals[1:]):
                    jz_varies = True
    elapsed = time.perf_counter() - t0
    report(3, "second-derivative table", zz_ok and sum_ok and jz_varies and elapsed < 30,
           f"exact for m = 1..8, all pairs, 5 ordering indices in {elapsed:.1f}s")


def test_criterion_4_first_derivative_structure():
    ok = True
    for m in (3, 5, 10):
        for alpha in (F(-1, 2), F(0), F(2, 5)):
            ctx = PhiContext(m, F(1), alpha)
            phi = build_phi(ctx, THETA_Q, XF, XIN)
            theta_term = [
                GaussianRational(sum((THETA_Q[i][l] * (XF[l] - XIN[l])
                                      for l in range(2)), F(0)))
                for i in range(2)
            ]
            for a in range(m + 1):
                for i in range(2):
                    rep = first_derivative_report(phi, a, i)
                    wf = (F(2 * a + 1, 2) + alpha) / (m + 1)
                    wi = (F(2 * (m - a) + 1, 2) - alpha) / (m + 1)
                    ok = ok and rep.coordinate_route == GaussianRational(
                        XF[i] * wf + XIN[i] * wi)
                    # the θ-term appears identically for every slice label
                    ok = ok and rep.momentum_route == theta_term[i]
    report(4, "first-derivative structure", ok,
           "endpoint/interior case structure and the uniform (M/T)θΔx term, exact")


def test_criterion_5_symbol_washout_and_detection_power():
    t0 = time.perf_counter()
    grid = nc.PhaseSpaceGrid(16, 6.0, 2)
    theta = nc.ThetaMatrix.single_block(2, 0.1)
    V = nc.Potential.quartic(1.0, dim=2)
    washout = nc.verify_alpha_washout(V, theta, grid, [-0.4, 0.0, 0.4])
    spread_ok = washout.max_pairwise_relative < 1e-6
    ctrl_grid = nc.PhaseSpaceGrid(16, 6.0, 1)
    ctrl = nc.symmetrized_position_momentum_kernel(ctrl_grid, nc.PhysicsParams(dim=1))
    s_hi = nc.symbol_of_operator(ctrl, 0.5).values
    s_lo = nc.symbol_of_operator(ctrl, -0.5).values
    ctrl_spread = float(np.max(np.abs(s_hi - s_lo)))
    elapsed = time.perf_counter() - t0
    report(5, "symbol washout + detection power",
           spread_ok and ctrl_spread >= 1e-2 and elapsed < 120,
           f"quartic spread {washout.max_pairwise_relative:.2e} rel; "
           f"control spread {ctrl_spread:.2f}; {elapsed:.1f}s")


@pytest.fixture(scope="module")
def sweep_setup():
    params = nc.PhysicsParams(dim=2)
    grid = nc.PhaseSpaceGrid(32, 7.0, 2)
    theta = nc.ThetaMatrix.single_block(2, 0.1)
    V = nc.Potential.harmonic(1.0, 1.0, dim=2)
    return params, grid, theta, V


def test_criterion_6_kernel_alpha_sweep(sweep_setup):
    t0 = time.perf_counter()
    params, grid, theta, V = sweep_setup
    probe = nc.gaussian_packet(grid)
    with pytest.warns(UserWarning, match="momentum edge"):  # m = 4 slices coarsely
        result = nc.alpha_sweep(params, 1.0, [0.5, -0.5], [4, 8, 16, 32], V, theta,
                                grid, probe)
    elapsed = time.perf_counter() - t0
    slope_ok = -1.2 <= result.slope <= -0.8
    residual_ok = result.residual < 0.1
    quarter_ok = result.d_values[32] < result.d_values[4] / 4.0
    report(6, "kernel ordering sweep",
           slope_ok and residual_ok and quarter_ok and elapsed < 600,
           f"slope {result.slope:.3f}, residual {result.residual:.4f}, "
           f"D(32)/D(4) = {result.d_values[32] / result.d_values[4]:.3f}; "
           f"{elapsed:.1f}s")


def test_criterion_7_oracle_agreement(sweep_setup):
    params, grid, theta, V = sweep_setup
    probe = nc.gaussian_packet(grid, width=np.sqrt(0.5))
    rows = nc.oracle_compare(V, theta, grid, params, 1.0, [16, 32, 64], probe,
                             alpha=0.5)
    errors = [err for _, err in rows]
    monotone = errors[0] > errors[1] > errors[2]
    report(7, "oracle agreement", monotone and errors[2] < 1e-2,
           f"L2 errors {['%.2e' % e for e in errors]} over m = 16, 32, 64")


def test_criterion_8_free_particle_exactness():
    params = nc.PhysicsParams(dim=2)
    theta = nc.ThetaMatrix.single_block(2, 0.1)
    Vz = nc.Potential.zero(2)
    bitwise = True
    grid32 = nc.PhaseSpaceGrid(32, 7.0, 2)
    # these slices are coarse on purpose: each spans T/(m+1) of a long interval
    with pytest.warns(UserWarning, match="momentum edge"):
        for m in (0, 2, 7):
            base = nc.short_time_propagator(nc.SlicingConfig(m, 1.0, -0.5, params),
                                            Vz, theta, grid32)
            for alpha in (-0.3, 0.0, 0.25, 0.5):
                other = nc.short_time_propagator(nc.SlicingConfig(m, 1.0, alpha, params),
                                                 Vz, theta, grid32)
                bitwise = bitwise and np.array_equal(base.entries, other.entries)

    grid64 = nc.PhaseSpaceGrid(64, 8.0, 2)
    T, sigma = 0.5, 1.0
    with pytest.warns(UserWarning, match="momentum edge"):
        k_a = nc.short_time_propagator(nc.SlicingConfig(0, T, 0.0, params), Vz, theta,
                                       grid64)
        k_b = nc.short_time_propagator(nc.SlicingConfig(0, T, 0.5, params), Vz, theta,
                                       grid64)
    bitwise = bitwise and np.array_equal(k_a.entries, k_b.entries)
    psi = nc.gaussian_packet(grid64, width=sigma)
    action = k_a.apply(psi)
    del k_a, k_b
    z = 1.0 + 1j * T / (2.0 * sigma**2)
    r2 = np.sum(grid64.x_points**2, axis=-1)
    norm = 1.0 / np.sqrt(np.sum(np.exp(-r2 / (2 * sigma**2))) * grid64.cell_volume)
    exact = norm / z * np.exp(-r2 / (4 * sigma**2 * z))
    fresnel_err = float(np.sqrt(np.sum(np.abs(action.values - exact) ** 2)
                                * grid64.cell_volume))
    report(8, "free-particle exactness", bitwise and fresnel_err < 1e-6,
           f"bitwise ordering-independence; closed-kernel probe error "
           f"{fresnel_err:.2e}")


def test_criterion_9_star_product_identities():
    grid = nc.PhaseSpaceGrid(64, 8.0, 2)
    theta = nc.ThetaMatrix.single_block(2, 0.1)
    phi = nc.gaussian_packet(grid, center=(0.5, -0.3), width=1.0)
    psi = nc.gaussian_packet(grid, center=(-0.4, 0.2), width=1.2, momentum=(0.5, -0.2))
    identity_dev = nc.star_integral_identity_check(phi, psi, theta)
    zero_theta_exact = nc.star_integral_identity_check(
        phi, psi, nc.ThetaMatrix.zero(2)) == 0.0
    psi16 = nc.gaussian_packet(grid, width=1.0)
    degen = nc.star_apply(nc.Potential.quartic(1.0, dim=2), nc.ThetaMatrix.zero(2),
                          psi16)
    degen_exact = np.array_equal(
        degen.values, nc.Potential.quartic(1.0, dim=2)(grid.x_points) * psi16.values)

    grid32 = nc.PhaseSpaceGrid(32, 7.0, 2)
    V = nc.Potential.harmonic(1.0, 1.0, dim=2)
    probe = nc.gaussian_packet(grid32, width=1.1, momentum=(0.3, 0.1))
    kern = nc.potential_operator_kernel(V, theta, grid32)
    via_kernel = kern.apply(probe)
    direct = nc.star_apply(V, theta, probe)
    kernel_dev = float(np.max(np.abs(via_kernel.values - direct.values)))
    report(9, "star-product identities",
           identity_dev < 1e-8 and zero_theta_exact and degen_exact
           and kernel_dev < 1e-8,
           f"integral identity {identity_dev:.2e}; kernel-vs-star {kernel_dev:.2e}; "
           f"commutative degeneration exact")
