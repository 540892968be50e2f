"""Acceptance suite: every released criterion at its stated tolerance.

Each criterion prints one pass/fail line (run pytest with -s to see them
inline; they also appear in captured output).
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm, sqrtm

from semiclab.bogoliubov import (
    CreatedState,
    GeneratorPath,
    flow_invariants,
    integrate_flow,
    picard_flow,
    propagate_direct,
    propagate_gaussian,
)
from semiclab.constrained import (
    QuadSpec,
    inner_constrained,
    invariance_check,
    make_plane,
)
from semiclab.fock import (
    FockVector,
    ModeBasis,
    QuadraticGenerator,
    WeightOperator,
    apply_ladder,
    apply_quadratic,
    displacement,
    number_state,
    one_body_matrix,
    vacuum_state,
    weighted_norm,
)
from semiclab.packets import (
    ComposedPacket,
    asymptotic_inner,
    derivative_identity_residual,
    direct_inner,
    expansion_check,
    fit_loglog_slope,
    gaussian_shape,
    k_lambda,
    packet_grid,
)
from semiclab.scenarios import (
    harmonic_orbit_manifold,
    mixed_rotation_squeeze_path,
    su11_family,
    u2_family,
    wkb_evolution_error,
)
from semiclab.symmetry import (
    GroupWord,
    check_f3,
    check_group_law,
    check_x6,
    omega_matrix,
    word_product,
)

LAMBDA_SWEEP = [1e-1, 1e-2, 1e-3, 1e-4]


def _verdict(num: int, label: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}", flush=True)
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_bogoliubov_invariants():
    started = time.perf_counter()
    path = mixed_rotation_squeeze_path()
    flow = integrate_flow(path, t=2.0, dt=1e-3)
    res = flow_invariants(flow)
    elapsed = time.perf_counter() - started
    ok = (res.gram <= 1e-9 and res.symmetry <= 1e-9
          and res.riccati_consistency <= 1e-9 and elapsed < 5.0)
    _verdict(1, f"canonical-relation residuals {res.max:.2e} in {elapsed:.2f}s",
             ok)


def test_criterion_2_propagator_equivalence():
    kappa, t, dt = 0.2, 1.0, 1e-3
    path = GeneratorPath.constant(
        QuadraticGenerator.from_blocks(hpp=[[kappa]]), 4.0)
    basis = ModeBasis(1, 24)
    flow = integrate_flow(path, t, dt)
    gauss = propagate_gaussian(CreatedState(), flow, basis)
    direct = propagate_direct(vacuum_state(basis), path, t, dt)
    gap24 = float(np.linalg.norm(gauss.coeffs - direct.state.coeffs))

    small = ModeBasis(1, 12)
    gauss12 = propagate_gaussian(CreatedState(), flow, small)
    direct12 = propagate_direct(vacuum_state(small), path, t, dt)
    gap12 = float(np.linalg.norm(gauss12.coeffs - direct12.state.coeffs))
    q = math.tanh(kappa * t)
    tail12 = abs(gauss.coeffs[12]) * q / math.sqrt(1 - q * q)
    ok = gap24 <= 1e-6 and gap12 > gap24 and gap12 <= 10 * tail12
    _verdict(2, f"gaussian-direct gap {gap24:.2e} at N=24, {gap12:.2e} at N=12 "
                f"(tail estimate {tail12:.2e})", ok)


def test_criterion_3_picard_oracle():
    path = mixed_rotation_squeeze_path()
    t = 1.0
    flow = integrate_flow(path, t, dt=5e-4)
    res = picard_flow(path, t, n_terms=25)
    gap = float(np.linalg.norm(res.f - flow.f)
                + np.linalg.norm(res.g - flow.g))
    k_const = 0.0
    for tau in np.linspace(0, t, 101):
        gen = path(float(tau))
        k_const = max(k_const, np.linalg.norm(gen.hpm, 2),
                      np.linalg.norm(gen.hpp, 2))
    d = path.modes
    bound_ok = all(
        tn <= math.sqrt(d) * (2 * k_const * t) ** n / math.factorial(n) * (1 + 1e-9)
        for n, tn in enumerate(res.term_norms))
    ok = gap <= 1e-6 and bound_ok
    _verdict(3, f"picard-integrator gap {gap:.2e}, factorial term bound "
                f"{'holds' if bound_ok else 'violated'}", ok)


def _random_state(basis, rng, max_total=None):
    c = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    if max_total is not None:
        c[basis.totals > max_total] = 0
    c /= np.linalg.norm(c)
    return FockVector(basis, c)


def test_criterion_4_fock_inequalities():
    rng = np.random.default_rng(2024)
    violations = 0

    # weighted-norm domination
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(4, 8))
        basis = ModeBasis(d, n)
        w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        t_op = WeightOperator(np.eye(d) + w @ w.conj().T)
        psi = _random_state(basis, rng)
        m = float(rng.integers(0, 3))
        if weighted_norm(psi, m) > weighted_norm(psi, m, t_op) * (1 + 1e-10):
            violations += 1

    # particle-conserving block bound
    for _ in range(100):
        d = int(rng.integers(1, 4))
        basis = ModeBasis(d, int(rng.integers(3, 7)))
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        tmat = np.eye(d) + w @ w.conj().T
        tau = np.linalg.inv(sqrtm(tmat))
        c = max(np.linalg.norm(tau @ h @ tau, 2),
                np.linalg.norm(h @ np.linalg.inv(tmat), 2))
        psi = _random_state(basis, rng)
        out = apply_quadratic(QuadraticGenerator.from_blocks(hpm=h), psi)
        if out.norm() > c * weighted_norm(psi, 1, WeightOperator(tmat)) * (1 + 1e-10):
            violations += 1

    # monomial weighted bound with the grade-sharp constant
    from test_fock import _monomial_apply, _monomial_constant

    for _ in range(100):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(5, 9))
        m_ops = int(rng.integers(1, 3))
        k_ops = int(rng.integers(0, m_ops + 1))
        l = int(rng.integers(0, 2))
        basis = ModeBasis(d, min(n, 12))
        fs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(m_ops)]
        gs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(k_ops)]
        kern = float(np.prod([np.linalg.norm(v) for v in fs + gs]))
        psi = _random_state(basis, rng, max_total=basis.cutoff - m_ops)
        out = _monomial_apply(fs, gs, psi)
        bound = math.sqrt(_monomial_constant(m_ops, k_ops, l)) * kern \
            * weighted_norm(psi, l + (k_ops + m_ops) / 2)
        if weighted_norm(out, l) > bound * (1 + 1e-10):
            violations += 1

    _verdict(4, f"300 random inequality instances, {violations} violations",
             violations == 0)


def test_criterion_5_displacement_overlap():
    rng = np.random.default_rng(7)
    basis = ModeBasis(1, 32)
    worst = 0.0
    for _ in range(20):
        b = rng.normal() + 1j * rng.normal()
        b *= rng.uniform(0.1, 1.0) / abs(b)
        out = displacement([b], vacuum_state(basis), pad=32)
        worst = max(worst, abs(out.coeffs[0] - math.exp(-abs(b) ** 2 / 2)))
    _verdict(5, f"vacuum overlap error {worst:.2e} at N=32", worst <= 1e-8)


def test_criterion_6_constrained_space():
    basis32 = ModeBasis(1, 32)
    plane_b = make_plane([np.array([1.7])])
    val = inner_constrained(vacuum_state(basis32), vacuum_state(basis32),
                            plane_b, QuadSpec(pad=12, order=48))
    gap_analytic = abs(val - math.sqrt(2 * math.pi) / 1.7)

    basis48 = ModeBasis(1, 48)
    plane1 = make_plane([np.array([1.0])])
    psi1 = number_state(basis48, (1,))
    null_val = abs(inner_constrained(psi1, psi1, plane1,
                                     QuadSpec(pad=14, order=64)))

    rng = np.random.default_rng(11)
    basis24 = ModeBasis(1, 24)
    spec = QuadSpec(pad=140, order=64)
    worst_neg = 0.0
    for _ in range(100):
        y = _random_state(basis24, rng, max_total=6)
        v = inner_constrained(y, y, plane1, spec)
        worst_neg = max(worst_neg, -v.real)

    path = GeneratorPath.constant(
        QuadraticGenerator.from_blocks(hpp=[[0.3]]), 4.0)
    inv = invariance_check(vacuum_state(basis24), plane1, path, t=1.0,
                           quad=QuadSpec(pad=16, order=64))

    ok = (gap_analytic <= 1e-6 and null_val <= 1e-8
          and worst_neg <= 1e-10 and inv <= 1e-6)
    _verdict(6, f"analytic {gap_analytic:.2e}, null {null_val:.2e}, "
                f"positivity floor {worst_neg:.2e}, invariance {inv:.2e}", ok)


def test_criterion_7_group_law():
    fam = u2_family()
    basis = ModeBasis(2, 12)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        a1 = 0.3 * rng.normal(size=4)
        a2 = 0.3 * rng.normal(size=4)
        g1 = expm(sum(c * r for c, r in zip(a1, fam.algebra.rep)))
        g2 = expm(sum(c * r for c, r in zip(a2, fam.algebra.rep)))
        worst = max(worst, check_group_law(fam, g1, g2, np.zeros(5), basis,
                                           dt=2e-3))
    loop = word_product(fam, GroupWord([(2, 2 * math.pi)]), np.zeros(5), basis,
                        dt=2e-3)
    ok = (worst <= 1e-6 and loop.classical_is_loop
          and loop.loop_distance <= 1e-6 and abs(loop.loop_phase) <= 1e-6)
    _verdict(7, f"20 random pairs, worst group-law residual {worst:.2e}; "
                f"closed word distance {loop.loop_distance:.2e}", ok)


def test_criterion_8_metaplectic_loop():
    fam = su11_family()
    basis = ModeBasis(1, 14)
    res = word_product(fam, GroupWord([(0, 4 * math.pi)]), np.zeros(3), basis,
                       dt=1e-3)
    keep = basis.grade_size(10)
    sign_gap = float(np.abs(res.matrix[:keep, :keep] + np.eye(keep)).max())
    ok = (res.classical_is_loop
          and abs(abs(res.loop_phase) - math.pi) <= 1e-8
          and sign_gap <= 1e-8)
    _verdict(8, f"classical loop closes, lift is -1 to {sign_gap:.2e}", ok)


def test_criterion_9_anomaly_detection():
    eps = 0.05
    fam = su11_family(central_offset=eps)
    basis = ModeBasis(1, 16)
    x0 = np.zeros(3)
    a = np.array([0.0, 1.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    f3 = check_f3(fam, a, b, x0)
    x6 = check_x6(fam, a, b, x0, basis)
    from semiclab.fock import quadratic_matrix

    r = -(quadratic_matrix(fam.generator(a, x0), basis)
          @ quadratic_matrix(fam.generator(b, x0), basis)
          - quadratic_matrix(fam.generator(b, x0), basis)
          @ quadratic_matrix(fam.generator(a, x0), basis))
    r += 1j * quadratic_matrix(fam.generator(fam.algebra.bracket(a, b), x0),
                               basis)
    keep = basis.grade_size(12)
    commutant = 0.0
    for dx in (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.3, -0.8])):
        om = omega_matrix(fam, x0, dx, basis)
        comm = r @ om - om @ r
        commutant = max(commutant, float(np.linalg.norm(comm[:keep, :keep], 2)))
    ok = (x6.is_scalar and abs(x6.scalar - 1j * eps) <= 1e-6
          and abs(f3.hbar_residual - eps) <= 1e-6 and commutant <= 1e-6)
    _verdict(9, f"scalar {x6.scalar:.4} vs injected {1j * eps:.4}, "
                f"commutant {commutant:.2e}", ok)


def test_criterion_10_packet_asymptotics():
    started = time.perf_counter()

    f = gaussian_shape(n=512)
    x = np.array([0.4, 1.3, -0.7])
    norm_gap = max(
        abs(k_lambda(x, f, lam, packet_grid(x, f, lam)).norm() - f.norm())
        for lam in (1.0, 0.01))

    g = gaussian_shape()
    x2, dq = np.array([0.0, 0.2, 1.0]), np.array([0.0, 1.0, 0.0])
    r_big = derivative_identity_residual(x2, g, 1e-3, dq, h=2e-3)
    r_small = derivative_identity_residual(x2, g, 1e-3, dq, h=1e-3)
    r_lam = derivative_identity_residual(x2, g, 5e-4, dq, h=1e-3)
    lam_indep = abs(r_small - r_lam) <= 0.1 * max(r_small, r_lam)
    h_order = abs(r_big / r_small - 4.0) <= 0.2

    slope_exp, errs_exp = expansion_check(
        harmonic_orbit_manifold(), g, beta=0.7, lams=LAMBDA_SWEEP, alpha=0.5)

    cp = ComposedPacket(harmonic_orbit_manifold(), gaussian_shape())
    asym = asymptotic_inner(cp, cp)
    gaps = [abs(direct_inner(cp, cp, lam) - asym) / abs(asym)
            for lam in LAMBDA_SWEEP]
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    slope_inner = fit_loglog_slope(LAMBDA_SWEEP, gaps)

    wkb_errs = [wkb_evolution_error(lam) for lam in LAMBDA_SWEEP]
    slope_wkb = fit_loglog_slope(LAMBDA_SWEEP, wkb_errs)

    elapsed = time.perf_counter() - started
    ok = (norm_gap <= 1e-12 and lam_indep and h_order
          and slope_exp >= 0.45 and monotone and slope_inner >= 0.45
          and slope_wkb >= 0.45 and elapsed < 60.0)
    _verdict(10, f"norm {norm_gap:.1e}; slopes expansion {slope_exp:.2f}, "
                 f"inner {slope_inner:.2f}, wkb {slope_wkb:.2f}; "
                 f"sweep in {elapsed:.1f}s", ok)
