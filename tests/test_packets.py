import dataclasses
import inspect
import math

import numpy as np
import pytest
import splitstep_numpy

from semiclab import packets
from semiclab.bogoliubov import step_count
from semiclab.packets import (
    ComposedPacket,
    PacketManifold,
    ShapeFunction,
    SplitStepProblem,
    UniformGrid,
    _beta_box,
    _displaced_rows,
    _displacement_pairings,
    asymptotic_inner,
    compose_packet,
    derivative_identity_residual,
    direct_inner,
    expansion_check,
    fiber_displacement,
    fiber_form,
    fit_loglog_slope,
    gauge_transform,
    gaussian_shape,
    k_lambda,
    omega_commutator_residual,
    packet_grid,
    project_fiber,
    splitstep_evolve,
    wave_moments,
)
from semiclab.quadrature import gauss_legendre
from semiclab.scenarios import harmonic_orbit_manifold


UNIT = dict(zip("sqp", np.eye(3)))  # unit tangents along S, Q and P


def test_k_lambda_identity_at_unit_lambda():
    f = gaussian_shape()
    x = np.zeros(3)
    wave = k_lambda(x, f, 1.0, packet_grid(x, f, 1.0))
    assert np.allclose(wave.values, f.values, atol=1e-12)


def test_k_lambda_norm_preserving():
    f = gaussian_shape(n=512)
    x = np.array([0.4, 1.3, -0.7])
    for lam in (1.0, 0.01):
        wave = k_lambda(x, f, lam, packet_grid(x, f, lam))
        assert abs(wave.norm() - f.norm()) < 1e-12


def test_k_lambda_value_at_center():
    f = gaussian_shape()
    lam = 0.3
    x = np.array([0.2, 0.9, 1.1])
    grid = packet_grid(x, f, lam)
    wave = k_lambda(x, f, lam, grid)
    j = int(np.argmin(np.abs(grid.points - x[1])))
    expect = lam**-0.25 * np.exp(1j * x[0] / lam) * f.at(np.array([0.0]))[0]
    assert abs(wave.values[j] - expect) < 1e-10


def test_k_lambda_grid_too_small():
    f = gaussian_shape()
    with pytest.raises(ValueError):
        k_lambda(np.array([0, 5.0, 0]), f, 1.0, UniformGrid.centered(3.0, 64))


@pytest.mark.parametrize("bad", [np.array([0.2, 0.9]), np.array([0.2, math.nan, 1.1])],
                         ids=["shape-2", "nan"])
@pytest.mark.parametrize("entry", [
    lambda x, f: k_lambda(x, f, 0.3, UniformGrid.centered(12.0, 512)),
    lambda x, f: packet_grid(x, f, 0.3),
    lambda x, f: derivative_identity_residual(x, f, 0.05, UNIT["q"]),
], ids=["k_lambda", "packet_grid", "derivative_identity_residual"])
def test_packet_entries_reject_a_point_that_is_not_three_finite_numbers(entry, bad):
    with pytest.raises(ValueError, match=r"a point X = \(S, Q, P\)"):
        entry(bad, gaussian_shape())


def test_k_lambda_takes_the_points_of_the_symmetry_flows():
    # X = (S, Q, P) is one array for both realizations: a point moved by a
    # su11 flow gives the packet of the same point written out by hand
    from semiclab.scenarios import su11_family

    f, lam = gaussian_shape(), 0.3
    moved = su11_family().system.flow(np.array([1.0, 0.0, 0.0]), 0.7,
                                      np.array([0.1, 0.8, -0.3]))
    by_hand = [float(c) for c in moved]
    grid = packet_grid(by_hand, f, lam)
    assert grid == packet_grid(moved, f, lam)
    assert np.array_equal(k_lambda(moved, f, lam, grid).values,
                          k_lambda(by_hand, f, lam, grid).values)


def test_derivative_identity_s_component():
    # the S-identity is exact; the central difference leaves the pure sinc
    # defect h^2/6 (times roundoff creep at the smallest lambda)
    f = gaussian_shape()
    x = np.array([0.3, 0.5, 0.8])
    h = 1e-4
    res1 = derivative_identity_residual(x, f, 1.0, UNIT["s"], h=h)
    assert res1 == pytest.approx(h**2 / 6, rel=1e-4)
    for lam in (1e-2, 1e-4):
        res = derivative_identity_residual(x, f, lam, UNIT["s"], h=h)
        assert res == pytest.approx(h**2 / 6, rel=0.2)


def test_derivative_identity_q_and_p():
    f = gaussian_shape()
    x = np.array([0.1, -0.4, 1.2])
    for comp in ("q", "p"):
        res = derivative_identity_residual(x, f, 0.05, UNIT[comp], h=1e-4)
        assert res < 1e-6


def test_derivative_identity_lambda_independent():
    f = gaussian_shape()
    x = np.array([0.0, 0.2, 1.0])
    r1 = derivative_identity_residual(x, f, 1e-3, UNIT["q"], h=1e-3)
    r2 = derivative_identity_residual(x, f, 5e-4, UNIT["q"], h=1e-3)
    assert abs(r1 - r2) <= 0.1 * max(r1, r2)


def test_derivative_identity_h_scaling():
    f = gaussian_shape()
    x = np.array([0.0, 0.2, 1.0])
    r1 = derivative_identity_residual(x, f, 0.01, UNIT["q"], h=2e-3)
    r2 = derivative_identity_residual(x, f, 0.01, UNIT["q"], h=1e-3)
    assert r1 / r2 == pytest.approx(4.0, rel=0.05)


def test_omega_commutators():
    g = gaussian_shape()
    for c in "sqp":
        assert omega_commutator_residual(UNIT[c], UNIT[c], g) < 1e-14
    assert omega_commutator_residual(UNIT["s"], UNIT["q"], g) < 1e-14
    assert omega_commutator_residual(UNIT["s"], UNIT["p"], g) < 1e-14
    assert omega_commutator_residual(UNIT["p"], UNIT["q"], g) < 1e-8
    assert omega_commutator_residual(UNIT["q"], UNIT["p"], g) < 1e-8
    # the curl comes from the action form for any pair of tangents
    u, v = np.array([0.3, -1.2, 0.5]), np.array([1.0, 0.4, -0.7])
    assert omega_commutator_residual(u, v, g) < 1e-8


def test_fiber_form_is_linear_in_the_tangent_and_blind_to_ds():
    f = gaussian_shape(n=192, half_width=9, width=0.8, momentum=0.7)
    dx = np.array([0.3, -1.2, 0.5])
    expect = 0.5 * f.grid.points * f.values - 1.2j * f.derivative().values
    assert np.abs(fiber_form(dx, f).values - expect).max() < 1e-13
    assert not fiber_form(UNIT["s"], f).values.any()


def test_compose_constant_manifold_matches_elementary():
    # a degenerate (point) manifold reproduces the elementary packet up to
    # the superposition constant
    lam = 0.5
    f = gaussian_shape()
    x0 = np.array([0.2, 0.3, -0.1])
    manifold = PacketManifold(lambda a: x0, alphas=np.linspace(0, 1, 8))
    cp = ComposedPacket(manifold, f)
    grid = packet_grid(x0, f, lam)
    composed = compose_packet(cp, lam, grid)
    elementary = k_lambda(x0, f, lam, grid)
    ratio = composed.values[grid.n // 2] / elementary.values[grid.n // 2]
    assert np.allclose(composed.values, ratio * elementary.values, atol=1e-10)


def test_compose_harmonic_orbit_localized():
    # lambda from the 1/(2m) family keeps the action seam invisible; the
    # wave lives on the orbit's position-space projection [-1, 1] (caustic
    # peaks at the turning points) and its squared norm cross-checks the
    # fiber formula
    from semiclab.packets import asymptotic_inner

    lam = 0.01
    cp = ComposedPacket(harmonic_orbit_manifold(256),
                        gaussian_shape(n=128, half_width=8))
    grid = UniformGrid.centered(2.2, 1024)
    wave = compose_packet(cp, lam, grid, isotropy_tol=1e-8, self_check=1e-6)
    fiber_value = asymptotic_inner(cp, cp).real
    assert abs(wave.norm() ** 2 - fiber_value) < 2e-2 * fiber_value
    x = grid.points
    dens = np.abs(wave.values) ** 2
    beyond = np.abs(x) > 1.45
    inside = np.abs(x) < 1.1
    assert dens[beyond].max() < 1e-6 * dens[inside].max()
    # caustic peaks dominate the interior
    caustic = dens[np.abs(np.abs(x) - 1.0) < 0.1].max()
    center = dens[np.abs(x) < 0.2].max()
    assert caustic > 3 * center


def test_compose_self_check_catches_coarse_grid():
    lam = 1e-3
    cp = ComposedPacket(harmonic_orbit_manifold(12), gaussian_shape(n=128, half_width=8))
    grid = UniformGrid.centered(1.8, 2048)
    with pytest.raises(ValueError):
        compose_packet(cp, lam, grid, self_check=1e-6)


def test_direct_norm_matches_fiber_norm_on_orbit():
    # closed form for vacuum-width fibers on the unit orbit:
    # per-alpha fiber value 2 sqrt(pi), total 2 pi * 2 sqrt(pi)
    cp = ComposedPacket(harmonic_orbit_manifold(64), gaussian_shape())
    direct = direct_inner(cp, cp, lam=0.01, n_u=48)
    asymptotic = asymptotic_inner(cp, cp)
    exact = 2 * math.pi * 2 * math.sqrt(math.pi)
    assert asymptotic.real == pytest.approx(exact, rel=1e-8)
    assert abs(asymptotic.imag) < 1e-10
    assert abs(direct - asymptotic) < 0.05 * exact


def test_inner_composed_convergence_slope():
    cp = ComposedPacket(harmonic_orbit_manifold(64), gaussian_shape())
    lams = [1e-1, 1e-2, 1e-3, 1e-4]
    asymptotic = asymptotic_inner(cp, cp)
    gaps = [abs(direct_inner(cp, cp, lam=lam) - asymptotic) / abs(asymptotic)
            for lam in lams]
    assert gaps == sorted(gaps, reverse=True)
    slope = fit_loglog_slope(lams, gaps)
    assert slope >= 0.45


def test_broken_isotropy_norm_collapse():
    # dS/dalpha = 1.5 while P dQ/dalpha = sin^2(alpha): the violation never
    # vanishes, so the composed norm is smaller than any power of lambda
    # (fitted log-log slope > 2)
    from semiclab.packets import direct_inner

    broken = PacketManifold(
        lambda a: np.array([1.5 * a, math.cos(a), -math.sin(a)]),
        np.linspace(0, 2 * np.pi, 32, endpoint=False), periodic_span=2 * np.pi)
    assert broken.isotropy_residual() > 0.4
    cp = ComposedPacket(broken, gaussian_shape())
    lams = [0.1, 0.05, 0.02, 0.01]
    norms = []
    for lam in lams:
        n_u = max(64, int(50 / math.sqrt(lam)))
        norms.append(max(abs(direct_inner(cp, cp, lam=lam, n_u=n_u)), 1e-300))
    slope = fit_loglog_slope(lams, norms)
    assert slope > 2.0


def test_fibers_on_different_grids_are_rejected():
    # the same Gaussian on half-widths 10 and 8: pairing samples index by
    # index would mis-pair them (22.2659 against 22.2362 for direct_inner)
    orbit = harmonic_orbit_manifold(64)
    wide = gaussian_shape(half_width=10)
    narrow = gaussian_shape(half_width=8)
    cp1 = ComposedPacket(orbit, wide)
    for cp2 in (ComposedPacket(orbit, narrow),
                ComposedPacket(orbit, lambda a: narrow)):
        with pytest.raises(ValueError, match="different grids"):
            direct_inner(cp1, cp2, lam=0.01)
        with pytest.raises(ValueError, match="different grids"):
            asymptotic_inner(cp1, cp2)


def test_direct_inner_callable_fiber_matches_constant_fiber():
    cp = ComposedPacket(harmonic_orbit_manifold(16),
                        gaussian_shape(n=128, half_width=8))
    same = ComposedPacket(cp.manifold, lambda a: cp.fiber)
    ref = direct_inner(cp, cp, lam=0.01)
    assert abs(direct_inner(cp, same, lam=0.01) - ref) < 1e-12 * abs(ref)


def test_pairings_weight_both_densities():
    # the grid inner product of the composed waves weights alpha by rho1 and
    # alpha' by rho2; a plain packet against rho^2 pairs like rho against rho
    lam = 0.01
    plain = harmonic_orbit_manifold(128)

    def rho(a):
        return 1 + 0.5 * math.cos(a)

    f = gaussian_shape(n=128, half_width=8)
    packets = {
        name: ComposedPacket(dataclasses.replace(plain, density=d), f)
        for name, d in (("plain", None), ("rho", rho),
                        ("rho2", lambda a: rho(a) ** 2))}
    grid = UniformGrid.centered(2.2, 1024)
    waves = {name: compose_packet(cp, lam, grid) for name, cp in packets.items()}
    for left, right in (("rho", "rho"), ("plain", "rho2")):
        cp1, cp2 = packets[left], packets[right]
        exact = waves[left].inner(waves[right])
        assert abs(direct_inner(cp1, cp2, lam) - exact) < 1e-10 * abs(exact)
        assert abs(asymptotic_inner(cp1, cp2) - exact) < 1e-2 * abs(exact)


def test_gauge_transform_trivial():
    cp = ComposedPacket(harmonic_orbit_manifold(16), gaussian_shape())
    zero = ShapeFunction(cp.fiber_at(0.0).grid,
                         np.zeros(cp.fiber_at(0.0).grid.n, dtype=complex))
    same = gauge_transform(cp, zero)
    assert np.allclose(same.fiber_at(0.3).values, cp.fiber_at(0.3).values)


def test_gauge_invariance_of_projection_and_inner():
    # fine xi-grid: the projection box must stay under the alias limit
    from semiclab.packets import asymptotic_inner

    shape = gaussian_shape(half_width=8, n=512)
    cp = ComposedPacket(harmonic_orbit_manifold(32), shape)
    chi = gaussian_shape(half_width=8, n=512, width=0.8, center=0.4)
    gauged = gauge_transform(cp, chi.scaled(0.3))
    f0 = project_fiber(cp, 0.7)
    f1 = project_fiber(gauged, 0.7)
    assert np.abs(f0.values - f1.values).max() < 1e-8 * np.abs(f0.values).max()
    base = asymptotic_inner(cp, cp)
    moved = asymptotic_inner(gauged, gauged)
    assert abs(base - moved) < 1e-8 * abs(base)


def test_fiber_integrals_reject_fibers_that_do_not_decay_at_the_edge():
    # a width-1 Gaussian on half-width 6 ends at 1.5e-8 of its peak
    from semiclab.packets import asymptotic_inner

    cp = ComposedPacket(harmonic_orbit_manifold(8),
                        gaussian_shape(half_width=6, n=512))
    with pytest.raises(ValueError, match="at alpha = 0: fiber does not decay "
                       "at its grid edge"):
        asymptotic_inner(cp, cp)
    with pytest.raises(ValueError, match="does not decay at its grid edge"):
        project_fiber(cp, 0.7)


def test_fiber_integrals_take_no_box_setting():
    # the beta box and its rule always come from the fibers
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(asymptotic_inner) == ["cp1", "cp2"]
    assert params(project_fiber) == ["cp", "alpha"]


def test_asymptotic_inner_rejects_degenerate_tangent():
    # Q = cos(alpha) with P = 0 stalls at alpha = 0, where (dQ, dP) = (0, 0):
    # the displacement is the identity, so the beta integral of a constant
    # pairing has no box
    stalled = PacketManifold(lambda a: np.array([0.0, math.cos(a), 0.0]),
                             np.array([-0.5, 0.0, 0.5]))
    cp = ComposedPacket(stalled, gaussian_shape())
    with pytest.raises(ValueError, match="alpha = 0: degenerate tangent"):
        asymptotic_inner(cp, cp)


def test_asymptotic_inner_rejects_unresolved_alias_limit():
    # at dQ = 0 the pairing of a width-0.3 Gaussian on 64 samples is its
    # squared modulus's Fourier transform, still 0.57 at the alias limit
    manifold = PacketManifold(lambda a: np.array([0.0, 0.0, a]),
                              np.linspace(-1, 1, 5))
    cp = ComposedPacket(manifold, gaussian_shape(n=64, width=0.3))
    with pytest.raises(ValueError, match="xi-grid cannot resolve the fiber"):
        asymptotic_inner(cp, cp)


def test_project_fiber_zero():
    cp = ComposedPacket(harmonic_orbit_manifold(16),
                        gaussian_shape().scaled(0.0))
    out = project_fiber(cp, 1.2)
    assert np.abs(out.values).max() == 0.0


def test_project_fiber_gaussian_shift_closed_form():
    # pure Q-shift direction: f = int g(xi - beta) dbeta = integral of g,
    # constant in xi
    manifold = PacketManifold(lambda a: np.array([0.0, a, 0.0]),
                              np.linspace(-1, 1, 9))
    g = gaussian_shape()
    cp = ComposedPacket(manifold, g)
    f = project_fiber(cp, 0.0)
    exact = math.pi**-0.25 * math.sqrt(2 * math.pi)
    center = np.abs(f.grid.points) < 5.0
    assert np.abs(f.values[center] - exact).max() < 1e-6


def test_project_fiber_invariance():
    # the projection is invariant under the displacement it integrates; on
    # a grid the residual floors at the edge ringing of the projected
    # fiber, whose modulus does not decay (round Gaussians project to pure
    # chirps, so no rapidly decaying invariant shape exists); the ringing
    # grows with the spacing, so the grid wide enough for the shape to decay
    # at its edge, as fiber integrals require, takes twice the samples.
    # The projected fiber does not decay at its own edge, so
    # fiber_displacement rejects it, and the displacement is taken by its
    # unchecked kernel
    cp = ComposedPacket(harmonic_orbit_manifold(16),
                        gaussian_shape(half_width=8, n=1024))
    alpha = 0.9
    f = project_fiber(cp, alpha)
    moved = _displaced_rows(f, cp.manifold.tangent(alpha), 0.3)[0]
    window = np.abs(f.grid.points) < 3.0
    scale = np.abs(f.values[window]).max()
    assert np.abs(moved[window] - f.values[window]).max() < 1e-4 * scale


def test_fiber_displacement_rejects_a_fiber_that_does_not_decay_at_the_edge():
    # the projection of a round Gaussian is a chirp that ends at 1.0 of its
    # peak; its displacement would ring over the whole grid, 2.4e-4 of the
    # peak off invariance inside |xi| < 3 where the n = 1024 grid gives 7.5e-6
    cp = ComposedPacket(harmonic_orbit_manifold(16),
                        gaussian_shape(half_width=8, n=512))
    f = project_fiber(cp, 0.9)
    assert f.tail_fraction() > 0.99
    with pytest.raises(ValueError, match="fiber does not decay at its grid edge"):
        fiber_displacement(f, cp.manifold.tangent(0.9), 0.3)
    with pytest.raises(ValueError, match="fiber does not decay at its grid edge"):
        project_fiber(ComposedPacket(cp.manifold, f), 0.9)


def test_project_fiber_flat_direction_raises():
    manifold = PacketManifold(lambda a: np.array([0.0, 1.0, a]),
                              np.linspace(-1, 1, 9))
    cp = ComposedPacket(manifold, gaussian_shape())
    with pytest.raises(ValueError):
        project_fiber(cp, 0.0)


def test_expansion_check_beta_zero():
    slope, errors = expansion_check(harmonic_orbit_manifold(), gaussian_shape(),
                                    beta=0.0, lams=[1e-1, 1e-2], alpha=0.3)
    assert max(errors) < 1e-12


def test_expansion_check_linear_curve_exact():
    line = PacketManifold(lambda a: np.array([0.4 * a, a, 0.7]),
                          np.linspace(-1, 1, 9))
    slope, errors = expansion_check(line, gaussian_shape(), beta=0.8,
                                    lams=[1e-1, 1e-2, 1e-3], alpha=0.1)
    assert max(errors) < 1e-9


def test_expansion_check_orbit_slope():
    slope, errors = expansion_check(harmonic_orbit_manifold(), gaussian_shape(),
                                    beta=0.7, lams=[1e-1, 1e-2, 1e-3, 1e-4],
                                    alpha=0.5)
    assert slope >= 0.45
    assert errors == sorted(errors, reverse=True)


def test_splitstep_free_motion():
    lam = 0.1
    f = gaussian_shape(n=256)
    x0 = np.array([0.0, -0.5, 0.8])
    grid = UniformGrid.centered(4.0, 1024)
    psi = k_lambda(x0, f, lam, grid)
    evolved = splitstep_evolve(psi, SplitStepProblem.polynomial([0.0]), t=1.0,
                               dt=1e-3)
    q, p = wave_moments(evolved)
    assert q == pytest.approx(x0[1] + x0[2] * 1.0, abs=1e-8)
    assert p == pytest.approx(x0[2], abs=1e-8)
    assert abs(evolved.norm() - psi.norm()) < 1e-10


def test_splitstep_harmonic_center_follows_classical():
    lam = 0.1
    f = gaussian_shape(n=192, half_width=6)
    q0, p0 = 1.0, 0.0
    x0 = np.array([0.0, q0, p0])
    grid = UniformGrid.centered(4.5, 1024)
    psi = k_lambda(x0, f, lam, grid)
    problem = SplitStepProblem.polynomial([0.0, 0.0, 0.5])  # x^2/2
    t = 1.0
    evolved = splitstep_evolve(psi, problem, t=t, dt=1e-4)
    q, p = wave_moments(evolved)
    assert q == pytest.approx(q0 * math.cos(t), abs=1e-6)
    assert p == pytest.approx(-q0 * math.sin(t), abs=1e-6)
    assert abs(evolved.norm() - psi.norm()) < 1e-10


def _harmonic_wave():
    f = gaussian_shape(n=128, half_width=6)
    x0 = np.array([0.0, 1.0, 0.0])
    return k_lambda(x0, f, 0.1, UniformGrid.centered(4.5, 512))


def test_splitstep_rejects_negative_time():
    psi = _harmonic_wave()
    with pytest.raises(ValueError, match="t must be nonnegative"):
        splitstep_evolve(psi, SplitStepProblem.polynomial([0, 0, 0.5]), -1.0, 1e-3)


def test_splitstep_steps_never_exceed_dt():
    # t / dt = 2.5 takes three steps of t / 3, not two of 0.125 > dt
    psi = _harmonic_wave()
    problem = SplitStepProblem.polynomial([0, 0, 0.5])
    out = splitstep_evolve(psi, problem, 0.25, 0.1)
    ref = splitstep_evolve(psi, problem, 0.25, 0.25 / 3)
    assert np.array_equal(out.values, ref.values)


def test_splitstep_zero_time_returns_initial_wave():
    psi = _harmonic_wave()
    out = splitstep_evolve(psi, SplitStepProblem.polynomial([0, 0, 0.5]), 0.0, 1e-3)
    assert np.array_equal(out.values, psi.values)
    assert out.lam == psi.lam


def _driven_potential(x, now):
    return 0.5 * x**2 + 0.3 * math.sin(3.0 * now) * x + 0.1 * now * x**3


# the driven oscillator above, declared as three terms
_driven = SplitStepProblem([
    (None, [0.0, 0.0, 0.5]),
    (lambda now: 0.3 * math.sin(3.0 * now), [0.0, 1.0]),
    (lambda now: 0.1 * now, [0.0, 0.0, 0.0, 1.0]),
])


def _unfused_splitstep(psi, potential, mass, t, dt):
    # the textbook Strang loop: two half kicks around every kinetic step
    n_steps = step_count(t, dt)
    h = t / n_steps
    x = psi.grid.points
    k = 2 * np.pi * np.fft.fftfreq(psi.grid.n, d=psi.grid.spacing)
    kinetic = np.exp(-0.5j * h * psi.lam * k**2 / mass)
    vals = psi.values.copy()
    now = 0.0
    for _ in range(n_steps):
        vals = vals * np.exp(-0.5j * h * potential(x, now) / psi.lam)
        vals = np.fft.ifft(kinetic * np.fft.fft(vals))
        vals = vals * np.exp(-0.5j * h * potential(x, now + h) / psi.lam)
        now += h
    return vals


@pytest.mark.parametrize("t, dt", [(0.5, 1e-3), (0.25, 0.1), (0.01, 0.01)])
def test_splitstep_fused_kicks_match_unfused_loop(t, dt):
    # a driven oscillator: the fused full kick must use the same times
    psi = _harmonic_wave()
    out = splitstep_evolve(psi, _driven, t, dt)
    ref = _unfused_splitstep(psi, _driven_potential, 1.0, t, dt)
    assert np.abs(out.values - ref).max() < 1e-12


_QUARTIC = [0.1, -0.2, 0.5, 0.2, 0.05]


@pytest.mark.parametrize("t, dt", [(0.5, 1e-3), (0.25, 0.1), (0.0, 1e-3)])
def test_splitstep_static_kicks_match_time_dependent_loop(t, dt):
    # an unprofiled term kicks as the same term under the profile 1.0
    psi = _harmonic_wave()
    constant = SplitStepProblem.polynomial(_QUARTIC, mass=1.3)
    profiled = SplitStepProblem([(lambda now: 1.0, _QUARTIC)], mass=1.3)
    out = splitstep_evolve(psi, constant, t, dt)
    assert np.array_equal(out.values, splitstep_evolve(psi, profiled, t, dt).values)


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("problem, potential", [
    (SplitStepProblem.polynomial(_QUARTIC, mass=1.3),
     lambda x, now: np.polyval(_QUARTIC[::-1], x)),
    (_driven, _driven_potential),
], ids=["static", "time-dependent"])
def test_splitstep_matches_the_numpy_loop(n, problem, potential):
    # the in-place scipy.fft loop against the allocating numpy.fft one,
    # which evaluates the potential as a callable of (x, t) at every kick
    f = gaussian_shape(n=128, half_width=6)
    psi = k_lambda(np.array([0.0, 1.0, 0.3]), f, 0.1,
                   UniformGrid.centered(4.5, n))
    before = psi.values.copy()
    out = splitstep_evolve(psi, problem, 0.2, 1e-3)
    ref = splitstep_numpy.evolve(psi, potential, problem.mass, 0.2, 1e-3)
    assert np.abs(out.values - ref).max() <= 1e-14 * np.linalg.norm(ref)
    # overwrite_x never reaches the caller's samples
    assert np.array_equal(psi.values, before)
    assert not np.shares_memory(out.values, psi.values)


@pytest.mark.parametrize("t, dt", [(math.nan, 1e-3), (0.1, math.nan),
                                   (0.1, math.inf)])
def test_splitstep_rejects_non_finite_times(t, dt):
    # a NaN t returned an all-NaN wave without a word
    with pytest.raises(ValueError, match="must be finite"):
        splitstep_evolve(_harmonic_wave(), SplitStepProblem.polynomial([0, 0, 0.5]),
                         t, dt)


def test_splitstep_static_kicks_evaluate_the_potential_once(monkeypatch):
    # one np.polyval per term and evolution, with or without profiles
    calls = []
    polyval = np.polyval
    monkeypatch.setattr(np, "polyval",
                        lambda c, x: calls.append(1) or polyval(c, x))
    for problem in (SplitStepProblem.polynomial([0, 0, 0.5]), _driven):
        calls.clear()
        splitstep_evolve(_harmonic_wave(), problem, 0.1, 1e-3)
        assert len(calls) == len(problem.terms)


def test_splitstep_tabulates_the_profiles_once_per_kick_time(monkeypatch):
    # a static problem needs no table and sums its half and full kicks once;
    # a profiled one makes one table per evolution, outside the loop, and
    # reads each profile at the n + 1 kick times once
    tables, sums, reads = [], [], []
    profile_sum, weighted = packets.profile_sum, packets._weighted
    monkeypatch.setattr(packets, "profile_sum",
                        lambda *args: tables.append(1) or profile_sum(*args))
    monkeypatch.setattr(packets, "_weighted",
                        lambda *args: sums.append(1) or weighted(*args))
    n = step_count(0.1, 1e-3)
    static = SplitStepProblem.polynomial([0, 0, 0.5])
    splitstep_evolve(_harmonic_wave(), static, 0.1, 1e-3)
    assert (len(tables), len(sums)) == (0, 2)
    driven = SplitStepProblem([
        (None, [0, 0, 0.5]), (lambda now: reads.append(now) or math.sin(now), [0, 1])])
    splitstep_evolve(_harmonic_wave(), driven, 0.1, 1e-3)
    assert len(tables) == 1
    assert len(reads) == len(set(reads)) == n + 1


def test_splitstep_profile_that_is_not_finite_raises_before_any_transform(monkeypatch):
    # bad only at the end time, which the last kick reads
    psi = _harmonic_wave()
    transforms = []
    forward = packets.fft.fft
    monkeypatch.setattr(packets.fft, "fft", lambda *args, **kw:
                        transforms.append(1) or forward(*args, **kw))
    problem = SplitStepProblem([(lambda t: math.nan if t > 0.0995 else 1.0, [0, 1])])
    with pytest.raises(ValueError, match=r"profile of term 0 is nan at t=0\.1"):
        splitstep_evolve(psi, problem, 0.1, 1e-3)
    assert transforms == []


@pytest.mark.parametrize("mass", [0.0, -1.0, math.nan, math.inf])
def test_splitstep_problem_rejects_bad_mass(mass):
    with pytest.raises(ValueError, match="mass"):
        SplitStepProblem([(lambda t: t, [0.0, 1.0])], mass=mass)
    with pytest.raises(ValueError, match="mass"):
        SplitStepProblem.polynomial([0, 0, 0.5], mass=mass)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_splitstep_problem_rejects_nonfinite_coefficients(bad):
    with pytest.raises(ValueError, match="finite"):
        SplitStepProblem.polynomial([0, bad, 0.5])
    with pytest.raises(ValueError, match="term 1 must be finite"):
        SplitStepProblem([(None, [0.5]), (math.cos, [0, bad])])


def test_splitstep_problem_rejects_bad_terms():
    with pytest.raises(ValueError, match="at least one potential term"):
        SplitStepProblem([])
    with pytest.raises(ValueError, match="term 0 must have degree at most 4"):
        SplitStepProblem.polynomial([0, 0, 0, 0, 0, 1.0])
    with pytest.raises(ValueError, match="term 1 must have degree at most 4"):
        SplitStepProblem([(None, [0.5]), (math.cos, [[0.0, 1.0]])])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_splitstep_profile_that_is_not_finite_names_its_term_and_time(bad):
    # a NaN potential returned an all-NaN wave without a word
    problem = SplitStepProblem([(None, [0, 0, 0.5]),
                                (lambda t: bad if t > 0.05 else 1.0, [0, 1])])
    with pytest.raises(ValueError, match=f"profile of term 1 is {bad} at t=0.05"):
        splitstep_evolve(_harmonic_wave(), problem, 0.1, 1e-3)


def test_splitstep_problem_is_declared_terms_and_mass():
    from semiclab.bogoliubov import GeneratorPath
    from semiclab.fock import QuadraticGenerator

    assert [f.name for f in dataclasses.fields(SplitStepProblem)] == ["terms", "mass"]
    declared = [SplitStepProblem.polynomial([0, 0, 0.5]), _driven,
                GeneratorPath.constant(QuadraticGenerator.from_blocks(modes=1), 1.0)]
    assert not any(hasattr(obj, "static") for obj in declared)


def test_wkb_fiber_term_evolves_as_the_callable_it_replaced(monkeypatch):
    # the fiber potential 1/2 V''(Q(tau)) xi^2 of the WKB reference, declared
    # as one profiled term, evolves bitwise as the callable of (xi, tau)
    # under the numpy loop; Q comes from the rk4 driver on (q, p) alone
    from semiclab import scenarios
    from semiclab.bogoliubov import rk4

    runs = []
    evolve = packets.splitstep_evolve
    monkeypatch.setattr(packets, "splitstep_evolve",
                        lambda *args: runs.append((args, evolve(*args))) or runs[-1][1])
    scenarios.wkb_reference()
    monkeypatch.undo()
    [((wave, problem, t, dt), out)] = runs
    [(profile, coeffs)] = problem.terms
    assert profile is not None and list(coeffs) == [0.0, 0.0, 1.0]

    cubic, n_cl = 0.2, 4096
    assert (t, dt) == (0.1, 0.1 / n_cl)
    def field(_, z):
        q, p = z
        return np.array([p, -q - 3 * cubic * q * q])

    _, qs = rk4(field, np.array([1.0, 0.0]), t, dt, keep=True)

    def v2(x):
        return 1.0 + 6.0 * cubic * x

    def fiber_potential(xi, tau):
        return 0.5 * v2(qs[min(n_cl, max(0, int(round(tau / dt))))][0]) * xi**2

    ref = splitstep_numpy.evolve(wave, fiber_potential, 1.0, t, dt)
    assert np.array_equal(out.values, ref)


def test_splitstep_resolution_guard():
    lam = 1e-3
    f = gaussian_shape(n=128, half_width=6)
    x0 = np.array([0.0, 0.0, 1.0])  # oscillation e^(i x / lam)
    grid = UniformGrid.centered(2.0, 128)  # far too coarse for k ~ 1000
    with pytest.raises(ValueError):
        psi = k_lambda(x0, f, lam, grid)
        splitstep_evolve(psi, SplitStepProblem.polynomial([0.0]), 0.1, 1e-3)


def test_derivative_reads_the_cached_spectrum(monkeypatch):
    # 192 points, so the 1/n scaling is not exact and the forms differ
    # at the rounding level
    f = gaussian_shape(n=192, half_width=9, width=0.8, momentum=0.7)
    _, freqs = f.spectrum
    two_ffts = np.fft.ifft(1j * freqs * np.fft.fft(f.values))

    def no_forward_fft(*args, **kwargs):
        raise AssertionError("forward FFT of samples whose spectrum is cached")

    monkeypatch.setattr(packets.fft, "fft", no_forward_fft)
    d = f.derivative().values
    assert np.linalg.norm(d - two_ffts) <= 1e-13 * np.linalg.norm(two_ffts)


@pytest.mark.parametrize("n", [128, 192, 255])
def test_at_shifted_grid_matches_dense_interpolation(n):
    # shifts inside, straddling the edge, exactly zero, and past the grid
    f = gaussian_shape(half_width=8, n=n, width=0.9, center=0.3, momentum=1.1)
    span = f.grid.hi - f.grid.lo
    shifts = np.array([0.0, 0.37, -1.9, 6.5, -7.25, span - 0.01, span + 0.5,
                       -span - 2.0])
    rows = f.at_shifted_grid(shifts)
    dense = np.array([f.at(f.grid.points + s) for s in shifts])
    assert rows.shape == (len(shifts), n)
    assert np.abs(rows - dense).max() < 1e-13
    assert not rows[-2:].any()


def test_displaced_rows_match_closed_form_through_at():
    g = gaussian_shape(half_width=8, n=192, width=0.8, center=-0.4, momentum=0.6)
    a, b = 0.7, -1.3
    dx = np.array([0.4, b, a])  # dS does not displace the fiber
    betas = np.array([0.0, 0.25, -0.8, 1.9, -3.1])
    xi = g.grid.points
    expect = np.array([
        np.exp(-0.5j * beta**2 * a * b) * np.exp(1j * beta * a * xi)
        * g.at(xi - beta * b) for beta in betas])
    assert np.abs(_displaced_rows(g, dx, betas) - expect).max() < 1e-13
    moved = fiber_displacement(g, dx, betas[3])
    assert np.abs(moved.values - expect[3]).max() < 1e-13


def test_phase_tables_equal_the_complex_exponential_bitwise():
    # cos + i sin against exp(1j theta) on seeded angles, up to and past
    # the hundreds of radians that beta rows reach, and the packet tables
    # built from it against their complex-exponential formulas
    from scipy import fft

    from semiclab.quadrature import _expi

    rng = np.random.default_rng(47)
    theta = np.concatenate([rng.uniform(-1, 1, 4000), rng.uniform(-800, 800, 4000),
                            rng.uniform(-1e6, 1e6, 4000), [0.0, -0.0, math.pi]])
    assert np.array_equal(_expi(theta), np.exp(1j * theta))
    g = gaussian_shape(half_width=8, n=192, width=0.8, center=-0.4, momentum=0.6)
    coeffs, freqs = g.spectrum
    pts = rng.uniform(g.grid.lo, g.grid.hi, 64)
    assert np.array_equal(
        g.at(pts), np.exp(1j * np.outer(pts - g.grid.lo, freqs)) @ coeffs)
    shifts = rng.uniform(-3, 3, 9)
    rows = fft.ifft(coeffs * np.exp(1j * np.outer(shifts, freqs)), axis=1,
                    norm="forward")
    moved = g.grid.points + shifts[:, None]
    rows[(moved < g.grid.lo) | (moved > g.grid.hi)] = 0.0
    assert np.array_equal(g.at_shifted_grid(shifts), rows)
    a, b = 0.7, -1.3
    betas = rng.uniform(-30, 30, 12)
    expect = (np.exp(-0.5j * betas**2 * a * b)[:, None]
              * np.exp(1j * np.outer(betas, a * g.grid.points))
              * g.at_shifted_grid(-betas * b))
    assert np.array_equal(_displaced_rows(g, np.array([0.4, b, a]), betas), expect)
    s, q, p, lam = 0.3, 0.2, -1.7, 0.01
    grid = packet_grid(np.array([s, q, p]), g, lam)
    pts = grid.points
    expect = (lam ** -0.25 * np.exp(1j * s / lam) * np.exp(1j * p * (pts - q) / lam)
              * g.at((pts - q) / math.sqrt(lam)))
    assert np.array_equal(k_lambda(np.array([s, q, p]), g, lam, grid).values, expect)


@pytest.mark.parametrize("xs", [[0.0, 0.1, 0.01], [-0.1, 0.01, 0.001]])
def test_fit_loglog_slope_rejects_nonpositive_x(xs, capfd):
    with pytest.raises(ValueError, match="positive"):
        fit_loglog_slope(xs, [1e-3, 1e-4, 1e-5])
    assert capfd.readouterr().err == ""


def test_fit_loglog_slope_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="3 x values but 2 y values"):
        fit_loglog_slope([0.1, 0.01, 0.001], [1e-3, 1e-4])


def _scanned_span(g1, g2, dx, target=1e-13, cap=200.0):
    # the oracle: every one of the 400 probes, both signs
    a = dx[2]
    if abs(a) > 1e-12:
        cap = min(cap, 0.5 * math.pi / (g1.grid.spacing * abs(a)))
    scale = max(g1.norm() * g2.norm(), 1e-30)
    probe = np.linspace(0.05, cap, 400)
    both = _displacement_pairings(g1, g2, dx, np.concatenate([probe, -probe]))
    vals = np.abs(both).reshape(2, -1).max(axis=0)
    for j in range(len(probe)):
        if (vals[j:] <= target * scale).all():
            return float(min(1.1 * probe[j], cap))
    return cap


def _boxed_integral(g1, g2, dx):
    span, order = _beta_box(g1, g2, dx)
    nodes, weights = gauss_legendre(order)
    return span * np.sum(weights * _displacement_pairings(g1, g2, dx, nodes * span))


def _resolved_scan_integral(g1, g2, dx):
    # the reference: 2000 nodes on the full scan's span
    span = _scanned_span(g1, g2, dx)
    nodes, weights = gauss_legendre(2000)
    return span * np.sum(weights * _displacement_pairings(g1, g2, dx, nodes * span))


def test_beta_box_integral_matches_scan_on_harmonic_orbit():
    # every other grid point: 32 tangent directions round the circle,
    # both axes included
    g = gaussian_shape()
    manifold = harmonic_orbit_manifold()
    for alpha in manifold.alphas[::2]:
        dx = manifold.tangent(float(alpha))
        new = _boxed_integral(g, g, dx)
        ref = _resolved_scan_integral(g, g, dx)
        assert abs(new - ref) <= 1e-12 * g.norm() ** 2


def test_beta_box_integral_matches_scan_on_revival_set():
    # two-bump fibers revive where the shift maps one bump onto the other;
    # off-centre and momentum-carrying fibers decay off-axis.  The narrow
    # bumps at +-6 revive at |beta| = 3 only, far past where they first
    # stop overlapping
    gauss = gaussian_shape()
    two_bump = (gaussian_shape(width=0.6, center=-3.0)
                + gaussian_shape(width=0.6, center=3.0, momentum=-0.8))
    off = gaussian_shape(width=0.7, center=2.5)
    moving = gaussian_shape(width=1.3, momentum=1.5)
    pairs = [(gauss, gauss), (two_bump, two_bump), (off, off), (moving, moving),
             (gauss, two_bump), (two_bump, moving), (off, moving)]
    rng = np.random.default_rng(3)
    angles = np.concatenate([np.linspace(0, 2 * np.pi, 8, endpoint=False),
                             rng.uniform(0, 2 * np.pi, 4)])
    radii = np.concatenate([np.ones(8), rng.uniform(0.3, 3.0, 4)])
    cases = [(g1, g2, r * math.cos(angle), r * math.sin(angle))
             for g1, g2 in pairs for angle, r in zip(angles, radii)]
    narrow = (gaussian_shape(width=0.3, center=-6.0)
              + gaussian_shape(width=0.3, center=6.0))
    cases.append((narrow, narrow, 0.0, 4.0))
    for g1, g2, a, b in cases:
        dx = np.array([0.0, b, a])
        new = _boxed_integral(g1, g2, dx)
        ref = _resolved_scan_integral(g1, g2, dx)
        assert abs(new - ref) <= 1e-12 * g1.norm() * g2.norm()
