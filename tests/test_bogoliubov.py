import dataclasses
import inspect
import math

import numpy as np
import per_stage_profiles
import pytest
import sampled_path_rk4
from hypothesis import given, strategies as st

from semiclab.bogoliubov import (
    BogoliubovFlow,
    CreatedState,
    FlowError,
    GeneratorPath,
    PicardResult,
    compose_flows,
    exponential_flow,
    flow_invariants,
    integrate_flow,
    picard_flow,
    propagate_direct,
    propagate_gaussian,
    propagator_from_flow,
    propagator_matrix,
    riccati_residual,
    rk4,
    step_count,
)
from semiclab.bogoliubov import _phase_angles, _rk4_steps, _split_m, _stage_times
from semiclab.fock import (
    ConvergenceError,
    FockVector,
    GaussianData,
    ModeBasis,
    QuadraticGenerator,
    apply_ladder,
    gaussian_state,
    number_state,
    vacuum_state,
)
from semiclab.scenarios import mixed_rotation_squeeze_path


def rotation_path(omega=0.8, hbar=0.3, t_max=4.0):
    gen = QuadraticGenerator.from_blocks(hpm=[[omega]], hbar=hbar)
    return GeneratorPath.constant(gen, t_max)


def squeeze_path(kappa=0.3, t_max=4.0):
    gen = QuadraticGenerator.from_blocks(hpp=[[kappa]])
    return GeneratorPath.constant(gen, t_max)


def random_path(d, rng, t_max=2.5):
    # three Hermitian/symmetric snapshots, interpolated piecewise linearly
    # by one hat profile per snapshot
    gens = []
    for _ in range(3):
        hpp = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        hpp = 0.3 * (hpp + hpp.T)
        hpm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        hpm = 0.5 * (hpm + hpm.conj().T)
        gens.append(QuadraticGenerator.from_blocks(hpp=hpp, hpm=hpm, hbar=rng.normal()))
    times = np.array([0.0, t_max / 2, t_max])
    return GeneratorPath([(lambda t, hat=hat: np.interp(t, times, hat), gen)
                          for hat, gen in zip(np.eye(3), gens)], t_max)


def test_initial_condition():
    flow = integrate_flow(rotation_path(), t=0.0, dt=1e-2)
    assert np.allclose(flow.f, 0)
    assert np.allclose(flow.g, np.eye(1))
    assert np.allclose(flow.m, 0)
    assert flow.c == pytest.approx(1.0)


def test_rotation_closed_form():
    omega, hbar, t = 0.8, 0.3, 1.7
    flow = integrate_flow(rotation_path(omega, hbar), t=t, dt=1e-3)
    assert np.allclose(flow.f, 0, atol=1e-12)
    assert flow.g[0, 0] == pytest.approx(np.exp(1j * omega * t), abs=1e-10)
    assert np.allclose(flow.m, 0, atol=1e-12)
    assert flow.c == pytest.approx(np.exp(-1j * hbar * t), abs=1e-10)


def test_squeeze_closed_form():
    kappa, t = 0.3, 1.4
    flow = integrate_flow(squeeze_path(kappa), t=t, dt=1e-3)
    r = kappa * t
    assert flow.f[0, 0] == pytest.approx(-1j * math.sinh(r), abs=1e-10)
    assert flow.g[0, 0] == pytest.approx(math.cosh(r), abs=1e-10)
    assert flow.m[0, 0] == pytest.approx(-1j * math.tanh(r), abs=1e-10)
    # |G|^2 - |F|^2 = 1 and normalization c = cosh(r)^(-1/2)
    assert abs(flow.g[0, 0]) ** 2 - abs(flow.f[0, 0]) ** 2 == pytest.approx(1.0)
    assert flow.c == pytest.approx(math.cosh(r) ** -0.5, abs=1e-10)


def test_flow_invariants_identity():
    res = flow_invariants(BogoliubovFlow.identity(3))
    assert res.max == 0.0


def test_flow_invariants_squeeze_closed_form():
    r = 0.9
    flow = BogoliubovFlow(
        f=np.array([[-1j * math.sinh(r)]]),
        g=np.array([[math.cosh(r)]]),
        m=np.array([[-1j * math.tanh(r)]]),
        c=1.0,
        t=1.0,
    )
    assert flow_invariants(flow).max <= 1e-12


def test_flow_invariants_random_path():
    rng = np.random.default_rng(42)
    path = random_path(3, rng, t_max=2.0)
    flow = integrate_flow(path, t=2.0, dt=1e-3)
    assert flow_invariants(flow).max <= 1e-9


def test_g_singular_values_at_least_one():
    rng = np.random.default_rng(5)
    path = random_path(2, rng)
    flow = integrate_flow(path, t=2.0, dt=1e-3)
    assert np.linalg.svd(flow.g, compute_uv=False).min() >= 1.0 - 1e-9
    assert np.linalg.norm(flow.m, 2) < 1.0


def test_riccati_residual_rotation():
    flow = integrate_flow(rotation_path(), t=1.0, dt=1e-3)
    assert riccati_residual(flow, rotation_path()) <= 1e-9


def test_riccati_residual_squeeze():
    path = squeeze_path(0.3)
    flow = integrate_flow(path, t=1.5, dt=1e-3)
    assert riccati_residual(flow, path) <= 1e-8


def test_riccati_residual_needs_trajectory():
    with pytest.raises(ValueError):
        riccati_residual(BogoliubovFlow.identity(1), rotation_path())


def test_picard_zero_generator():
    path = GeneratorPath.constant(
        QuadraticGenerator.from_blocks(modes=1), t_max=2.0)
    res = picard_flow(path, t=1.0, n_terms=5)
    assert np.allclose(res.f, 0)
    assert np.allclose(res.g, np.eye(1))


def test_picard_matches_squeeze_closed_form():
    kappa, t = 0.3, 1.0
    res = picard_flow(squeeze_path(kappa), t=t, n_terms=25)
    assert abs(res.f[0, 0] - (-1j * math.sinh(kappa * t))) < 1e-8
    assert abs(res.g[0, 0] - math.cosh(kappa * t)) < 1e-8


def test_picard_matches_integrator():
    rng = np.random.default_rng(11)
    path = random_path(2, rng, t_max=1.0)
    flow = integrate_flow(path, t=1.0, dt=5e-4)
    res = picard_flow(path, t=1.0, n_terms=25)
    assert np.linalg.norm(res.f - flow.f) < 1e-6
    assert np.linalg.norm(res.g - flow.g) < 1e-6


def test_picard_lab_frame_with_a_large_conserving_block():
    # a particle-conserving block well above the pairing block, so the
    # lab-frame series must carry a fast rotation through 25 terms
    gen = QuadraticGenerator(hpp=np.array([[0.25]]), hpm=np.array([[1.4]]))
    path = GeneratorPath.constant(gen, t_max=2.0)
    flow = integrate_flow(path, t=1.0, dt=5e-4)
    res = picard_flow(path, t=1.0, n_terms=25)
    assert np.linalg.norm(res.f - flow.f) < 1e-7
    assert np.linalg.norm(res.g - flow.g) < 1e-7


def test_one_generator_representation_and_no_unset_flow_settings():
    # (H++, H+-, hbar) is the one generator representation, Picard works
    # in the lab frame, and the flow layer takes no setting no caller sets
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert fields(QuadraticGenerator) == ["hpp", "hpm", "hbar"]
    assert fields(PicardResult) == ["f", "g", "term_norms"]
    assert "cs" not in fields(BogoliubovFlow)
    for fn in (picard_flow, propagate_gaussian, propagate_direct,
               riccati_residual):
        params = set(inspect.signature(fn).parameters)
        assert not params & {"n_grid", "invariant_tol", "norm_tol", "stride"}, \
            fn.__name__


def test_picard_term_norm_factorial_bound():
    # ||term_n(t)|| <= sqrt(d) (2 K t)^n / n! with
    # K = sup_tau max(||Y_tau||, ||Z_tau||): the induction constant
    rng = np.random.default_rng(17)
    d = 2
    path = random_path(d, rng, t_max=1.0)
    t = 1.0
    res = picard_flow(path, t=t, n_terms=14, tol=None)
    taus = np.linspace(0, t, 101)
    k_const = 0.0
    for tau in taus:
        gen = path(float(tau))
        k_const = max(
            k_const,
            np.linalg.norm(gen.hpm, 2),
            np.linalg.norm(gen.hpp, 2),
        )
    for n, tn in enumerate(res.term_norms):
        bound = math.sqrt(d) * (2 * k_const * t) ** n / math.factorial(n)
        assert tn <= bound * (1 + 1e-9)


def test_propagate_gaussian_vacuum_rotation_phase():
    hbar = 0.3
    t = 1.2
    basis = ModeBasis(1, 10)
    flow = integrate_flow(rotation_path(0.8, hbar), t=t, dt=1e-3)
    out = propagate_gaussian(CreatedState(), flow, basis)
    expect = np.exp(-1j * hbar * t)
    assert out.coeffs[0] == pytest.approx(expect, abs=1e-9)
    assert np.linalg.norm(out.coeffs[1:]) < 1e-12


def test_propagate_gaussian_trivial():
    basis = ModeBasis(1, 8)
    out = propagate_gaussian(CreatedState(), BogoliubovFlow.identity(1), basis)
    assert np.allclose(out.coeffs, vacuum_state(basis).coeffs)


def test_gaussian_vs_direct_squeeze():
    kappa, t = 0.2, 1.0
    basis = ModeBasis(1, 24)
    path = squeeze_path(kappa)
    flow = integrate_flow(path, t=t, dt=1e-3)
    gauss = propagate_gaussian(CreatedState(), flow, basis)
    direct = propagate_direct(vacuum_state(basis), path, t=t, dt=1e-3)
    assert np.linalg.norm(gauss.coeffs - direct.state.coeffs) < 1e-6


def test_gaussian_vs_direct_with_created_quanta():
    kappa, t = 0.2, 0.8
    basis = ModeBasis(1, 28)
    path = squeeze_path(kappa)
    flow = integrate_flow(path, t=t, dt=1e-3)
    init = CreatedState([np.array([1.0])], scalar=1.0)
    gauss = propagate_gaussian(init, flow, basis)
    psi0 = number_state(basis, (1,))
    direct = propagate_direct(psi0, path, t=t, dt=1e-3)
    assert np.linalg.norm(gauss.coeffs - direct.state.coeffs) < 1e-6


def test_direct_eigenstate_phase():
    omega, hbar, t = 0.7, 0.2, 1.3
    basis = ModeBasis(1, 8)
    path = rotation_path(omega, hbar)
    for n in (0, 2, 5):
        out = propagate_direct(number_state(basis, (n,)), path, t=t, dt=1e-3)
        expect = np.exp(-1j * (omega * n + hbar) * t)
        assert out.state.coeffs[n] == pytest.approx(expect, abs=1e-9)


def test_direct_norm_conservation():
    rng = np.random.default_rng(23)
    basis = ModeBasis(2, 8)
    c = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    c /= np.linalg.norm(c)
    psi = FockVector(basis, c)
    path = random_path(2, rng, t_max=2.0)
    out = propagate_direct(psi, path, t=2.0, dt=1e-3)
    assert out.norm_drift < 1e-8
    assert abs(out.state.norm() - 1.0) < 1e-8


def test_cutoff_halving_consistent_with_tail():
    # truncating the squeezed vacuum at N=12 versus N=24 changes it by no
    # more than the geometric tail estimate of the Gaussian grade decay
    kappa, t = 0.2, 1.0
    path = squeeze_path(kappa)
    big = ModeBasis(1, 24)
    small = ModeBasis(1, 12)
    full = propagate_direct(vacuum_state(big), path, t=t, dt=1e-3).state
    half = propagate_direct(vacuum_state(small), path, t=t, dt=1e-3).state
    diff = np.linalg.norm(full.coeffs[: small.size] - half.coeffs)
    q = math.tanh(kappa * t)
    grade_12_norm = abs(full.coeffs[12])
    tail_bound = grade_12_norm * q / math.sqrt(1 - q * q) + 1e-10
    assert diff <= 10 * tail_bound
    assert np.linalg.norm(full.coeffs[small.size:]) <= tail_bound


def test_propagator_matrix_matches_direct():
    rng = np.random.default_rng(31)
    basis = ModeBasis(1, 10)
    path = random_path(1, rng, t_max=1.0)
    u = propagator_matrix(path, t=1.0, dt=1e-3, basis=basis)
    psi = vacuum_state(basis)
    direct = propagate_direct(psi, path, t=1.0, dt=1e-3)
    assert np.linalg.norm(u @ psi.coeffs - direct.state.coeffs) < 1e-9


def test_compose_flows_heisenberg_oracle():
    # the composed (F, G) must transport the creation operator the same way
    # as the product of matrix propagators:
    # U a+ U^-1 = conj(G) a+ - conj(F) a, on a deeply margin-restricted block
    from dense_fock import lowering_matrices

    k1, k2, t1, t2 = 0.3, 0.5, 0.6, 0.4
    f1 = integrate_flow(squeeze_path(k1), t=t1, dt=1e-3)
    f2 = integrate_flow(rotation_path(k2, 0.0), t=t2, dt=1e-3)
    comp = compose_flows(f2, f1)
    res = flow_invariants(comp)
    assert max(res.gram, res.symmetry) < 1e-9

    basis = ModeBasis(1, 28)
    u1 = propagator_matrix(squeeze_path(k1), t=t1, dt=1e-3, basis=basis)
    u2 = propagator_matrix(rotation_path(k2, 0.0), t=t2, dt=1e-3, basis=basis)
    u = u2 @ u1
    a = lowering_matrices(basis)[0]
    lhs = u @ a.conj().T @ u.conj().T
    rhs = np.conj(comp.g[0, 0]) * a.conj().T - np.conj(comp.f[0, 0]) * a
    keep = basis.grade_size(8)
    err = np.linalg.norm(lhs[:keep, :keep] - rhs[:keep, :keep], 2)
    assert err < 1e-7


def _random_generator(d, rng, pairing=0.3):
    hpp = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    hpm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return QuadraticGenerator.from_blocks(
        hpp=pairing * (hpp + hpp.T), hpm=0.5 * (hpm + hpm.conj().T),
        hbar=rng.normal())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_compose_flows_phase_splits_a_constant_flow(d):
    rng = np.random.default_rng(40 + d)
    naive = 0.0
    for _ in range(10):
        gen = _random_generator(d, rng)
        t1, t2 = rng.uniform(0.1, 2.0, size=2)
        first, second = exponential_flow(gen, t1), exponential_flow(gen, t2)
        whole = exponential_flow(gen, t1 + t2)
        comp = compose_flows(second, first)
        assert abs(comp.c - whole.c) <= 1e-13
        assert np.abs(comp.g - whole.g).max() <= 1e-12
        naive = max(naive, abs(second.c * first.c - whole.c))
    assert naive > 1e-3  # the phase is not the plain product


@pytest.mark.parametrize("d, cutoff", [(1, 60), (2, 30)])
def test_compose_flows_phase_is_the_vacuum_amplitude(d, cutoff):
    # distinct generators: <0|U2 U1|0> from realized propagators; the
    # truncated product itself is off by 1.4e-13 at (2, 30), 9e-16 at (2, 36)
    rng = np.random.default_rng(d)
    first = exponential_flow(_random_generator(d, rng, 0.2), 0.8)
    second = exponential_flow(_random_generator(d, rng, 0.2), 0.6)
    basis = ModeBasis(d, cutoff)
    u1, _ = propagator_from_flow(first, basis)
    u2, _ = propagator_from_flow(second, basis)
    amplitude = (u2 @ u1)[0, 0]
    assert abs(compose_flows(second, first).c - amplitude) <= 1e-12
    assert abs(second.c * first.c - amplitude) > 1e-3


def test_flow_error_on_coarse_step():
    rng = np.random.default_rng(3)
    path = random_path(2, rng, t_max=2.0)
    with pytest.raises(FlowError):
        integrate_flow(path, t=2.0, dt=0.5, residual_tol=1e-10)


def test_flow_error_on_ill_conditioned_g():
    # G leaves the identity at once, so cond(G) passes 1.0001 within the run
    path = random_path(2, np.random.default_rng(5))
    with pytest.raises(FlowError, match="singular"):
        integrate_flow(path, t=2.0, dt=1e-2, cond_limit=1.0001)


def test_flow_error_on_step_too_coarse_for_the_branch():
    # det G = e^(i omega t): steps of omega dt = 1.7 > pi/2 (RK4 is still
    # stable there) cannot continue the square root of det G
    path = rotation_path(omega=1.0, hbar=0.0, t_max=4.0)
    with pytest.raises(FlowError, match="branch"):
        integrate_flow(path, t=3.4, dt=1.7, residual_tol=None)
    integrate_flow(path, t=3.4, dt=1.7 / 2, residual_tol=None)


def _split_m_per_step(fs, gs, cond_limit):
    # the per-step loop that the batched M replaces
    ms = []
    for f, g in zip(fs, gs):
        if np.linalg.cond(g) > cond_limit:
            raise FlowError("singular")
        m = np.linalg.solve(g.T, f.T).T
        ms.append(0.5 * (m + m.T))
    return np.array(ms)


def _riccati_residual_per_step(flow, path, stride=10):
    # riccati_residual with M formed step by step
    times = flow.times
    ms = _split_m_per_step(flow.fs, flow.gs, 1e12)
    worst = 0.0
    for j in range(1, len(times) - 1, stride):
        h1, h2 = times[j] - times[j - 1], times[j + 1] - times[j]
        if abs(h1 - h2) > 1e-12 * max(h1, h2):
            continue
        dm = (ms[j + 1] - ms[j - 1]) / (h1 + h2)
        gen = path(float(times[j]))
        hpm, hpp, m = gen.hpm, gen.hpp, ms[j]
        rhs = hpp + hpm @ m + m @ hpm.conj() + m @ np.conj(hpp) @ m
        worst = max(worst, float(np.linalg.norm(1j * dm - rhs, 2)))
    return worst


@pytest.mark.parametrize("make_path", [
    lambda: rotation_path(),
    lambda: squeeze_path(0.3),
    lambda: random_path(3, np.random.default_rng(42), t_max=2.0),
])
def test_batched_m_equals_the_per_step_loop(make_path):
    path = make_path()
    flow = integrate_flow(path, t=1.0, dt=1e-2)
    ms = _split_m_per_step(flow.fs, flow.gs, 1e12)
    assert np.array_equal(_split_m(flow.fs, flow.gs, 1e12), ms)
    assert np.array_equal(flow.m, ms[-1])
    assert riccati_residual(flow, path) == _riccati_residual_per_step(flow, path)


def _stagewise_flow(path, t, dt, cond_limit=1e8):
    """The stage-by-stage route: M = F G^-1 formed at every RK4 stage and
    the phase stepped through dc/dt = -i (1/2 tr(conj(H++) M) + hbar) c."""
    d = path.modes
    n = d * d

    def rhs(tau, y):
        f, g, c = y[:n].reshape(d, d), y[n:2 * n].reshape(d, d), y[-1]
        gen = path(tau)
        hpm, hpp = gen.hpm, gen.hpp
        df = -1j * (hpm @ f + hpp @ g)
        dg = 1j * (np.conj(hpm) @ g + np.conj(hpp) @ f)
        assert np.linalg.cond(g) <= cond_limit
        m = np.linalg.solve(g.T, f.T).T
        m = 0.5 * (m + m.T)
        dc = -1j * (0.5 * np.trace(np.conj(hpp) @ m) + gen.hbar) * c
        return np.concatenate([df.ravel(), dg.ravel(), [dc]])

    y0 = np.concatenate([np.zeros(n), np.eye(d).ravel(), [1.0]]).astype(complex)
    y = rk4(rhs, y0, t, dt)
    return y[:n].reshape(d, d), y[n:2 * n].reshape(d, d), y[-1]


def _su11_moving_point_path(t, n_steps):
    # the sampled path of a one-parameter evolution at a point the
    # classical flow moves
    from semiclab.scenarios import su11_family

    path, _, _ = sampled_path_rk4.path(
        su11_family(), [0.3, 0.5, 0.0], t, [0.1, 0.6, 0.2], t / n_steps)
    return path


@pytest.mark.parametrize("make_path, t, dt", [
    (lambda: rotation_path(), 1.7, 1e-3),
    (lambda: squeeze_path(0.3), 1.4, 1e-3),
    (lambda: random_path(3, np.random.default_rng(42), t_max=2.0), 2.0, 1e-3),
    (lambda: mixed_rotation_squeeze_path(), 2.0, 1e-3),
    (lambda: _su11_moving_point_path(0.8, 800), 0.8, 1e-3),
])
def test_linear_stepper_matches_the_stagewise_oracle(make_path, t, dt):
    path = make_path()
    flow = integrate_flow(path, t, dt)
    f, g, c = _stagewise_flow(path, t, dt)
    assert np.abs(flow.f - f).max() <= 1e-10
    assert np.abs(flow.g - g).max() <= 1e-10
    assert abs(flow.c - c) <= 1e-12


def _constant_path():
    gen = QuadraticGenerator.from_blocks(hpp=[[0.2]], hpm=[[0.7]], hbar=0.1)
    return GeneratorPath.constant(gen, 2.0)


@pytest.mark.parametrize("make_path", [_constant_path, mixed_rotation_squeeze_path])
def test_each_term_builds_its_operators_once(make_path, monkeypatch):
    # K_j, theta'_j and quadratic_matrix(H_j) once per term and call, not
    # per stage; the direct routes equal per-stage assembly of H_t
    from collections import Counter

    from semiclab import bogoliubov

    path = make_path()
    basis = ModeBasis(path.modes, 6)
    psi = vacuum_state(basis)
    assemble = bogoliubov.quadratic_matrix
    per_stage = lambda tau, y: -1j * (assemble(path(tau), basis) @ y)
    direct_oracle = rk4(per_stage, psi.coeffs, 1.0, 1e-2)
    matrix_oracle = rk4(per_stage, np.eye(basis.size, dtype=complex), 1.0, 1e-2)
    counts = Counter()
    for name in ("quadratic_matrix", "_linear_system"):
        def counted(*args, name=name, fn=getattr(bogoliubov, name)):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(bogoliubov, name, counted)
    direct = propagate_direct(psi, path, 1.0, 1e-2).state.coeffs
    matrix = propagator_matrix(path, 1.0, 1e-2, basis)
    integrate_flow(path, 1.0, 1e-2)
    n_terms = len(path.terms)
    assert counts == {"quadratic_matrix": 2 * n_terms, "_linear_system": n_terms}
    assert np.abs(direct - direct_oracle).max() <= 1e-13
    assert np.abs(matrix - matrix_oracle).max() <= 1e-13


def test_stepping_loops_build_no_generator(monkeypatch):
    # every generator of a path is built and validated once, with the path
    path = mixed_rotation_squeeze_path()
    psi = vacuum_state(ModeBasis(2, 4))
    built = []
    validate = QuadraticGenerator.__post_init__
    monkeypatch.setattr(QuadraticGenerator, "__post_init__",
                        lambda gen: built.append(gen) or validate(gen))
    flow = integrate_flow(path, 1.0, 1e-2)
    propagate_direct(psi, path, 1.0, 1e-2)
    picard_flow(path, 1.0, n_terms=25)
    riccati_residual(flow, path)
    assert built == []
    path(0.5)  # the oracle's H_t is a validated generator
    assert len(built) == 1


def test_paths_reject_bad_terms_and_horizons():
    one = QuadraticGenerator.from_blocks(hpm=[[1.0]])
    two = QuadraticGenerator.from_blocks(hpm=np.eye(2))
    with pytest.raises(ValueError, match="at least one term"):
        GeneratorPath([], 1.0)
    with pytest.raises(ValueError, match="different mode counts"):
        GeneratorPath([(None, one), (math.cos, two)], 1.0)
    for t_max in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="t_max must be finite and positive"):
            GeneratorPath.constant(one, t_max)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_profile_that_is_not_finite_names_its_term_and_time(bad):
    # H_t = H + f(t) H with f non-finite from t = 0.5 on
    gen = QuadraticGenerator.from_blocks(hpp=[[0.2]], hpm=[[0.7]])
    path = GeneratorPath([(None, gen), (lambda t: bad if t >= 0.5 else 1.0, gen)],
                         2.0)
    named = f"the profile of term 1 is {bad} at t=0.5"
    with pytest.raises(ValueError, match=named):
        integrate_flow(path, 1.0, 0.25)
    with pytest.raises(ValueError, match=named):
        propagate_direct(vacuum_state(ModeBasis(1, 4)), path, 1.0, 0.25)
    with pytest.raises(ValueError, match=named):
        path(0.5)
    with pytest.raises(ValueError, match="the profile of term 1"):
        picard_flow(path, 1.0, n_terms=3)


def test_gates_reject_an_overflowing_evolution():
    # an overflowing generator leaves NaN states, and a gate written as
    # value > limit lets a NaN drift or term norm through
    path = GeneratorPath.constant(
        QuadraticGenerator.from_blocks(hpp=[[1e200]]), 1.0)
    with np.errstate(all="ignore"):
        with pytest.raises(FlowError, match="norm drift nan"):
            propagate_direct(vacuum_state(ModeBasis(1, 6)), path, 1.0, 1e-2)
        with pytest.raises(ConvergenceError, match="not converged"):
            picard_flow(path, 1.0, n_terms=5)


@pytest.mark.parametrize("d, size", [(1, 4), (2, 11)])
def test_sampled_path_basis_spans_the_generators(d, size):
    # the oracle path's real basis gives back every generator exactly
    basis = sampled_path_rk4.real_basis(d)
    assert len(basis) == size
    gen = _random_generator(d, np.random.default_rng(d))
    path = GeneratorPath([(lambda t, c=coord(gen): c, g) for coord, g in basis], 1.0)
    back = path(0.0)
    assert np.array_equal(back.hpp, gen.hpp) and np.array_equal(back.hpm, gen.hpm)
    assert back.hbar == gen.hbar


def _assert_flows_agree(exact, oracle, tol=1e-9):
    for name in ("f", "g", "m"):
        err = np.abs(getattr(exact, name) - getattr(oracle, name)).max()
        assert err <= tol, (name, err)
    assert abs(exact.c - oracle.c) <= tol


def test_exponential_flow_metaplectic_branch():
    # su11 rotation over 4 pi: G returns to 1, the continued square root to -1
    gen = QuadraticGenerator.from_blocks(hpm=[[0.5]], hbar=0.25)
    t = 4 * math.pi
    exact = exponential_flow(gen, t)
    _assert_flows_agree(exact, integrate_flow(GeneratorPath.constant(gen, t), t, 1e-3))
    assert exact.c == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("a, t, windings", [
    ((0.0, 1.0, 0.0), 5.0, 0.0),      # pure squeeze: det G stays real
    ((4.0, 2.4, 0.0), 6.0, 1.2),      # elliptic rotation + squeeze
    ((4.0, 1.2, -2.0), 6.0, 1.2),     # elliptic, both squeeze directions
])
def test_exponential_flow_matches_rk4_su11(a, t, windings):
    from semiclab.scenarios import su11_family

    gen = su11_family().generator(np.array(a), np.zeros(3))
    oracle = integrate_flow(GeneratorPath.constant(gen, t), t, 1e-3)
    turns = np.unwrap(np.angle(oracle.gs[:, 0, 0]))[-1] / (2 * math.pi)
    assert abs(turns) >= windings
    _assert_flows_agree(exponential_flow(gen, t), oracle)


def test_exponential_flow_matches_rk4_random_u2():
    from semiclab.scenarios import u2_family

    fam = u2_family()
    rng = np.random.default_rng(17)
    for _ in range(3):
        gen = fam.generator(rng.normal(size=4), np.zeros(5))
        t = 2.0
        oracle = integrate_flow(GeneratorPath.constant(gen, t), t, 1e-3)
        _assert_flows_agree(exponential_flow(gen, t), oracle)


def test_exponential_flow_random_two_mode_with_pairing():
    rng = np.random.default_rng(8)
    hpp = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    hpm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gen = QuadraticGenerator.from_blocks(
        hpp=0.15 * (hpp + hpp.T), hpm=0.5 * (hpm + hpm.conj().T), hbar=0.3)
    t = 3.0
    oracle = integrate_flow(GeneratorPath.constant(gen, t), t, 1e-3)
    _assert_flows_agree(exponential_flow(gen, t), oracle)


def test_exponential_flow_t0_is_identity():
    gen = QuadraticGenerator.from_blocks(hpp=[[0.3]], hpm=[[0.8]], hbar=0.2)
    flow = exponential_flow(gen, 0.0)
    assert np.array_equal(flow.f, np.zeros((1, 1)))
    assert np.array_equal(flow.g, np.eye(1))
    assert np.array_equal(flow.m, np.zeros((1, 1)))
    assert flow.c == 1.0
    oracle = integrate_flow(GeneratorPath.constant(gen, 1.0), 0.0, 1e-3)
    _assert_flows_agree(flow, oracle)


def _propagator_per_column(flow, basis):
    # every column built from the transported vacuum on its own
    d = basis.modes
    vac = gaussian_state(GaussianData(flow.m, c=flow.c), basis)
    unit = np.eye(d)
    cols = np.empty((basis.size, basis.size), dtype=complex)
    worst_leak = vac.leakage
    for col, occ in enumerate(basis.states):
        psi = vac
        scale = 1.0
        for mode, n in enumerate(occ):
            if n == 0:
                continue
            created = np.conj(flow.g) @ unit[mode]
            killed = flow.f @ unit[mode]
            for _ in range(n):
                up = apply_ladder(created, psi, "create")
                down = apply_ladder(killed, psi, "annihilate")
                psi = FockVector(basis, up.coeffs - down.coeffs,
                                 max(up.leakage, down.leakage))
            scale *= math.factorial(n)
        cols[:, col] = psi.coeffs / math.sqrt(scale)
        worst_leak = max(worst_leak, psi.leakage / scale)
    return cols, worst_leak


@pytest.mark.parametrize("modes, cutoff", [(1, 14), (2, 12), (3, 5)])
def test_propagator_from_flow_matches_per_column_oracle(modes, cutoff):
    rng = np.random.default_rng(modes)
    hpp = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    hpm = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    gen = QuadraticGenerator.from_blocks(
        hpp=0.05 * (hpp + hpp.T), hpm=0.5 * (hpm + hpm.conj().T))
    flow = exponential_flow(gen, 0.7)
    basis = ModeBasis(modes, cutoff)
    cols, leak = propagator_from_flow(flow, basis)
    ref_cols, ref_leak = _propagator_per_column(flow, basis)
    assert np.array_equal(cols, ref_cols)
    assert leak == ref_leak
    assert leak > 0.0


def test_rk4_is_fourth_order_on_oscillator():
    omega, t = 1.3, 2.0
    dts = [0.1, 0.05, 0.025, 0.0125]
    errs = [abs(rk4(lambda _, y: 1j * omega * y, np.array([1.0 + 0j]), t, dt)[0]
                - np.exp(1j * omega * t)) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 3.8 <= slope <= 4.2


def test_rk4_keep_returns_every_step_ending_at_t():
    t, dt = 1.0, 0.3  # three full steps and a shortened last one
    times, ys = rk4(lambda _, y: -y, np.array([1.0, 2.0]), t, dt, keep=True)
    n = step_count(t, dt)
    assert n == 4
    assert times.shape == (n + 1,) and ys.shape == (n + 1, 2)
    assert times[0] == 0.0 and times[-1] == pytest.approx(t, abs=1e-15)
    assert np.allclose(np.diff(times)[:-1], dt)
    assert np.array_equal(ys[0], [1.0, 2.0])
    assert np.allclose(ys[-1], np.exp(-t) * np.array([1.0, 2.0]), atol=1e-4)


@given(st.floats(min_value=1e-6, max_value=1e6), st.integers(min_value=1, max_value=10**9))
def test_step_count_inverts_a_uniform_step(t, n):
    assert step_count(t, t / n) == n


def test_step_count_edges():
    assert step_count(0.0, 1e-3) == 0
    assert step_count(1e-9, 1.0) == 1
    assert step_count(1.0, 0.3) == 4
    for dt in (0.0, -1e-3):
        with pytest.raises(ValueError, match="dt"):
            step_count(1.0, dt)
    with pytest.raises(ValueError):
        step_count(-1.0, 1e-3)


@pytest.mark.parametrize("t, dt, named", [
    (math.nan, 0.1, "t=nan"),
    (math.inf, 0.1, "t=inf"),
    (1.0, math.nan, "dt=nan"),
    (1.0, math.inf, "dt=inf"),
])
def test_step_count_rejects_non_finite_input(t, dt, named):
    # a NaN t took 0 steps and an infinite dt took one, silently
    with pytest.raises(ValueError, match=f"must be finite.*{named}"):
        step_count(t, dt)


@pytest.mark.parametrize("t", [-0.1, 4.5])
def test_direct_propagators_reject_times_outside_the_path(t):
    path = rotation_path(t_max=4.0)
    basis = ModeBasis(1, 4)
    with pytest.raises(ValueError, match="domain"):
        propagate_direct(vacuum_state(basis), path, t, 1e-2)
    with pytest.raises(ValueError, match="domain"):
        propagator_matrix(path, t, 1e-2, basis)


def test_picard_rejects_times_outside_the_path():
    # t = 5 and t = -1 on a path over [0, 1] were integrated without a word
    path = squeeze_path(t_max=1.0)
    for t in (5.0, -1.0):
        with pytest.raises(ValueError, match="domain"):
            picard_flow(path, t, n_terms=3)


def _one_mode_driven_path():
    # a time-dependent one-mode path with a constant term between profiles
    return GeneratorPath([
        (lambda t: math.cos(0.7 * t), QuadraticGenerator.from_blocks(hpp=[[0.3]])),
        (None, QuadraticGenerator.from_blocks(hpm=[[0.8]], hbar=0.2)),
        (lambda t: 0.1 * t, QuadraticGenerator.from_blocks(modes=1, hbar=1.0)),
    ], 4.0)


@pytest.mark.parametrize("make_path, t, dt, cutoff", [
    (lambda: rotation_path(), 1.7, 1e-3, 12),
    (lambda: squeeze_path(0.3), 1.0, 0.07, 24),  # a shortened last step
    (_one_mode_driven_path, 2.0, 0.03, 16),      # and a shortened last step
    (lambda: mixed_rotation_squeeze_path(), 1.0, 1e-2, 4),
    (lambda: random_path(3, np.random.default_rng(42), t_max=2.0), 2.0, 7e-3, 2),
    (lambda: _su11_moving_point_path(0.8, 800), 0.8, 1e-3, 12),
    (lambda: mixed_rotation_squeeze_path(), 0.0, 1e-2, 4),
])
def test_tabulated_routes_equal_the_per_stage_oracle(make_path, t, dt, cutoff):
    # a table read per stage instead of profile_sum per stage.  The routes
    # that step y -> y + D y (the flow, and the direct routes of a constant
    # path) round in another order than four stages of rk4_step, so they
    # agree to rounding (4.7e-16 at most here); the time-dependent direct
    # routes still run rk4_step and stay bitwise the same
    path = make_path()
    flow = integrate_flow(path, t, dt)
    times, fs, gs, c = per_stage_profiles.integrate_flow(path, t, dt)
    assert np.array_equal(flow.times, times)
    assert np.abs(flow.fs - fs).max() <= 1e-14
    assert np.abs(flow.gs - gs).max() <= 1e-14
    assert abs(flow.c - c) <= 1e-14
    basis = ModeBasis(path.modes, cutoff)
    psi = number_state(basis, (1,) + (0,) * (path.modes - 1))
    direct = propagate_direct(psi, path, t, dt).state.coeffs
    direct_oracle = per_stage_profiles.propagate_direct(psi, path, t, dt)
    horizon = min(t, 0.25)
    matrix = propagator_matrix(path, horizon, dt, basis)
    matrix_oracle = per_stage_profiles.propagator_matrix(path, horizon, dt, basis)
    if all(f is None for f, _ in path.terms):
        assert np.abs(direct - direct_oracle).max() <= 1e-14
        assert np.abs(matrix - matrix_oracle).max() <= 1e-14
    else:
        assert np.array_equal(direct, direct_oracle)
        assert np.array_equal(matrix, matrix_oracle)


def test_each_profile_is_read_once_per_distinct_stage_time():
    # n RK4 steps read a path at 2n + 1 times; the per-stage route read 4n
    reads = [0, 0]

    def counting(j, f):
        def profile(t):
            reads[j] += 1
            return f(t)
        return profile

    first, _, last = _one_mode_driven_path().terms
    counted = GeneratorPath([(counting(j, f), gen)
                             for j, (f, gen) in enumerate([first, last])], 4.0)
    n = step_count(2.0, 0.03)
    basis = ModeBasis(1, 8)
    for run in (lambda: integrate_flow(counted, 2.0, 0.03),
                lambda: propagate_direct(vacuum_state(basis), counted, 2.0, 0.03),
                lambda: propagator_matrix(counted, 2.0, 0.03, basis)):
        reads[:] = [0, 0]
        run()
        assert reads == [2 * n + 1] * 2
    reads[:] = [0, 0]
    per_stage_profiles.integrate_flow(counted, 2.0, 0.03)
    assert reads == [4 * n] * 2
    reads[:] = [0, 0]
    picard_flow(counted, 2.0, n_terms=3, tol=None)
    assert reads == [801, 801]


def test_a_profile_that_is_not_finite_raises_before_any_step(monkeypatch):
    # the profile is bad only at the end time, which the last stage reads
    from semiclab import bogoliubov

    gen = QuadraticGenerator.from_blocks(hpp=[[0.2]], hpm=[[0.7]])
    path = GeneratorPath([(None, gen), (lambda t: math.nan if t == 1.0 else 1.0, gen)],
                         2.0)
    steps = []
    step = bogoliubov.rk4_step
    monkeypatch.setattr(bogoliubov, "rk4_step",
                        lambda *args: steps.append(1) or step(*args))
    named = "the profile of term 1 is nan at t=1.0"
    basis = ModeBasis(1, 4)
    for run in (lambda: integrate_flow(path, 1.0, 0.25),
                lambda: propagate_direct(vacuum_state(basis), path, 1.0, 0.25),
                lambda: propagator_matrix(path, 1.0, 0.25, basis)):
        with pytest.raises(ValueError, match=named):
            run()
    assert steps == []


def test_a_time_dependent_direct_route_tabulates_only_the_profile_values():
    # weights are steps x terms floats; one matrix per stage would be
    # (2n + 1) dim^2 complex numbers, 135 MB here
    import tracemalloc

    path = _one_mode_driven_path()
    basis = ModeBasis(1, 64)
    psi = vacuum_state(basis)
    propagate_direct(psi, path, 0.1, 1e-3)
    tracemalloc.start()
    try:
        propagate_direct(psi, path, 1.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_matrix = basis.size ** 2 * 16
    assert basis.size == 65
    assert peak <= 20 * one_matrix


def test_a_constant_direct_route_holds_one_step_matrix_per_step_length():
    # D is formed once per distinct step length and read by it; a gathered
    # (n, dim, dim) stack of it would be 1000 dim^2 complex numbers here
    import tracemalloc

    path = squeeze_path(0.3)
    basis = ModeBasis(1, 64)
    psi = vacuum_state(basis)
    propagate_direct(psi, path, 0.1, 1e-3)
    tracemalloc.start()
    try:
        propagate_direct(psi, path, 0.9995, 1e-3)  # a shortened last step
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * basis.size ** 2 * 16


@pytest.mark.parametrize("t, dt", [(1.0, 0.07), (2.0, 0.03), (0.0, 0.01)])
def test_phase_angles_are_the_rk4_states(t, dt):
    # increments h/6 (r1 + 2 r2 + 2 r3 + r4) and one running sum: rk4's
    # operations in its order, so bitwise its states, a shortened last
    # step and t = 0 included
    rate = lambda tau: 0.5 * math.cos(3 * tau) - 0.2 * tau
    steps = _rk4_steps(t, dt)
    rates = np.array([rate(tau) for tau in _stage_times(steps)])
    angles = _phase_angles(np.array([h for _, h in steps]), rates)
    _, states = rk4(lambda tau, _: rate(tau), 0.0, t, dt, keep=True)
    assert np.array_equal(angles, states)


@pytest.mark.parametrize("make_path, t", [(rotation_path, 1.7),
                                          (lambda: squeeze_path(0.3), 1.0)])
def test_constant_step_form_keeps_the_rounding_floor(make_path, t):
    # y + D y at 10^4 steps stays on the per-stage route; (1 + D) y biases
    # every step alike and drifts from it by 5e-13
    path = make_path()
    psi = number_state(ModeBasis(1, 12), (1,))
    result = propagate_direct(psi, path, t, 1e-4)
    oracle = per_stage_profiles.propagate_direct(psi, path, t, 1e-4)
    assert np.abs(result.state.coeffs - oracle).max() <= 1e-14
    oracle_drift = abs(np.linalg.norm(oracle) - np.linalg.norm(psi.coeffs))
    assert result.norm_drift <= oracle_drift + 1e-15


def _two_mode_squeeze_path():
    # squeezes the first mode only, so cond(G) = cosh(0.6 t) grows
    gen = QuadraticGenerator.from_blocks(hpp=[[0.6, 0.0], [0.0, 0.0]])
    return GeneratorPath.constant(gen, 4.0)


def _squeeze_and_release_path():
    # the squeeze builds up and undoes itself: cond(G) peaks at t = pi/2
    gen = QuadraticGenerator.from_blocks(hpp=[[0.6, 0.0], [0.0, 0.0]])
    return GeneratorPath([(math.cos, gen)], math.pi)


@pytest.mark.parametrize("make_path, t, dt", [
    (_two_mode_squeeze_path, 1.4, 0.03),
    (_squeeze_and_release_path, math.pi, 0.03),
    (lambda: random_path(3, np.random.default_rng(42), t_max=2.0), 2.0, 7e-3),
])
def test_the_cond_guard_sees_every_stage_g(make_path, t, dt, monkeypatch):
    # the step route's 4n stage G's, the bottom rows of S_i [F; G], are the
    # G's the per-stage route hands its right-hand side, in order
    from semiclab import bogoliubov

    path = make_path()
    checked = []
    check = bogoliubov._check_cond
    monkeypatch.setattr(bogoliubov, "_check_cond",
                        lambda g, limit: checked.append(g) or check(g, limit))
    integrate_flow(path, t, dt)
    seen = []
    per_stage_profiles.integrate_flow(path, t, dt, stages=seen)
    assert checked[0].shape == (4 * step_count(t, dt),) + (path.modes,) * 2
    assert np.abs(checked[0] - np.array(seen)).max() <= 1e-14


@pytest.mark.parametrize("make_path, t", [(_two_mode_squeeze_path, 1.4),
                                          (_squeeze_and_release_path, math.pi)])
def test_a_cond_limit_under_the_largest_stage_cond_raises(make_path, t):
    # on the released squeeze the end point's G is near 1, so only the
    # stage guard can see the peak
    path = make_path()
    seen = []
    per_stage_profiles.integrate_flow(path, t, 0.03, stages=seen)
    worst = float(np.max(np.linalg.cond(np.array(seen))))
    flow = integrate_flow(path, t, 0.03, cond_limit=worst * (1 + 1e-9))
    with pytest.raises(FlowError, match="numerically singular"):
        integrate_flow(path, t, 0.03, cond_limit=worst * (1 - 1e-9))
    if make_path is _squeeze_and_release_path:
        assert np.linalg.cond(flow.gs).max() < worst * (1 - 1e-9)


def test_only_a_time_dependent_direct_route_runs_rk4_stages(monkeypatch):
    # the flow and the constant direct routes step y -> y + D y; a
    # time-dependent direct route still takes rk4_step's four stages a step
    from collections import Counter

    from semiclab import bogoliubov

    calls = Counter()
    step = bogoliubov.rk4_step

    def counted(rhs, *args):
        calls["rk4_step"] += 1

        def stage(*stage_args):
            calls["stage"] += 1
            return rhs(*stage_args)

        return step(stage, *args)

    monkeypatch.setattr(bogoliubov, "rk4_step", counted)
    basis = ModeBasis(1, 8)
    psi = vacuum_state(basis)
    integrate_flow(squeeze_path(), 1.0, 0.03)
    integrate_flow(_one_mode_driven_path(), 1.0, 0.03)
    propagate_direct(psi, squeeze_path(), 1.0, 0.03)
    propagator_matrix(squeeze_path(), 1.0, 0.03, basis)
    assert calls == {}
    propagate_direct(psi, _one_mode_driven_path(), 1.0, 0.03)
    n = step_count(1.0, 0.03)
    assert calls == {"rk4_step": n, "stage": 4 * n}
