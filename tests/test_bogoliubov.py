import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semiclab.bogoliubov import (
    BogoliubovFlow,
    CreatedState,
    FlowError,
    GeneratorPath,
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
    trajectory_to_csv,
)
from semiclab.fock import (
    FockVector,
    GaussianData,
    ModeBasis,
    QuadraticGenerator,
    apply_ladder,
    gaussian_state,
    inner,
    number_state,
    vacuum_state,
)


def rotation_path(omega=0.8, hbar=0.3, t_max=4.0):
    gen = QuadraticGenerator.from_blocks(hpm=[[omega]], hbar=hbar)
    return GeneratorPath.constant(gen, t_max)


def squeeze_path(kappa=0.3, t_max=4.0):
    gen = QuadraticGenerator.from_blocks(hpp=[[kappa]])
    return GeneratorPath.constant(gen, t_max)


def random_path(d, rng, t_max=2.5):
    # three interpolated Hermitian/symmetric snapshots
    gens = []
    for _ in range(3):
        hpp = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        hpp = 0.3 * (hpp + hpp.T)
        hpm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        hpm = 0.5 * (hpm + hpm.conj().T)
        gens.append(QuadraticGenerator.from_blocks(hpp=hpp, hpm=hpm, hbar=rng.normal()))
    return GeneratorPath.from_samples([0.0, t_max / 2, t_max], gens)


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
    assert np.allclose(res.f_lab, 0)
    assert np.allclose(res.g_lab, np.eye(1))


def test_picard_matches_squeeze_closed_form():
    kappa, t = 0.3, 1.0
    res = picard_flow(squeeze_path(kappa), t=t, n_terms=25)
    assert abs(res.f_lab[0, 0] - (-1j * math.sinh(kappa * t))) < 1e-8
    assert abs(res.g_lab[0, 0] - math.cosh(kappa * t)) < 1e-8


def test_picard_matches_integrator():
    rng = np.random.default_rng(11)
    path = random_path(2, rng, t_max=1.0)
    flow = integrate_flow(path, t=1.0, dt=5e-4)
    res = picard_flow(path, t=1.0, n_terms=25)
    assert np.linalg.norm(res.f_lab - flow.f) < 1e-6
    assert np.linalg.norm(res.g_lab - flow.g) < 1e-6


def test_picard_interaction_picture_with_constant_l():
    # split the particle-conserving block into L + Hsmall and make sure the
    # interaction-picture series still reproduces the lab-frame flow
    omega = 1.3
    gen = QuadraticGenerator(
        hpp=np.array([[0.25]]),
        l_const=np.array([[omega]]),
        hsmall=np.array([[0.1]]),
        hbar=0.0,
    )
    path = GeneratorPath.constant(gen, t_max=2.0)
    flow = integrate_flow(path, t=1.0, dt=5e-4)
    res = picard_flow(path, t=1.0, n_terms=25)
    assert np.linalg.norm(res.f_lab - flow.f) < 1e-7
    assert np.linalg.norm(res.g_lab - flow.g) < 1e-7


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
            np.linalg.norm(gen.hsmall, 2),
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
    from semiclab.fock import lowering_matrices

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


def test_flow_error_on_coarse_step():
    rng = np.random.default_rng(3)
    path = random_path(2, rng, t_max=2.0)
    with pytest.raises(FlowError):
        integrate_flow(path, t=2.0, dt=0.5, residual_tol=1e-10)


def test_trajectory_csv(tmp_path):
    flow = integrate_flow(squeeze_path(0.3), t=0.5, dt=1e-2)
    out = tmp_path / "flow.csv"
    trajectory_to_csv(flow, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,F00_re")
    assert len(lines) == len(flow.times) + 1


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
        gen = fam.generator(rng.normal(size=4), np.zeros(3))
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
        worst_leak = max(worst_leak, psi.leakage)
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


@pytest.mark.parametrize("t", [-0.1, 4.5])
def test_direct_propagators_reject_times_outside_the_path(t):
    path = rotation_path(t_max=4.0)
    basis = ModeBasis(1, 4)
    with pytest.raises(ValueError, match="domain"):
        propagate_direct(vacuum_state(basis), path, t, 1e-2)
    with pytest.raises(ValueError, match="domain"):
        propagator_matrix(path, t, 1e-2, basis)
