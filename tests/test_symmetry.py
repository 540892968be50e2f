import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from semiclab.fock import ModeBasis, QuadraticGenerator, number_matrix
from semiclab.scenarios import heisenberg_family, su11_family, u2_family
from semiclab.symmetry import (
    GroupWord,
    LieAlgebra,
    anomaly_record,
    check_f3,
    check_form_conditions,
    check_group_law,
    check_vector_field_algebra,
    check_x6,
    classical_flow,
    group_element_action,
    omega_matrix,
    one_param_u,
    second_kind_coords,
    word_product,
)


def test_algebra_validation():
    for fam in (u2_family(), su11_family(), heisenberg_family()):
        assert fam.algebra.jacobi_residual() <= 1e-12
        assert fam.algebra.rep_residual() <= 1e-12


def test_algebra_rejects_bad_structure():
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 1] = 1.0
    bad[0, 1, 0] = 1.0  # not antisymmetric
    with pytest.raises(ValueError):
        LieAlgebra(["a", "b"], bad, [np.zeros((2, 2))] * 2)


def test_classical_flow_rotation_closed_form():
    fam = su11_family()
    x = np.array([0.2, 1.0, 0.0])
    t = 1.3
    out = classical_flow(fam.system, [1, 0, 0], t, x)
    # rotation at angular rate 1/2
    assert out[1] == pytest.approx(math.cos(t / 2), abs=1e-10)
    assert out[2] == pytest.approx(-math.sin(t / 2), abs=1e-10)


def test_classical_flow_t0_and_semigroup():
    fam = su11_family()
    x = np.array([0.1, 0.7, -0.4])
    assert np.allclose(classical_flow(fam.system, [0, 1, 0], 0.0, x), x)
    t1, t2 = 0.4, 0.9
    a = np.array([0.3, 0.5, -0.2])
    once = classical_flow(fam.system, a, t1 + t2, x)
    twice = classical_flow(fam.system, a, t1,
                           classical_flow(fam.system, a, t2, x))
    assert np.abs(once - twice).max() < 1e-9


def test_vector_field_algebra_su11():
    fam = su11_family()
    x = np.array([0.0, 0.8, -0.3])
    rng = np.random.default_rng(3)
    for _ in range(4):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        res = check_vector_field_algebra(fam.system, fam.algebra, a, b, x,
                                         h=1e-4)
        assert res < 1e-6


def test_vector_field_algebra_h_scaling():
    fam = su11_family()
    x = np.array([0.0, 0.8, -0.3])
    a = np.array([1.0, 0.2, 0.0])
    b = np.array([0.0, 0.4, 1.0])
    r1 = check_vector_field_algebra(fam.system, fam.algebra, a, b, x, h=2e-3)
    r2 = check_vector_field_algebra(fam.system, fam.algebra, a, b, x, h=1e-3)
    assert r1 / max(r2, 1e-15) == pytest.approx(4.0, rel=0.2)


def test_vector_field_algebra_heisenberg():
    fam = heisenberg_family()
    x = np.array([0.3, 0.5, -0.7])
    res = check_vector_field_algebra(fam.system, fam.algebra,
                                     [1, 0, 0], [0, 1, 0], x, h=1e-4)
    assert res < 1e-8


def test_f3_su11_clean():
    fam = su11_family()
    x = np.array([0.0, 0.6, 0.4])
    rng = np.random.default_rng(7)
    for _ in range(4):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        rep = check_f3(fam, a, b, x)
        assert rep.max_quadratic < 1e-10
        assert abs(rep.hbar_residual) < 1e-10
        assert rep.phi_residual < 1e-6


def test_f3_heisenberg_x_dependent():
    fam = heisenberg_family()
    x = np.array([0.2, 1.1, -0.5])
    rep = check_f3(fam, [1, 0, 0], [0, 1, 0], x)
    assert rep.max_quadratic < 1e-12
    assert abs(rep.hbar_residual) < 1e-9
    assert rep.phi_residual < 1e-9


def test_f3_abelian_trivial():
    fam = u2_family()
    x = np.zeros(3)
    rep = check_f3(fam, [1, 0, 0, 0], [0, 1, 0, 0], x)
    assert rep.max_quadratic < 1e-14
    assert abs(rep.hbar_residual) < 1e-14


def test_f3_anomaly_injection_scalar():
    eps = 0.05
    fam = su11_family(central_offset=eps)
    x = np.zeros(3)
    rep = check_f3(fam, [0, 1, 0], [0, 0, 1], x)
    # the scalar relation is off by exactly the injected offset
    assert rep.hbar_residual == pytest.approx(eps, abs=1e-10)
    assert rep.max_quadratic < 1e-10


def test_x6_su11_clean():
    fam = su11_family()
    basis = ModeBasis(1, 16)
    x = np.array([0.0, 0.5, -0.2])
    rng = np.random.default_rng(11)
    for _ in range(3):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        rep = check_x6(fam, a, b, x, basis)
        assert rep.residual_norm < 1e-6


def test_x6_heisenberg_clean():
    fam = heisenberg_family()
    basis = ModeBasis(1, 10)
    x = np.array([0.4, -0.3, 0.9])
    rep = check_x6(fam, [1, 0, 0], [0, 1, 0], x, basis)
    assert rep.residual_norm < 1e-9


def test_x6_zero_generators():
    fam = heisenberg_family()
    basis = ModeBasis(1, 8)
    rep = check_x6(fam, [0, 0, 0], [0, 0, 0], np.zeros(3), basis)
    assert rep.residual_norm == pytest.approx(0.0, abs=1e-15)


def test_x6_anomaly_is_scalar_and_commutes_with_omega():
    eps = 0.04
    fam = su11_family(central_offset=eps)
    basis = ModeBasis(1, 16)
    x = np.zeros(3)
    rep = check_x6(fam, [0, 1, 0], [0, 0, 1], x, basis)
    assert rep.is_scalar
    assert rep.scalar == pytest.approx(1j * eps, abs=1e-8)
    assert rep.residual_norm == pytest.approx(eps, rel=1e-6)
    # the residual, being scalar, commutes with every Omega[dX]
    ha = np.asarray([0.0, 1.0, 0.0])
    hb = np.asarray([0.0, 0.0, 1.0])
    from semiclab.fock import quadratic_matrix

    r = -(quadratic_matrix(fam.generator(ha, x), basis)
          @ quadratic_matrix(fam.generator(hb, x), basis)
          - quadratic_matrix(fam.generator(hb, x), basis)
          @ quadratic_matrix(fam.generator(ha, x), basis))
    r += 1j * quadratic_matrix(
        fam.generator(fam.algebra.bracket(ha, hb), x), basis)
    for dx in (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.3, -0.8])):
        om = omega_matrix(fam, x, dx, basis)
        comm = r @ om - om @ r
        keep = basis.grade_size(basis.cutoff - 4)
        assert np.linalg.norm(comm[:keep, :keep], 2) < 1e-6
    record = anomaly_record(rep)
    assert "scalar_estimate" in record


def test_form_conditions_zero_direction():
    fam = su11_family()
    basis = ModeBasis(1, 12)
    res_omega, res_op = check_form_conditions(
        fam, [0, 0, 0], np.array([0.1, 0.5, 0.3]), np.array([0.2, 1.0, -0.4]),
        basis)
    assert res_omega < 1e-12
    assert res_op < 1e-12


def test_form_conditions_rotation():
    fam = su11_family()
    basis = ModeBasis(1, 14)
    x = np.array([0.3, 0.8, -0.6])
    dx = np.array([0.5, -0.3, 0.9])
    res_omega, res_op = check_form_conditions(fam, [1, 0, 0], x, dx, basis)
    assert res_omega < 1e-6
    assert res_op < 1e-6


def test_form_conditions_squeeze():
    fam = su11_family()
    basis = ModeBasis(1, 14)
    x = np.array([0.0, 0.4, 0.7])
    dx = np.array([-0.2, 0.6, 0.1])
    for a in ([0, 1, 0], [0, 0, 1]):
        res_omega, res_op = check_form_conditions(fam, a, x, dx, basis)
        assert res_omega < 1e-6
        assert res_op < 1e-6


def test_one_param_u_identity_and_rotation_phases():
    fam = su11_family()
    basis = ModeBasis(1, 12)
    x = np.zeros(3)
    res0 = one_param_u(fam, [1, 0, 0], 0.0, x, basis)
    assert np.allclose(res0.matrix, np.eye(basis.size))
    t = 0.9
    res = one_param_u(fam, [1, 0, 0], t, x, basis, dt=1e-3)
    # H(B0) = (n + 1/2)/2: diagonal phases e^(-i t (n + 1/2) / 2)
    expected = np.diag(np.exp(-1j * t * (np.arange(13) + 0.5) / 2))
    assert np.abs(res.matrix - expected).max() < 1e-9


def test_one_param_u_unitarity():
    fam = su11_family()
    basis = ModeBasis(1, 16)
    x = np.array([0.0, 0.3, -0.5])
    res = one_param_u(fam, [0.4, 0.8, -0.3], 0.7, x, basis, dt=1e-3)
    drift = np.linalg.norm(
        res.matrix.conj().T @ res.matrix - np.eye(basis.size), 2)
    assert drift <= 1e-8 + 10 * res.leakage


def test_one_param_u_against_matrix_ode():
    from semiclab.bogoliubov import propagator_matrix, GeneratorPath

    fam = su11_family()
    basis = ModeBasis(1, 20)
    x = np.array([0.1, 0.6, 0.2])
    b = np.array([0.3, 0.5, 0.0])
    t = 0.8
    res = one_param_u(fam, b, t, x, basis, dt=1e-3)

    states = fam.system.trajectory(b, t, x, t / 800)

    def gen(tau):
        j = int(round(tau / (t / 1600)))
        return fam.generator(b, states[min(j, len(states) - 1)])

    u_ode = propagator_matrix(GeneratorPath(gen, t),
                              t, t / 800, basis)
    keep = basis.grade_size(8)
    assert np.linalg.norm((res.matrix - u_ode)[:keep, :keep], 2) < 1e-6


@pytest.mark.parametrize("family, b, x", [
    (su11_family, [0.4, 0.8, -0.3], [0.0, 0.0, 0.0]),
    (u2_family, [0.3, -0.5, 0.7, 0.2], [0.2, 0.6, -0.4]),
])
def test_one_param_u_fixed_point_route_matches_rk4(family, b, x):
    from semiclab.bogoliubov import (GeneratorPath, integrate_flow,
                                     propagator_from_flow)

    fam = family()
    basis = ModeBasis(fam.modes, 12 if fam.modes == 1 else 8)
    b, x, t = np.array(b), np.array(x), 1.3
    assert fam.system.is_fixed_point(b, x)
    res = one_param_u(fam, b, t, x, basis, dt=1e-3)
    assert res.flow.times is None  # the exact route keeps no trajectory
    assert np.array_equal(res.x_out, x)
    path = GeneratorPath.constant(fam.generator(b, x), t)
    rk4, _ = propagator_from_flow(integrate_flow(path, t, 1e-3), basis)
    keep = basis.grade_size(basis.cutoff - 4)
    assert np.linalg.norm((res.matrix - rk4)[:keep, :keep], 2) <= 1e-9


def test_one_param_u_moving_point_stays_on_rk4():
    from semiclab.bogoliubov import (GeneratorPath, integrate_flow,
                                     propagator_from_flow)

    fam = su11_family()
    basis = ModeBasis(1, 12)
    b = np.array([0.3, 0.5, 0.0])
    x = np.array([0.1, 0.6, 0.2])
    t, dt = 0.8, 1e-3
    assert not fam.system.is_fixed_point(b, x)
    res = one_param_u(fam, b, t, x, basis, dt=dt)

    n_steps = math.ceil(t / dt - 1e-12)
    states = fam.system.trajectory(b, t, x, t / n_steps)
    half = t / n_steps / 2

    def gen(tau):
        return fam.generator(b, states[min(int(round(tau / half)), len(states) - 1)])

    flow = integrate_flow(GeneratorPath(gen, t), t, t / n_steps)
    matrix, leak = propagator_from_flow(flow, basis)
    assert np.array_equal(res.matrix, matrix)
    assert res.leakage == leak
    assert np.array_equal(res.x_out, states[-1])


@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_trajectory_rejects_nonpositive_dt(dt):
    fam = su11_family()
    with pytest.raises(ValueError, match="dt"):
        classical_flow(fam.system, [1, 0, 0], 2.0, np.array([0.0, 1.0, 0.0]), dt=dt)
    with pytest.raises(ValueError, match="dt"):
        fam.system.trajectory(np.array([1.0, 0.0, 0.0]), 0.0, np.zeros(3), dt)


def test_one_param_u_step_grid_at_many_steps():
    # hbar = a0 Q^2 along the unit Q-translation: c = exp(-i int (Q0 + s)^2 ds).
    # At 18144 steps t / (t / n) rounds above n, so a step count with an
    # absolute slack put the trajectory on a finer grid than the flow and
    # the phase read the wrong states (error 3.5e-6).
    fam = dataclasses.replace(
        heisenberg_family(),
        quad_gen=lambda a, x: QuadraticGenerator.from_blocks(
            hbar=float(a[0] * x[1] ** 2), modes=1))
    x = np.array([0.0, 0.5, 0.2])
    t = 0.3
    res = one_param_u(fam, np.array([1.0, 0.0, 0.0]), t, x, ModeBasis(1, 1),
                      dt=t / 18143.5)
    assert len(res.flow.times) == 18145
    phase = -((x[1] + t) ** 3 - x[1] ** 3) / 3
    assert abs(res.flow.c - np.exp(1j * phase)) <= 1e-10
    assert np.allclose(res.x_out, [0.0, x[1] + t, x[2]], atol=1e-12)


def test_one_param_cocycle():
    # operator products corrupt the top grades, so the comparison block
    # sits well below the cutoff
    fam = su11_family()
    basis = ModeBasis(1, 20)
    x = np.array([0.0, 0.4, 0.1])
    b = np.array([0.2, 0.7, 0.1])
    t1, t2 = 0.5, 0.3
    x2 = classical_flow(fam.system, b, t2, x)
    u1 = one_param_u(fam, b, t1, x2, basis, dt=5e-4)
    u2 = one_param_u(fam, b, t2, x, basis, dt=5e-4)
    u12 = one_param_u(fam, b, t1 + t2, x, basis, dt=5e-4)
    keep = basis.grade_size(6)
    err = np.linalg.norm(
        (u1.matrix @ u2.matrix - u12.matrix)[:keep, :keep], 2)
    assert err < 1e-8


def test_word_product_empty_and_loop():
    fam = u2_family()
    basis = ModeBasis(2, 8)
    res = word_product(fam, GroupWord([]), np.zeros(3), basis)
    assert np.allclose(res.matrix, np.eye(basis.size))
    assert res.classical_is_loop
    assert res.loop_distance == pytest.approx(0.0, abs=1e-12)


def test_u2_contractible_loop_is_identity():
    # exp(-i 2 pi dGamma(sigma_x)) = 1: integer spectrum, contractible loop
    fam = u2_family()
    basis = ModeBasis(2, 8)
    word = GroupWord([(2, 2 * math.pi)])
    res = word_product(fam, word, np.zeros(3), basis, dt=2e-3)
    assert res.classical_is_loop
    assert res.loop_distance < 1e-6
    assert abs(res.loop_phase) < 1e-6


def test_u2_commutator_word_closes():
    # w = g1 g2 g1^-1 g2^-1 followed by the second-kind factorization of
    # its inverse: classically closed, quantum product must be the identity
    fam = u2_family()
    basis = ModeBasis(2, 8)
    s, t = 0.4, 0.7
    g1 = expm(s * fam.algebra.rep[2])
    g2 = expm(t * fam.algebra.rep[3])
    # factors apply first-to-last, so the first four produce the group
    # element g2^-1 g1^-1 g2 g1; append the factorization of its inverse
    residue = np.linalg.inv(g2) @ np.linalg.inv(g1) @ g2 @ g1
    alphas = second_kind_coords(np.linalg.inv(residue), fam.algebra)
    word = GroupWord(
        [(2, s), (3, t), (2, -s), (3, -t)]
        + [(k, float(alphas[k])) for k in range(len(alphas) - 1, -1, -1)]
    )
    res = word_product(fam, word, np.zeros(3), basis, dt=2e-3)
    assert res.classical_is_loop
    assert res.loop_distance < 1e-6
    assert abs(res.loop_phase) < 1e-6


def test_metaplectic_loop_phase():
    # one full classical rotation; the quantum lift returns -1
    fam = su11_family()
    basis = ModeBasis(1, 14)
    word = GroupWord([(0, 4 * math.pi)])
    res = word_product(fam, word, np.zeros(3), basis, dt=1e-3)
    assert res.classical_is_loop
    assert res.loop_distance < 1e-8
    assert abs(abs(res.loop_phase) - math.pi) < 1e-8
    keep = basis.grade_size(10)
    sub = res.matrix[:keep, :keep]
    assert np.abs(sub + np.eye(keep)).max() < 1e-8


def test_second_kind_coords_single_factor():
    fam = u2_family()
    g = expm(0.37 * fam.algebra.rep[0])
    alphas = second_kind_coords(g, fam.algebra)
    assert alphas[0] == pytest.approx(0.37, abs=1e-12)
    assert np.abs(alphas[1:]).max() < 1e-12


def test_second_kind_coords_identity():
    fam = su11_family()
    alphas = second_kind_coords(np.eye(2), fam.algebra)
    assert np.abs(alphas).max() < 1e-12


def test_second_kind_coords_mixed_element():
    fam = u2_family()
    g = expm(0.1 * fam.algebra.rep[0] + 0.2 * fam.algebra.rep[2])
    alphas = second_kind_coords(g, fam.algebra)
    prod = np.eye(2, dtype=complex)
    for k, val in enumerate(alphas):
        prod = prod @ expm(val * fam.algebra.rep[k])
    assert np.linalg.norm(prod - g) < 1e-10


def test_group_law_u2_identity_element():
    fam = u2_family()
    basis = ModeBasis(2, 8)
    g1 = expm(0.3 * fam.algebra.rep[2])
    res = check_group_law(fam, g1, np.eye(2), np.zeros(3), basis, dt=2e-3)
    assert res < 1e-8


def test_group_law_u2_random_pairs():
    fam = u2_family()
    basis = ModeBasis(2, 8)
    rng = np.random.default_rng(13)
    for _ in range(3):
        a1 = 0.3 * rng.normal(size=4)
        a2 = 0.3 * rng.normal(size=4)
        g1 = expm(sum(c * r for c, r in zip(a1, fam.algebra.rep)))
        g2 = expm(sum(c * r for c, r in zip(a2, fam.algebra.rep)))
        res = check_group_law(fam, g1, g2, np.zeros(3), basis, dt=2e-3)
        assert res < 1e-6


def test_group_law_su11_with_classical_base():
    fam = su11_family()
    basis = ModeBasis(1, 20)
    x = np.array([0.0, 0.4, -0.2])
    g1 = expm(0.25 * fam.algebra.rep[1] + 0.1 * fam.algebra.rep[0])
    g2 = expm(-0.2 * fam.algebra.rep[2] + 0.15 * fam.algebra.rep[0])
    res = check_group_law(fam, g1, g2, x, basis, dt=1e-3, margin=12)
    assert res < 1e-6


def test_group_law_heisenberg_weyl_phases():
    fam = heisenberg_family()
    basis = ModeBasis(1, 6)
    x = np.array([0.2, 0.7, -0.3])
    g1 = expm(0.5 * fam.algebra.rep[0] + 0.2 * fam.algebra.rep[1])
    g2 = expm(-0.3 * fam.algebra.rep[0] + 0.4 * fam.algebra.rep[1])
    res = check_group_law(fam, g1, g2, x, basis, dt=1e-3)
    assert res < 1e-8


def test_group_law_anomalous_family_fails():
    # ordering the pair so that the product's second-kind central
    # coordinate is -s t: the anomalous central phase then enters one side
    # of the group law only, leaving the defect 2 |sin(eps s t / 2)|
    eps = 0.2
    fam = heisenberg_family(central_offset=eps)
    basis = ModeBasis(1, 6)
    x = np.array([0.0, 0.5, 0.1])
    s, t = 0.6, 0.8
    g1 = expm(t * fam.algebra.rep[1])  # momentum shift
    g2 = expm(s * fam.algebra.rep[0])  # position shift
    res = check_group_law(fam, g1, g2, x, basis, dt=1e-3)
    expected = 2 * abs(math.sin(eps * s * t / 2))
    assert res == pytest.approx(expected, rel=0.1)
    assert res > 0.5 * expected


def test_group_element_action_maps_points():
    fam = su11_family()
    basis = ModeBasis(1, 10)
    x = np.array([0.1, 0.5, -0.4])
    g = expm(0.3 * fam.algebra.rep[0])
    act = group_element_action(fam, g, x, basis)
    assert np.abs(act.map_point(x) - act.x_out).max() < 1e-9
