import dataclasses
import math

import classical_rk4
import hand_families
import numpy as np
import pytest
import sampled_path_rk4
from scipy.linalg import expm

from semiclab.bogoliubov import propagator_from_flow
from semiclab.fock import ModeBasis, QuadraticGenerator
from semiclab.scenarios import heisenberg_family, su11_family, u2_family
from semiclab.symmetry import (
    ClassicalSystem,
    GeneratorFamily,
    GroupWord,
    LieAlgebra,
    check_f3,
    check_form_conditions,
    check_group_law,
    check_vector_field_algebra,
    check_x6,
    group_element_action,
    omega_matrix,
    one_param_u,
    second_kind_coords,
    word_product,
)
from semiclab.symmetry import _hamilton_field, _restrict


# the structure constants the families declared by hand before they were
# derived from the representation: su11's brackets [B1, B2] = B0,
# [B0, B1] = -B2, [B0, B2] = B1 and heisenberg's [B_q, B_p] = B_c
def _hand_table(*brackets):
    table = np.zeros((3, 3, 3))
    for k, i, j, c in brackets:
        table[k, i, j], table[k, j, i] = c, -c
    return table


SU11_TABLE = _hand_table((0, 1, 2, 1.0), (2, 0, 1, -1.0), (1, 0, 2, 1.0))
HEISENBERG_TABLE = _hand_table((2, 0, 1, 1.0))


def _u2_lstsq_table(rep):
    """u2's constants as its family once solved them: -i [h_i, h_j] expanded
    over the h_i = i B_i by one lstsq per pair."""
    hs = [1j * r for r in rep]
    m = len(hs)
    flat = np.stack([h.reshape(-1) for h in hs], axis=1)
    table = np.zeros((m, m, m))
    for i in range(m):
        for j in range(m):
            comm = -1j * (hs[i] @ hs[j] - hs[j] @ hs[i])
            coeff, *_ = np.linalg.lstsq(flat, comm.reshape(-1), rcond=None)
            table[:, i, j] = coeff.real
    return table


def test_lie_algebra_is_declared_by_its_representation():
    assert [f.name for f in dataclasses.fields(LieAlgebra)] == ["rep"]
    alg = LieAlgebra([np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert alg.dim == 1 and alg.rep[0].dtype == complex
    assert np.array_equal(alg.structure, np.zeros((1, 1, 1)))


def test_derived_structure_constants_match_the_hand_tables():
    assert np.array_equal(su11_family().algebra.structure, SU11_TABLE)
    assert np.array_equal(heisenberg_family().algebra.structure, HEISENBERG_TABLE)
    u2 = u2_family().algebra
    assert np.abs(u2.structure - _u2_lstsq_table(hand_families.u2()[0])).max() <= 1e-15
    for fam in (u2_family(), su11_family(), heisenberg_family()):
        alg = fam.algebra
        c, eye = alg.structure, np.eye(alg.dim)
        assert np.array_equal(c, -c.transpose(0, 2, 1))
        for i, j, k in np.ndindex(c.shape):
            jacobi = sum(alg.bracket(eye[p], alg.bracket(eye[q], eye[r]))
                         for p, q, r in ((i, j, k), (j, k, i), (k, i, j)))
            assert np.abs(jacobi).max() <= 1e-12
            comm = alg.rep[i] @ alg.rep[j] - alg.rep[j] @ alg.rep[i]
            assert np.abs(comm - np.tensordot(c[:, i, j], alg.rep, 1)).max() <= 1e-12


@pytest.mark.parametrize("rep, message", [
    # [e12, e21] = diag(1, -1) lies outside their span
    ([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], "does not close"),
    ([[[0, 1], [0, 0]], [[0, 2], [0, 0]]], "linearly dependent"),
    # the Pauli matrices close as [s_x, s_y] = 2i s_z
    ([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], "complex"),
])
def test_algebra_rejects_bad_representations(rep, message):
    with pytest.raises(ValueError, match=message):
        LieAlgebra([np.array(r) for r in rep])


@pytest.mark.parametrize("family, declared, offset", [
    (su11_family, hand_families.su11, 0.0),
    (su11_family, hand_families.su11, 0.05),
    (heisenberg_family, hand_families.heisenberg, 0.0),
    (heisenberg_family, hand_families.heisenberg, 0.05),
    (u2_family, hand_families.u2, None),
])
def test_form_families_match_the_hand_declarations(family, declared, offset):
    # the Weyl germ of the forms gives back what was once written by hand:
    # su11's and u2's generators bitwise (u2's offsets -tr(h_i) / 2 leave
    # every scalar exactly 0), heisenberg's scalars to rounding
    fam, hand = ((family(), declared()) if offset is None
                 else (family(offset), declared(offset)))
    tol = 1e-15 if family is heisenberg_family else 0.0
    rng = np.random.default_rng(43)
    for _ in range(20):
        a, x = rng.normal(size=fam.algebra.dim), rng.normal(size=len(fam.forms[0]))
        gen, oracle = fam.generator(a, x), hand_families.generator(hand, a, x)
        assert np.abs(gen.hpp - oracle.hpp).max() <= tol
        assert np.abs(gen.hpm - oracle.hpm).max() <= tol
        assert abs(gen.hbar - oracle.hbar) <= tol
    structure = LieAlgebra(hand[0]).structure
    assert np.abs(fam.algebra.structure - structure).max() <= 1e-15


def test_forms_that_do_not_close_raise():
    # {q^2, p^2} = 4 q p lies outside the span of q^2 and p^2, on one degree
    # of freedom and on the first of two
    with pytest.raises(ValueError, match="does not close"):
        GeneratorFamily([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])],
                        [0.0, 0.0])
    with pytest.raises(ValueError, match="does not close"):
        GeneratorFamily([np.diag([1.0, 0.0, 0.0, 0.0, 0.0]),
                         np.diag([0.0, 0.0, 1.0, 0.0, 0.0])], [0.0, 0.0])


def _affine_conjugate(fam, seed):
    """fam declared in the coordinates of a seeded symplectic affine map
    z -> M z + v on z = (q, p), M = exp(J S): each form F becomes A^T F A, A
    the inverse map on w = (q, p, 1), symmetrized after the product."""
    n = fam.modes
    rng = np.random.default_rng(seed)
    sym = rng.normal(scale=0.3, size=(2 * n, 2 * n))
    m = expm(np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(n)) @ (sym + sym.T))
    inverse = np.eye(2 * n + 1)
    inverse[:2 * n, :2 * n] = np.linalg.inv(m)
    inverse[:2 * n, 2 * n] = -inverse[:2 * n, :2 * n] @ rng.normal(scale=0.5, size=2 * n)
    forms = [inverse.T @ f @ inverse for f in fam.forms]
    return GeneratorFamily([(f + f.T) / 2 for f in forms], fam.offsets)


def _su11_conjugate(seed):
    return _affine_conjugate(su11_family(), seed)


def _u2_conjugate(seed):
    # an affine Sp(4) map: the conjugate squeezes and translates, so its
    # flows move X and its generators have H++ and scalars
    return _affine_conjugate(u2_family(), seed)


# su11's three conjugates keep their ids; u2's are more inputs
_CONJUGATES = pytest.mark.parametrize("conjugate, seed", [
    (_su11_conjugate, 0), (_su11_conjugate, 1), (_su11_conjugate, 2),
    (_u2_conjugate, 0), (_u2_conjugate, 1),
], ids=["0", "1", "2", "u2-0", "u2-1"])


@_CONJUGATES
def test_one_param_u_on_affine_conjugates_matches_rk4(conjugate, seed):
    # the conjugates' scalars are affine in (Q, P) and their flows rotate
    # and squeeze, so the scalar path is no polynomial in tau; u2 turns at
    # rate 1, twice su11's, so the oracle's RK4 error at one dt is 16 times
    # larger (1.3e-12 at 1e-3, 8.4e-14 at 5e-4) and its step is halved
    fam = conjugate(seed)
    dt = 1e-3 if fam.modes == 1 else 5e-4
    rng = np.random.default_rng(100 + seed)
    for t in (1.1, -0.8):
        b = rng.normal(size=fam.algebra.dim)
        x = rng.normal(size=len(fam.forms[0]))
        res = one_param_u(fam, b, t, x)
        oracle = sampled_path_rk4.one_param_u(fam, b, t, x, dt)
        assert abs(res.flow.c - oracle.flow.c) <= 1e-12
        assert np.abs(res.flow.f - oracle.flow.f).max() <= 1e-12
        assert np.abs(res.flow.g - oracle.flow.g).max() <= 1e-12
        assert np.array_equal(res.x_out, oracle.x_out)


@_CONJUGATES
def test_consistency_residuals_on_affine_conjugates(conjugate, seed):
    # every delta-term is exact, so the F3 scalar and phi residuals and the
    # X6 residual sit at rounding level
    fam = conjugate(seed)
    rng = np.random.default_rng(200 + seed)
    a, b = rng.normal(size=(2, fam.algebra.dim))
    x = rng.normal(size=len(fam.forms[0]))
    f3 = check_f3(fam, a, b, x)
    assert f3.max_quadratic <= 1e-9 and abs(f3.hbar_residual) <= 1e-12
    assert f3.phi_residual <= 1e-14
    basis = ModeBasis(fam.modes, 16 if fam.modes == 1 else 10)
    assert check_x6(fam, a, b, x, basis).residual_norm <= 1e-11


def test_classical_flow_rotation_closed_form():
    fam = su11_family()
    x = np.array([0.2, 1.0, 0.0])
    t = 1.3
    out = fam.system.flow([1, 0, 0], t, x)
    # rotation at angular rate 1/2
    assert out[1] == pytest.approx(math.cos(t / 2), abs=1e-10)
    assert out[2] == pytest.approx(-math.sin(t / 2), abs=1e-10)


def test_classical_flow_t0_and_semigroup():
    fam = su11_family()
    x = np.array([0.1, 0.7, -0.4])
    assert np.allclose(fam.system.flow([0, 1, 0], 0.0, x), x)
    t1, t2 = 0.4, 0.9
    a = np.array([0.3, 0.5, -0.2])
    once = fam.system.flow(a, t1 + t2, x)
    twice = fam.system.flow(a, t1, fam.system.flow(a, t2, x))
    assert np.abs(once - twice).max() < 1e-9


# the classical Hamiltonians as the families once declared them, next to
# their fields (lin, off)
_SU11_HAMILTONIANS = [
    lambda q, p: (q * q + p * p) / 4,
    lambda q, p: (q * q - p * p) / 4,
    lambda q, p: q * p / 2,
]
_HEISENBERG_HAMILTONIANS = [lambda q, p: p, lambda q, p: -q, lambda q, p: 1.0]


@pytest.mark.parametrize("family, hamiltonians", [
    (su11_family, _SU11_HAMILTONIANS),
    (heisenberg_family, _HEISENBERG_HAMILTONIANS),
])
def test_forms_are_the_declared_hamiltonians(family, hamiltonians):
    forms = family().system.forms
    rng = np.random.default_rng(17)
    for q, p in rng.normal(size=(20, 2)):
        w = np.array([q, p, 1.0])
        for form, ham in zip(forms, hamiltonians, strict=True):
            assert abs(w @ form @ w - ham(q, p)) <= 1e-14


def test_hamilton_fields_are_the_affine_fields():
    # the middle block of su11's Jacobi representation is its linear field
    fam = su11_family()
    for form, rep in zip(fam.system.forms, fam.algebra.rep, strict=True):
        field = _hamilton_field(form)
        assert np.array_equal(field[:2, :2], rep[1:3, 1:3])
        assert not np.any(field[:, 2]) and not np.any(field[2])
    offsets = [_hamilton_field(f)[:2, 2] for f in heisenberg_family().system.forms]
    assert np.array_equal(offsets, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert not np.any([_hamilton_field(f)[:2, :2]
                       for f in heisenberg_family().system.forms])


@pytest.mark.parametrize("family", [
    su11_family, heisenberg_family, u2_family, lambda: _u2_conjugate(3),
], ids=["su11_family", "heisenberg_family", "u2_family", "u2_conjugate"])
def test_exact_flow_matches_the_rk4_oracle(family):
    system = family().system
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = rng.normal(size=system.dim)
        t = rng.uniform(-2.0, 2.0)
        x = rng.normal(size=len(system.forms[0]))
        oracle = classical_rk4.flow(system.forms, a, t, x, 1e-3)
        assert np.abs(system.flow(a, t, x) - oracle).max() <= 1e-10


@pytest.mark.parametrize("family", [su11_family, heisenberg_family])
def test_trajectory_samples_are_the_flow_at_their_times(family):
    system = family().system
    a = np.array([0.4, -0.7, 0.3])
    x = np.array([0.2, -0.5, 0.8])
    for t in (1.3, -0.9):
        times = np.linspace(0.0, t, 53)
        states = system.trajectory(a, times, x)
        assert states.shape == (53, 3)
        for tau, state in zip(times, states):
            assert np.abs(state - system.flow(a, tau, x)).max() <= 1e-12
        assert np.array_equal(states[-1], system.flow(a, t, x))


@pytest.mark.parametrize("family", [
    su11_family, heisenberg_family, lambda: _u2_conjugate(3),
], ids=["su11_family", "heisenberg_family", "u2_conjugate"])
def test_velocity_and_its_unit_step_difference_are_flow_derivatives(family):
    # the velocity is dX/dt of the flow, and its central difference at unit
    # step along dX is the rate of dX pushed forward along the flow; the
    # flow is quadratic in X, so its unit-step difference is that tangent
    system = family().system
    rng = np.random.default_rng(29)
    eps = 1e-6
    for _ in range(5):
        a = rng.normal(size=system.dim)
        x, dx = rng.normal(size=(2, len(system.forms[0])))
        rate = (system.flow(a, eps, x) - system.flow(a, -eps, x)) / (2 * eps)
        assert np.abs(system.velocity(a, x) - rate).max() <= 1e-7
        tangent = [(system.flow(a, s, x + dx) - system.flow(a, s, x - dx)) / 2
                   for s in (eps, -eps)]
        dv = (system.velocity(a, x + dx) - system.velocity(a, x - dx)) / 2
        assert np.abs(dv - (tangent[0] - tangent[1]) / (2 * eps)).max() <= 1e-7


def test_is_fixed_point_reads_the_form():
    rng = np.random.default_rng(31)
    u2 = u2_family().system
    for _ in range(5):
        assert u2.is_fixed_point(rng.normal(size=4), [rng.normal(), 0, 0, 0, 0])
        assert not u2.is_fixed_point(rng.normal(size=4), rng.normal(size=5))
    su11 = su11_family().system
    for _ in range(5):
        assert su11.is_fixed_point(rng.normal(size=3), np.zeros(3))
    assert not su11.is_fixed_point([1, 0, 0], np.array([0.1, 0.6, 0.2]))
    heisenberg = heisenberg_family().system
    for x in (np.zeros(3), rng.normal(size=3)):
        assert not heisenberg.is_fixed_point([0, 0, 1], x)


@pytest.mark.parametrize("form, match", [
    (np.eye(2), "3x3"),
    (np.zeros((3, 3, 1)), "3x3"),
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "symmetric"),
    (np.diag([1.0, np.nan, 0.0]), "finite"),
    (np.diag([np.inf, 0.0, 0.0]), "finite"),
])
def test_classical_system_rejects_bad_forms(form, match):
    with pytest.raises(ValueError, match=match):
        ClassicalSystem([np.zeros((3, 3)), form])


@pytest.mark.parametrize("forms, match", [
    ([], "at least one form"),
    ([np.zeros((1, 1))], r"\(2n\+1\)x\(2n\+1\), n >= 1"),
    ([np.zeros((2, 2))], r"\(2n\+1\)x\(2n\+1\), n >= 1"),
    ([np.zeros((4, 4)), np.zeros((4, 4))], r"\(2n\+1\)x\(2n\+1\), n >= 1"),
    ([np.zeros((5, 5)), np.zeros((3, 3))], r"5x5 like its first, got shape \(3, 3\)"),
], ids=["none", "size-1", "size-2", "size-4", "unequal"])
def test_classical_system_rejects_forms_of_even_or_unequal_size(forms, match):
    with pytest.raises(ValueError, match=match):
        ClassicalSystem(forms)
    with pytest.raises(ValueError, match=match):
        GeneratorFamily(forms, np.zeros(len(forms)))


@pytest.mark.parametrize("a", [[1, 0, 0, 7], [1], [[1, 0, 0]]])
def test_wrong_length_coefficients_raise(a):
    fam = su11_family()
    x = np.array([0.1, 0.6, 0.2])
    with pytest.raises(ValueError, match="algebra coefficients"):
        fam.system.flow(a, 0.5, x)
    with pytest.raises(ValueError, match="algebra coefficients"):
        fam.system.trajectory(a, [0.5], x)
    with pytest.raises(ValueError, match="algebra coefficients"):
        fam.system.velocity(a, x)
    with pytest.raises(ValueError, match="algebra coefficients"):
        fam.system.is_fixed_point(a, x)
    with pytest.raises(ValueError, match="algebra coefficients"):
        fam.generator(a, x)
    with pytest.raises(ValueError, match="algebra coefficients"):
        one_param_u(fam, a, 0.4, x)


def test_u2_generator_needs_every_coefficient():
    with pytest.raises(ValueError, match="algebra coefficients"):
        u2_family().generator([1, 0], np.zeros(5))


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


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_coefficients_are_named(value):
    # check_vector_field_algebra read them as a zero residual (max(0.0, nan)
    # keeps 0.0), and the others raised "hpp must be symmetric"
    fam = su11_family()
    x, good, bad = np.array([0.1, 0.5, -0.3]), [0.0, 1.0, 0.0], [value, 1.0, 0.0]
    basis = ModeBasis(1, 8)
    for run in (lambda: check_vector_field_algebra(fam.system, fam.algebra, bad, good, x),
                lambda: check_vector_field_algebra(fam.system, fam.algebra, good, bad, x),
                lambda: one_param_u(fam, bad, 0.5, x),
                lambda: check_f3(fam, bad, good, x),
                lambda: check_f3(fam, good, bad, x),
                lambda: check_x6(fam, good, bad, x, basis),
                lambda: check_form_conditions(fam, bad, x, [0.3, 1.0, -0.7], basis),
                lambda: fam.generator(bad, x)):
        with pytest.raises(ValueError, match="algebra coefficients must be finite"):
            run()


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
        assert rep.phi_residual < 1e-14


def test_f3_heisenberg_x_dependent():
    fam = heisenberg_family()
    x = np.array([0.2, 1.1, -0.5])
    rep = check_f3(fam, [1, 0, 0], [0, 1, 0], x)
    assert rep.max_quadratic < 1e-12
    assert abs(rep.hbar_residual) < 1e-9
    assert rep.phi_residual < 1e-14


def test_f3_abelian_trivial():
    fam = u2_family()
    x = np.zeros(5)
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


@pytest.mark.parametrize("cutoff", [3, 4])
def test_margin_restriction_needs_more_than_the_vacuum(cutoff):
    # at cutoff <= 4 the restricted block is the vacuum alone or empty, where
    # x6's off-scalar part is 0 by construction and a loop phase is 0/0
    basis = ModeBasis(1, cutoff)
    with pytest.raises(ValueError, match="margin"):
        check_x6(su11_family(central_offset=0.05), [0, 1, 0], [0, 0, 1],
                 np.zeros(3), basis)
    with pytest.raises(ValueError, match="margin"):
        word_product(su11_family(), GroupWord([(0, 4 * math.pi)]),
                     np.zeros(3), basis)
    assert _restrict(np.eye(6), ModeBasis(1, 5)).shape == (2, 2)


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
        om = omega_matrix(dx, basis)
        comm = r @ om - om @ r
        keep = basis.grade_size(basis.cutoff - 4)
        assert np.linalg.norm(comm[:keep, :keep], 2) < 1e-6


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
    assert res_omega < 1e-14
    assert res_op < 1e-12


def test_form_conditions_squeeze():
    fam = su11_family()
    basis = ModeBasis(1, 14)
    x = np.array([0.0, 0.4, 0.7])
    dx = np.array([-0.2, 0.6, 0.1])
    for a in ([0, 1, 0], [0, 0, 1]):
        res_omega, res_op = check_form_conditions(fam, a, x, dx, basis)
        assert res_omega < 1e-14
        assert res_op < 1e-12


def test_a_wrong_pushforward_shows_in_the_phi_residual(monkeypatch):
    # phi's delta-term reads the rate of the pushed-forward tangent: with the
    # Hamilton field transposed in the velocity, the residual is far off
    # rounding
    fam = _su11_conjugate(0)
    rng = np.random.default_rng(37)
    a, b, x = rng.normal(size=(3, 3))
    assert check_f3(fam, a, b, x).phi_residual <= 1e-14
    monkeypatch.setattr("semiclab.symmetry._hamilton_field",
                        lambda h: _hamilton_field(h).T)
    assert check_f3(fam, a, b, x).phi_residual >= 1e-3


def test_f3_and_form_conditions_run_no_flow(monkeypatch):
    # their delta-terms are closed forms of the velocity, so no flow runs;
    # the vector-field check still steps along the flow
    def no_flow(*args):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(ClassicalSystem, "trajectory", no_flow)
    fam, basis = su11_family(), ModeBasis(1, 8)
    a, b = np.array([0.4, -0.7, 0.3]), np.array([0.2, 0.5, -0.9])
    x, dx = np.array([0.2, -0.5, 0.8]), np.array([0.3, 1.0, -0.7])
    check_f3(fam, a, b, x)
    check_form_conditions(fam, a, x, dx, basis)
    with pytest.raises(AssertionError, match="a flow ran"):
        check_vector_field_algebra(fam.system, fam.algebra, a, b, x)


def test_one_param_u_identity_and_rotation_phases():
    fam = su11_family()
    basis = ModeBasis(1, 12)
    x = np.zeros(3)
    res0 = one_param_u(fam, [1, 0, 0], 0.0, x)
    assert np.allclose(propagator_from_flow(res0.flow, basis)[0], np.eye(basis.size))
    t = 0.9
    res = one_param_u(fam, [1, 0, 0], t, x)
    # H(B0) = (n + 1/2)/2: diagonal phases e^(-i t (n + 1/2) / 2)
    expected = np.diag(np.exp(-1j * t * (np.arange(13) + 0.5) / 2))
    assert np.abs(propagator_from_flow(res.flow, basis)[0] - expected).max() < 1e-9


def test_one_param_u_unitarity():
    fam = su11_family()
    basis = ModeBasis(1, 16)
    x = np.array([0.0, 0.3, -0.5])
    res = one_param_u(fam, [0.4, 0.8, -0.3], 0.7, x)
    matrix, leakage = propagator_from_flow(res.flow, basis)
    drift = np.linalg.norm(
        matrix.conj().T @ matrix - np.eye(basis.size), 2)
    assert drift <= 1e-8 + 10 * leakage


def test_propagator_leakage_is_at_most_one_column_mass():
    # the leakage is scaled like the columns (by 1 / prod n_i!), so it is
    # a norm^2 on the scale of a unit column, not of the unscaled product
    fam = su11_family()
    basis = ModeBasis(1, 16)
    x = np.array([0.0, 0.3, -0.5])
    res = one_param_u(fam, [0.4, 0.8, -0.3], 0.7, x)
    _, leakage = propagator_from_flow(res.flow, basis)
    assert 0.0 < leakage <= 1.0


def test_one_param_u_against_matrix_ode():
    from semiclab.bogoliubov import propagator_matrix

    fam = su11_family()
    basis = ModeBasis(1, 20)
    x = np.array([0.1, 0.6, 0.2])
    b = np.array([0.3, 0.5, 0.0])
    t = 0.8
    res = one_param_u(fam, b, t, x)

    path, step, _ = sampled_path_rk4.path(fam, b, t, x, t / 800)
    u_ode = propagator_matrix(path, t, step, basis)
    keep = basis.grade_size(8)
    matrix, _ = propagator_from_flow(res.flow, basis)
    assert np.linalg.norm((matrix - u_ode)[:keep, :keep], 2) < 1e-6


@pytest.mark.parametrize("family, b, x", [
    (su11_family, [0.4, 0.8, -0.3], [0.0, 0.0, 0.0]),
    (u2_family, [0.3, -0.5, 0.7, 0.2], [0.2, 0.0, 0.0, 0.0, 0.0]),
])
def test_one_param_u_fixed_point_route_matches_rk4(family, b, x):
    fam = family()
    basis = ModeBasis(fam.modes, 12 if fam.modes == 1 else 8)
    b, x, t = np.array(b), np.array(x), 1.3
    assert fam.system.is_fixed_point(b, x)
    res = one_param_u(fam, b, t, x)
    assert res.flow.times is None  # the exact route keeps no trajectory
    assert np.array_equal(res.x_out, x)
    oracle = sampled_path_rk4.one_param_u(fam, b, t, x, 1e-3)
    rk4, _ = propagator_from_flow(oracle.flow, basis)
    keep = basis.grade_size(basis.cutoff - 4)
    matrix, _ = propagator_from_flow(res.flow, basis)
    assert np.linalg.norm((matrix - rk4)[:keep, :keep], 2) <= 1e-9


def test_one_param_u_moving_point_stays_on_rk4():
    # the exact route against the sampled-path RK4 oracle at moving points:
    # su11 moves (F, G), heisenberg moves the phase along its scalar path,
    # u2 moves (Q, P) in R^2 with its scalars at 0, at twice su11's rate, so
    # its oracle takes half the step
    rng = np.random.default_rng(37)
    for fam, dt in ((su11_family(), 1e-3), (heisenberg_family(), 1e-3),
                    (u2_family(), 5e-4)):
        for _ in range(3):
            b = rng.normal(size=fam.algebra.dim)
            x = rng.normal(size=len(fam.forms[0]))
            t = rng.uniform(-2.0, 2.0)
            assert not fam.system.is_fixed_point(b, x)
            res = one_param_u(fam, b, t, x)
            oracle = sampled_path_rk4.one_param_u(fam, b, t, x, dt)
            assert abs(res.flow.c - oracle.flow.c) <= 1e-12
            assert np.abs(res.flow.f - oracle.flow.f).max() <= 1e-12
            assert np.abs(res.flow.g - oracle.flow.g).max() <= 1e-12
            assert np.abs(res.x_out - oracle.x_out).max() <= 1e-12


def test_one_param_u_step_grid_at_many_steps():
    # a shifted oscillator h = ((q - q0)^2 + p^2) / 4 rotates (Q, P) about
    # (q0, 0) at rate 1/2, and its scalar -q0 Q / 4 + q0^2 / 4 + 1/4 moves:
    # c = exp(-i int hbar) in closed form.  At 18144 steps t / (t / n)
    # rounds above n, so a step count with an absolute slack put the
    # trajectory on a finer grid than the flow and the phase read the wrong
    # states.  The exact route reads the scalar's integral off the action.
    q0 = 0.8
    fam = GeneratorFamily(
        [[[0.25, 0.0, -q0 / 4], [0.0, 0.25, 0.0], [-q0 / 4, 0.0, q0**2 / 4]]], [0.0])
    b = np.array([1.0])
    x = np.array([0.0, 0.5, 0.2])
    t = 0.3
    oracle = sampled_path_rk4.one_param_u(fam, b, t, x, t / 18143.5)
    assert len(oracle.flow.times) == 18145
    cos, sin = math.cos(t / 2), math.sin(t / 2)
    mean_q = q0 * t + 2 * (x[1] - q0) * sin + 2 * x[2] * (1 - cos)
    phase = -((q0**2 / 4 + 0.25) * t - q0 / 4 * mean_q)
    for res in (oracle, one_param_u(fam, b, t, x)):
        assert abs(res.flow.c - np.exp(1j * phase)) <= 1e-10
        assert np.allclose(res.x_out[1:], [q0 + (x[1] - q0) * cos + x[2] * sin,
                                           -(x[1] - q0) * sin + x[2] * cos],
                           rtol=0.0, atol=1e-12)


def test_generator_family_is_declared_data():
    # forms plus constant scalar offsets, and nothing else: no callable
    # returns a generator or a scalar, and the rest is derived when built
    assert [f.name for f in dataclasses.fields(GeneratorFamily)] == [
        "forms", "offsets"]
    assert not hasattr(GeneratorFamily, "from_forms")
    assert not hasattr(ClassicalSystem, "trivial")
    fam = heisenberg_family(central_offset=0.05)
    x = np.array([0.3, -0.4, 0.9])
    a = np.array([0.7, -1.1, 0.2])
    gen = fam.generator(a, x)
    assert fam.modes == gen.modes == 1
    assert gen.hbar == pytest.approx(a @ [x[2] / 2, -x[1] / 2, 1.05], abs=1e-15)


def test_generator_family_compares_and_hashes_by_identity():
    fam, other = su11_family(), su11_family()
    assert fam == fam and fam != other
    assert hash(fam) == hash(fam)
    assert {fam: 1, other: 2}[fam] == 1


def _declared(fam, **change):
    return lambda: dataclasses.replace(fam, **change)


@pytest.mark.parametrize("build, match", [
    # directions on different mode counts: forms of unequal size
    (_declared(su11_family(), forms=[*su11_family().forms[:2], np.zeros((5, 5))]),
     r"3x3 like its first, got shape \(5, 5\)"),
    (_declared(su11_family(), offsets=[0.05, 0.0]),
     r"need 3 offsets, got shape \(2,\)"),
    (_declared(su11_family(), offsets=[0.05, math.nan, 0.0]),
     "offsets must be finite"),
    (_declared(su11_family(), forms=[np.zeros((4, 4))] * 3),
     r"\(2n\+1\)x\(2n\+1\)"),
], ids=["mixed-modes", "offsets-shape", "offsets-nan", "even-size"])
def test_generator_family_rejects_bad_declarations(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_one_param_u_builds_no_generator_at_its_nodes(monkeypatch):
    # at a moving X the scalar's path integral is read off the action: the
    # blocks are contracted once and the generator with the mean scalar is
    # built
    fam = heisenberg_family()
    b, x = np.array([0.4, -0.7, 0.3]), np.array([0.1, 0.5, -0.2])
    assert not fam.system.is_fixed_point(b, x)
    builds = []
    post_init = QuadraticGenerator.__post_init__
    monkeypatch.setattr(QuadraticGenerator, "__post_init__",
                        lambda gen: builds.append(gen) or post_init(gen))
    one_param_u(fam, b, 0.8, x)
    assert 1 <= len(builds) <= 2


@pytest.mark.parametrize("fam", [
    u2_family(), su11_family(), su11_family(central_offset=0.05),
    heisenberg_family(),
], ids=["u2", "su11", "su11-offset", "heisenberg"])
def test_generator_blocks_do_not_depend_on_x(fam):
    # the family contract behind one_param_u's exact route
    rng = np.random.default_rng(41)
    size = len(fam.forms[0])
    for _ in range(5):
        a = rng.normal(size=fam.algebra.dim)
        at_zero = fam.generator(a, np.zeros(size))
        for x in rng.normal(size=(4, size)):
            gen = fam.generator(a, x)
            assert np.array_equal(gen.hpp, at_zero.hpp)
            assert np.array_equal(gen.hpm, at_zero.hpm)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_one_param_u_rejects_non_finite_durations(t):
    fam = su11_family()
    for x in (np.zeros(3), np.array([0.1, 0.5, -0.3])):  # fixed, moving
        with pytest.raises(ValueError, match="duration t = .* is not finite"):
            one_param_u(fam, [1.0, 0.0, 0.0], t, x)


@pytest.mark.parametrize("factor, match", [
    ((-1, 0.3), r"index -1 is outside range\(3\)"),
    ((3, 0.3), r"index 3 is outside range\(3\)"),
    ((0, math.nan), "duration nan is not finite"),
    ((0, math.inf), "duration inf is not finite"),
], ids=["index-minus-1", "index-3", "nan", "inf"])
def test_word_product_rejects_bad_factors(factor, match):
    fam = su11_family()
    word = GroupWord([(1, 0.2), factor])
    with pytest.raises(ValueError, match=rf"factor 1 of the word, .*{match}"):
        word_product(fam, word, np.array([0.1, 0.5, -0.3]), ModeBasis(1, 8))


def test_symmetry_binds_no_integrator():
    # every one-parameter evolution is exact; RK4 is only the tests' oracle
    import semiclab.symmetry as symmetry

    for name in ("integrate_flow", "rk4", "rk4_step", "step_count",
                 "GeneratorPath"):
        assert not hasattr(symmetry, name), name


def test_one_param_cocycle():
    # operator products corrupt the top grades, so the comparison block
    # sits well below the cutoff
    fam = su11_family()
    basis = ModeBasis(1, 20)
    x = np.array([0.0, 0.4, 0.1])
    b = np.array([0.2, 0.7, 0.1])
    t1, t2 = 0.5, 0.3
    x2 = fam.system.flow(b, t2, x)
    u1, _ = propagator_from_flow(one_param_u(fam, b, t1, x2).flow, basis)
    u2, _ = propagator_from_flow(one_param_u(fam, b, t2, x).flow, basis)
    u12, _ = propagator_from_flow(one_param_u(fam, b, t1 + t2, x).flow, basis)
    keep = basis.grade_size(6)
    err = np.linalg.norm((u1 @ u2 - u12)[:keep, :keep], 2)
    assert err < 1e-8


def _per_factor_product(fam, word, x, basis):
    # the per-factor route: realize every factor, multiply the matrices
    u = np.eye(basis.size, dtype=complex)
    for idx, duration in word.factors:
        direction = np.zeros(fam.algebra.dim)
        direction[idx] = 1.0
        step = one_param_u(fam, direction, duration, x)
        u = propagator_from_flow(step.flow, basis)[0] @ u
        x = step.x_out
    return u


def _u2_commutator_word(fam):
    # factors apply first-to-last, so the first four produce the group
    # element g2^-1 g1^-1 g2 g1; append the factorization of its inverse
    s, t = 0.4, 0.7
    g1 = expm(s * fam.algebra.rep[2])
    g2 = expm(t * fam.algebra.rep[3])
    residue = np.linalg.inv(g2) @ np.linalg.inv(g1) @ g2 @ g1
    alphas = second_kind_coords(np.linalg.inv(residue), fam.algebra)
    return GroupWord(
        [(2, s), (3, t), (2, -s), (3, -t)]
        + [(k, float(alphas[k])) for k in range(len(alphas) - 1, -1, -1)])


@pytest.mark.parametrize("family, word, x, cutoff, grade", [
    (u2_family, _u2_commutator_word, [0.0] * 5, 8, 4),
    (su11_family, lambda fam: GroupWord([(0, 0.4), (1, 0.3), (2, -0.5)]),
     [0.1, 0.5, -0.3], 60, 20),
])
def test_word_product_matches_per_factor_realizations(family, word, x, cutoff,
                                                       grade):
    fam = family()
    word = word(fam)
    basis = ModeBasis(fam.modes, cutoff)
    x = np.array(x)
    res = word_product(fam, word, x, basis)
    oracle = _per_factor_product(fam, word, x, basis)
    keep = basis.grade_size(grade)
    assert np.linalg.norm((res.matrix - oracle)[:keep, :keep], 2) <= 1e-12


def test_composed_phase_is_the_vacuum_amplitude_at_a_moving_point():
    fam = su11_family()
    basis = ModeBasis(1, 60)
    x = np.array([0.1, 0.5, -0.3])
    word = GroupWord([(0, 0.4), (1, 0.3), (2, -0.5)])
    assert not fam.system.is_fixed_point([0, 1, 0], x)
    res = word_product(fam, word, x, basis)
    amplitude = _per_factor_product(fam, word, x, basis)[0, 0]
    assert abs(res.flow.c - amplitude) <= 1e-12
    assert res.matrix[0, 0] == res.flow.c


def test_word_product_realizes_one_propagator(monkeypatch):
    import semiclab.symmetry as symmetry

    calls = []
    real = symmetry.propagator_from_flow

    def counting(flow, basis):
        calls.append(basis)
        return real(flow, basis)

    monkeypatch.setattr(symmetry, "propagator_from_flow", counting)
    fam = u2_family()
    word = _u2_commutator_word(fam)
    assert len(word.factors) == 8
    word_product(fam, word, np.zeros(5), ModeBasis(2, 8))
    assert len(calls) == 1


def test_word_product_empty_and_loop():
    fam = u2_family()
    basis = ModeBasis(2, 8)
    res = word_product(fam, GroupWord([]), np.zeros(5), basis)
    assert np.allclose(res.matrix, np.eye(basis.size))
    assert res.classical_is_loop
    assert res.loop_distance == pytest.approx(0.0, abs=1e-12)


def test_u2_contractible_loop_is_identity():
    # exp(-i 2 pi dGamma(sigma_x)) = 1: integer spectrum, contractible loop
    fam = u2_family()
    basis = ModeBasis(2, 8)
    word = GroupWord([(2, 2 * math.pi)])
    res = word_product(fam, word, np.zeros(5), basis)
    assert res.classical_is_loop
    assert res.loop_distance < 1e-6
    assert abs(res.loop_phase) < 1e-6


def test_u2_commutator_word_closes():
    # w = g1 g2 g1^-1 g2^-1 followed by the second-kind factorization of
    # its inverse: classically closed, quantum product must be the identity
    fam = u2_family()
    basis = ModeBasis(2, 8)
    res = word_product(fam, _u2_commutator_word(fam), np.zeros(5), basis)
    assert res.classical_is_loop
    assert res.loop_distance < 1e-6
    assert abs(res.loop_phase) < 1e-6


def test_metaplectic_loop_phase():
    # one full classical rotation; the quantum lift returns -1
    fam = su11_family()
    basis = ModeBasis(1, 14)
    word = GroupWord([(0, 4 * math.pi)])
    res = word_product(fam, word, np.zeros(3), basis)
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
    alphas = second_kind_coords(np.eye(4), fam.algebra)
    assert np.abs(alphas).max() < 1e-12


def test_second_kind_coords_reject_an_element_of_another_size():
    # su11's representation is 4x4: a 2x2 element is not one of its elements
    with pytest.raises(ValueError, match="is 4x4, got shape \\(2, 2\\)"):
        second_kind_coords(np.eye(2), su11_family().algebra)


def test_second_kind_coords_mixed_element():
    fam = u2_family()
    g = expm(0.1 * fam.algebra.rep[0] + 0.2 * fam.algebra.rep[2])
    alphas = second_kind_coords(g, fam.algebra)
    prod = np.eye(6, dtype=complex)
    for k, val in enumerate(alphas):
        prod = prod @ expm(val * fam.algebra.rep[k])
    assert np.linalg.norm(prod - g) < 1e-10


def test_group_law_u2_identity_element():
    fam = u2_family()
    basis = ModeBasis(2, 8)
    g1 = expm(0.3 * fam.algebra.rep[2])
    res = check_group_law(fam, g1, np.eye(6), np.zeros(5), basis)
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
        res = check_group_law(fam, g1, g2, np.zeros(5), basis)
        assert res < 1e-6


def test_group_law_su11_with_classical_base():
    fam = su11_family()
    basis = ModeBasis(1, 20)
    x = np.array([0.0, 0.4, -0.2])
    g1 = expm(0.25 * fam.algebra.rep[1] + 0.1 * fam.algebra.rep[0])
    g2 = expm(-0.2 * fam.algebra.rep[2] + 0.15 * fam.algebra.rep[0])
    res = check_group_law(fam, g1, g2, x, basis, margin=12)
    assert res < 1e-6


def test_group_law_heisenberg_weyl_phases():
    fam = heisenberg_family()
    basis = ModeBasis(1, 6)
    x = np.array([0.2, 0.7, -0.3])
    g1 = expm(0.5 * fam.algebra.rep[0] + 0.2 * fam.algebra.rep[1])
    g2 = expm(-0.3 * fam.algebra.rep[0] + 0.4 * fam.algebra.rep[1])
    res = check_group_law(fam, g1, g2, x, basis)
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
    res = check_group_law(fam, g1, g2, x, basis)
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


def test_map_point_is_the_actions_transported_point():
    fam = su11_family()
    x = np.array([0.1, 0.5, -0.3])
    g = expm(0.3 * fam.algebra.rep[0] + 0.2 * fam.algebra.rep[1]
             - 0.1 * fam.algebra.rep[2])
    act = group_element_action(fam, g, x, ModeBasis(1, 6))
    assert np.array_equal(act.map_point(x), act.x_out)


@pytest.mark.parametrize("dt", [2e-3, 5e-3])
def test_map_point_flows_at_the_action_step(dt):
    fam = su11_family()
    x = np.array([0.1, 0.5, -0.3])
    g = expm(0.3 * fam.algebra.rep[0] + 0.2 * fam.algebra.rep[1]
             - 0.1 * fam.algebra.rep[2])
    act = group_element_action(fam, g, x, ModeBasis(1, 6))
    oracle = x
    for idx, duration in act.word.factors:
        direction = np.zeros(fam.algebra.dim)
        direction[idx] = 1.0
        oracle = classical_rk4.flow(fam.system.forms, direction, duration,
                                    oracle, dt)
    assert np.abs(act.map_point(x) - oracle).max() < 1e-9


@pytest.mark.parametrize("x, named", [
    ([0.1, math.nan, -0.3], "must be finite"),
    ([[0.1], [0.5], [-0.3]], r"shape \(3,\), got shape \(3, 1\)"),
])
def test_symmetry_entries_reject_a_bad_point(x, named):
    # a NaN point gave an all-NaN x_out, and a (3, 1) point was accepted
    fam = su11_family()
    a, b = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    good = [0.1, 0.5, -0.3]
    basis = ModeBasis(1, 8)
    act = group_element_action(fam, expm(0.3 * fam.algebra.rep[0]),
                               np.zeros(3), basis)
    for run in (lambda: fam.system.flow(a, 0.5, x),
                lambda: fam.system.trajectory(a, [0.5], x),
                lambda: fam.system.velocity(a, x),
                lambda: fam.system.is_fixed_point(a, x),
                lambda: one_param_u(fam, a, 0.5, x),
                lambda: check_vector_field_algebra(fam.system, fam.algebra, a, b, x),
                lambda: act.map_point(x),
                lambda: word_product(fam, GroupWord([(0, 0.5)]), x, basis),
                lambda: check_f3(fam, a, b, x),
                lambda: check_f3(fam, a, b, good, x),
                lambda: check_x6(fam, a, b, x, basis),
                lambda: check_form_conditions(fam, a, x, [0.3, 1.0, -0.7], basis),
                lambda: check_form_conditions(fam, a, good, x, basis)):
        with pytest.raises(ValueError, match=named):
            run()
