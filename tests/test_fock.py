import math
from types import SimpleNamespace

import numpy as np
import pytest
import dense_fock
from dense_fock import ladder_matrix, lowering_matrices

from semiclab import fock
from semiclab.fock import (
    FockVector,
    GaussianData,
    ModeBasis,
    QuadraticGenerator,
    WeightOperator,
    apply_ladder,
    apply_quadratic,
    displacement,
    gaussian_perturb_series,
    gaussian_state,
    inner,
    number_state,
    vacuum_state,
    weighted_norm,
)


def random_vector(basis, rng, max_total=None):
    c = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    if max_total is not None:
        c[basis.totals > max_total] = 0.0
    c /= np.linalg.norm(c)
    return FockVector(basis, c)


def test_basis_enumeration_count_and_prefix():
    for d, n in [(1, 5), (2, 4), (3, 3)]:
        b = ModeBasis(d, n)
        assert len(b.states) == math.comb(n + d, d) == b.size
        bigger = b.padded(2)
        assert bigger.states[: b.size] == b.states
    # graded lexicographic: grades ascending, lexicographic inside a grade
    b = ModeBasis(2, 2)
    assert b.states == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))


def test_create_on_vacuum():
    b = ModeBasis(2, 4)
    up = apply_ladder([1, 0], vacuum_state(b), "create")
    assert up.coeffs[b.index[(1, 0)]] == pytest.approx(1.0)
    assert np.count_nonzero(up.coeffs) == 1


def test_annihilate_single_quantum():
    b = ModeBasis(2, 4)
    down = apply_ladder([1, 0], number_state(b, (1, 0)), "annihilate")
    assert down.coeffs[0] == pytest.approx(1.0)
    assert np.count_nonzero(down.coeffs) == 1


def test_create_sqrt_factor():
    b = ModeBasis(1, 6)
    up = apply_ladder([1], number_state(b, (2,)), "create")
    assert up.coeffs[b.index[(3,)]] == pytest.approx(math.sqrt(3))


def test_create_leakage_at_cutoff():
    b = ModeBasis(1, 3)
    top = number_state(b, (3,))
    up = apply_ladder([1.0], top, "create")
    assert up.norm() == 0.0
    assert up.leakage == pytest.approx(4.0)  # |sqrt(4)|^2


def test_ladder_norm_bound():
    # ||A+-[f] psi|| <= ||f|| ||psi||_{1/2}; with an l-weight on the left the
    # creation side needs the sharp grade factor 2^l (attained on vacuum),
    # while annihilation keeps constant 1 for every l
    rng = np.random.default_rng(7)
    b = ModeBasis(2, 8)
    for _ in range(50):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = random_vector(b, rng, max_total=6)
        base = np.linalg.norm(f) * weighted_norm(psi, 0.5)
        for mode in ("create", "annihilate"):
            out = apply_ladder(f, psi, mode)
            assert out.norm() <= base * (1 + 1e-12)
        for l in (0.5, 1.0):
            bound = np.linalg.norm(f) * weighted_norm(psi, l + 0.5)
            down = apply_ladder(f, psi, "annihilate")
            assert weighted_norm(down, l) <= bound * (1 + 1e-12)
            up = apply_ladder(f, psi, "create")
            assert weighted_norm(up, l) <= 2**l * bound * (1 + 1e-12)


def test_ccr():
    rng = np.random.default_rng(3)
    b = ModeBasis(2, 8)
    for _ in range(20):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = random_vector(b, rng, max_total=6)
        fg = apply_ladder(f, apply_ladder(g, psi, "create"), "annihilate")
        gf = apply_ladder(g, apply_ladder(f, psi, "annihilate"), "create")
        comm = fg.coeffs - gf.coeffs
        expect = np.vdot(f, g) * psi.coeffs
        assert np.linalg.norm(comm - expect) < 1e-12


def test_quadratic_number_operator():
    g = QuadraticGenerator.from_blocks(hpm=[[0.7]], hbar=0.25)
    b = ModeBasis(1, 6)
    for n in range(5):
        out = apply_quadratic(g, number_state(b, (n,)))
        assert out.coeffs[n] == pytest.approx(0.7 * n + 0.25)


def test_quadratic_pure_squeeze_on_vacuum():
    kappa = 0.3
    g = QuadraticGenerator.from_blocks(hpp=[[kappa]])
    b = ModeBasis(1, 6)
    out = apply_quadratic(g, vacuum_state(b))
    expect = np.zeros(b.size, dtype=complex)
    expect[2] = kappa / math.sqrt(2)
    assert np.allclose(out.coeffs, expect)


def test_generator_validation_names_the_block_passed():
    with pytest.raises(ValueError, match="^hpm must be Hermitian$"):
        QuadraticGenerator.from_blocks(hpm=[[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="^hpp must be symmetric$"):
        QuadraticGenerator.from_blocks(hpp=[[0, 1], [0, 0]])


def test_quadratic_hermitian_on_margin():
    rng = np.random.default_rng(11)
    b = ModeBasis(2, 8)
    for _ in range(10):
        hpp = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        hpp = hpp + hpp.T
        hpm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        hpm = hpm + hpm.conj().T
        g = QuadraticGenerator.from_blocks(hpp=hpp, hpm=hpm, hbar=rng.normal())
        psi = random_vector(b, rng, max_total=6)
        phi = random_vector(b, rng, max_total=6)
        lhs = inner(phi, apply_quadratic(g, psi))
        rhs = inner(apply_quadratic(g, phi), psi)
        assert abs(lhs - rhs) < 1e-12


def test_displacement_zero_is_identity():
    b = ModeBasis(2, 6)
    rng = np.random.default_rng(0)
    psi = random_vector(b, rng)
    out = displacement([0, 0], psi)
    assert np.allclose(out.coeffs, psi.coeffs)
    assert out.leakage == 0.0


def test_displacement_vacuum_overlap_against_padded_oracle():
    # <0|U[B]|0> = exp(-||B||^2/2), oracle at doubled cutoff
    rng = np.random.default_rng(5)
    b32 = ModeBasis(1, 32)
    for _ in range(5):
        beta = rng.normal() + 1j * rng.normal()
        beta *= min(1.0, 1.0 / abs(beta))
        out = displacement([beta], vacuum_state(b32), pad=32)
        exact = math.exp(-abs(beta) ** 2 / 2)
        assert abs(out.coeffs[0] - exact) < 1e-8


def test_displacement_unitary_up_to_leakage():
    rng = np.random.default_rng(9)
    b = ModeBasis(1, 12)
    psi = random_vector(b, rng)
    out = displacement([0.8], psi, pad=6)
    drift = abs(out.norm() ** 2 - psi.norm() ** 2)
    assert drift <= out.leakage + 1e-12


def test_displacement_shift_relation():
    # A-[f] U[B] = U[B] (A-[f] + (f, B)); on the truncated space the
    # residual is controlled by the leaked mass (amplified by at most the
    # sqrt(n) of the padded shell through the annihilator)
    rng = np.random.default_rng(13)
    b = ModeBasis(2, 14)
    pad = 8
    f = rng.normal(size=2) + 1j * rng.normal(size=2)
    bvec = 0.3 * (rng.normal(size=2) + 1j * rng.normal(size=2))
    psi = random_vector(b, rng, max_total=6)
    lhs = apply_ladder(f, displacement(bvec, psi, pad=pad), "annihilate")
    rhs_in = apply_ladder(f, psi, "annihilate").coeffs + np.vdot(f, bvec) * psi.coeffs
    rhs = displacement(bvec, FockVector(b, rhs_in), pad=pad)
    err = np.linalg.norm(lhs.coeffs - rhs.coeffs)
    amp = np.linalg.norm(f) * math.sqrt(b.cutoff + pad + 1)
    assert err <= amp * (math.sqrt(lhs.leakage) + math.sqrt(rhs.leakage)) + 1e-9
    # far below the cutoff the relation is essentially exact
    small = random_vector(b, rng, max_total=3)
    lhs2 = apply_ladder(f, displacement(0.1 * bvec, small, pad=pad), "annihilate")
    rhs2_in = (
        apply_ladder(f, small, "annihilate").coeffs
        + np.vdot(f, 0.1 * bvec) * small.coeffs
    )
    rhs2 = displacement(0.1 * bvec, FockVector(b, rhs2_in), pad=pad)
    assert np.linalg.norm(lhs2.coeffs - rhs2.coeffs) < 1e-10


_DISPLACEMENT_AMPLITUDES = {
    "real": [0.8, 0.3, 0.5],
    "complex": [0.6 + 0.4j, -0.2 + 0.7j, 0.3 - 0.5j],
    "negative": [-0.9, 0.4, -0.2],
    "zero": [0.0, 0.5 + 0.2j, -0.3],
}


@pytest.mark.parametrize("kind", sorted(_DISPLACEMENT_AMPLITUDES))
@pytest.mark.parametrize("modes, cutoff", [(1, 20), (2, 12), (3, 6), (1, 160),
                                           (2, 34), (2, 50), (3, 10)])
def test_displacement_eig_against_dense_oracles(kind, modes, cutoff):
    from scipy.linalg import expm

    basis = ModeBasis(modes, cutoff)
    b = np.array(_DISPLACEMENT_AMPLITUDES[kind][:modes], dtype=complex)
    lam, v = fock.displacement_eig(b, basis)
    assert np.max(np.abs(lam.real)) == 0.0
    assert np.all(np.diff(lam.imag) <= 0)  # lam = -i w, w ascending
    assert np.max(np.abs(v.conj().T @ v - np.eye(basis.size))) < 1e-12
    if not b.imag.any():
        # the phase of each state is exactly a power of i, up to sign, at
        # every occupation, so a real plane's overlaps are real arrays
        assert not np.any(v.real * v.imag)
    # the dense eigh of X; eigenvalues repeat exactly across Jacobi blocks
    # of one size, so the spectrum and the action of exp(beta K) are
    # compared, not the eigenvector columns
    lam_dense, v_dense = dense_fock.displacement_eig(b, basis)
    assert np.max(np.abs(lam - lam_dense)) < 1e-12
    y = np.random.default_rng(modes * 1000 + cutoff).normal(size=(basis.size, 4))
    y /= np.linalg.norm(y, axis=0)
    for beta in (-2.0, 0.3, 3.0):
        act = v @ (np.exp(beta * lam)[:, None] * (v.conj().T @ y))
        ref = v_dense @ (np.exp(beta * lam_dense)[:, None] * (v_dense.conj().T @ y))
        assert np.max(np.abs(act - ref)) < 1e-12, beta
    if basis.size > 100:
        return
    # on small bases, the complex-Hermitian eigensolve and expm of K itself
    k = ladder_matrix(b, basis)
    assert np.max(np.abs(lam - (-1j * np.linalg.eigvalsh(1j * k)))) < 1e-12
    for beta in (-2.0, 0.3, 3.0):
        u = (v * np.exp(beta * lam)) @ v.conj().T
        assert np.max(np.abs(u - expm(beta * k))) < 1e-11, beta


def test_displacement_leak_threshold():
    b = ModeBasis(1, 4)
    with pytest.raises(fock.LeakageError):
        displacement([3.0], vacuum_state(b), pad=2, leak_threshold=1e-10)


def test_displacement_rejects_nonfinite_amplitudes():
    # checked before the eigensolve, which would otherwise fail to converge
    one, two = vacuum_state(ModeBasis(1, 4)), vacuum_state(ModeBasis(2, 3))
    for bad, psi in (([float("inf")], one), ([0.3, complex(0.0, float("nan"))], two)):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            displacement(bad, psi)


def test_gaussian_state_trivial():
    b = ModeBasis(2, 8)
    out = gaussian_state(GaussianData(np.zeros((2, 2))), b)
    assert out.coeffs[0] == pytest.approx(1.0)
    assert np.count_nonzero(out.coeffs) == 1


def test_gaussian_state_single_mode_coefficients():
    m = 0.45
    b = ModeBasis(1, 20)
    out = gaussian_state(GaussianData([[m]], c=1.3), b)
    for n in range(0, 21, 2):
        k = n // 2
        expect = 1.3 * m**k * math.sqrt(math.factorial(n)) / (2**k * math.factorial(k))
        assert out.coeffs[n] == pytest.approx(expect, rel=1e-12)


def test_gaussian_decay_bound():
    # grade norms <= A e^(-alpha n) with alpha = -log(||M||)/2
    rng = np.random.default_rng(21)
    w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = w + w.T
    m *= 0.5 / np.linalg.norm(m, 2)
    b = ModeBasis(2, 16)
    out = gaussian_state(GaussianData(m), b)
    alpha = -0.5 * math.log(0.5)
    norms = {}
    for n in range(0, 17, 2):
        sel = b.totals == n
        norms[n] = np.linalg.norm(out.coeffs[sel])
    big_a = max(norms[n] * math.exp(alpha * n) for n in norms)
    for n, val in norms.items():
        assert val <= big_a * math.exp(-alpha * n) * (1 + 1e-12)


def test_gaussian_not_normalizable():
    with pytest.raises(ValueError):
        gaussian_state(GaussianData([[1.0]]), ModeBasis(1, 10))


def test_weighted_norm_basics():
    b = ModeBasis(1, 6)
    assert weighted_norm(vacuum_state(b), 2.0) == pytest.approx(1.0)
    assert weighted_norm(number_state(b, (3,)), 1.0) == pytest.approx(4.0)


def test_weighted_norm_lemma_t_dominates_plain():
    # ||psi||_m <= ||psi||_m^T for T with spectrum >= 1
    rng = np.random.default_rng(17)
    for trial in range(100):
        d = rng.integers(1, 3)
        b = ModeBasis(int(d), 6)
        w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        t = WeightOperator(np.eye(d) + w @ w.conj().T)
        psi = random_vector(b, rng)
        m = float(rng.integers(0, 3))
        assert weighted_norm(psi, m) <= weighted_norm(psi, m, t) * (1 + 1e-10)


def test_hpm_bound_lemma():
    # ||A+ H+- A- psi|| <= C ||psi||_1^T,
    # C = max(||T^-1/2 H T^-1/2||, ||H T^-1||)
    rng = np.random.default_rng(23)
    from scipy.linalg import sqrtm

    for trial in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(3, 7))
        b = ModeBasis(d, n)
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        tmat = np.eye(d) + w @ w.conj().T
        t = WeightOperator(tmat)
        tau = np.linalg.inv(sqrtm(tmat))
        c = max(
            np.linalg.norm(tau @ h @ tau, 2),
            np.linalg.norm(h @ np.linalg.inv(tmat), 2),
        )
        psi = random_vector(b, rng)
        g = QuadraticGenerator.from_blocks(hpm=h)
        out = apply_quadratic(g, psi)
        assert out.norm() <= c * weighted_norm(psi, 1, t) * (1 + 1e-10)


def _monomial_apply(fs, gs, psi):
    out = psi
    for g in reversed(gs):
        out = apply_ladder(np.conj(g), out, "annihilate")
    for f in reversed(fs):
        out = apply_ladder(f, out, "create")
    return out


def _monomial_constant(m, k, l, s_max=400):
    # sharp constant of the weighted-norm bound for an (m, k) monomial:
    # sup over grades of the exact prefactor ratio
    best = 1.0
    for s in range(k, s_max):
        num = (s + m - k + 1) ** (2 * l) * math.factorial(s) * math.factorial(s + m - k)
        den = math.factorial(s - k) ** 2 * (s + 1) ** (2 * l + k + m)
        best = max(best, num / den)
    return best


def test_monomial_weighted_bound():
    # ||phi_hat psi||_l <= C ||phi|| ||psi||_{l+(k+m)/2}; the sharp constant
    # is the sup of the grade-wise ratio; for l = 0 it reduces to the
    # classical max(1, (m-k)!) form
    rng = np.random.default_rng(29)
    assert _monomial_constant(2, 0, 0) == pytest.approx(2.0)  # (m-k)! at l=0
    assert _monomial_constant(1, 1, 0) == pytest.approx(1.0)
    for trial in range(100):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(5, 8))
        m_ops = int(rng.integers(0, 3))
        k_ops = int(rng.integers(0, m_ops + 1))
        if m_ops == 0 and k_ops == 0:
            m_ops = 1
        l = int(rng.integers(0, 2))
        b = ModeBasis(d, n)
        fs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(m_ops)]
        gs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(k_ops)]
        kern = np.prod([np.linalg.norm(v) for v in fs + gs]) if fs + gs else 1.0
        psi = random_vector(b, rng, max_total=n - m_ops)
        out = _monomial_apply(fs, gs, psi)
        c = math.sqrt(_monomial_constant(m_ops, k_ops, l))
        bound = c * kern * weighted_norm(psi, l + (k_ops + m_ops) / 2)
        assert weighted_norm(out, l) <= bound * (1 + 1e-10)


def test_inner_product_basics():
    b = ModeBasis(2, 5)
    rng = np.random.default_rng(31)
    assert inner(number_state(b, (1, 0)), number_state(b, (1, 0))) == pytest.approx(1)
    assert inner(number_state(b, (1, 0)), number_state(b, (0, 1))) == pytest.approx(0)
    psi, phi = random_vector(b, rng), random_vector(b, rng)
    assert inner(psi, phi) == pytest.approx(np.conj(inner(phi, psi)))
    assert abs(inner(psi, phi)) <= psi.norm() * phi.norm() * (1 + 1e-12)


def test_inner_basis_mismatch():
    with pytest.raises(ValueError):
        inner(vacuum_state(ModeBasis(1, 4)), vacuum_state(ModeBasis(1, 5)))


def test_perturb_series_zero_is_exact():
    b = ModeBasis(1, 16)
    m = np.array([[0.4]])
    direct = gaussian_state(GaussianData(m), b)
    series = gaussian_perturb_series(m, np.zeros((1, 1)), 5, b)
    assert np.allclose(series.coeffs, direct.coeffs)


def test_perturb_series_matches_direct():
    b = ModeBasis(1, 24)
    series = gaussian_perturb_series(np.array([[0.4]]), np.array([[0.01]]), 20, b)
    direct = gaussian_state(GaussianData(np.array([[0.41]])), b)
    assert np.linalg.norm(series.coeffs - direct.coeffs) < 1e-10


def test_perturb_series_radius_error():
    with pytest.raises(ValueError):
        gaussian_perturb_series(np.array([[0.9]]), np.array([[0.2]]), 10, ModeBasis(1, 12))


def test_perturb_series_term_bound():
    # ||Psi_{k,l}|| <= A e^(-alpha l / 2) b^k with alpha = -log||M||/4,
    # b = ||dM||_HS e^alpha / alpha, A from the grade-decay envelope
    m_val, dm_val = 0.5, 0.05
    basis = ModeBasis(1, 30)
    alpha = -0.25 * math.log(m_val)
    bfac = dm_val * math.exp(alpha) / alpha
    # exponential-series terms of the base Gaussian, indexed by l
    base_terms = []
    term = np.zeros(basis.size, dtype=complex)
    term[0] = 1.0
    for l in range(10):
        base_terms.append(term)
        term = fock._raise_quadratic(np.array([[m_val]]), term, basis) / (l + 1)
    big_a = max(
        np.linalg.norm(t) * math.exp(alpha * l / 2) for l, t in enumerate(base_terms)
    )
    for l, t in enumerate(base_terms):
        cur = t
        for k in range(1, 6):
            cur = fock._raise_quadratic(np.array([[dm_val]]), cur, basis) / k
            assert (
                np.linalg.norm(cur)
                <= big_a * math.exp(-alpha * l / 2) * bfac**k * (1 + 1e-9)
            )


def test_leakage_monotone_under_operations():
    b = ModeBasis(1, 4)
    psi = number_state(b, (4,)).with_leakage(0.5)
    out = apply_quadratic(QuadraticGenerator.from_blocks(hpp=[[0.3]]), psi)
    assert out.leakage >= 0.5


def _dense_quadratic(gen, basis):
    a = lowering_matrices(basis)
    ad = [ai.conj().T for ai in a]
    pairs = [(i, j) for i in range(gen.modes) for j in range(gen.modes)]
    h = sum(0.5 * gen.hpp[i, j] * (ad[i] @ ad[j]) + gen.hpm[i, j] * (ad[i] @ a[j])
            + 0.5 * gen.hmm[i, j] * (a[i] @ a[j]) for i, j in pairs)
    return h + gen.hbar * np.eye(basis.size)


@pytest.mark.parametrize("modes, cutoff", [(1, 14), (2, 12), (3, 6)])
def test_ladder_table_against_dense_oracle(modes, cutoff):
    # every operator that reads the ladder table, against products of the
    # dense a_i built state by state: bitwise, since the table adds the
    # nonzero terms of the dense products in the same order
    from semiclab.symmetry import omega_matrix

    rng = np.random.default_rng(modes * 100 + cutoff)
    basis = ModeBasis(modes, cutoff)
    a = lowering_matrices(basis)
    ad = [ai.conj().T for ai in a]
    pairs = [(i, j) for i in range(modes) for j in range(modes)]
    psi = random_vector(basis, rng).with_leakage(0.125)
    f = rng.normal(size=modes) + 1j * rng.normal(size=modes)

    def padded(extra):
        big = basis.padded(extra)
        return big, np.concatenate([psi.coeffs, np.zeros(big.size - basis.size)])

    def kept_and_leakage(out):
        return out[: basis.size], psi.leakage + np.sum(np.abs(out[basis.size:]) ** 2)

    down = apply_ladder(f, psi, "annihilate")
    dense = sum(np.conj(fi) * (ai @ psi.coeffs) for fi, ai in zip(f, a))
    assert np.array_equal(down.coeffs, dense) and down.leakage == psi.leakage
    big, src = padded(1)
    up = apply_ladder(f, psi, "create")
    kept, leakage = kept_and_leakage(
        sum(fi * (ai.conj().T @ src) for fi, ai in zip(f, lowering_matrices(big))))
    assert np.array_equal(up.coeffs, kept) and up.leakage == leakage

    def herm(m):
        return m + m.conj().T

    z = rng.normal(size=(3, modes, modes)) + 1j * rng.normal(size=(3, modes, modes))
    gen = QuadraticGenerator(z[0] + z[0].T, herm(z[1]) + herm(z[2]), hbar=0.37)
    h = _dense_quadratic(gen, basis)
    assert np.array_equal(fock.quadratic_matrix(gen, basis), h)
    dense = sum(z[1, i, j] * (ad[i] @ a[j]) for i, j in pairs)
    assert np.array_equal(fock.one_body_matrix(z[1], basis), dense)
    big, src = padded(2)
    kept, leakage = kept_and_leakage(_dense_quadratic(gen, big) @ src)
    out = apply_quadratic(gen, psi)
    assert np.array_equal(out.coeffs, kept) and out.leakage == leakage

    m = z[0] + z[0].T
    m *= 0.4 / np.linalg.norm(m, 2)
    term = np.zeros(basis.size, dtype=complex)
    term[0] = 1.0
    acc = term.copy()
    for k in range(1, cutoff // 2 + 1):
        term = sum(0.5 * m[i, j] * (ad[i] @ (ad[j] @ term)) for i, j in pairs) / k
        acc += term
    gauss = gaussian_state(GaussianData(m, c=0.7 + 0.2j), basis)
    assert np.array_equal(gauss.coeffs, (0.7 + 0.2j) * acc)

    phi = rng.normal(size=modes) + 1j * rng.normal(size=modes)
    fam = SimpleNamespace(phi=lambda x, dx: phi)
    assert np.array_equal(omega_matrix(fam, None, None, basis),
                          -1j * ladder_matrix(phi, basis))

    # displacement_eig's v is a phase per state times a real orthogonal Q,
    # and Q diag(w) Q^T is the real symmetric X built from the table
    x = np.zeros((basis.size, basis.size))
    for fi, (rows, cols, vals) in zip(f, fock.ladder_table(basis).lower):
        x[rows, cols] = abs(fi) * vals
    lam, v = fock.displacement_eig(f, basis)
    q = np.conj(dense_fock.state_phases(f, basis))[:, None] * v
    w = (1j * lam).real
    assert np.max(np.abs(q.imag)) < 1e-15
    assert np.max(np.abs((q.real * w) @ q.real.T - (x + x.T))) < 1e-12


def test_quadratic_matrix_memory_is_a_few_outputs():
    # the assembly, table build included, holds no dim^2 stack per mode pair
    import tracemalloc

    for obj in vars(fock).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    basis = ModeBasis(2, 24)
    gen = QuadraticGenerator.from_blocks(hpp=np.eye(2), hpm=np.ones((2, 2)))
    tracemalloc.start()
    try:
        fock.quadratic_matrix(gen, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * basis.size**2 * 16


@pytest.mark.parametrize("occupation", [(-1, 2), (1.7, 0), (2.0, 1)])
def test_number_state_rejects_bad_occupations(occupation):
    with pytest.raises(ValueError):
        number_state(ModeBasis(2, 4), occupation)


def test_number_state_takes_numpy_integers():
    b = ModeBasis(2, 4)
    psi = number_state(b, np.array([1, 2]))
    assert psi.coeffs[b.index[(1, 2)]] == 1.0


def test_validation_predicate_is_allclose():
    tol = 1e-12 + 1e-5 * 2.0
    cases = [
        (2.0, 2.0),
        (2.0 + 0.999 * tol, 2.0),
        (2.0 + 1.001 * tol, 2.0),
        (2.0 - 0.999 * tol, 2.0),
        (2.0 - 1.001 * tol, 2.0),
        (0.5e-12, 0.0),
        (1.5e-12, 0.0),
        (2.0 + 0.7j * tol, 2.0 + 0j),
        (2.0 + 0.7 * tol + 0.75j * tol, 2.0 + 0j),
        ([[1.0, 2.0 + 1e-9j], [2.0, 3.0]], [[1.0, 2.0], [2.0, 3.0]]),
        ([[1.0, 2.1], [2.0, 3.0]], [[1.0, 2.0], [2.1, 3.0]]),
    ]
    verdicts = [fock._allclose(np.asarray(x), np.asarray(y)) for x, y in cases]
    assert verdicts == [bool(np.allclose(x, y, atol=1e-12)) for x, y in cases]
    assert True in verdicts and False in verdicts
    nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    inf = np.array([[np.inf, 0.0], [0.0, 1.0]])
    assert not fock._allclose(nan, nan.T)
    assert not fock._allclose(inf, inf.T)
    with pytest.raises(ValueError):
        QuadraticGenerator.from_blocks(hpp=inf)
    with pytest.raises(ValueError):
        GaussianData(nan * 0.1)
