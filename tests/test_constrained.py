import dataclasses
import inspect
import math
from functools import reduce

import dense_fock
import envelope_oracle
import numpy as np
import pairing_oracle
import pytest
import radius_oracle

from semiclab.bogoliubov import GeneratorPath, integrate_flow
from semiclab.constrained import (
    ComposedFockState,
    DecayProfile,
    QuadSpec,
    composed_inner,
    decay_profile,
    evolve_plane,
    inner_constrained,
    inner_constrained_detailed,
    invariance_check,
    make_plane,
    regularized_inner,
    transform_composed,
)
from semiclab.constrained import _get_family
from semiclab.fock import (
    FockVector,
    ModeBasis,
    QuadraticGenerator,
    gaussian_tail_bound,
    number_state,
    vacuum_state,
)
from semiclab.packets import project_fiber, splitstep_evolve
from semiclab.quadrature import QuadCertificate, gauss_legendre
from semiclab.symmetry import check_x6, second_kind_coords, word_product


def squeeze_path(kappa=0.3, t_max=4.0):
    return GeneratorPath.constant(
        QuadraticGenerator.from_blocks(hpp=[[kappa]]), t_max)


def rotation_path(omega=0.7, t_max=4.0):
    return GeneratorPath.constant(
        QuadraticGenerator.from_blocks(hpm=[[omega]]), t_max)


def random_low_state(basis, rng, max_total):
    c = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    c[basis.totals > max_total] = 0
    c /= np.linalg.norm(c)
    return FockVector(basis, c)


def test_inner_constrained_rejects_vectors_off_the_plane():
    # the plane's mode count and the vectors' basis are checked at the
    # API boundary, before any family is built
    plane = make_plane([np.array([1.0])])
    one = vacuum_state(ModeBasis(1, 12))
    assert np.isfinite(inner_constrained(one, one, plane))
    two = vacuum_state(ModeBasis(2, 4))
    with pytest.raises(ValueError, match="plane mode count"):
        inner_constrained(two, two, plane)
    with pytest.raises(ValueError, match="different bases"):
        inner_constrained(one, vacuum_state(ModeBasis(1, 10)), plane)


_UNIT = make_plane([np.array([1.0])])
_VAC = vacuum_state(ModeBasis(1, 12))


@pytest.mark.parametrize("call, message", [
    (lambda: make_plane([np.array([1.0])], a=float("nan")), "got nan"),
    (lambda: make_plane([np.array([1.0])], a=float("inf")), "got inf"),
    (lambda: make_plane([np.array([float("nan")])]), r"non-finite entry: \[nan"),
    (lambda: make_plane([np.array([float("inf")])]), r"non-finite entry: \[inf"),
    (lambda: regularized_inner(_VAC, _UNIT, float("nan")), "got nan"),
    (lambda: regularized_inner(_VAC, _UNIT, float("inf")), "got inf"),
    (lambda: QuadSpec(self_check=float("nan")), "self_check=nan"),
    (lambda: regularized_inner(vacuum_state(ModeBasis(2, 4)), _UNIT, 1.0),
     "plane mode count 1 does not match the vectors' 2"),
    (lambda: decay_profile(vacuum_state(ModeBasis(2, 4)),
                           vacuum_state(ModeBasis(2, 4)), _UNIT, m=2),
     "plane mode count 1 does not match the vectors' 2"),
    (lambda: decay_profile(vacuum_state(ModeBasis(1, 24)),
                           vacuum_state(ModeBasis(1, 20)), _UNIT, m=2),
     r"different bases: ModeBasis\(modes=1, cutoff=24\) and "
     r"ModeBasis\(modes=1, cutoff=20\)"),
], ids=["a-nan", "a-inf", "b-nan", "b-inf", "eps-nan", "eps-inf", "quad-nan",
        "regularized-modes", "decay-modes", "decay-bases"])
def test_bad_plane_input_is_rejected_at_the_boundary(call, message):
    # every plane integral and the plane builder name the bad value,
    # instead of returning nan, inf or 0.0, or failing deep in an SVD
    with pytest.raises(ValueError, match=message):
        call()


def test_plane_integral_layer_takes_no_setting_nothing_sets():
    # the box always comes from the decay, and no field or parameter of
    # the plane-integral layer is one that no caller sets or reads
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert fields(QuadSpec) == ["order", "pad", "self_check"]
    assert fields(QuadCertificate) == ["radius", "order", "value",
                                       "order_doubling_delta"]
    assert fields(DecayProfile) == ["constant", "worst_ratio"]
    assert params(decay_profile) == ["y1", "y2", "plane", "m"]
    assert params(gaussian_tail_bound) == ["m_norm", "last_term"]
    removed = {"radius", "tail_target", "radius_cap", "quad", "n_samples",
               "isotropy_tol", "subspace_tol", "scalar_tol", "loop_tol", "tol",
               "max_iter", "spectral_tail_tol", "decay_check", "cutoff"}
    for fn in (make_plane, evolve_plane, transform_composed, decay_profile,
               check_x6, word_product, second_kind_coords, splitstep_evolve,
               project_fiber, gaussian_tail_bound):
        assert not set(params(fn)) & removed, fn.__name__
    assert params(word_product)[4:6] == ["dt", "margin"]
    assert params(splitstep_evolve)[2:4] == ["t", "dt"]


def test_make_plane_accepts_real_vectors():
    plane = make_plane([np.array([1.0, 0.5]), np.array([0.0, 2.0])])
    assert plane.k == 2


def test_make_plane_rejects_imaginary_gram():
    with pytest.raises(ValueError):
        make_plane([np.array([1.0]), np.array([1j])])


def test_make_plane_rejects_dependent():
    with pytest.raises(ValueError):
        make_plane([np.array([1.0, 0.0]), np.array([2.0, 0.0])])


def test_vacuum_inner_analytic():
    # k=1, d=1, B = b: integral of exp(-beta^2 b^2 / 2) = sqrt(2 pi) / b
    basis = ModeBasis(1, 32)
    for b in (1.0, 1.7):
        plane = make_plane([np.array([b])])
        val = inner_constrained(vacuum_state(basis), vacuum_state(basis), plane,
                                QuadSpec(pad=12, order=48))
        assert abs(val - math.sqrt(2 * math.pi) / b) < 1e-8


def test_single_quantum_is_null():
    # <1| U[beta] |1> = (1 - beta^2) e^(-beta^2/2) integrates to zero
    basis = ModeBasis(1, 48)
    plane = make_plane([np.array([1.0])])
    psi = number_state(basis, (1,))
    val = inner_constrained(psi, psi, plane, QuadSpec(pad=14, order=64))
    assert abs(val) < 1e-8


def test_integrand_decay_bound():
    rng = np.random.default_rng(3)
    basis = ModeBasis(1, 20)
    plane = make_plane([np.array([1.0])])
    y1 = random_low_state(basis, rng, 6)
    y2 = random_low_state(basis, rng, 6)
    prof = decay_profile(y1, y2, plane, m=4)
    assert prof.worst_ratio <= 1.0 + 1e-9


def test_decay_profile_vacuum_any_exponent():
    basis = ModeBasis(1, 24)
    plane = make_plane([np.array([1.0])])
    v = vacuum_state(basis)
    for m in (0, 2, 6):
        prof = decay_profile(v, v, plane, m=m)
        assert prof.worst_ratio <= 1.0 + 1e-9


def test_decay_profile_m0_is_norm_product():
    rng = np.random.default_rng(9)
    basis = ModeBasis(1, 16)
    plane = make_plane([np.array([1.0])])
    y1 = random_low_state(basis, rng, 5)
    y2 = random_low_state(basis, rng, 5)
    prof = decay_profile(y1, y2, plane, m=0)
    assert prof.constant == pytest.approx(y1.norm() * y2.norm())


def test_regularized_positivity_and_convergence():
    # exact values sqrt(2 pi / (1 + 2 eps)) converge monotonically from below
    basis = ModeBasis(1, 32)
    plane = make_plane([np.array([1.0])])
    v = vacuum_state(basis)
    target = math.sqrt(2 * math.pi)
    vals = [regularized_inner(v, plane, eps, QuadSpec(order=64, pad=12))
            for eps in (1.0, 0.1, 0.01)]
    assert all(val >= -1e-10 for val in vals)
    for val, eps in zip(vals, (1.0, 0.1, 0.01)):
        assert val == pytest.approx(math.sqrt(2 * math.pi / (1 + 2 * eps)), abs=1e-8)
    errs = [abs(val - target) for val in vals]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-1


def _hermite_regularized_inner(y, plane, eps, quad):
    """The Gauss-Hermite sum for the weight e^(-eps |beta|^2), the oracle
    for the Legendre box of regularized_inner.  Its nodes spread like
    1/sqrt(eps), so it is only faithful while they stay inside the trust
    radius of the truncated displacement family."""
    x, w = np.polynomial.hermite.hermgauss(quad.order)
    live = np.abs(w) > 1e-16 * np.abs(w).max()
    x, w = x[live] / math.sqrt(eps), w[live] / math.sqrt(eps)
    fam = _get_family(plane, y.basis, quad.pad)
    for s in range(plane.k):
        assert np.abs(x).max() <= fam.trust_radius(s)
    weights = reduce(np.multiply.outer, [w] * plane.k)
    return float((plane.a * np.sum(weights * fam.pairings(y, y, [x] * plane.k))).real)


def test_regularized_hermite_cross_check():
    basis = ModeBasis(1, 32)
    plane = make_plane([np.array([1.0])])
    v = vacuum_state(basis)
    spec = QuadSpec(order=64, pad=12)
    a = regularized_inner(v, plane, 1.0, spec)
    b = _hermite_regularized_inner(v, plane, 1.0, spec)
    assert abs(a - b) < 1e-8


def test_positivity_random_vectors():
    # self-pairings of grade-n states decay only like e^(-b^2/2) L_n(b^2),
    # so the displacement family needs headroom ~ (b* + sqrt(n))^2 quanta
    # for the integrand to be faithful down to the tail target
    rng = np.random.default_rng(17)
    basis = ModeBasis(1, 24)
    plane = make_plane([np.array([1.0])])
    spec = QuadSpec(pad=140, order=64)
    for _ in range(100):
        y = random_low_state(basis, rng, 6)
        val = inner_constrained(y, y, plane, spec)
        assert val.real >= -1e-10
        assert abs(val.imag) < 1e-10


def test_positivity_two_axis_plane():
    # grade <= 1 states keep the two-axis displacement family affordable;
    # their pairings still decay below 1e-10 inside the padded trust region
    rng = np.random.default_rng(23)
    basis = ModeBasis(2, 4)
    plane = make_plane([np.array([1.0, 0.2]), np.array([0.1, -0.8])])
    spec = QuadSpec(pad=40, order=40, self_check=1e-7)
    for _ in range(6):
        y = random_low_state(basis, rng, 1)
        val = inner_constrained(y, y, plane, spec)
        assert val.real >= -1e-8
        assert abs(val.imag) < 1e-8 * max(1.0, abs(val.real))


def test_null_vector_cauchy_schwarz_propagation():
    # if <Y, Y> ~ 0 then |<Y, Y'>| <= sqrt(<Y,Y><Y',Y'>) + tolerance
    rng = np.random.default_rng(31)
    basis = ModeBasis(1, 48)
    plane = make_plane([np.array([1.0])])
    null = number_state(basis, (1,))
    spec = QuadSpec(pad=14, order=64)
    nn = inner_constrained(null, null, plane, spec).real
    assert abs(nn) < 1e-8
    for _ in range(5):
        other = random_low_state(basis, rng, 8)
        cross = inner_constrained(null, other, plane, spec)
        oo = inner_constrained(other, other, plane, spec).real
        assert abs(cross) <= math.sqrt(max(nn, 0.0) * oo) + 1e-6


def test_basis_change_invariance_scaling():
    # k = 1: rescaling B with the matching measure constant is exact
    basis = ModeBasis(1, 24)
    v = vacuum_state(basis)
    base = inner_constrained(v, v, make_plane([np.array([1.0])]),
                             QuadSpec(pad=14, order=48))
    scaled = inner_constrained(v, v, make_plane([np.array([1.6])], a=1.6),
                               QuadSpec(pad=14, order=48))
    assert abs(base - scaled) < 1e-8 * abs(base)


def test_basis_change_invariance_mixing():
    # k = 2 real mixing: value unchanged once the measure constant absorbs
    # |det T|; vacuum fibers keep the displacement family affordable
    basis = ModeBasis(2, 4)
    v = vacuum_state(basis)
    b1 = np.array([1.0, 0.3])
    b2 = np.array([-0.2, 0.9])
    th = 0.6
    t = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]]) @ np.diag(
        [1.1, 0.9])
    c1, c2 = t[0, 0] * b1 + t[0, 1] * b2, t[1, 0] * b1 + t[1, 1] * b2
    spec = QuadSpec(pad=30, order=48, self_check=1e-7)
    base = inner_constrained(v, v, make_plane([b1, b2]), spec)
    changed = inner_constrained(
        v, v, make_plane([c1, c2], a=abs(np.linalg.det(t))), spec)
    assert abs(base - changed) < 1e-6 * max(1, abs(base))


@pytest.mark.parametrize("bs", [
    ([1.0, 0.3], [-0.2, 0.9]),
    # complex, and isotropic: (B1, B2) = 0.4; V1+ V2 is not real here
    ([1.0, 0.5j], [0.4 + 0.2j, 0.4]),
])
def test_two_axis_pairing_table_against_per_node_products(bs):
    from semiclab.constrained import _DisplacementFamily

    rng = np.random.default_rng(61)
    basis = ModeBasis(2, 3)
    plane = make_plane([np.array(b) for b in bs])
    fam = _DisplacementFamily(plane, basis, pad=6)
    y1 = random_low_state(basis, rng, basis.cutoff)
    y2 = random_low_state(basis, rng, basis.cutoff)

    radii = np.linspace(0.05, 3.0, 320)
    layouts = {
        "n1 < n2": ([-0.4, 0.1, 1.3], np.linspace(-2, 2, 7)),
        "n1 > n2": (np.linspace(-2, 2, 7), [-0.4, 0.1, 1.3]),
        "n1 = n2": tuple(rng.uniform(-2.5, 2.5, size=(9, 2)).T),
        "(320, 1)": (radii, [0.0]),
        "(1, 320)": ([0.0], -radii),
    }
    for name, axes in layouts.items():
        axes = [np.asarray(b, dtype=float) for b in axes]
        table = fam.pairings(y1, y2, axes)
        oracle = pairing_oracle.pairings(fam, y1, y2, axes)
        assert table.shape == oracle.shape == tuple(len(b) for b in axes), name
        assert np.max(np.abs(table - oracle)) < 1e-12, name


def test_three_axis_pairing_tensor_against_per_node_products():
    # three modes, three mutually isotropic real axes, so two overlaps are
    # walked; singleton axes put one axis or two at a single node
    from semiclab.constrained import _DisplacementFamily

    rng = np.random.default_rng(73)
    basis = ModeBasis(3, 2)
    plane = make_plane([np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.3, 1.0]),
                        np.array([0.2, -1.0, 0.4])])
    fam = _DisplacementFamily(plane, basis, pad=2)
    assert len(fam.overlaps) == 2
    y1 = random_low_state(basis, rng, basis.cutoff)
    y2 = random_low_state(basis, rng, basis.cutoff)
    scale = y1.norm() * y2.norm()
    for shape in ((3, 4, 2), (1, 5, 1), (4, 1, 3), (1, 1, 6), (2, 2, 2)):
        axes = [rng.uniform(-1.2, 1.2, size=n) for n in shape]
        table = fam.pairings(y1, y2, axes)
        oracle = pairing_oracle.pairings(fam, y1, y2, axes)
        assert table.shape == shape
        assert np.max(np.abs(table - oracle)) <= 1e-12 * scale, shape


@pytest.mark.parametrize("bs, cutoff, pad", [
    (([1.0],), 24, 12),
    (([0.6 - 0.8j],), 16, 12),
    (([1.0, 0.3], [-0.2, 0.9]), 3, 6),
    (([1.0, 0.5j], [0.4 + 0.2j, 0.4]), 3, 6),
    # the dim-630 family of the plane-families benchmark
    (([1.0, 0.3], [-0.2, 0.9]), 4, 30),
    (([1.0, 0.2, 0.0], [0.0, 0.3, 1.0], [0.2, -1.0, 0.4]), 2, 2),
])
@pytest.mark.parametrize("order", [7, 48])
def test_contracted_rule_matches_the_weighted_pairing_tensor(bs, cutoff, pad, order):
    # the half-node cosine rows against the full rule summed over the
    # pairing tensor, unweighted and with regularized_inner's even weight
    from semiclab.constrained import _DisplacementFamily

    rng = np.random.default_rng(order)
    plane = make_plane([np.array(b) for b in bs])
    basis = ModeBasis(plane.modes, cutoff)
    fam = _DisplacementFamily(plane, basis, pad)
    y1, y2 = (random_low_state(basis, rng, min(cutoff, 2)) for _ in range(2))
    x, w = gauss_legendre(order)
    radii = rng.uniform(1.0, 3.0, size=plane.k)
    axes = [r * x for r in radii]
    for eps in (0.0, 0.3):
        weights = [r * w * np.exp(-eps * b**2) for r, b in zip(radii, axes)]
        value = fam.integral(y1, y2, axes, weights)
        oracle = np.sum(reduce(np.multiply.outer, weights) * fam.pairings(y1, y2, axes))
        assert abs(value - oracle) <= 1e-13 * max(1.0, abs(oracle))


def test_contracted_rule_rejects_an_asymmetric_rule():
    from semiclab.constrained import _DisplacementFamily

    basis = ModeBasis(1, 4)
    fam = _DisplacementFamily(make_plane([np.array([1.0])]), basis, 2)
    y = vacuum_state(basis)
    x, w = gauss_legendre(8)
    for axes, weights in (([x + 0.1], [w]), ([x], [w * (1 + x)])):
        with pytest.raises(ValueError, match="symmetric about 0"):
            fam.integral(y, y, axes, weights)


@pytest.mark.parametrize("bs", [
    ([1.0, 0.3], [-0.2, 0.9]),
    # complex and isotropic, so the overlap W = V1+ V2 is a complex array
    ([1.0, 0.5j], [0.4 + 0.2j, 0.4]),
])
def test_pairing_tensor_at_the_benchmark_size_against_a_dense_family(bs, monkeypatch):
    # the plane-families benchmark's size: the factored family's pairing
    # tensor on the order-48 box against the per-node products of a family
    # whose eigenpairs come from the dense eigh
    from semiclab import constrained

    rng = np.random.default_rng(29)
    basis = ModeBasis(2, 4)
    plane = make_plane([np.array(b) for b in bs])
    fam = constrained._DisplacementFamily(plane, basis, pad=30)
    real_plane = not any(b.imag.any() for b in plane.bs)
    assert np.iscomplexobj(fam.overlaps[0]) != real_plane
    monkeypatch.setattr(constrained, "displacement_eig", dense_fock.displacement_eig)
    dense = constrained._DisplacementFamily(plane, basis, pad=30)
    y1, y2 = (random_low_state(basis, rng, 1) for _ in range(2))
    x, w = gauss_legendre(48)
    radii = constrained._auto_radius(fam, y1, y2)
    axes = [r * x for r in radii]
    table = fam.pairings(y1, y2, axes)
    oracle = pairing_oracle.pairings(dense, y1, y2, axes)
    assert table.shape == (48, 48)
    assert np.max(np.abs(table - oracle)) <= 1e-12 * y1.norm() * y2.norm()
    # the contracted rule against the dense family's per-node products,
    # within the table's bound summed over the (positive) weights
    weights = reduce(np.multiply.outer, [r * w for r in radii])
    value = fam.integral(y1, y2, axes, [r * w for r in radii])
    assert (abs(value - np.sum(weights * oracle))
            <= 1e-12 * y1.norm() * y2.norm() * np.sum(weights))


def test_building_a_family_calls_displacement_eig_per_axis_and_no_dense_eigh(
        monkeypatch):
    from semiclab import constrained

    eighs, eigs = [], []
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: eighs.append(args))
    eig = constrained.displacement_eig
    monkeypatch.setattr(constrained, "displacement_eig",
                        lambda *args: eigs.append(args) or eig(*args))
    for bs, basis, pad in [(([1.0, 0.3], [-0.2, 0.9]), ModeBasis(2, 4), 30),
                           (([1.0, 0.5j], [0.4 + 0.2j, 0.4]), ModeBasis(2, 3), 6),
                           (([1.0, 0.2, 0.0], [0.0, 0.3, 1.0], [0.2, -1.0, 0.4]),
                            ModeBasis(3, 2), 2)]:
        eigs.clear()
        plane = make_plane([np.array(b) for b in bs])
        constrained._DisplacementFamily(plane, basis, pad)
        assert len(eigs) == plane.k
    assert eighs == []


def test_decay_profile_forms_the_ends_of_its_walks_once(monkeypatch):
    # every ray and every diagonal radius walks from one head and one tail,
    # so each vector is embedded once; forming them again per walk, as a
    # pairings call does, gives the same worst ratio
    from semiclab import constrained

    basis = ModeBasis(3, 1)
    plane = make_plane([np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.3, 1.0]),
                        np.array([0.2, -1.0, 0.4])])
    y1, y2 = vacuum_state(basis), number_state(basis, [0, 1, 0])
    _get_family(plane, basis, QuadSpec().pad)
    embeds = []
    embed = FockVector.embed
    monkeypatch.setattr(FockVector, "embed",
                        lambda y, big: embeds.append(y) or embed(y, big))
    prof = decay_profile(y1, y2, plane, m=2)
    assert len(embeds) == 2
    walk = constrained._DisplacementFamily._walk
    monkeypatch.setattr(
        constrained._DisplacementFamily, "_walk",
        lambda fam, head, tail, rows: walk(fam, *fam._ends(y1, y2), rows))
    embeds.clear()
    per_walk = decay_profile(y1, y2, plane, m=2)
    assert len(embeds) == 2 + 2 * (plane.k + constrained._DECAY_SAMPLES)
    assert per_walk == prof


def test_three_axis_decay_profile_walks_its_diagonal_in_small_memory():
    # the diagonal ray is walked radius by radius on singleton axes; read
    # off the pairing tensor of the whole ray it held 160^2 rows of the
    # padded dimension 560, a 302 MB peak
    import tracemalloc

    basis = ModeBasis(3, 1)
    plane = make_plane([np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.3, 1.0]),
                        np.array([0.2, -1.0, 0.4])])
    y1, y2 = vacuum_state(basis), number_state(basis, [0, 1, 0])
    _get_family(plane, basis, QuadSpec().pad)  # the family is built beforehand
    tracemalloc.start()
    try:
        prof = decay_profile(y1, y2, plane, m=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6
    assert 0.0 < prof.worst_ratio <= 1.0


def test_evolve_plane_identity_and_rotation():
    from semiclab.bogoliubov import BogoliubovFlow

    plane = make_plane([np.array([1.0])])
    same = evolve_plane(plane, BogoliubovFlow.identity(1))
    assert np.allclose(same.bs[0], plane.bs[0])
    omega, t = 0.7, 0.9
    flow = integrate_flow(rotation_path(omega), t=t, dt=1e-3)
    rotated = evolve_plane(plane, flow)
    assert np.allclose(rotated.bs[0], np.exp(-1j * omega * t), atol=1e-9)


def test_evolve_plane_squeeze_keeps_isotropy():
    # d = 1 squeeze on a real constraint vector
    flow = integrate_flow(squeeze_path(0.4), t=1.2, dt=1e-3)
    plane = make_plane([np.array([1.0])])
    evolved = evolve_plane(plane, flow)
    g = evolved.gram()
    assert float(np.max(np.abs(g.imag))) <= 1e-10


def test_invariance_check_t0():
    basis = ModeBasis(1, 24)
    plane = make_plane([np.array([1.0])])
    res = invariance_check(vacuum_state(basis), plane, squeeze_path(0.3), t=0.0,
                           quad=QuadSpec(pad=14, order=56))
    assert res < 1e-12


def test_invariance_squeeze_vacuum():
    basis = ModeBasis(1, 24)
    plane = make_plane([np.array([1.0])])
    res = invariance_check(vacuum_state(basis), plane, squeeze_path(0.3), t=1.0,
                           quad=QuadSpec(pad=16, order=64))
    assert res < 1e-6


def test_invariance_rotation_random_state():
    rng = np.random.default_rng(47)
    basis = ModeBasis(1, 24)
    plane = make_plane([np.array([1.0])])
    y = random_low_state(basis, rng, 10)
    res = invariance_check(y, plane, rotation_path(0.9), t=1.3,
                           quad=QuadSpec(pad=14, order=64))
    assert res < 1e-6


def test_invariance_residual_reads_a_given_flow_and_state():
    from semiclab.bogoliubov import propagate_direct
    from semiclab.constrained import invariance_residual

    basis = ModeBasis(1, 24)
    plane = make_plane([np.array([1.0])])
    path, t, dt = squeeze_path(0.3), 1.0, 1e-3
    quad = QuadSpec(pad=16, order=64)
    psi_t = propagate_direct(vacuum_state(basis), path, t, dt).state
    res = invariance_residual(vacuum_state(basis), psi_t, plane,
                              integrate_flow(path, t, dt), quad)
    assert res == invariance_check(vacuum_state(basis), plane, path, t, dt, quad)


def test_composed_inner_matches_pointwise():
    # trivial manifold of two copies: the composed value is just the weighted sum
    basis = ModeBasis(1, 24)
    v = vacuum_state(basis)
    alphas = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    constraints = np.tile(np.array([[1.0 + 0j]]), (8, 1, 1))
    state = ComposedFockState(
        alphas=alphas,
        density=np.ones(8),
        fibers=(v,) * 8,
        constraints=constraints,
        periodic_span=2 * np.pi,
    )
    val = composed_inner(state, state, QuadSpec(pad=12, order=48))
    expect = 2 * np.pi * math.sqrt(2 * math.pi)
    assert abs(val - expect) < 1e-6 * expect


def test_quadrature_certificate_record():
    basis = ModeBasis(1, 24)
    plane = make_plane([np.array([1.0])])
    val, cert = inner_constrained_detailed(
        vacuum_state(basis), vacuum_state(basis), plane, QuadSpec(pad=12, order=48))
    assert len(cert.radius) == 1 and cert.radius[0] > 0
    assert cert.order == 96  # the doubled rule's order
    assert val == plane.a * cert.value
    assert cert.order_doubling_delta < 1e-8


def test_gauss_legendre_rule_is_built_once_and_read_only():
    x, w = gauss_legendre(64)
    ref_x, ref_w = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert gauss_legendre(64)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    # the contracted plane rule folds every rule onto its nonnegative half
    for n in (7, 8, 48, 96):
        x, w = gauss_legendre(n)
        assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)


def _orbit_state(basis, n_alpha=12):
    from semiclab.scenarios import harmonic_orbit_manifold
    from semiclab.symmetry import standard_phi

    orbit = harmonic_orbit_manifold(n_alpha)
    constraints = np.empty((n_alpha, 1, 1), dtype=complex)
    for j, a in enumerate(orbit.alphas):
        constraints[j, 0] = standard_phi(orbit.point(a), orbit.tangent(a))
    return ComposedFockState(
        alphas=orbit.alphas,
        density=np.ones(n_alpha),
        fibers=(vacuum_state(basis),) * n_alpha,
        constraints=constraints,
        periodic_span=orbit.periodic_span,
    ), orbit.point


def test_composed_inner_orbit_matches_packet_fiber_value():
    # the same construction carried by the packet module's fiber integrals:
    # both sides evaluate to 2 pi * 2 sqrt(pi) for vacuum fibers
    basis = ModeBasis(1, 24)
    state, _ = _orbit_state(basis)
    val = composed_inner(state, state, QuadSpec(pad=12, order=48))
    exact = 2 * math.pi * 2 * math.sqrt(math.pi)
    assert abs(val - exact) < 1e-6 * exact


def test_transform_composed_rotation_preserves_inner():
    from scipy.linalg import expm

    from semiclab.scenarios import su11_family
    from semiclab.symmetry import standard_phi

    fam = su11_family()
    basis = ModeBasis(1, 24)
    state, point = _orbit_state(basis, n_alpha=8)
    g = expm(0.7 * fam.algebra.rep[0])
    spec = QuadSpec(pad=12, order=48)
    before = composed_inner(state, state, spec)
    moved = transform_composed(state, fam, g, basis, point=point,
                               phi=standard_phi)
    after = composed_inner(moved, moved, spec)
    assert abs(after - before) < 1e-6 * abs(before)


def test_transform_composed_anomalous_family_still_isometric():
    # a constant scalar offset only shifts phases: norms and planes survive
    from scipy.linalg import expm

    from semiclab.scenarios import su11_family
    from semiclab.symmetry import standard_phi

    fam = su11_family(central_offset=0.05)
    basis = ModeBasis(1, 24)
    state, point = _orbit_state(basis, n_alpha=8)
    g = expm(0.5 * fam.algebra.rep[0])
    spec = QuadSpec(pad=12, order=48)
    before = composed_inner(state, state, spec)
    moved = transform_composed(state, fam, g, basis, point=point,
                               phi=standard_phi)
    after = composed_inner(moved, moved, spec)
    assert abs(after - before) < 1e-6 * abs(before)


def test_transform_composed_identity():
    from semiclab.scenarios import su11_family

    fam = su11_family()
    basis = ModeBasis(1, 16)
    state, point = _orbit_state(basis, n_alpha=6)
    moved = transform_composed(state, fam, np.eye(4), basis)
    for old, new in zip(state.fibers, moved.fibers):
        assert np.allclose(old.coeffs, new.coeffs, atol=1e-9)
    assert np.allclose(state.constraints, moved.constraints, atol=1e-9)


def test_family_cache_is_safe_under_threads(monkeypatch):
    import sys
    import threading

    from semiclab import constrained

    monkeypatch.setattr(constrained, "_FAMILY_CACHE", {})
    basis = ModeBasis(1, 1)
    planes = [make_plane([np.array([0.5 + 0.1 * j])]) for j in range(12)]
    # a budget of five families, so the threads evict while they store
    size = constrained._DisplacementFamily(planes[0], basis, 1).nbytes
    monkeypatch.setattr(constrained, "_FAMILY_BUDGET", 5 * size)
    errors = []

    def hammer(offset):
        try:
            for r in range(30):
                for j in range(len(planes)):
                    plane = planes[(j + offset + r) % len(planes)]
                    fam = constrained._get_family(plane, basis, 1)
                    assert fam.plane.bs[0][0] == plane.bs[0][0]
        except Exception as exc:  # collected and asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors[0]
    cached = list(constrained._FAMILY_CACHE.values())
    assert (sum(fam.nbytes for fam in cached) <= constrained._FAMILY_BUDGET
            or len(cached) == 1)


def test_family_cache_keeps_a_family_larger_than_its_budget(monkeypatch):
    from semiclab import constrained

    monkeypatch.setattr(constrained, "_FAMILY_CACHE", {})
    monkeypatch.setattr(constrained, "_FAMILY_BUDGET", 1.0)
    basis = ModeBasis(1, 4)
    for b in (0.7, 1.3):
        fam = constrained._get_family(make_plane([np.array([b])]), basis, 2)
        assert fam.nbytes > constrained._FAMILY_BUDGET
        assert list(constrained._FAMILY_CACHE.values()) == [fam]


def _frozen(value):
    """Contents of arrays (also inside lists and tuples), identity of the rest."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return id(value)


@pytest.mark.parametrize("bs", [
    ([0.8],),
    ([1.0, 0.3], [-0.2, 0.9]),
    ([1.0, 0.2, 0.0], [0.0, 0.3, 1.0], [0.2, -1.0, 0.4]),
])
def test_family_is_complete_when_built(bs):
    # every table is built in __init__, so pairings, envelopes and box
    # sizing change nothing a concurrent reader could see
    from semiclab.constrained import _DisplacementFamily, _auto_radius

    rng = np.random.default_rng(5)
    plane = make_plane([np.array(b) for b in bs])
    basis = ModeBasis(plane.modes, 2)
    fam = _DisplacementFamily(plane, basis, pad=2)
    before = {name: (id(v), _frozen(v)) for name, v in vars(fam).items()}
    y1 = random_low_state(basis, rng, basis.cutoff)
    y2 = random_low_state(basis, rng, basis.cutoff)
    fam.pairings(y1, y2, list(rng.uniform(-1, 1, size=(5, plane.k)).T))
    for s in range(plane.k):
        fam.axis_envelope(y1, y2, s)
    _auto_radius(fam, y1, y2)
    assert {name: (id(v), _frozen(v)) for name, v in vars(fam).items()} == before


def _plane_family_cases():
    """Two-axis planes of this file, and seeded planes shaped like the
    plane-families benchmark's: ModeBasis(2, 4) at pad 30, a base plane
    near the mixing test's and one rotated and scaled copy of it."""
    th = 0.6
    t = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]]) @ np.diag(
        [1.1, 0.9])
    mixing = [np.array([1.0, 0.3]), np.array([-0.2, 0.9])]
    cases = [
        ([[1.0, 0.5], [0.0, 2.0]], ModeBasis(2, 3), 6),
        ([[1.0, 0.2], [0.1, -0.8]], ModeBasis(2, 3), 6),
        ([[1.0, 0.5j], [0.4 + 0.2j, 0.4]], ModeBasis(2, 3), 6),
        (mixing, ModeBasis(2, 4), 30),
        (list(t @ np.array(mixing)), ModeBasis(2, 4), 30),
    ]
    for seed in (3, 4):
        rng = np.random.default_rng(seed)
        b1 = np.array([1.0, 0.3]) + 0.05 * rng.normal(size=2)
        b2 = np.array([-0.2, 0.9]) + 0.05 * rng.normal(size=2)
        th = rng.uniform(-math.pi, math.pi)
        rot = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
        t = rot @ np.diag(rng.uniform(0.9, 1.1, size=2))
        cases.append(([b1, b2], ModeBasis(2, 4), 30))
        cases.append((list(t @ np.array([b1, b2])), ModeBasis(2, 4), 30))
    return cases


def test_axis_envelope_tables_against_pairings_oracle(monkeypatch):
    # one-axis families: bitwise; two-axis families: the oracle routes
    # through W = V1+ V2, so it agrees to rounding, and the box is the same
    from semiclab import constrained

    rng = np.random.default_rng(17)
    for b, cutoff, pad in ((1.0, 24, 12), (0.6 - 0.8j, 16, 12), (2.5, 30, 40)):
        plane = make_plane([np.array([b])])
        basis = ModeBasis(1, cutoff)
        fam = constrained._DisplacementFamily(plane, basis, pad)
        for max_total in (0, 3, cutoff):
            y1 = random_low_state(basis, rng, max_total)
            y2 = random_low_state(basis, rng, max_total)
            assert np.array_equal(
                fam.axis_envelope(y1, y2, 0),
                envelope_oracle.axis_envelope(fam, y1, y2, 0, fam.grids[0]))
    boxes = []
    for bs, basis, pad in _plane_family_cases():
        plane = make_plane([np.asarray(b) for b in bs])
        fam = constrained._DisplacementFamily(plane, basis, pad)
        states = [vacuum_state(basis)] + [
            random_low_state(basis, rng, 1) for _ in range(2)]
        for y1, y2 in zip(states, states[:1] + states[1:][::-1]):
            scale = y1.norm() * y2.norm()
            for s in range(2):
                env = fam.axis_envelope(y1, y2, s)
                ref = envelope_oracle.axis_envelope(fam, y1, y2, s, fam.grids[s])
                assert np.abs(env - ref).max() <= 1e-14 * scale
            boxes.append((fam, y1, y2, constrained._auto_radius(fam, y1, y2)))
    monkeypatch.setattr(
        constrained._DisplacementFamily, "axis_envelope",
        lambda fam, y1, y2, s: envelope_oracle.axis_envelope(
            fam, y1, y2, s, fam.grids[s]))
    for fam, y1, y2, box in boxes:
        assert constrained._auto_radius(fam, y1, y2) == box


def test_axis_radius_scans_match_the_loop_oracle():
    # envelopes that never enter a basin, enter and never revive, revive,
    # floor above the target, sit below it throughout, or hold a NaN
    from semiclab import constrained

    rng = np.random.default_rng(41)
    grid = np.linspace(0.05, 10.0, 320)
    decay = np.exp(-grid**2)
    nan = decay.copy()
    nan[200] = np.nan
    envelopes = [np.full(320, 0.5), decay, decay + 1e-2 * np.exp(-(grid - 9.0)**2),
                 np.maximum(decay, 1e-9), np.full(320, 1e-14), nan]
    envelopes += [decay * 10 ** rng.uniform(-2, 2, 320) for _ in range(20)]
    for env in envelopes:
        for scale in (1.0, 0.3, 1e-30):
            assert (constrained._axis_radius(grid, env, scale)
                    == radius_oracle.axis_radius(grid, env, scale))


def test_auto_radius_equals_the_loop_scans_on_one_and_two_axis_planes(monkeypatch):
    from semiclab import constrained

    rng = np.random.default_rng(19)
    cases = [([[1.0]], ModeBasis(1, 24), 12), ([[0.6 - 0.8j]], ModeBasis(1, 16), 12),
             ([[2.5]], ModeBasis(1, 30), 40)] + _plane_family_cases()
    boxes = []
    for bs, basis, pad in cases:
        plane = make_plane([np.asarray(b) for b in bs])
        fam = constrained._DisplacementFamily(plane, basis, pad)
        for max_total in (0, 1, 2):
            y1, y2 = (random_low_state(basis, rng, max_total) for _ in range(2))
            boxes.append((fam, y1, y2, constrained._auto_radius(fam, y1, y2)))
    monkeypatch.setattr(constrained, "_axis_radius", radius_oracle.axis_radius)
    for fam, y1, y2, box in boxes:
        assert constrained._auto_radius(fam, y1, y2) == box
