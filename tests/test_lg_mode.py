import ast
import math
from pathlib import Path

import numpy as np
import pytest

from vortexlattice.lg_mode import (AXIS_RHO, BeamSpec, CylPoint, laguerre_poly,
                                   mode_amplitude, mode_jet, mode_phase, waist_at)

WAVELENGTH = 589.16e-9

# Rayleigh ranges pi w0^2 / lambda evaluated by hand for the two waists used
# throughout: w0 = 8 um and w0 = 6 lambda.
ZR_8UM = 3.4126880615e-4
ZR_6LAM = 6.66324262e-5

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vortexlattice"


def laguerre_series(p, alpha, x):
    """Closed-form series sum_i (-1)^i C(p+alpha, p-i) x^i / i!."""
    total = 0.0
    for i in range(p + 1):
        total += (-1.0) ** i * math.comb(p + alpha, p - i) * x ** i / math.factorial(i)
    return total


def beam(l=1, w0=8e-6, p=0, **kw):
    return BeamSpec(wavelength=WAVELENGTH, waist_w0=w0, winding_l=l, radial_p=p, **kw)


def test_laguerre_poly_base_cases():
    assert laguerre_poly(0, 0, 0.3) == 1.0
    assert laguerre_poly(0, 5, 2.0) == 1.0
    # L_1^alpha(x) = 1 + alpha - x
    assert laguerre_poly(1, 2, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_laguerre_poly_matches_series():
    xs = np.array([0.0, 0.1, 0.7, 1.9, 4.2, 11.0])
    for p in range(6):
        for alpha in (0, 1, 2, 5, 11):
            want = [laguerre_series(p, alpha, x) for x in xs]
            got = [laguerre_poly(p, alpha, x) for x in xs]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_laguerre_poly_vectorized():
    xs = np.linspace(0.0, 8.0, 41)
    got = laguerre_poly(3, 2, xs)
    want = [laguerre_series(3, 2, x) for x in xs]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_rayleigh_range_values():
    assert beam(w0=8e-6).rayleigh_range == pytest.approx(ZR_8UM, rel=1e-9)
    assert beam(w0=6 * WAVELENGTH).rayleigh_range == pytest.approx(ZR_6LAM, rel=1e-8)


def test_waist_growth():
    b = beam()
    zr = b.rayleigh_range
    assert waist_at(b, 0.0) == b.waist_w0
    assert waist_at(b, zr) == pytest.approx(b.waist_w0 * math.sqrt(2.0), rel=1e-12)
    # hand evaluation at half the Fig-3-style separation, d = 24 w0, w0 = 6 lambda
    b6 = beam(w0=6 * WAVELENGTH)
    want = b6.waist_w0 * math.sqrt(1.0 + (12.0 * b6.waist_w0 / b6.rayleigh_range) ** 2)
    assert waist_at(b6, 12.0 * b6.waist_w0) == pytest.approx(want, rel=1e-12)


def test_norm_constant_default_and_override():
    b = beam(l=3, p=2)
    assert b.norm == pytest.approx(math.sqrt(math.factorial(2) / math.factorial(5)), rel=1e-12)
    # large |l| must not underflow to zero
    assert beam(l=80).norm > 0.0


@pytest.mark.parametrize("p", [0, 1, 5, 10, 20, 40])
@pytest.mark.parametrize("l", [0, 1, 7, 30, 80])
def test_normalisation_up_to_large_p(l, p):
    """Int 2 pi rho U^2 drho = pi w0^2 / 2 in the focal plane, to 1e-6, for p
    up to 40 (the range laguerre_poly's docstring states).  Composite
    Simpson over 4001 radii out to x = 2 rho^2 / w0^2 = 4p + 2|l| + 60,
    where the integrand has fallen below 1e-9 of its peak."""
    b = beam(l=-l, p=p, direction=-1, focal_z=2e-5)
    rho = np.linspace(0.0, b.waist_w0 * math.sqrt(2.0 * p + l + 30.0), 4001)
    f = 2.0 * np.pi * rho * mode_amplitude(b, CylPoint(rho=rho, phi=0.0, z=2e-5)) ** 2
    h = rho[1] - rho[0]
    integral = h / 3.0 * (f[0] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum() + f[-1])
    assert integral == pytest.approx(0.5 * np.pi * b.waist_w0 ** 2, rel=1e-6)


def test_amplitude_on_axis():
    pt = CylPoint(rho=0.0, phi=0.4, z=1e-5)
    assert mode_amplitude(beam(l=1), pt) == 0.0
    assert mode_amplitude(beam(l=-4), pt) == 0.0
    # l = 0 Gaussian peak at the focus is amp_scale * C_00
    b = beam(l=0, amp_scale=1.7)
    assert mode_amplitude(b, CylPoint(rho=0.0, phi=0.0, z=0.0)) == pytest.approx(1.7, rel=1e-12)


def test_doughnut_peak_radius():
    """The p=0 radial intensity maximum sits at w(z) sqrt(|l|/2)."""
    for l, zfac in ((1, 0.0), (2, 0.5), (8, 1.0), (80, 0.3)):
        b = beam(l=l, w0=6 * WAVELENGTH)
        z = zfac * b.rayleigh_range
        w = waist_at(b, z)
        rho = np.linspace(0.05 * w, (math.sqrt(l / 2.0) + 2.0) * w, 4001)
        amp = mode_amplitude(b, CylPoint(rho=rho, phi=0.0, z=z))
        cell = rho[1] - rho[0]
        assert abs(rho[np.argmax(amp)] - w * math.sqrt(l / 2.0)) <= cell


def test_amplitude_drops_with_axial_distance():
    b = beam(l=2)
    ring = b.waist_w0
    a0 = mode_amplitude(b, CylPoint(rho=ring, phi=0.0, z=0.0))
    a1 = mode_amplitude(b, CylPoint(rho=ring, phi=0.0, z=2.0 * b.rayleigh_range))
    assert 0.0 < a1 < a0


def test_phase_at_focus_is_azimuthal_only():
    b = beam(l=3)
    for phi in (-2.0, 0.0, 0.9):
        pt = CylPoint(rho=5e-6, phi=phi, z=0.0)
        assert mode_phase(b, pt) == pytest.approx(3.0 * phi, abs=1e-12)
    b2 = beam(l=-3)
    pt = CylPoint(rho=5e-6, phi=0.9, z=0.0)
    assert mode_phase(b2, pt) == pytest.approx(-2.7, rel=1e-12)


def test_phase_on_axis_plane_plus_gouy():
    b = beam(l=80)
    zr = b.rayleigh_range
    pt = CylPoint(rho=0.0, phi=0.0, z=zr)
    # Gouy term at one Rayleigh range: -(|l|+1) atan(1) = -81 pi / 4
    want = b.wavenumber * zr - 81.0 * math.pi / 4.0
    assert mode_phase(b, pt) == pytest.approx(want, rel=1e-12)


def test_phase_counterpropagating_frame():
    """A -z beam accrues phase along its own travel direction."""
    d = 1e-4
    b = beam(l=2, direction=-1, focal_z=0.5 * d)
    zr = b.rayleigh_range
    z = 0.5 * d - zr          # one Rayleigh range downstream for this beam
    pt = CylPoint(rho=0.0, phi=0.0, z=z)
    want = -b.wavenumber * (z - 0.5 * d) - 3.0 * math.pi / 4.0
    assert mode_phase(b, pt) == pytest.approx(want, rel=1e-12)


def test_azimuthal_period():
    b = beam(l=5)
    pt1 = CylPoint(rho=7e-6, phi=0.3, z=2e-5)
    pt2 = CylPoint(rho=7e-6, phi=0.3 + 2.0 * math.pi / 5.0, z=2e-5)
    assert mode_amplitude(b, pt1) == mode_amplitude(b, pt2)
    dphi = mode_phase(b, pt2) - mode_phase(b, pt1)
    assert dphi == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_from_cartesian_round_trip():
    pt = CylPoint.from_cartesian(3.0e-6, -4.0e-6, 1.0e-5)
    assert pt.rho == pytest.approx(5.0e-6, rel=1e-12)
    assert pt.phi == pytest.approx(math.atan2(-4.0, 3.0), rel=1e-12)
    assert pt.z == 1.0e-5


@pytest.mark.parametrize("rho", [-1e-9, -math.inf, -2, np.float64(-1e-9), np.array(-1e-9),
                                 np.array([1e-6, -1e-9, 0.0])],
                         ids=["float", "-inf", "int", "float64", "0-d", "array"])
def test_point_rejects_negative_rho(rho):
    """Every scalar rho (a float, an int, a numpy scalar or a 0-d array)
    takes the one comparison, and only an ndarray with ndim >= 1 the array
    test; both refuse a negative value, and an array with one negative
    entry."""
    with pytest.raises(ValueError, match="rho must be >= 0"):
        CylPoint(rho=rho, phi=0.0, z=0.0)


@pytest.mark.parametrize("rho", [0.0, -0.0, math.nan, 0, np.float64(-0.0), np.float64(math.nan),
                                 np.array(-0.0), np.array([0.0, -0.0, math.nan, 1e-6])])
def test_point_accepts_zero_signed_zero_and_nan(rho):
    """-0.0 compares equal to 0, and NaN fails every comparison.  The point
    keeps the value and its sign bit, a scalar or 0-d rho as a Python float
    (exactly that type, not a numpy scalar) and an array rho as the
    caller's own array."""
    stored = CylPoint(rho=rho, phi=0.0, z=0.0).rho
    np.testing.assert_array_equal(stored, rho)
    np.testing.assert_array_equal(np.signbit(stored), np.signbit(rho))
    if np.ndim(rho):
        assert stored is rho
    else:
        assert type(stored) is float


def _is_scalar_conversion(node):
    """True for np.asarray(...)[()], a 0-d array's numpy scalar."""
    return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
            and not node.slice.elts and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "attr", None) == "asarray")


def _is_float_call(node):
    """True for float(...)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float")


def test_only_the_point_turns_a_coordinate_into_a_float():
    """The package forms no np.asarray(...)[()], and every float(...) of
    lg_mode but the one of ``_at`` (a ufunc's result) sits in
    CylPoint.__init__: the point stores each coordinate once, so no
    evaluation routine converts one per call."""
    stray, owned = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _is_scalar_conversion(node)]
        if path.name != "lg_mode.py":
            continue
        allowed = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "CylPoint":
                owner = next(fn for fn in node.body
                             if isinstance(fn, ast.FunctionDef) and fn.name == "__init__")
                allowed.update(dict.fromkeys(map(id, ast.walk(owner)), "point"))
            elif isinstance(node, ast.FunctionDef) and node.name == "_at":
                allowed.update(dict.fromkeys(map(id, ast.walk(node)), "ufunc"))
        for node in ast.walk(tree):
            if _is_float_call(node):
                if allowed.get(id(node)) == "point":
                    owned += 1
                elif id(node) not in allowed:
                    stray.append(f"{path.name}:{node.lineno}")
    assert stray == [] and owned == 1, stray


def test_spec_validation():
    with pytest.raises(ValueError):
        BeamSpec(wavelength=-1.0, waist_w0=8e-6, winding_l=1)
    with pytest.raises(ValueError):
        BeamSpec(wavelength=WAVELENGTH, waist_w0=0.0, winding_l=1)
    with pytest.raises(ValueError):
        BeamSpec(wavelength=WAVELENGTH, waist_w0=8e-6, winding_l=1, radial_p=-1)
    with pytest.raises(ValueError):
        BeamSpec(wavelength=WAVELENGTH, waist_w0=8e-6, winding_l=1, direction=2)
    with pytest.raises(ValueError):
        CylPoint(rho=-1e-9, phi=0.0, z=0.0)


@pytest.mark.parametrize("p", [41, 120, 150, 200])
def test_radial_index_beyond_40_is_rejected(p):
    """laguerre_poly is tested for p <= 40.  Beyond it its recurrence
    overflowed far out, and l = 1, w0 = 3 um, rho = 100 w0 gave a nan mode
    amplitude for p = 120, 150 and 200; the beam is now refused.  At p = 40
    that point is finite."""
    pt = CylPoint(rho=100.0 * 3e-6, phi=0.0, z=0.0)
    assert np.isfinite(mode_amplitude(beam(l=1, w0=3e-6, p=40), pt))
    with pytest.raises(ValueError, match="radial_p"):
        beam(l=1, w0=3e-6, p=p)


def envelope_residual(b, n_rho=201, n_z=81):
    """Residual of the discretized transverse-Laplacian + axial-drift balance
    of the slowly-varying envelope, normalized by the Laplacian magnitude."""
    k = b.wavenumber
    w0 = b.waist_w0
    zr = b.rayleigh_range
    l = abs(b.winding_l)

    def env(rho, phi, z_local):
        z_lab = b.focal_z + b.direction * z_local
        pt = CylPoint(rho=rho, phi=phi, z=z_lab)
        th = mode_phase(b, pt) - b.direction * k * (z_lab - b.focal_z)
        return mode_amplitude(b, pt) * np.exp(1j * th)

    rho = np.linspace(0.25 * w0, (math.sqrt(l / 2.0) + 1.8) * w0, n_rho)
    z = np.linspace(-zr, zr, n_z)
    hr, hz, hphi = w0 / 200.0, zr / 400.0, 1e-3
    R, Z = np.meshgrid(rho, z, indexing="ij")
    phi0 = 0.3
    f = lambda dr, dp, dz: env(R + dr, phi0 + dp, Z + dz)
    psi = f(0.0, 0.0, 0.0)
    lap = (f(hr, 0, 0) - 2.0 * psi + f(-hr, 0, 0)) / hr ** 2 \
        + (f(hr, 0, 0) - f(-hr, 0, 0)) / (2.0 * hr * R) \
        + (f(0, hphi, 0) - 2.0 * psi + f(0, -hphi, 0)) / (hphi ** 2 * R ** 2)
    ddz = (f(0, 0, hz) - f(0, 0, -hz)) / (2.0 * hz)
    res = lap + 2.0j * k * ddz
    return np.max(np.abs(res)) / np.max(np.abs(lap))


def test_envelope_equation_residual():
    assert envelope_residual(beam(l=4, w0=12 * WAVELENGTH)) < 1e-3
    assert envelope_residual(beam(l=0, w0=10 * WAVELENGTH)) < 1e-3


def grad5(f, h):
    return (8.0 * (f(h) - f(-h)) - (f(2.0 * h) - f(-2.0 * h))) / (12.0 * h)


def stencil_gradient(func, b, rho, phi, z):
    """[d/drho, (1/rho) d/dphi, d/dz] of func(b, pt) by five-point central
    differences."""
    f = lambda rr, pp, zz: func(b, CylPoint(rho=rr, phi=pp, z=zz))
    h = b.waist_w0 / 1000.0
    hz = b.rayleigh_range / 1000.0
    return np.stack([grad5(lambda s: f(rho + s, phi, z), h),
                     grad5(lambda s: f(rho, phi + s, z), h / rho) / rho,
                     grad5(lambda s: f(rho, phi, z + s), hz)])


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("l", [0, 1, 3, 80])
def test_mode_gradient_matches_stencil(l, p):
    """The closed-form gradients of amplitude and unwrapped phase agree with
    a five-point stencil around the bright rings, for both directions and a
    focal plane off the origin."""
    w0 = 6.0 * WAVELENGTH
    rng = np.random.default_rng(10 * l + p)
    for direction in (1, -1):
        b = beam(l=-direction * l, w0=w0, p=p, direction=direction,
                 focal_z=0.4 * direction * ZR_6LAM, amp_scale=1.3)
        z = b.focal_z + rng.uniform(-1.5, 1.5, 200) * ZR_6LAM
        w = waist_at(b, z - b.focal_z)
        rho = w * np.maximum(0.05, math.sqrt(0.5 * l + p) + rng.uniform(-2.0, 2.0, 200))
        phi = rng.uniform(-np.pi, np.pi, 200)
        got = mode_jet(b, CylPoint(rho=rho, phi=phi, z=z))[2:]
        for g, func in zip(got, (mode_amplitude, mode_phase)):
            want = stencil_gradient(func, b, rho, phi, z)
            assert g.shape == want.shape
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(g - want) <= 1e-7 * scale)


def test_mode_gradient_axis_convention():
    """On the axis the rho and phi components are 0 (an even extension in
    rho, no azimuthal slope); the axial components keep their closed forms."""
    for l, p in ((0, 0), (0, 2), (1, 0), (2, 1)):
        b = beam(l=l, p=p, focal_z=1e-4)
        for rho in (0.0, AXIS_RHO):
            pt = CylPoint(rho=rho, phi=0.7, z=3e-4)
            ga, gp = mode_jet(b, pt)[2:]
            assert ga[0] == 0.0 and ga[1] == 0.0
            assert gp[0] == 0.0 and gp[1] == 0.0
            zl = 3e-4 - 1e-4
            n = 2.0 * p + l + 1.0
            want_z = b.wavenumber - n * ZR_8UM / (zl * zl + ZR_8UM * ZR_8UM)
            assert gp[2] == pytest.approx(want_z, rel=1e-9)
            hz = ZR_8UM / 1000.0
            want_az = grad5(lambda s: mode_amplitude(b, CylPoint(rho, 0.7, 3e-4 + s)), hz)
            assert ga[2] == pytest.approx(want_az, rel=1e-8, abs=1e-300)
    # just off the axis the radial slope of the Gaussian tends to 0 as well
    b = beam(l=0)
    ga = mode_jet(b, CylPoint(rho=1e-12, phi=0.0, z=0.0))[2]
    assert abs(ga[0]) < 1e-6 * mode_amplitude(b, CylPoint(0.0, 0.0, 0.0)) / b.waist_w0
