"""Transform oracles and mixing-variant properties."""

import numpy as np
import pytest

from specmix.errors import ShapeError
from specmix.spectral import (
    MixingKind,
    dft_naive,
    dht_naive,
    fft,
    fht,
    mix2d,
    mix2d_vjp,
)

LINEAR_KINDS = [MixingKind.FOURIER_REAL, MixingKind.HARTLEY, MixingKind.FOURIER_IMAG]
ALL_KINDS = list(MixingKind)


def dft2_oracle(x):
    """Direct double-sum 2D DFT, O((LH)^2). Independent of the library path."""
    L, H = x.shape
    n = np.arange(L)[:, None, None, None]
    m = np.arange(H)[None, :, None, None]
    k = np.arange(L)[None, None, :, None]
    h = np.arange(H)[None, None, None, :]
    theta = 2.0 * np.pi * (n * k / L + m * h / H)
    kernel = np.exp(-1j * theta)
    return np.einsum("nm,nmkh->kh", x.astype(complex), kernel)


def cas2_oracle(x):
    """Direct 2D cas-kernel transform: sum x[n,m] * cas(2pi(nk/L + mh/H))."""
    L, H = x.shape
    n = np.arange(L)[:, None, None, None]
    m = np.arange(H)[None, :, None, None]
    k = np.arange(L)[None, None, :, None]
    h = np.arange(H)[None, None, None, :]
    theta = 2.0 * np.pi * (n * k / L + m * h / H)
    return np.einsum("nm,nmkh->kh", x, np.cos(theta) + np.sin(theta))


class TestDftNaive:
    def test_impulse_flat_spectrum(self):
        y = dft_naive([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(y.real, [1, 1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(y.imag, 0.0, atol=1e-12)

    def test_constant_dc_only(self):
        y = dft_naive([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(y.real, [4, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(y.imag, 0.0, atol=1e-12)

    def test_shifted_impulse(self):
        # direct evaluation of exp(-2j*pi*k/4): 1, -i, -1, i
        y = dft_naive([0.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(y.real, [1, 0, -1, 0], atol=1e-12)
        np.testing.assert_allclose(y.imag, [0, -1, 0, 1], atol=1e-12)

    def test_matches_external_fft_convention(self):
        # one independent guard that the oracle itself uses the unnormalized
        # exp(-2j*pi*nk/N) convention
        rng = np.random.default_rng(7)
        x = rng.normal(size=24) + 1j * rng.normal(size=24)
        np.testing.assert_allclose(dft_naive(x), np.fft.fft(x), atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            dft_naive(np.zeros(0))


class TestFft:
    def test_impulse(self):
        np.testing.assert_allclose(fft([1.0, 0, 0, 0]).real, [1, 1, 1, 1], atol=1e-12)

    @pytest.mark.parametrize("n", list(range(1, 65)) + [128, 1024, 4096])
    def test_matches_naive_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(fft(x), dft_naive(x), atol=1e-9)

    def test_long_impulse_flat(self):
        x = np.zeros(4096)
        x[0] = 1.0
        y = fft(x)
        np.testing.assert_allclose(y.real, 1.0, atol=1e-12)
        np.testing.assert_allclose(y.imag, 0.0, atol=1e-12)


class TestDhtNaive:
    def test_impulse(self):
        np.testing.assert_allclose(dht_naive([1.0, 0, 0, 0]), [1, 1, 1, 1], atol=1e-12)

    def test_shifted_impulse(self):
        # cas(2*pi*k/4) for k = 0..3
        np.testing.assert_allclose(dht_naive([0.0, 1, 0, 0]), [1, 1, -1, -1], atol=1e-12)

    def test_ramp(self):
        np.testing.assert_allclose(dht_naive([1.0, 2, 3, 4]), [10, -4, -2, 0], atol=1e-12)


class TestFht:
    def test_shifted_impulse(self):
        # Re([1, 0, -1, 0]) - Im([0, -1, 0, 1])
        np.testing.assert_allclose(fht([0.0, 1, 0, 0]), [1, 1, -1, -1], atol=1e-12)

    def test_involution(self):
        np.testing.assert_allclose(fht(fht([1.0, 2, 3, 4])), [4, 8, 12, 16], atol=1e-9)

    def test_constant(self):
        x = np.full(16, 0.37)
        y = fht(x)
        np.testing.assert_allclose(y[0], 16 * 0.37, atol=1e-12)
        np.testing.assert_allclose(y[1:], 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", list(range(1, 65)) + [128, 1024, 4096])
    def test_matches_naive_oracle(self, n):
        rng = np.random.default_rng(200 + n)
        x = rng.normal(size=n)
        np.testing.assert_allclose(fht(x), dht_naive(x), atol=1e-9)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_involution_sweep(self, n):
        rng = np.random.default_rng(300 + n)
        x = rng.normal(size=n)
        tol = 1e-9 * n * max(1.0, np.abs(x).max())
        np.testing.assert_allclose(fht(fht(x)), n * x, atol=tol)

    def test_equals_re_minus_im_of_fft(self):
        rng = np.random.default_rng(11)
        for n in (5, 8, 24, 64):
            x = rng.normal(size=n)
            f = fft(x)
            np.testing.assert_allclose(fht(x), f.real - f.imag, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33, 64])
    def test_parseval(self, n):
        rng = np.random.default_rng(400 + n)
        x = rng.normal(size=n)
        y = dht_naive(x)
        np.testing.assert_allclose(np.sum(y**2), n * np.sum(x**2), rtol=1e-9)


class TestMix2d:
    def test_one_by_one_is_identity_or_zero(self):
        x = np.array([[2.5]])
        np.testing.assert_allclose(mix2d(x, MixingKind.FOURIER_REAL), [[2.5]])
        np.testing.assert_allclose(mix2d(x, MixingKind.HARTLEY), [[2.5]])
        np.testing.assert_allclose(mix2d(x, MixingKind.FOURIER_IMAG), [[0.0]])

    def test_hartley_matches_2d_cas_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 2))
        np.testing.assert_allclose(mix2d(x, MixingKind.HARTLEY), cas2_oracle(x), atol=1e-9)

    def test_hartley_oracle_sweep(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            L = int(rng.integers(1, 17))
            H = int(rng.integers(1, 17))
            x = rng.normal(size=(L, H))
            np.testing.assert_allclose(mix2d(x, MixingKind.HARTLEY), cas2_oracle(x), atol=1e-9)

    def test_hartley_is_not_separable_1d_product(self):
        # composition of two 1D DHTs differs from the true 2D cas transform
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 4))
        separable = np.apply_along_axis(dht_naive, 0, np.apply_along_axis(dht_naive, 1, x))
        assert not np.allclose(mix2d(x, MixingKind.HARTLEY), separable, atol=1e-6)

    @pytest.mark.parametrize(
        "kind,proj",
        [
            (MixingKind.FOURIER_REAL, lambda f: f.real),
            (MixingKind.FOURIER_IMAG, lambda f: f.imag),
            (MixingKind.MODULUS, np.abs),
            (MixingKind.PHASE, lambda f: np.arctan2(f.imag, f.real)),
        ],
    )
    def test_matches_2d_dft_oracle(self, kind, proj):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 5))
        np.testing.assert_allclose(mix2d(x, kind), proj(dft2_oracle(x)), atol=1e-9)

    @pytest.mark.parametrize("kind", LINEAR_KINDS)
    def test_linearity(self, kind):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(8, 6))
        y = rng.normal(size=(8, 6))
        a, b = 1.7, -0.3
        lhs = mix2d(a * x + b * y, kind)
        rhs = a * mix2d(x, kind) + b * mix2d(y, kind)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_real_output_for_real_input(self, kind):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(7, 9))
        y = mix2d(x, kind)
        assert y.dtype == np.float64
        assert np.isfinite(y).all()
        assert y.shape == x.shape


class TestMix2dVjp:
    @pytest.mark.parametrize("kind", LINEAR_KINDS)
    def test_symmetric_kernel_identity(self, kind):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 6))
        g = rng.normal(size=(5, 6))
        np.testing.assert_allclose(mix2d_vjp(kind, x, g), mix2d(g, kind), atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_finite_difference(self, kind):
        # scalar loss sum(mix2d(x) * W); central differences with step 1e-6
        rng = np.random.default_rng(14)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 3))
        grad = mix2d_vjp(kind, x, w)
        h = 1e-6
        fd = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp = x.copy()
            xp[idx] += h
            xm = x.copy()
            xm[idx] -= h
            fd[idx] = (np.sum(mix2d(xp, kind) * w) - np.sum(mix2d(xm, kind) * w)) / (2 * h)
        tol = 1e-6 if kind.is_linear else 1e-4
        err = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10)
        assert err <= tol

    def test_modulus_zero_spectrum_subgradient(self):
        # all-zero input has an all-zero spectrum; the chosen subgradient is 0
        x = np.zeros((3, 4))
        g = np.ones((3, 4))
        np.testing.assert_allclose(mix2d_vjp(MixingKind.MODULUS, x, g), 0.0)


def _naive_dft2(x):
    """2D DFT from the 1D oracle applied along the hidden axis, then the sequence axis."""
    return dft_naive(dft_naive(x).T).T


def _project(kind, f):
    if kind is MixingKind.FOURIER_REAL:
        return f.real
    if kind is MixingKind.HARTLEY:
        return f.real - f.imag
    if kind is MixingKind.FOURIER_IMAG:
        return f.imag
    if kind is MixingKind.MODULUS:
        return np.abs(f)
    return np.arctan2(f.imag, f.real)


def _scaled_gap(got, want):
    """Max abs gap on the orthonormal scale, i.e. divided by sqrt(L*H)."""
    return np.max(np.abs(got - want)) / np.sqrt(got.size)


# Lengths the long-document and summarize workloads feed the encoder: not
# powers of two, and far past the 16 x 16 the oracle tests above reach.
WORKLOAD_SHAPES = [(1000, 96), (1740, 96)]


@pytest.fixture(scope="module", params=WORKLOAD_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def workload_case(request):
    x = np.random.default_rng(request.param[0]).normal(size=request.param)
    return x, _naive_dft2(x)


class TestMixingAtWorkloadShapes:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_mix2d_matches_naive_dft2(self, workload_case, kind):
        x, f = workload_case
        got, want = mix2d(x, kind), _project(kind, f)
        if kind is MixingKind.PHASE:
            # at the Nyquist entries the oracle's imaginary part is rounding
            # noise of either sign, which puts a real negative entry at +pi or
            # -pi, the same angle; compare angles modulo 2*pi
            got = want + np.angle(np.exp(1j * (got - want)))
        assert _scaled_gap(got, want) <= 1e-9

    def test_phase_at_negative_dc_is_plus_pi(self):
        # the DC entry of a negative-sum input is real and negative; scipy's
        # FFT gives it a -0.0 imaginary part where the oracle gives +0.0
        x = np.random.default_rng(5).normal(size=(1000, 96)) - 0.5
        assert mix2d(x, MixingKind.PHASE)[0, 0] == np.pi
        assert _project(MixingKind.PHASE, _naive_dft2(x))[0, 0] == np.pi

    @pytest.mark.parametrize("kind", [MixingKind.MODULUS, MixingKind.PHASE])
    def test_vjp_matches_naive_dft2(self, workload_case, kind):
        x, f = workload_case
        g = np.random.default_rng(x.shape[0] + 1).normal(size=x.shape)
        # d proj / d(Re F, Im F), then the adjoint of the 2D DFT: Re(DFT2(u - i v))
        if kind is MixingKind.MODULUS:
            u, v = g * f.real / np.abs(f), g * f.imag / np.abs(f)
        else:
            rho2 = np.abs(f) ** 2
            u, v = -g * f.imag / rho2, g * f.real / rho2
        want = _naive_dft2(u - 1j * v).real
        assert _scaled_gap(mix2d_vjp(kind, x, g), want) <= 1e-9
