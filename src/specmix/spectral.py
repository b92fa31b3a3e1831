"""Discrete Fourier/Hartley transforms and parameter-free 2D token mixing.

All transforms use the unnormalized forward convention

    y_k = sum_n x_n * exp(-2j*pi*n*k/N)        (Fourier)
    y_k = sum_n x_n * cas(2*pi*n*k/N)          (Hartley, cas(t) = cos(t) + sin(t))

so the Hartley transform is an involution up to a factor N, and any global
scale difference with other conventions is absorbed downstream by layer
normalization. The transforms are computed with ``scipy.fft`` in
O(N log N) for every length. ``dft_naive`` and ``dht_naive`` evaluate the
kernels directly in O(N^2) and serve as oracles for them.

The 2D mixing used by the encoders takes the 2D DFT over the sequence and
hidden axes and propagates a real-valued projection of the complex result.
Five projections are supported, selected by :class:`MixingKind`. All of them
map real input to real output and carry no parameters. Hartley mixing is
Re - Im of the 2D DFT, which equals the true 2D cas-kernel transform (cas(a+b)
cross terms included); it is deliberately not the separable product of two 1D
Hartley transforms, which is a different map.

Everything here is a pure function of its inputs; float64 throughout.
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.fft

from .errors import ShapeError

__all__ = [
    "MixingKind",
    "dft_naive",
    "fft",
    "dht_naive",
    "fht",
    "mix2d",
    "mix2d_vjp",
]


class MixingKind(str, enum.Enum):
    """Real-valued projection applied to the 2D spectrum during mixing.

    Each member is its own JSON label, so configs store and compare it as a string.
    """

    FOURIER_REAL = "fourier-real"   # Re(F)
    HARTLEY = "hartley"             # Re(F) - Im(F)
    FOURIER_IMAG = "fourier-imag"   # Im(F)
    MODULUS = "modulus"             # |F|
    PHASE = "phase"                 # atan2(Im F, Re F)

    @property
    def is_linear(self) -> bool:
        """True for the kinds whose mixing map is linear in the input."""
        return self in (MixingKind.FOURIER_REAL, MixingKind.HARTLEY, MixingKind.FOURIER_IMAG)


def _check_length(x: np.ndarray) -> None:
    if x.shape[-1] < 1:
        raise ShapeError(f"transform length must be >= 1, got shape {x.shape}")


def dft_naive(x) -> np.ndarray:
    """Direct O(N^2) DFT, y_k = sum_n x_n exp(-2j*pi*n*k/N).

    Oracle for :func:`fft`. Accepts real or complex input; returns complex128.
    """
    x = np.asarray(x, dtype=np.complex128)
    _check_length(x)
    n = x.shape[-1]
    k = np.arange(n)
    # reducing k*m mod n before scaling keeps the phase exact for large n
    return x @ np.exp((-2j * np.pi / n) * (np.outer(k, k) % n))


def fft(x) -> np.ndarray:
    """Fast DFT along the last axis with the same value contract as :func:`dft_naive`."""
    x = np.asarray(x, dtype=np.complex128)
    _check_length(x)
    return scipy.fft.fft(x)


def dht_naive(x) -> np.ndarray:
    """Direct O(N^2) discrete Hartley transform, y_k = sum_n x_n cas(2*pi*n*k/N)."""
    x = np.asarray(x, dtype=np.float64)
    _check_length(x)
    n = x.shape[-1]
    k = np.arange(n)
    theta = (2.0 * np.pi / n) * (np.outer(k, k) % n)
    return x @ (np.cos(theta) + np.sin(theta))


def fht(x) -> np.ndarray:
    """Fast Hartley transform of a real sequence, computed as Re(fft) - Im(fft)."""
    x = np.asarray(x, dtype=np.float64)
    _check_length(x)
    f = scipy.fft.fft(x)
    return f.real - f.imag


def _check_matrix(x: np.ndarray) -> None:
    if x.ndim < 2 or x.shape[-2] < 1 or x.shape[-1] < 1:
        raise ShapeError(f"mixing expects [..., L, H] with L, H >= 1, got shape {x.shape}")


def mix2d(x, kind: MixingKind) -> np.ndarray:
    """Parameter-free token mixing: real projection of the 2D spectrum of x.

    x is real (sequence length, hidden dim), or a batch [..., L, H] of such
    matrices, each mixed on its own over its last two axes (``fft2``'s
    default axes); the result has x's shape.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_matrix(x)
    f = scipy.fft.fft2(x)
    if kind is MixingKind.FOURIER_REAL:
        return np.ascontiguousarray(f.real)
    if kind is MixingKind.HARTLEY:
        return f.real - f.imag
    if kind is MixingKind.FOURIER_IMAG:
        return np.ascontiguousarray(f.imag)
    if kind is MixingKind.MODULUS:
        return np.abs(f)
    if kind is MixingKind.PHASE:
        # -0.0 + 0.0 is +0.0: a real negative entry maps to +pi whatever the
        # sign of its zero imaginary part
        return np.arctan2(f.imag + 0.0, f.real)
    raise ValueError(f"unhandled mixing kind {kind!r}")


def mix2d_vjp(kind: MixingKind, x, grad_out) -> np.ndarray:
    """Vector-Jacobian product of :func:`mix2d` at x applied to grad_out, batched as mix2d is.

    The linear kinds have kernels cos/cas/-sin of 2*pi*(n*k/L + m*h/H), which
    are symmetric under swapping input and output indices, so their VJP is the
    forward map applied to the cotangent and x is not touched. Modulus and
    Phase chain the elementwise derivative through the transform adjoint; the
    Modulus (and Phase) derivative at a zero spectrum element is defined as 0.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if kind.is_linear:
        return mix2d(grad_out, kind)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != grad_out.shape:
        raise ShapeError(f"x shape {x.shape} != grad_out shape {grad_out.shape}")
    _check_matrix(x)
    f = scipy.fft.fft2(x)
    re, im = f.real, f.imag
    if kind is MixingKind.MODULUS:
        r = np.abs(f)
        safe = np.where(r > 0.0, r, 1.0)
        u = np.where(r > 0.0, grad_out * re / safe, 0.0)
        v = np.where(r > 0.0, grad_out * im / safe, 0.0)
    elif kind is MixingKind.PHASE:
        rho2 = re * re + im * im
        safe = np.where(rho2 > 0.0, rho2, 1.0)
        u = np.where(rho2 > 0.0, -grad_out * im / safe, 0.0)
        v = np.where(rho2 > 0.0, grad_out * re / safe, 0.0)
    else:
        raise ValueError(f"unhandled mixing kind {kind!r}")
    # sum_kh u*cos(theta) - v*sin(theta) == Re(DFT2(u - i v)) by kernel symmetry
    return np.ascontiguousarray(scipy.fft.fft2(u - 1j * v).real)
