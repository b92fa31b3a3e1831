"""Spectral transforms walkthrough
=================================

The fast Fourier and Hartley transforms against their quadratic-time
kernels, the identities that make the Hartley transform attractive for
token mixing, and the five real-valued 2D mixing outputs side by side.

Run with: python3 demos/spectral_transforms.py
"""

import numpy as np

from specmix import MixingKind, dft_naive, dht_naive, fft, fht, mix2d

rng = np.random.default_rng(7)

# fast paths agree with the direct O(N^2) kernels, including non-powers of two
for n in (1, 12, 64, 100, 256):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = rng.normal(size=n)
    err_f = np.max(np.abs(fft(z) - dft_naive(z)))
    err_h = np.max(np.abs(fht(x) - dht_naive(x)))
    print(f"N={n:4d}  fft vs naive {err_f:.2e}   fht vs naive {err_h:.2e}")

# the Hartley transform is real-to-real and self-inverse up to a factor N,
# so no inverse pass and no complex storage are ever needed
x = rng.normal(size=32)
roundtrip = fht(fht(x)) / 32.0
print(f"\nfht(fht(x))/N recovers x: max err {np.max(np.abs(roundtrip - x)):.2e}")

# unnormalized transforms scale total energy by N (Parseval)
energy_in = np.sum(x ** 2)
energy_spec = np.sum(fht(x) ** 2) / 32.0
print(f"energy: input {energy_in:.6f}  spectral/N {energy_spec:.6f}")

# 2D mixing: transform along the hidden axis, then the sequence axis, and
# keep a real projection of the complex result; no parameters anywhere
grid = rng.normal(size=(4, 6))
print(f"\n2D mixing of a {grid.shape} token grid, one row per kind:")
for kind in MixingKind:
    mixed = mix2d(grid, kind)
    print(f"  {kind.value:12s} first row {np.array2string(mixed[0], precision=3)}")

# the Hartley kind equals Re - Im of the 2D Fourier transform
re = mix2d(grid, MixingKind.FOURIER_REAL)
im = mix2d(grid, MixingKind.FOURIER_IMAG)
ha = mix2d(grid, MixingKind.HARTLEY)
print(f"\nhartley == real - imag: max err {np.max(np.abs(ha - (re - im))):.2e}")
