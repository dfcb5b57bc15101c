import numpy as np
import pytest

from oracles import (
    bluestein_dft,
    bluestein_idft,
    dft_direct,
    radix2_fft,
    radix2_ifft,
)
from tsfrac import fourier


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestRadix2:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
    def test_matches_direct_dft(self, rng, n):
        x = random_complex(rng, n)
        ref = dft_direct(x)
        out = radix2_fft(x)
        assert np.max(np.abs(out - ref)) <= 1e-12 * max(np.abs(ref).max(), 1.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            radix2_fft(np.zeros(12))

    def test_roundtrip(self, rng):
        x = random_complex(rng, 128)
        back = radix2_ifft(radix2_fft(x))
        assert np.max(np.abs(back - x)) <= 1e-12 * np.abs(x).max()


class TestBluestein:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 12, 17, 31, 45, 63, 64])
    def test_matches_direct_dft(self, rng, n):
        x = random_complex(rng, n)
        ref = dft_direct(x)
        out = bluestein_dft(x)
        assert np.max(np.abs(out - ref)) <= 1e-12 * max(np.abs(ref).max(), 1.0)

    @pytest.mark.parametrize("n", [3, 12, 100, 255])
    def test_roundtrip_identity(self, rng, n):
        x = random_complex(rng, n)
        back = bluestein_idft(bluestein_dft(x))
        assert np.max(np.abs(back - x)) <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("n", [31, 127, 255, 511])
    def test_matches_production_engine(self, rng, n):
        # the reference stack and the production transforms must agree, so
        # either can serve as the other's oracle
        x = random_complex(rng, n)
        ref = fourier.fft(x)
        out = bluestein_dft(x)
        assert np.max(np.abs(out - ref)) <= 1e-11 * np.abs(ref).max()
