import numpy as np
import pytest

from irsopt.streams import crandn


@pytest.mark.parametrize("shape", [(), 7, (3, 5), (4, 16, 2), (0, 3)])
@pytest.mark.parametrize("var", [1.0, 0.37, 2.5e-9])
def test_crandn_bits_match_reference_formula(shape, var):
    ref_rng, rng = np.random.default_rng(12), np.random.default_rng(12)
    scale = np.sqrt(var / 2.0)
    expected = scale * (ref_rng.standard_normal(shape) + 1j * ref_rng.standard_normal(shape))
    out = crandn(rng, shape, var)
    assert out.dtype == np.complex128 and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    # the stream is left where the reference formula leaves it
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_crandn_zero_variance_and_domain():
    out = crandn(np.random.default_rng(0), (2, 3), 0.0)
    assert np.all(out == 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        crandn(np.random.default_rng(0), 3, -1.0)
