"""A norm refusal says how far the norm is from 1, even where ``.12g`` prints it as 1."""

import pytest

from singletlab import SystemShape, build_singlet_basis
from singletlab.nogo import verify_certificate_numerically


def test_zero_tolerance_refusal_shows_the_distance_from_one():
    # Seed 0's first (8,2) trial has norm 1 + 2**-52.
    basis = build_singlet_basis(SystemShape(8, 2))
    with pytest.raises(ValueError, match=r"state norm is 1, expected 1 within .* \(off by 2\.220e-16\)"):
        verify_certificate_numerically(basis, trials=5, seed=0, tol=0.0)
