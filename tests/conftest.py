"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest

from maee.channel import PathAngles, PathResponseMatrix, channel_vector, sample_instance
from maee.params import SystemParams


@pytest.fixture
def params():
    return SystemParams()


def make_instance(seed, params=None):
    """Random instance from a fixed seed, default scenario unless given."""
    params = params or SystemParams()
    return sample_instance(params, np.random.default_rng(seed))


def hand_instance():
    """Two paths, one antenna, unit responses, virtual angles 0 and 1/2.

    The Gram matrix E E^H is all ones and the wavenumbers are (0, 100 pi) at
    wavelength 0.01, so the gain is 2 + 2 cos(100 pi x) and every quantity
    of it is hand-computable.
    """
    angles = PathAngles(
        elevation=np.array([0.0, np.pi / 2]),
        azimuth=np.array([0.0, np.pi / 3]),
        virtual_aoa=np.array([0.0, 0.5]),
    )
    return PathResponseMatrix(np.array([[1.0 + 0j], [1.0 + 0j]]), angles)


def single_path_instance(response=2.0, num_antennas=3):
    """One path with zero virtual angle: the gain is position independent."""
    angles = PathAngles(
        elevation=np.array([0.0]),
        azimuth=np.array([0.0]),
        virtual_aoa=np.array([0.0]),
    )
    entries = np.full((1, num_antennas), response, dtype=complex)
    return PathResponseMatrix(entries, angles)


def direct_gain(instance, wavelength, xs):
    """Oracle: squared channel norm straight from the matrix definition."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    steering = np.exp(2j * np.pi / wavelength
                      * np.outer(xs, instance.angles.virtual_aoa))
    h = steering @ instance.entries.conj()
    return np.sum(np.abs(h) ** 2, axis=1)


def slope_amplitude(instance, wavelength, tx):
    """tx * sum_{a != b} |G_ab| |k_a - k_b| over the Gram matrix G = E E^H.

    The sum of the path-pair amplitudes of the scaled gain's slope: no
    position has a steeper one.
    """
    gram = instance.entries @ instance.entries.conj().T
    k = 2.0 * np.pi / wavelength * instance.angles.virtual_aoa
    return float(tx * np.sum(np.abs(gram) * np.abs(k[:, None] - k)))


def field_response(angles, wavelength, x):
    """Steering vector exp(j 2 pi x virtual_aoa / wavelength) of the given paths.

    Read off channel_vector with an identity response matrix, whose channel
    vector is the steering vector itself.
    """
    identity = PathResponseMatrix(np.eye(angles.num_paths, dtype=complex), angles)
    return channel_vector(identity, wavelength, x)
