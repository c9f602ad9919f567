"""Shared fixtures and independent oracles for the test suite."""

from types import SimpleNamespace

import numpy as np
import pytest

from maee import channel
from maee.channel import PathResponseMatrix, build_expansion, channel_vector, sample_instance
from maee.params import SystemParams


@pytest.fixture
def params():
    return SystemParams()


@pytest.fixture
def gain_reads(monkeypatch):
    """Records, from then on, the point count of each channel.gain_lattice build
    (lattices) and the number of positions of each channel.gain_eval call (evals)."""
    reads = SimpleNamespace(lattices=[], evals=[])
    lattice, evaluate = channel.gain_lattice, channel.gain_eval

    def counted_lattice(expansion, spacing, count):
        reads.lattices.append(count)
        return lattice(expansion, spacing, count)

    def counted_eval(expansion, x):
        reads.evals.append(np.size(x))
        return evaluate(expansion, x)

    monkeypatch.setattr(channel, "gain_lattice", counted_lattice)
    monkeypatch.setattr(channel, "gain_eval", counted_eval)
    return reads


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
    return PathResponseMatrix(np.array([[1.0 + 0j], [1.0 + 0j]]), np.array([0.0, 0.5]))


def single_path_instance(response=2.0, num_antennas=3):
    """One path with zero virtual angle: the gain is position independent."""
    entries = np.full((1, num_antennas), response, dtype=complex)
    return PathResponseMatrix(entries, np.array([0.0]))


def direct_gain(instance, wavelength, xs):
    """Oracle: squared channel norm straight from the matrix definition."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    steering = np.exp(2j * np.pi / wavelength
                      * np.outer(xs, instance.virtual_aoa))
    h = steering @ instance.entries.conj()
    return np.sum(np.abs(h) ** 2, axis=1)


def field_response(virtual_aoa, wavelength, x):
    """Steering vector exp(j 2 pi x virtual_aoa / wavelength) of the given paths.

    Read off channel_vector with an identity response matrix, whose channel
    vector is the steering vector itself.
    """
    virtual_aoa = np.asarray(virtual_aoa, dtype=float)
    identity = PathResponseMatrix(np.eye(virtual_aoa.size, dtype=complex), virtual_aoa)
    return channel_vector(build_expansion(identity, wavelength), x)
