"""Field-response channel model for a single movable receive antenna.

A propagation environment is a fixed set of L plane-wave paths, each with an
elevation/azimuth arrival direction and one complex response coefficient per
base-station antenna. The channel seen at antenna position x is the
conjugate-transposed path-response matrix applied to a unit-modulus steering
vector whose phases grow linearly in x, and the power gain is its squared
norm. gain_eval computes that norm directly, a block of positions at a time.
The same gain expands into a cosine series in x (one term per ordered path
pair) whose coefficients are precomputed once per environment; the
derivative and curvature quantities used by the position optimizer come
from that series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import SystemParams

# Positions per block of a grid evaluation, so that the steering matrix of
# one block (at most _GAIN_BLOCK x L entries) bounds gain_eval's memory
# whatever the grid length.
_GAIN_BLOCK = 2048


@dataclass(frozen=True)
class PathAngles:
    """Per-path arrival geometry.

    The virtual angles sin(elevation) * cos(azimuth) are stored alongside the
    angles they derive from.
    """

    elevation: np.ndarray
    azimuth: np.ndarray
    virtual_aoa: np.ndarray

    def __post_init__(self) -> None:
        for name in ("elevation", "azimuth", "virtual_aoa"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        num = self.elevation.shape[0]
        if self.elevation.ndim != 1 or num < 1:
            raise ValueError("need at least one path")
        if self.azimuth.shape != (num,) or self.virtual_aoa.shape != (num,):
            raise ValueError("angle arrays must share one length")
        if np.any(np.abs(self.virtual_aoa) > 1.0 + 1e-12):
            raise ValueError("virtual angles must lie in [-1, 1]")

    @property
    def num_paths(self) -> int:
        return self.elevation.shape[0]

    @classmethod
    def from_spherical(cls, elevation, azimuth) -> "PathAngles":
        elevation = np.asarray(elevation, dtype=float)
        azimuth = np.asarray(azimuth, dtype=float)
        return cls(elevation, azimuth, np.sin(elevation) * np.cos(azimuth))


@dataclass(frozen=True)
class PathResponseMatrix:
    """L x N complex response coefficients plus the path arrival angles."""

    entries: np.ndarray
    angles: PathAngles

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-D matrix")
        if entries.shape[0] != self.angles.num_paths:
            raise ValueError("row count must equal the number of paths")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "entries", entries)

    @property
    def num_paths(self) -> int:
        return self.entries.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.entries.shape[1]


def sample_instance(params: SystemParams, rng: np.random.Generator) -> PathResponseMatrix:
    """Draw a random propagation environment.

    Response coefficients are i.i.d. circularly symmetric complex Gaussian
    with variance pathloss_ref * distance**-pathloss_exp / num_paths; the
    elevation and azimuth angles are i.i.d. uniform on [0, pi]. The draw
    order is fixed so a seeded generator reproduces an instance bit for bit.
    """
    num_paths, num_antennas = params.num_paths, params.num_bs_antennas
    elevation = rng.uniform(0.0, np.pi, num_paths)
    azimuth = rng.uniform(0.0, np.pi, num_paths)
    scale = np.sqrt(params.path_gain_variance / 2.0)
    real = rng.standard_normal((num_paths, num_antennas))
    imag = rng.standard_normal((num_paths, num_antennas))
    return PathResponseMatrix(
        entries=(real + 1j * imag) * scale,
        angles=PathAngles.from_spherical(elevation, azimuth),
    )


def _wavenumbers(angles: PathAngles, wavelength: float) -> np.ndarray:
    """Phase slopes 2 pi virtual_aoa / wavelength of the steering vector, in rad/m."""
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    return 2.0 * np.pi / wavelength * angles.virtual_aoa


def _channel_rows(wavenumbers: np.ndarray, response_conj: np.ndarray, x) -> np.ndarray:
    """The steering product F conj(E): channel vectors at a float or a column x.

    F stacks the unit-modulus steering rows exp(j x wavenumbers): a float x
    gives one channel vector, a column of positions one row per position.
    """
    return np.exp((1j * x) * wavenumbers) @ response_conj


def channel_vector(instance: PathResponseMatrix, wavelength: float, x: float) -> np.ndarray:
    """Channel vector at position x, one entry per base-station antenna."""
    return _channel_rows(_wavenumbers(instance.angles, wavelength),
                         instance.entries.conj(), x)


@dataclass(frozen=True)
class GainExpansion:
    """Precomputed forms of the channel power gain of one environment.

    gain_eval evaluates the gain directly as |F(x) response_conj|^2, with F
    the steering rows exp(j x wavenumbers) and response_conj = conj(E). The
    derivatives and the curvature bound use the closed-form cosine series

    gain(x) = constant
              + sum_k 2 |cross_k| cos(2 pi x delta_aoa_k / wavelength + angle(cross_k))

    with one term per ordered path pair a < b: cross_k correlates the two
    paths' response rows and delta_aoa_k is the virtual-angle difference.
    """

    constant: float
    cross: np.ndarray
    delta_aoa: np.ndarray
    wavelength: float
    wavenumbers: np.ndarray
    response_conj: np.ndarray
    cross_mag: np.ndarray = field(init=False)
    cross_phase: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cross", np.asarray(self.cross, dtype=complex))
        object.__setattr__(self, "delta_aoa", np.asarray(self.delta_aoa, dtype=float))
        object.__setattr__(self, "cross_mag", np.abs(self.cross))
        object.__setattr__(self, "cross_phase", np.angle(self.cross))

    @property
    def num_pairs(self) -> int:
        return self.cross.shape[0]


def build_expansion(instance: PathResponseMatrix, wavelength: float) -> GainExpansion:
    """Precompute the direct form and the series coefficients for one environment."""
    wavenumbers = _wavenumbers(instance.angles, wavelength)
    entries = instance.entries
    pair_a, pair_b = np.triu_indices(instance.num_paths, k=1)
    if pair_a.size:
        cross = np.einsum("kn,kn->k", entries[pair_a], entries[pair_b].conj())
    else:
        cross = np.zeros(0, dtype=complex)
    virtual = instance.angles.virtual_aoa
    return GainExpansion(
        constant=float(np.sum(np.abs(entries) ** 2)),
        cross=cross,
        delta_aoa=virtual[pair_b] - virtual[pair_a],
        wavelength=wavelength,
        wavenumbers=wavenumbers,
        response_conj=entries.conj(),
    )


def _phases(expansion: GainExpansion, x_arr: np.ndarray) -> np.ndarray:
    k = 2.0 * np.pi / expansion.wavelength
    return np.multiply.outer(x_arr, k * expansion.delta_aoa) + expansion.cross_phase


def gain_eval(expansion: GainExpansion, x) -> float | np.ndarray:
    """Channel power gain |F(x) conj(E)|^2 at position(s) x, in the direct form.

    A single position takes one steering vector; an array is worked through
    in blocks of _GAIN_BLOCK positions. A single path gives the constant
    exactly.
    """
    x_arr = np.asarray(x, dtype=float)
    if expansion.num_pairs == 0:
        out = np.full(x_arr.shape, expansion.constant)
    elif x_arr.size == 1:
        h = _channel_rows(expansion.wavenumbers, expansion.response_conj, x_arr.item())
        gain = np.vdot(h, h).real
        out = np.full(x_arr.shape, gain) if x_arr.ndim else gain
    else:
        flat = x_arr.reshape(-1)
        out = np.empty(flat.size)
        for start in range(0, flat.size, _GAIN_BLOCK):
            stop = start + _GAIN_BLOCK
            rows = _channel_rows(expansion.wavenumbers, expansion.response_conj,
                                 flat[start:stop, None]).view(np.float64)
            out[start:stop] = np.einsum("ij,ij->i", rows, rows)
        out = out.reshape(x_arr.shape)
    return float(out) if out.ndim == 0 else out


def gain_series(expansion: GainExpansion, x) -> float | np.ndarray:
    """Channel power gain at position(s) x via the cosine series.

    The same function as gain_eval, in the form that gain_derivative,
    gain_second_derivative and curvature_bound differentiate; maee check
    compares the two.
    """
    out = (expansion.constant
           + np.cos(_phases(expansion, np.asarray(x, dtype=float))) @ (2.0 * expansion.cross_mag))
    return float(out) if out.ndim == 0 else out


def gain_derivative(expansion: GainExpansion, tx_power: float, x) -> float | np.ndarray:
    """First derivative of tx_power * gain with respect to position."""
    if tx_power <= 0:
        raise ValueError(f"tx_power must be positive, got {tx_power}")
    coeff = (4.0 * np.pi * tx_power / expansion.wavelength
             * expansion.cross_mag * expansion.delta_aoa)
    out = -np.sin(_phases(expansion, np.asarray(x, dtype=float))) @ coeff
    return float(out) if out.ndim == 0 else out


def gain_second_derivative(expansion: GainExpansion, tx_power: float, x) -> float | np.ndarray:
    """Second derivative of tx_power * gain with respect to position."""
    if tx_power <= 0:
        raise ValueError(f"tx_power must be positive, got {tx_power}")
    coeff = (8.0 * np.pi**2 * tx_power / expansion.wavelength**2
             * expansion.cross_mag * expansion.delta_aoa**2)
    out = -np.cos(_phases(expansion, np.asarray(x, dtype=float))) @ coeff
    return float(out) if out.ndim == 0 else out


def curvature_bound(expansion: GainExpansion, tx_power: float) -> float:
    """Constant dominating |second derivative| of the scaled gain everywhere.

    Sum of the per-pair curvature amplitudes. A single path has none, so its
    position-independent gain gets exactly 0; the bound carries the scale of
    the instance, with no absolute floor.
    """
    if tx_power <= 0:
        raise ValueError(f"tx_power must be positive, got {tx_power}")
    return float(np.sum(8.0 * np.pi**2 * tx_power / expansion.wavelength**2
                        * expansion.cross_mag * expansion.delta_aoa**2))

