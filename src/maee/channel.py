"""Field-response channel model for a single movable receive antenna.

A propagation environment is a fixed set of L plane-wave paths, each with a
virtual arrival angle sin(elevation) cos(azimuth) and one complex response
coefficient per base-station antenna. The channel at antenna position x is
h(x) = f(x) conj(E), the conjugated path-response matrix applied to a
unit-modulus steering vector f(x) whose phases grow linearly in x; the power
gain is |h(x)|^2. The gain has three forms: the point read, one steering row
per position, which every search, scheme and check reads at a position; the
lattice m * spacing, which every grid search reads; and the Gram series, the
independent reference of the checks. The lattice and the series work through
a block of positions at a time, and the curvature bound and the series read
the path-pair Gram matrix E E^H a block of rows at a time, so memory stays
bounded for any grid length or path count. On the lattice the steering row
factors, f(m spacing) = f(q B spacing) * f(r spacing) for m = q B + r, so
gain_lattice builds its rows from two small steering tables instead of one
complex exponential per point and path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .params import SystemParams

# Rows per block of the lattice or the series: _GAIN_BLOCK positions, fewer once
# the block would hold more than _BLOCK_ENTRIES steering, channel or Gram
# entries, so memory stays bounded whatever the grid length, L and N.
_GAIN_BLOCK = 2048
_BLOCK_ENTRIES = 32 * _GAIN_BLOCK
# B, the rows of gain_lattice's table of steering rows f(r spacing), r < B. A
# constant, so a lattice point's gain never depends on the lattice length;
# B * params.MAX_PATHS <= _BLOCK_ENTRIES keeps the table within a block's
# bound, which the tests check at the parameter caps.
_LATTICE_INNER = 32


@dataclass(frozen=True)
class PathResponseMatrix:
    """One propagation environment: what the field-response model reads of it.

    entries holds the L x N complex response coefficients, one row per path;
    virtual_aoa holds each path's virtual arrival angle sin(elevation)
    cos(azimuth), the only part of its direction the 1-D track sees.
    """

    entries: np.ndarray
    virtual_aoa: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        virtual_aoa = np.asarray(self.virtual_aoa, dtype=float)
        if entries.ndim != 2 or entries.shape[0] < 1:
            raise ValueError("entries must be a 2-D matrix with at least one path")
        if virtual_aoa.shape != (entries.shape[0],):
            raise ValueError("need one virtual angle per path")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        if not np.all(np.abs(virtual_aoa) <= 1.0 + 1e-12):
            raise ValueError("virtual angles must lie in [-1, 1]")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "virtual_aoa", virtual_aoa)

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
    elevation and azimuth angles behind each virtual angle are i.i.d. uniform
    on [0, pi]. The draw order is fixed so a seeded generator reproduces an
    instance bit for bit.
    """
    num_paths, num_antennas = params.num_paths, params.num_bs_antennas
    elevation = rng.uniform(0.0, np.pi, num_paths)
    azimuth = rng.uniform(0.0, np.pi, num_paths)
    scale = np.sqrt(params.path_gain_variance / 2.0)
    real = rng.standard_normal((num_paths, num_antennas))
    imag = rng.standard_normal((num_paths, num_antennas))
    return PathResponseMatrix(
        entries=(real + 1j * imag) * scale,
        virtual_aoa=np.sin(elevation) * np.cos(azimuth),
    )


def _steering(wavenumbers: np.ndarray, x) -> np.ndarray:
    """Steering rows exp(j x wavenumbers): one for a float x, one per entry of a column x."""
    return np.exp((1j * x) * wavenumbers)


@dataclass(frozen=True)
class GainExpansion:
    """The channel of one environment in direct form: h(x) = f(x) response_conj.

    f(x) is the steering row exp(j x wavenumbers) and response_conj = conj(E);
    slope_conj = jk conj(E), each path's row scaled by j k, gives the slope
    h'(x) = f(x) slope_conj with one product. constant = |E|_F^2, the trace
    of the Gram matrix E E^H, is the gain of a single path. What is computed
    per channel is kept on it, and dataclasses.replace starts a copy without
    it: gain_grids holds the gain lattice ee.gain_grid built for this
    channel, one per spacing, searches every ee.grid_max answer under the
    params fields its ee.Objective record reads, points the point reads kept
    by kept_gain_and_slope (each position off the lattice that a search or a
    record may read again), and curvature is curvature_bound, computed on first use.
    """

    constant: float
    wavenumbers: np.ndarray
    response_conj: np.ndarray
    slope_conj: np.ndarray = field(init=False, repr=False, compare=False)
    gain_grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    searches: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    points: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "slope_conj",
                           (1j * self.wavenumbers)[:, None] * self.response_conj)

    @functools.cached_property
    def curvature(self) -> float:
        """curvature_bound of this channel, computed on first use and kept."""
        return curvature_bound(self)

    @property
    def num_paths(self) -> int:
        return self.wavenumbers.shape[0]

    @property
    def num_pairs(self) -> int:
        """L(L-1)/2; unread in maee, benchmarks/measure.py reports gain_eval.terms with it."""
        return self.num_paths * (self.num_paths - 1) // 2


def build_expansion(instance: PathResponseMatrix, wavelength: float) -> GainExpansion:
    """Precompute the direct form for one environment.

    The steering wavenumbers are the phase slopes 2 pi virtual_aoa / wavelength,
    in rad/m.
    """
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    entries = instance.entries
    return GainExpansion(
        constant=float(np.sum(np.abs(entries) ** 2)),
        wavenumbers=2.0 * np.pi / wavelength * instance.virtual_aoa,
        response_conj=entries.conj(),
    )


def channel_vector(expansion: GainExpansion, x: float) -> np.ndarray:
    """Channel vector h(x) = f(x) conj(E) at position x, one entry per base-station antenna."""
    return _point_read(expansion, x)[1]


def _block_rows(expansion: GainExpansion) -> int:
    return max(2, min(_GAIN_BLOCK, _BLOCK_ENTRIES // max(expansion.response_conj.shape)))


def _reduce_blocks(count: int, block: int, rows, reduce) -> np.ndarray:
    """reduce of the steering rows rows(start, stop) over 0 .. count - 1, block rows at a time."""
    out = np.empty(count)
    for start in range(0, count, block):
        stop = min(start + block, count)
        out[start:stop] = reduce(rows(start, stop))
    return out


def gain_eval(expansion: GainExpansion, x) -> float | np.ndarray:
    """Channel power gain |f(x) conj(E)|^2 at position(s) x: gain_and_slope's gain,
    bit for bit, at each entry of x, for ee.efficiency_curve and the checks."""
    xs = np.asarray(x, dtype=float)
    out = np.reshape([_point_read(expansion, t)[3][0] for t in xs.ravel().tolist()], xs.shape)
    return float(out) if out.ndim == 0 else out


def gain_lattice(expansion: GainExpansion, spacing: float, count: int) -> np.ndarray:
    """Channel power gain at the lattice points m * spacing, m = 0 .. count - 1.

    The steering phases grow linearly in x, so with B = _LATTICE_INNER the
    row of point m = q B + r is f(q B spacing) * f(r spacing): a block takes
    the products of the rows f(q B spacing) it spans with one table of the
    B rows f(r spacing), one complex exponential per table entry instead of
    one per point and path. A block of B rows or more is cut at multiples of
    B, so the products hold no rows beyond the block's; smaller blocks come
    only with over 2048 antennas, where two tables' worth of products stay
    within the bound too. The lattice is built past count where its last
    block would have one row, which BLAS rounds differently, and to two
    points at least, so point m gets the same gain at any count.
    """
    if expansion.num_paths == 1:
        return np.full(count, expansion.constant)
    wavenumbers, block = expansion.wavenumbers, _block_rows(expansion)
    inner = _steering(wavenumbers, (np.arange(_LATTICE_INNER) * spacing)[:, None])
    if block >= _LATTICE_INNER:
        block -= block % _LATTICE_INNER

    def rows(start, stop):
        first, last = start // _LATTICE_INNER, (stop - 1) // _LATTICE_INNER
        outer = np.arange(first, last + 1) * _LATTICE_INNER * spacing
        f = (_steering(wavenumbers, outer[:, None])[:, None] * inner).reshape(-1, inner.shape[1])
        return f[start - first * _LATTICE_INNER:stop - first * _LATTICE_INNER]

    def squared_norms(f):
        h = (f @ expansion.response_conj).view(np.float64)
        return np.einsum("ij,ij->i", h, h)

    padded = max(count + (count % block == 1), 2)
    return _reduce_blocks(padded, block, rows, squared_norms)[:count]


def _point_read(expansion: GainExpansion, x: float):
    """The steering row f at x, h = f conj(E), h' = f slope_conj, and the pair of
    the gain |h|^2 (exactly the constant for one path) and its slope 2 Re(h^H h')."""
    f = _steering(expansion.wavenumbers, float(x))
    one_path = expansion.num_paths == 1  # where f @ M takes numpy's own loop, not zgemv
    dot = np.matmul if one_path else np.dot  # np.dot: f @ M's zgemv with less overhead
    h, h1 = dot(f, expansion.response_conj), dot(f, expansion.slope_conj)
    gain = expansion.constant if one_path else float(np.vdot(h, h).real)
    return f, h, h1, (gain, 2.0 * float(np.vdot(h, h1).real))


def gain_and_slope(expansion: GainExpansion, x: float) -> tuple[float, float]:
    """The gain |h|^2 and its slope 2 Re(h^H f slope_conj) at one position x, off one
    steering row: the point read, which gain_eval takes at each of its positions."""
    return _point_read(expansion, x)[3]


def kept_gain_and_slope(expansion: GainExpansion, x: float) -> tuple[float, float, float]:
    """gain_and_slope's pair at x, bit for bit, and the gain's second derivative, off
    one steering row and kept in expansion.points: for the positions that more than
    one search, sweep value or check may read (the rest position, ee.grid_scan's added
    points, ee.grid_max's polish probes, each scheme's reported position, the checks' xs)."""
    found = expansion.points.get(x)
    if found is None:
        f, h, h1, pair = _point_read(expansion, x)
        jk = 1j * expansion.wavenumbers
        h2 = (f * (jk * jk)) @ expansion.response_conj  # h''
        half = np.sum((h1.conj() * h1 + h.conj() * h2).real)  # g''/2 = |h'|^2 + Re(h^H h'')
        found = expansion.points[x] = (*pair, 2.0 * float(half))
    return found


def _gram_row_blocks(expansion: GainExpansion):
    """Row blocks (start, G[start:start + rows]) of the Gram matrix G = E E^H."""
    response_conj, rows = expansion.response_conj, _block_rows(expansion)
    for start in range(0, expansion.num_paths, rows):
        yield start, response_conj[start:start + rows].conj() @ response_conj.T


def gain_series(expansion: GainExpansion, x) -> float | np.ndarray:
    """Channel power gain at position(s) x as sum_{a,b} Re(G_ab exp(j x (k_b - k_a))).

    The same function as the point read, built from the path pairs of the
    Gram matrix G = E E^H instead of the channel vector: the reference maee
    check and the tests compare gain_eval and the lattice against. The
    optimizer does not use it. It works through blocks of positions, each
    steering block built once and read by every Gram row block.
    """
    x_arr = np.asarray(x, dtype=float)
    flat = x_arr.reshape(-1)
    out = _reduce_blocks(flat.size, _block_rows(expansion), lambda start, stop: _steering(
        expansion.wavenumbers, flat[start:stop, None]), lambda f: sum(
            np.sum(f[:, start:start + len(gram)].conj() * (f @ gram.T), axis=1).real
            for start, gram in _gram_row_blocks(expansion))).reshape(x_arr.shape)
    return float(out) if out.ndim == 0 else out


def curvature_bound(expansion: GainExpansion) -> float:
    """Constant dominating |second derivative| of the gain everywhere.

    sum_{a != b} |G_ab| (k_a - k_b)^2, the curvature amplitudes of the
    series terms. A single path has none, so its position-independent gain
    gets exactly 0; the bound carries the scale of the instance, with no
    absolute floor. GainExpansion.curvature keeps it, one per channel.
    """
    wavenumbers, total = expansion.wavenumbers, 0.0
    for start, gram in _gram_row_blocks(expansion):
        spread = wavenumbers[start:start + gram.shape[0], None] - wavenumbers
        total += float(np.sum(np.abs(gram) * (spread * spread)))
    return total
