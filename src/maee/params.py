"""Scenario constants and unit conversions for the movable-antenna downlink."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral

# Longest region, in wavelengths, that a scenario may have. Position grids
# are wavelength/500 apart, so this caps one grid at 5e6 points.
MAX_REGION_WAVELENGTHS = 1e4
# Most paths L, base-station antennas N and response entries L N. The
# curvature bound costs L^2 N and a gain evaluation L N; at these caps one
# `maee solve` over the default region took under 5 s on a 2-vCPU VM.
MAX_PATHS = 2000
MAX_BS_ANTENNAS = 4096
MAX_RESPONSE_ENTRIES = 2**20
# Factor by which the SNR and curvature scales of a scenario must stay under
# the float range. The scales are built on the mean |E|_F^2 = L N variance; a
# drawn gain reaches L |E|_F^2, and the solver's surrogate multiplies it
# further. Right at the bounds some schemes overflowed with a headroom of 1e7,
# none with 1e9 (L <= 2000, N <= 16, eight seeds each).
SCALE_HEADROOM = 1e12
# Fields that must be positive and fields that must be nonnegative; the
# counts, the tolerance and x0 have range checks of their own.
_POSITIVE = frozenset({"wavelength", "region_length", "max_tx_power", "speed",
                       "block_duration", "noise_power", "distance"})
_NONNEGATIVE = frozenset({"movement_power", "pathloss_ref"})


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Scalar constants of one downlink scenario.

    All powers are linear watts and all lengths are meters; dB/dBm inputs are
    converted once at the configuration boundary (see harness.load_config).
    Defaults correspond to the reference simulation setup: 16 base-station
    antennas serve a single user whose receive antenna can slide along a
    two-wavelength track, starting from the track center. path_gain_variance,
    the variance of each complex path-response entry, is set on construction.
    """

    wavelength: float = 0.01
    region_length: float = 0.02
    num_bs_antennas: int = 16
    num_paths: int = 10
    max_tx_power: float = 0.01          # 10 dBm
    movement_power: float = 0.5         # driver draw while the antenna moves (W)
    speed: float = 0.2                  # antenna travel speed (m/s)
    block_duration: float = 5.0         # transmission block length (s)
    min_throughput: float = 5.0         # required bits/Hz per block
    noise_power: float = 1e-10          # -70 dBm
    initial_position: float = 0.01      # rest position inside [0, region_length]
    pathloss_ref: float = 1e-4          # -40 dB at the 1 m reference distance
    distance: float = 50.0              # base station to user (m)
    pathloss_exp: float = 2.8
    tolerance: float = 1e-4             # solver convergence threshold

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.type == "int" and (type(value) is bool or not isinstance(value, Integral)):
                raise ValueError(f"{spec.name} must be an integer, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{spec.name} must be finite, got {value}")
            if spec.name in _POSITIVE and value <= 0:
                raise ValueError(f"{spec.name} must be positive, got {value}")
            if spec.name in _NONNEGATIVE and value < 0:
                raise ValueError(f"{spec.name} must be nonnegative, got {value}")
        if self.region_length > MAX_REGION_WAVELENGTHS * self.wavelength:
            raise ValueError(
                f"region length {self.region_length} m exceeds {MAX_REGION_WAVELENGTHS:g} "
                f"wavelengths of {self.wavelength} m"
            )
        if not 0.0 <= self.initial_position <= self.region_length:
            raise ValueError(
                f"initial position {self.initial_position} outside region "
                f"[0, {self.region_length}]"
            )
        if self.num_bs_antennas < 1 or self.num_paths < 1:
            raise ValueError("antenna and path counts must be at least 1")
        if (self.num_paths > MAX_PATHS or self.num_bs_antennas > MAX_BS_ANTENNAS
                or self.num_paths * self.num_bs_antennas > MAX_RESPONSE_ENTRIES):
            raise ValueError(f"{self.num_paths} paths x {self.num_bs_antennas} antennas exceed "
                             f"the caps of {MAX_PATHS} paths, {MAX_BS_ANTENNAS} antennas "
                             f"and {MAX_RESPONSE_ENTRIES} in all")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tolerance}")
        try:
            variance = self.pathloss_ref * self.distance ** (-self.pathloss_exp) / self.num_paths
        except OverflowError:
            variance = math.inf
        if not math.isfinite(variance):
            raise ValueError(
                f"path gain variance overflows at pathloss_ref {self.pathloss_ref}, "
                f"distance {self.distance}, pathloss_exp {self.pathloss_exp}"
            )
        object.__setattr__(self, "path_gain_variance", variance)
        # Bounds the energy of any block; P/v or P_t T overflow into it too.
        energy = (self.move_energy_rate * self.region_length
                  + self.max_tx_power * self.block_duration)
        tx_snr = self.max_tx_power / self.noise_power
        if not (math.isfinite(energy) and math.isfinite(tx_snr)):
            raise ValueError(f"block energy bound (P/v) A + P_t T = {energy} J or "
                             f"P_t/sigma2 = {tx_snr} overflows")
        # The SNR scale P_t variance L N / sigma2 and the curvature scale
        # P_t variance L N (4 pi / wavelength)^2, the latter also without P_t,
        # which the curvature bound is first computed without.
        gain_scale = SCALE_HEADROOM * variance * self.num_paths * self.num_bs_antennas
        wavenumber = 4.0 * math.pi / self.wavelength
        snr_scale = self.max_tx_power * gain_scale / self.noise_power
        curvature_scale = max(self.max_tx_power, 1.0) * gain_scale * wavenumber * wavenumber
        if not (math.isfinite(snr_scale) and math.isfinite(curvature_scale)):
            raise ValueError(
                f"SNR scale P_t L N var / sigma2 or curvature scale P_t L N var "
                f"(4 pi / lambda)^2 overflows with headroom {SCALE_HEADROOM:g} "
                f"(path gain variance var = {variance})")

    @property
    def move_energy_rate(self) -> float:
        """Energy per meter of antenna travel (J/m)."""
        return self.movement_power / self.speed
