"""Scenario constants and unit conversions for the movable-antenna downlink."""

from __future__ import annotations

from dataclasses import dataclass


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
    two-wavelength track, starting from the track center.
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
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if self.region_length <= 0:
            raise ValueError(f"region length must be positive, got {self.region_length}")
        if not 0.0 <= self.initial_position <= self.region_length:
            raise ValueError(
                f"initial position {self.initial_position} outside region "
                f"[0, {self.region_length}]"
            )
        if self.num_bs_antennas < 1 or self.num_paths < 1:
            raise ValueError("antenna and path counts must be at least 1")
        if self.speed <= 0:
            raise ValueError(f"speed must be positive, got {self.speed}")
        if self.block_duration <= 0:
            raise ValueError(f"block duration must be positive, got {self.block_duration}")
        if self.max_tx_power <= 0:
            raise ValueError(f"transmit power must be positive, got {self.max_tx_power}")
        if self.movement_power < 0:
            raise ValueError(f"movement power must be nonnegative, got {self.movement_power}")
        if self.noise_power <= 0:
            raise ValueError(f"noise power must be positive, got {self.noise_power}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tolerance}")

    @property
    def move_energy_rate(self) -> float:
        """Energy per meter of antenna travel (J/m)."""
        return self.movement_power / self.speed

    @property
    def path_gain_variance(self) -> float:
        """Variance of each complex path-response entry."""
        return self.pathloss_ref * self.distance ** (-self.pathloss_exp) / self.num_paths
