"""mmWave link generation: clustered multipath channels, DFT beam alignment,
3GPP UMa pathloss, and the per-edge capacity diagonal in packets/second.

All randomness flows through an explicitly passed numpy Generator, so a fixed
seed reproduces channels, LOS states and capacities bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .topology import DuplexMode, RoutingTree

SPEED_OF_LIGHT = 299792458.0
# half-width of the ray angles around their cluster center
RAY_SPREAD_RAD = math.radians(5.0)
# antenna heights of every BS (donor or IAB node) and every UE
BS_HEIGHT_M = 25.0
UE_HEIGHT_M = 1.5
# the pathloss model's lower validity bound on the 2-D link distance
MIN_UE_DISTANCE_M = 10.0


class OutOfModelRange(ValueError):
    """Geometry outside the pathloss model's stated validity interval."""


@dataclass(frozen=True)
class LinkBudget:
    ptx_dbm: float = 30.0
    bandwidth_hz: float = 100e6
    noise_psd_dbm_hz: float = -174.0
    noise_figure_db: float = 10.0
    carrier_hz: float = 30e9

    def noise_power_dbm(self) -> float:
        return (
            self.noise_psd_dbm_hz
            + 10.0 * math.log10(self.bandwidth_hz)
            + self.noise_figure_db
        )


@dataclass(frozen=True)
class RinrConfig:
    """Residual self-interference-to-noise ratio at full-duplex IAB receivers.

    Applies only to backhaul edges terminating at an IAB node; -inf dB means
    perfect cancellation.
    """

    rinr_db: float = -math.inf

    @property
    def rinr_linear(self) -> float:
        if math.isinf(self.rinr_db) and self.rinr_db < 0:
            return 0.0
        return 10.0 ** (self.rinr_db / 10.0)


@functools.cache
def dft_codebook(n: int) -> np.ndarray:
    """n x n DFT matrix with unit-norm columns (beams), built once per n and
    shared read-only."""
    k = np.arange(n)
    W = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    W.flags.writeable = False
    return W


def gen_channel(n_tx: int, n_rx: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a clustered multipath channel matrix H (n_rx x n_tx).

    Cluster and ray counts are uniform on {1..6} and {1..10}; cluster centers
    are uniform on [-pi/2, pi/2] and rays lie within +/- RAY_SPREAD_RAD of
    them.  Every ray carries a unit-variance complex normal gain, and the
    1/sqrt(n_ray*n_cluster) scale keeps E[||H||_F^2] = n_tx * n_rx.  The
    half-wavelength ULA steering vectors are exp(j pi n sin(angle)).
    """
    n_cluster = int(rng.integers(1, 7))
    n_ray = int(rng.integers(1, 11))
    gains = (rng.standard_normal((n_cluster, n_ray)) +
             1j * rng.standard_normal((n_cluster, n_ray))) / np.sqrt(2.0)
    centers_aoa = rng.uniform(-np.pi / 2, np.pi / 2, size=n_cluster)
    centers_aod = rng.uniform(-np.pi / 2, np.pi / 2, size=n_cluster)
    s = RAY_SPREAD_RAD
    aoa = centers_aoa[:, None] + rng.uniform(-s, s, size=(n_cluster, n_ray))
    aod = centers_aod[:, None] + rng.uniform(-s, s, size=(n_cluster, n_ray))

    a_rx = np.exp(1j * np.pi * np.arange(n_rx)[:, None] * np.sin(aoa.ravel())[None, :])
    a_tx = np.exp(1j * np.pi * np.arange(n_tx)[:, None] * np.sin(aod.ravel())[None, :])
    H = (a_rx * gains.ravel()[None, :]) @ a_tx.conj().T
    H /= np.sqrt(n_ray * n_cluster)
    return H


def beam_align(H: np.ndarray, n_tx: int, n_rx: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Exhaustive DFT-codebook search for the beam pair maximizing |w^H H f|^2."""
    F = dft_codebook(n_tx)
    W = dft_codebook(n_rx)
    gains = np.abs(W.conj().T @ H @ F) ** 2
    i, j = np.unravel_index(int(np.argmax(gains)), gains.shape)
    return F[:, j].copy(), W[:, i].copy(), float(gains[i, j])


def pathloss_uma(
    d2d_m: float,
    h_bs_m: float,
    h_ue_m: float,
    carrier_hz: float,
    rng: np.random.Generator,
    force_los: bool | None = None,
) -> tuple[float, bool]:
    """3GPP TR 38.901 UMa pathloss with a random LOS state.

    Returns (pathloss_db, los).  Valid for 10 m <= d2d <= 5 km; shadow fading
    is not applied.  force_los bypasses the LOS probability draw.
    """
    if not (10.0 <= d2d_m <= 5000.0):
        raise OutOfModelRange(f"2-D distance {d2d_m} m outside [10, 5000] m")

    if force_los is None:
        los = rng.uniform() < _los_probability_uma(d2d_m, h_ue_m)
    else:
        los = bool(force_los)

    fc_ghz = carrier_hz / 1e9
    d3d = math.hypot(d2d_m, h_bs_m - h_ue_m)

    # effective-height breakpoint (h_E = 1 m)
    d_bp = 4.0 * (h_bs_m - 1.0) * (h_ue_m - 1.0) * carrier_hz / SPEED_OF_LIGHT
    if d2d_m <= d_bp:
        pl_los = 28.0 + 22.0 * math.log10(d3d) + 20.0 * math.log10(fc_ghz)
    else:
        pl_los = (
            28.0 + 40.0 * math.log10(d3d) + 20.0 * math.log10(fc_ghz)
            - 9.0 * math.log10(d_bp**2 + (h_bs_m - h_ue_m) ** 2)
        )
    if los:
        return pl_los, True

    pl_nlos = (
        13.54 + 39.08 * math.log10(d3d) + 20.0 * math.log10(fc_ghz)
        - 0.6 * (h_ue_m - 1.5)
    )
    return max(pl_los, pl_nlos), False


def _los_probability_uma(d2d_m: float, h_ue_m: float) -> float:
    if d2d_m <= 18.0:
        return 1.0
    p = 18.0 / d2d_m + math.exp(-d2d_m / 63.0) * (1.0 - 18.0 / d2d_m)
    h = min(h_ue_m, 23.0)  # formula fitted for h_ue <= 23 m
    if h > 13.0:
        c = ((h - 13.0) / 10.0) ** 1.5
        p *= 1.0 + c * 1.25 * (d2d_m / 100.0) ** 3 * math.exp(-d2d_m / 150.0)
    return min(p, 1.0)


def snr(budget: LinkBudget, bf_gain: float, pathloss_db: float) -> float:
    """Linear SNR: transmit power through pathloss and beamforming gain over
    thermal noise (noise PSD integrated over the bandwidth plus noise figure).
    """
    if bf_gain < 0:
        raise ValueError("beamforming gain must be nonnegative")
    if bf_gain == 0.0:
        return 0.0
    rx_dbm = budget.ptx_dbm - pathloss_db + 10.0 * math.log10(bf_gain)
    return 10.0 ** ((rx_dbm - budget.noise_power_dbm()) / 10.0)


def sinr_fd(snr_linear: float, rinr_linear: float) -> float:
    """SINR at a full-duplex receiver: SNR / (RINR + 1)."""
    if snr_linear < 0 or rinr_linear < 0:
        raise ValueError("SNR and RINR must be nonnegative")
    return snr_linear / (rinr_linear + 1.0)


def capacity_pps(bandwidth_hz: float, sinr_linear: float, packet_bits: float) -> float:
    """Shannon rate normalized to packets/second."""
    if packet_bits <= 0:
        raise ValueError("packet size must be positive")
    return bandwidth_hz * math.log2(1.0 + sinr_linear) / packet_bits


@dataclass(frozen=True)
class LinkState:
    """Per-edge propagation state, shared between duplex-mode evaluations of
    one Monte Carlo drop (the RINR penalty is applied afterwards)."""

    edge: int
    is_backhaul: bool
    snr_linear: float


@dataclass(frozen=True)
class ArrayConfig:
    n_bs_ant: int = 64
    n_ue_ant: int = 16


def link_states(
    tree: RoutingTree,
    budget: LinkBudget,
    rng: np.random.Generator,
    arrays: ArrayConfig = ArrayConfig(),
) -> list[LinkState]:
    """Draw channel, beams, LOS and pathloss for every edge of a positioned tree.

    One LOS draw and one channel per link per call, so half- and full-duplex
    capacities computed from the same states form a paired comparison.
    """
    if tree.positions is None or any(v not in tree.positions for v in tree.vertex_kind):
        raise ValueError("all vertices need positions to generate link states")
    states = []
    for child, parent in sorted(tree.parent.items()):
        is_backhaul = tree.vertex_kind[child] == "iab"
        n_rx = arrays.n_bs_ant if is_backhaul else arrays.n_ue_ant
        n_tx = arrays.n_bs_ant
        px, py = tree.positions[parent]
        cx, cy = tree.positions[child]
        d2d = math.hypot(cx - px, cy - py)
        h_rx = BS_HEIGHT_M if is_backhaul else UE_HEIGHT_M
        pl_db, _ = pathloss_uma(d2d, BS_HEIGHT_M, h_rx, budget.carrier_hz, rng)
        H = gen_channel(n_tx, n_rx, rng)
        _, _, gain = beam_align(H, n_tx, n_rx)
        states.append(
            LinkState(
                edge=tree.edge_index(child),
                is_backhaul=is_backhaul,
                snr_linear=snr(budget, gain, pl_db),
            )
        )
    return states


def capacity_from_links(
    links: list[LinkState],
    mode: DuplexMode,
    rinr: RinrConfig,
    budget: LinkBudget,
    packet_bits: float,
) -> np.ndarray:
    """Capacity diagonal (packets/s). In full-duplex mode, backhaul edges into
    an IAB node see the RINR-degraded SINR; access edges never do."""
    c = np.zeros(len(links))
    for ls in links:
        s = ls.snr_linear
        if mode is DuplexMode.FULL_DUPLEX and ls.is_backhaul:
            s = sinr_fd(s, rinr.rinr_linear)
        c[ls.edge] = capacity_pps(budget.bandwidth_hz, s, packet_bits)
    return c


def drop_ues(tree: RoutingTree, radius_m: float, rng: np.random.Generator) -> RoutingTree:
    """Drop each UE uniformly in a disk around its serving BS.

    Redraws inside MIN_UE_DISTANCE_M so the pathloss model stays in range; a
    radius of at most MIN_UE_DISTANCE_M leaves nothing to draw and raises
    ValueError before any draw.
    """
    if tree.positions is None:
        raise ValueError("BS positions must be set before dropping UEs")
    if not radius_m > MIN_UE_DISTANCE_M:
        raise ValueError(
            f"UE radius {radius_m} m must exceed the minimum UE distance "
            f"{MIN_UE_DISTANCE_M} m"
        )
    positions = dict(tree.positions)
    for ue in tree.ue_ids:
        bx, by = positions[tree.parent[ue]]
        while True:
            r = radius_m * math.sqrt(rng.uniform())
            theta = rng.uniform(0.0, 2.0 * math.pi)
            if r >= MIN_UE_DISTANCE_M:
                break
        positions[ue] = (bx + r * math.cos(theta), by + r * math.sin(theta))
    return tree.with_positions(positions)
