"""Link budget, pathloss, beamforming and capacity generation."""

import math

import numpy as np
import pytest

from iabnet.channel import (
    RAY_SPREAD_RAD,
    ArrayConfig,
    LinkBudget,
    OutOfModelRange,
    RinrConfig,
    beam_align,
    capacity_from_links,
    capacity_pps,
    dft_codebook,
    drop_ues,
    gen_channel,
    link_states,
    pathloss_uma,
    sinr_fd,
    snr,
)
from iabnet.topology import DuplexMode, line_network

HD, FD = DuplexMode.HALF_DUPLEX, DuplexMode.FULL_DUPLEX


class TestArrays:
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_dft_codebook_orthonormal(self, n):
        W = dft_codebook(n)
        assert np.allclose(W.conj().T @ W, np.eye(n), atol=1e-12)

    def test_beam_align_matches_exhaustive_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            H = gen_channel(16, 8, rng)
            f, w, gain = beam_align(H, 16, 8)
            F, W = dft_codebook(16), dft_codebook(8)
            best = max(
                abs(np.vdot(W[:, i], H @ F[:, j])) ** 2
                for i in range(8)
                for j in range(16)
            )
            assert gain == pytest.approx(best, rel=1e-12)
            assert abs(np.vdot(w, H @ f)) ** 2 == pytest.approx(gain, rel=1e-12)

    def test_gen_channel_rebuilt_from_its_draws(self):
        # the draws in their documented order, then H as a sum of rays with
        # half-wavelength ULA steering vectors exp(j pi n sin(angle))
        rng, twin = np.random.default_rng(13), np.random.default_rng(13)
        H = gen_channel(8, 4, rng)
        nc, nr = int(twin.integers(1, 7)), int(twin.integers(1, 11))
        gains = (twin.standard_normal((nc, nr)) + 1j * twin.standard_normal((nc, nr))) / np.sqrt(2.0)
        c_aoa = twin.uniform(-np.pi / 2, np.pi / 2, size=nc)
        c_aod = twin.uniform(-np.pi / 2, np.pi / 2, size=nc)
        aoa = c_aoa[:, None] + twin.uniform(-RAY_SPREAD_RAD, RAY_SPREAD_RAD, size=(nc, nr))
        aod = c_aod[:, None] + twin.uniform(-RAY_SPREAD_RAD, RAY_SPREAD_RAD, size=(nc, nr))
        assert rng.bit_generator.state == twin.bit_generator.state

        def ula(n, angle):
            return np.exp(1j * np.pi * np.arange(n) * np.sin(angle))

        expected = sum(
            gains[c, r] * np.outer(ula(4, aoa[c, r]), ula(8, aod[c, r]).conj())
            for c in range(nc) for r in range(nr)
        ) / np.sqrt(nc * nr)
        assert H.shape == (4, 8)
        assert np.allclose(H, expected, rtol=0, atol=1e-12)

    def test_gen_channel_average_power(self):
        rng = np.random.default_rng(12)
        powers = [np.linalg.norm(gen_channel(8, 4, rng), "fro") ** 2 for _ in range(400)]
        # E[||H||_F^2] = n_tx * n_rx regardless of cluster/ray counts
        assert np.mean(powers) == pytest.approx(32.0, rel=0.15)


class TestPathloss:
    def test_los_value_below_breakpoint(self):
        # independent evaluation of the close-in LOS curve at 100 m, 30 GHz
        rng = np.random.default_rng(0)
        d3d = math.hypot(100.0, 25.0 - 1.5)
        expected = 28.0 + 22.0 * math.log10(d3d) + 20.0 * math.log10(30.0)
        pl, los = pathloss_uma(100.0, 25.0, 1.5, 30e9, rng, force_los=True)
        assert los is True
        assert pl == pytest.approx(expected, abs=1e-9)

    def test_nlos_never_below_los(self):
        rng = np.random.default_rng(1)
        for d in (30.0, 120.0, 500.0, 2000.0):
            pl_los, _ = pathloss_uma(d, 25.0, 1.5, 30e9, rng, force_los=True)
            pl_nlos, _ = pathloss_uma(d, 25.0, 1.5, 30e9, rng, force_los=False)
            assert pl_nlos >= pl_los

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(2)
        dists = np.linspace(10.0, 4999.0, 60)
        pls = [pathloss_uma(d, 25.0, 1.5, 30e9, rng, force_los=True)[0] for d in dists]
        assert np.all(np.diff(pls) > 0)

    @pytest.mark.parametrize("d", [5.0, 9.99, 5001.0])
    def test_out_of_range(self, d):
        with pytest.raises(OutOfModelRange):
            pathloss_uma(d, 25.0, 1.5, 30e9, np.random.default_rng(0))


class TestLinkBudget:
    def test_noise_power(self):
        b = LinkBudget()
        assert b.noise_power_dbm() == pytest.approx(-174.0 + 80.0 + 10.0)

    def test_snr_hand_value(self):
        b = LinkBudget()
        # ptx 30 dBm, gain 20 dB, pathloss 100 dB -> rx -50 dBm, noise -84 dBm
        assert 10 * math.log10(snr(b, 100.0, 100.0)) == pytest.approx(34.0)

    def test_sinr_fd_limits(self):
        assert sinr_fd(10.0, 0.0) == pytest.approx(10.0)
        assert sinr_fd(10.0, 1.0) == pytest.approx(5.0)

    def test_capacity_shannon(self):
        assert capacity_pps(100e6, 2**0.8 - 1, 80000.0) == pytest.approx(1000.0)

    def test_rinr_linear(self):
        assert RinrConfig().rinr_linear == 0.0
        assert RinrConfig(rinr_db=-10.0).rinr_linear == pytest.approx(0.1)


class TestLinkStates:
    def _tree(self, rng):
        return drop_ues(line_network(2, 2), 100.0, rng)

    def test_paired_capacities_differ_only_on_backhaul(self):
        rng = np.random.default_rng(21)
        tree = self._tree(rng)
        links = link_states(tree, LinkBudget(), rng)
        bits = 80000.0
        budget = LinkBudget()
        backhaul = {ls.edge for ls in links if ls.is_backhaul}

        c_hd = capacity_from_links(links, HD, RinrConfig(rinr_db=-5.0), budget, bits)
        c_fd = capacity_from_links(links, FD, RinrConfig(rinr_db=-5.0), budget, bits)
        for e in range(tree.num_edges):
            if e in backhaul:
                assert c_fd[e] < c_hd[e]
            else:
                assert c_fd[e] == c_hd[e]

        # perfect cancellation removes the difference entirely
        c_fd0 = capacity_from_links(links, FD, RinrConfig(), budget, bits)
        assert np.array_equal(c_fd0, c_hd)

    def test_access_arrays_smaller_than_backhaul(self):
        rng = np.random.default_rng(23)
        tree = self._tree(rng)
        arrays = ArrayConfig()
        links = link_states(tree, LinkBudget(), rng, arrays)
        assert all(ls.snr_linear > 0 for ls in links)

    def test_link_states_requires_positions(self):
        from iabnet.topology import build_tree

        tree_no_pos = build_tree({1: 0}, {0: "donor", 1: "ue"})
        with pytest.raises(ValueError):
            link_states(tree_no_pos, LinkBudget(), np.random.default_rng(0))


class TestDropUes:
    def test_ue_distances_within_disk(self):
        rng = np.random.default_rng(31)
        tree = line_network(3, 4)
        for _ in range(20):
            dropped = drop_ues(tree, 100.0, rng)
            for u in dropped.ue_ids:
                bx, by = dropped.positions[dropped.parent[u]]
                ux, uy = dropped.positions[u]
                d = math.hypot(ux - bx, uy - by)
                assert 10.0 <= d <= 100.0

    def test_bs_positions_unchanged(self):
        rng = np.random.default_rng(32)
        tree = line_network(2, 1)
        dropped = drop_ues(tree, 100.0, rng)
        for b in tree.bs_ids:
            assert dropped.positions[b] == tree.positions[b]

    def test_same_seed_same_drop(self):
        tree = line_network(2, 2)
        a = drop_ues(tree, 100.0, np.random.default_rng(7))
        b = drop_ues(tree, 100.0, np.random.default_rng(7))
        assert a.positions == b.positions

    @pytest.mark.parametrize("radius", [10.0, 5.0, -5.0])
    def test_radius_at_or_below_min_distance_rejected_before_any_draw(self, radius):
        # every draw would land inside the minimum distance and be redrawn
        rng = np.random.default_rng(8)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="UE radius"):
            drop_ues(line_network(1, 1), radius, rng)
        assert rng.bit_generator.state == state
