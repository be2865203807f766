"""Tests for the mesh NoC: routing distances, latency, helpers."""

import pytest

from repro.config import SystemConfig
from repro.noc.mesh import MeshNoc


@pytest.fixture
def noc():
    return MeshNoc(SystemConfig())


class TestHops:
    def test_zero_hops_same_tile(self, noc):
        assert noc.hops(7, 7) == 0

    def test_manhattan_distance(self, noc):
        # Tile 0 = (0,0); tile 19 = (4,3).
        assert noc.hops(0, 19) == 7

    def test_symmetry(self, noc):
        for a, b in [(0, 13), (3, 17), (5, 9)]:
            assert noc.hops(a, b) == noc.hops(b, a)

    def test_adjacent(self, noc):
        assert noc.hops(0, 1) == 1
        assert noc.hops(0, 5) == 1


class TestLatency:
    def test_same_tile_zero(self, noc):
        assert noc.latency(4, 4) == 0

    def test_one_hop(self, noc):
        # 1 hop: router + link + destination router = 2+1+2 = 5.
        assert noc.latency(0, 1) == 5

    def test_scales_with_hops(self, noc):
        lat1 = noc.latency(0, 1)
        lat2 = noc.latency(0, 2)
        assert lat2 == lat1 + 3  # one more router+link

    def test_round_trip_doubles(self, noc):
        assert noc.round_trip(0, 19) == 2 * noc.latency(0, 19)

    @pytest.mark.parametrize("delay", [1, 2, 3])
    def test_every_pair_follows_the_hop_formula(self, delay):
        config = SystemConfig().with_router_delay(delay)
        noc = MeshNoc(config)
        for a in range(config.num_cores):
            for b in range(config.num_cores):
                h = noc.hops(a, b)
                want = h * (delay + config.link_delay) + delay if h else 0
                got = noc.latency(a, b)
                assert got == want and type(got) is int

    def test_router_delay_sensitivity(self):
        fast = MeshNoc(SystemConfig().with_router_delay(1))
        slow = MeshNoc(SystemConfig().with_router_delay(3))
        assert slow.latency(0, 19) > fast.latency(0, 19)


class TestMemoryTiles:
    def test_four_corners(self, noc):
        assert set(noc.mem_tiles) == {0, 4, 15, 19}

    def test_nearest_mem_tile(self, noc):
        assert noc.nearest_mem_tile(0) == 0
        assert noc.nearest_mem_tile(18) in (15, 19)

    def test_mem_latency_from_corner_is_zero(self, noc):
        assert noc.mem_latency_from(0) == 0


class TestHelpers:
    def test_banks_by_distance_starts_home(self, noc):
        order = noc.banks_by_distance(7)
        assert order[0] == 7
        # Distances are non-decreasing along the order.
        dists = [noc.hops(7, b) for b in order]
        assert dists == sorted(dists)

    def test_banks_by_distance_covers_all(self, noc):
        assert sorted(noc.banks_by_distance(3)) == list(range(20))

    def test_centroid_of_single_tile(self, noc):
        assert noc.centroid_tile([8]) == 8

    def test_centroid_of_quadrant(self, noc):
        # Corner quadrant tiles: centroid inside the quadrant.
        centroid = noc.centroid_tile([0, 1, 5, 6])
        assert centroid in (0, 1, 5, 6)

    def test_centroid_rejects_empty(self, noc):
        with pytest.raises(ValueError):
            noc.centroid_tile([])

    def test_average_distance(self, noc):
        assert noc.average_distance(0, [0]) == 0.0
        assert noc.average_distance(0, [0, 1]) == 0.5

    def test_average_distance_rejects_empty(self, noc):
        with pytest.raises(ValueError):
            noc.average_distance(0, [])
