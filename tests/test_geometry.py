import math
import random

import pytest

from fuzzyvault.geometry import (
    MAX_FRAME_PIXELS,
    MAX_PAIRS,
    HexLattice,
    PlacementError,
    PointGrid,
    SnappingError,
    squared_distances,
)

from oracles import BucketGrid


class TestPointGrid:
    def test_against_brute_force(self):
        rng = random.Random(8)
        pts = [(rng.randrange(100), rng.randrange(100)) for _ in range(60)]
        grid = PointGrid(100, 100, 6.5)
        for x, y in pts:
            grid.add(x, y)
        for _ in range(300):
            qx, qy = rng.randrange(100), rng.randrange(100)
            dmin = min(math.hypot(px - qx, py - qy) for px, py in pts)
            assert grid.too_close(qx, qy) == (dmin < 6.5)
            d2 = squared_distances([(qx, qy)], pts)
            assert d2.shape == (1, len(pts))
            for (px, py), got in zip(pts, d2[0]):
                assert abs(math.sqrt(got) - math.hypot(px - qx, py - qy)) < 1e-9

    def test_inclusive_vs_exclusive_boundary(self):
        # the inclusive side (distance exactly eps) is in TestCorrelation
        grid = PointGrid(8, 8, 5.0)
        grid.add(0, 0)
        assert not grid.too_close(3, 4)   # strict

    @pytest.mark.parametrize("width, height", [(256, 256), (200, 129), (4, 4), (32, 32)])
    @pytest.mark.parametrize("dist", [0, 0.5, 1, 7.5, 11, 300])
    @pytest.mark.parametrize("edges", [False, True])
    def test_place_draws_as_the_bucket_oracle(self, width, height, dist, edges):
        """The same pixels, the same None on saturation (4x4 at d > 0, 32x32
        at d = 7.5 and 11, any frame at d = 300) and the same rng state
        afterwards as the bucketed grid, on an empty frame and with points
        already on the frame's corners and edges."""
        existing = {(0, 0), (width - 1, 0), (0, height - 1), (width - 1, height - 1),
                    (width // 2, 0), (0, height // 2), (width - 1, height // 2)} if edges else ()
        oracle = BucketGrid(max(dist, 1.0))
        grid = PointGrid(width, height, dist)
        for x, y in sorted(existing):
            oracle.add(x, y)
            grid.add(x, y)
        want_rng, got_rng = random.Random(width * height), random.Random(width * height)
        want, got = [], []
        while len(want) < 120 and (not want or want[-1] is not None):
            want.append(oracle.place(width, height, dist, want_rng))
            got.append(grid.place(got_rng))
        assert got == want
        assert got_rng.getstate() == want_rng.getstate()

    def test_frame_above_the_bound_is_refused_before_allocating(self):
        assert 4096 * 4096 == MAX_FRAME_PIXELS
        with pytest.raises(ValueError, match="exceeds the bound"):
            PointGrid(65535, 32768, 11.0)
        with pytest.raises(ValueError, match="exceeds the bound"):
            PointGrid(4097, 4096, 11.0)

    @pytest.mark.parametrize("x, y", [(-1, 0), (0, -1), (16, 0), (0, 9), (16, 9)])
    def test_add_refuses_a_pixel_outside_the_frame(self, x, y):
        grid = PointGrid(16, 9, 3.0)
        with pytest.raises(ValueError, match="outside the 16x9 frame"):
            grid.add(x, y)


class TestHexLattice:
    def test_nearest_neighbor_spacing_exact(self):
        for seed in (0, 1):
            lat = HexLattice(256, 256, 11.0, seed=seed)
            sites = lat.sites
            for i, (sx, sy) in enumerate(sites):
                best = min(
                    (sx - x) ** 2 + (sy - y) ** 2
                    for j, (x, y) in enumerate(sites)
                    if j != i
                )
                assert abs(math.sqrt(best) - 11.0) < 1e-9

    def test_site_count_roughly_doubles_clancy_r(self):
        counts = [len(HexLattice(256, 256, 11.0, seed=s).sites) for s in range(10)]
        assert all(560 <= c <= 680 for c in counts)
        assert all(c >= 1.8 * 313 for c in counts)

    def test_all_sites_round_into_frame(self):
        lat = HexLattice(256, 256, 11.0, seed=3)
        for x, y in lat.sites:
            assert 0 <= round(x) <= 255 and 0 <= round(y) <= 255

    def test_nearest_matches_brute_force(self):
        rng = random.Random(6)
        queries = [(5, rng.uniform(0, 255), rng.uniform(0, 255)) for _ in range(200)]
        # two points outside the frame, where the nearest site is far away
        queries += [(5, 278.3180226657965, -6.134615506056345),
                    (1, 271.04529715394233, 256.98923465596147)]
        lattices = {seed: HexLattice(256, 256, 11.0, seed=seed) for seed in (1, 5)}
        for seed, px, py in queries:
            lat = lattices[seed]
            idx, dist = lat.nearest(px, py)
            brute = min(
                (math.hypot(sx - px, sy - py), i) for i, (sx, sy) in enumerate(lat.sites)
            )
            assert idx == brute[1]
            assert abs(dist - brute[0]) < 1e-9

    def test_snap_displacement_bounded_by_circumradius(self):
        # the Voronoi circumradius bound d/sqrt(3) holds wherever the lattice
        # covers; points within d of the frame boundary can fall into strips
        # whose covering site was clipped away, so sample with a d margin
        bound = 11.0 / math.sqrt(3)
        rng = random.Random(7)
        for seed in range(4):
            lat = HexLattice(256, 256, 11.0, seed=seed)
            for _ in range(500):
                _, dist = lat.nearest(rng.uniform(11, 244), rng.uniform(11, 244))
                assert dist <= bound + 1e-9

    def test_boundary_snap_stays_within_one_spacing(self):
        rng = random.Random(8)
        for seed in range(4):
            lat = HexLattice(256, 256, 11.0, seed=seed)
            for _ in range(500):
                _, dist = lat.nearest(rng.uniform(0, 255), rng.uniform(0, 255))
                assert dist <= 11.0 + 1e-9

    def test_snap_assigns_distinct_free_sites(self):
        lat = HexLattice(256, 256, 11.0, seed=9)
        points = [(40.0, 40.0), (41.0, 41.0), (120.0, 80.0)]
        assignments = lat.snap(points)
        indices = [idx for idx, _ in assignments]
        assert len(set(indices)) == 3

    def test_snapping_error_when_cluster_exhausts_neighbors(self):
        lat = HexLattice(256, 256, 11.0, seed=9)
        cluster = [(100.0 + 0.3 * i, 100.0 + 0.2 * i) for i in range(9)]
        with pytest.raises(SnappingError):
            lat.snap(cluster)

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            HexLattice(256, 256, 0.0, seed=0)


def test_placement_error_carries_count():
    err = PlacementError("boom", placed=7)
    assert err.placed == 7


def test_squared_distances_refuses_more_than_max_pairs():
    a = [(0, 0)] * 4096
    assert 4096 * 2048 == MAX_PAIRS
    with pytest.raises(ValueError, match="4096 x 2049 point pairs exceed"):
        squared_distances(a, [(1, 1)] * 2049)
    # a hex vault at d = 7.5 has about 1,330 sites; two of them fit
    assert squared_distances(a[:1400], [(3, 4)] * 1400).max() == 25
