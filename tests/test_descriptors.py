import logging
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from specpool import descriptors, synth
from specpool.descriptors import (SIHKS_TAUS, DescriptorField, LSFParams,
                                  concat, hks, lsf, sihks, wks)
from specpool.errors import DataError
from specpool.lb_operator import LBSpectrum, mesh_spectrum
from specpool.config import RunConfig
from specpool.shape_io import (PointCloud, TriMesh, bounding_sphere_diameter,
                               sample_points)

from conftest import lsf_reference, random_rotation


def make_spectrum(eigenvalues, eigenfunctions, mass=None):
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    eigenfunctions = np.asarray(eigenfunctions, dtype=np.float64)
    if mass is None:
        mass = np.ones(eigenfunctions.shape[0])
    return LBSpectrum(eigenvalues, eigenfunctions, np.asarray(mass))


@pytest.fixture(scope="module")
def sphere_spectrum():
    verts, faces = synth.icosphere(2)
    return mesh_spectrum(TriMesh(verts, faces), 30)


class TestHKS:
    def test_single_mode(self):
        spec = make_spectrum([2.0], [[0.5], [1.5]])
        out = hks(spec, np.array([0.25, 1.0]))
        expected = np.array([[0.25, 0.25], [2.25, 2.25]]) \
            * np.exp([-0.5, -2.0])
        np.testing.assert_allclose(out.values, expected, rtol=1e-15)

    def test_matches_direct_sum(self, sphere_spectrum):
        times = np.array([0.01, 0.1, 1.0])
        out = hks(sphere_spectrum, times).values
        lam = sphere_spectrum.eigenvalues
        phi = sphere_spectrum.eigenfunctions
        for s in (0, 7, 41):
            for j, t in enumerate(times):
                ref = sum(math.exp(-lam[k] * t) * phi[s, k] ** 2
                          for k in range(len(lam)))
                assert abs(out[s, j] - ref) <= 1e-12 * abs(ref)

    def test_long_time_limit_is_constant_mode(self, sphere_spectrum):
        # only exp(-lambda_1 t) = 1 survives, leaving phi_1^2 = 1/area
        out = hks(sphere_spectrum, np.array([1e6])).values[:, 0]
        np.testing.assert_allclose(
            out, 1.0 / sphere_spectrum.mass.sum(), rtol=1e-9)

    def test_sign_flip_invariant(self, sphere_spectrum):
        flipped = make_spectrum(sphere_spectrum.eigenvalues,
                                -sphere_spectrum.eigenfunctions,
                                sphere_spectrum.mass)
        times = np.array([0.1, 1.0])
        assert np.array_equal(hks(sphere_spectrum, times).values,
                              hks(flipped, times).values)

    @pytest.mark.parametrize("times", [[], [0.0, 1.0], [2.0, 1.0],
                                       [1.0, 1.0]])
    def test_bad_time_grid(self, sphere_spectrum, times):
        with pytest.raises(DataError):
            hks(sphere_spectrum, np.array(times, dtype=np.float64))


class TestSIHKS:
    def test_tau_grid(self):
        taus = SIHKS_TAUS
        assert not taus.flags.writeable
        assert len(taus) == 385
        assert taus[0] == 1.0 and taus[-1] == 25.0
        np.testing.assert_allclose(np.diff(taus), 1.0 / 16.0, rtol=1e-12)

    def test_matches_direct_pipeline(self, sphere_spectrum):
        # log-sample t = 2**(1 + j/16), differentiate, naive DFT magnitudes
        out = sihks(sphere_spectrum).values
        assert out.shape == (len(sphere_spectrum.mass), 50)
        h = hks(sphere_spectrum, 2.0 ** (1.0 + np.arange(385) / 16.0)).values
        n = 384
        for s in (0, 13):
            logh = np.log(h[s])
            deriv = [(logh[j + 1] - logh[j]) * 16.0 for j in range(n)]
            for k in range(50):
                acc = sum(deriv[j] * complex(math.cos(2 * math.pi * k * j / n),
                                             -math.sin(2 * math.pi * k * j / n))
                          for j in range(n))
                assert abs(out[s, k] - abs(acc)) <= 1e-10 * max(abs(acc), 1.0)

    def test_constant_heat_signature_maps_to_zero(self):
        spec = make_spectrum([0.0], [[1.0], [2.0]])
        out = sihks(spec)
        assert np.array_equal(out.values, np.zeros((2, 50)))

    def test_scale_invariance(self):
        verts, faces = synth.icosphere(2)
        a = sihks(mesh_spectrum(TriMesh(verts * 256.0, faces), 50))
        b = sihks(mesh_spectrum(TriMesh(verts * 512.0, faces), 50))
        scale = np.abs(a.values).max()
        assert np.abs(a.values - b.values).max() <= 1e-3 * scale

    def test_underflow_warning(self, caplog):
        spec = make_spectrum([50.0], [[1.0]])
        with caplog.at_level(logging.WARNING, logger="specpool"):
            out = sihks(spec)
        assert "underflow" in caplog.text
        assert np.all(np.isfinite(out.values))


class TestWKS:
    def test_single_positive_mode(self):
        spec = make_spectrum([0.0, 4.0], [[1.0, 0.5], [1.0, -1.5]])
        out = wks(spec).values
        # one energy node: grid degenerates to sigma = 0, every column
        # equals phi^2
        np.testing.assert_allclose(out, np.array([[0.25], [2.25]])
                                   @ np.ones((1, 100)), rtol=1e-15)

    def test_matches_direct_sum(self, sphere_spectrum):
        out = wks(sphere_spectrum).values
        assert out.shape == (len(sphere_spectrum.mass), 100)
        lam = sphere_spectrum.eigenvalues
        pos = lam > lam[-1] * 1e-12
        loglam = np.log(lam[pos])
        phi2 = sphere_spectrum.eigenfunctions[:, pos] ** 2
        energies = np.linspace(loglam[0], loglam[-1], 100)
        sigma = 7.0 * (energies[-1] - energies[0]) / 99.0
        for s in (0, 11):
            for e_idx, e in enumerate(energies):
                w = np.exp(-0.5 * ((e - loglam) / sigma) ** 2)
                ref = float(phi2[s] @ w / w.sum())
                assert abs(out[s, e_idx] - ref) <= 1e-12 * abs(ref)

    def test_rows_are_convex_weights(self, sphere_spectrum):
        # each energy column is a weighted average of phi^2 columns
        out = wks(sphere_spectrum).values
        assert out.shape == (len(sphere_spectrum.mass), 100)
        phi2 = sphere_spectrum.eigenfunctions ** 2
        assert np.all(out <= phi2.max(axis=1, keepdims=True) + 1e-15)
        assert np.all(out >= 0.0)

    def test_constant_mode_excluded(self):
        # lb_spectrum returns the constant mode's eigenvalue as exactly 0;
        # it must not leak into the energy grid
        spec = make_spectrum([0.0, 1.0, 4.0],
                             [[5.0, 1.0, 0.0], [5.0, 0.0, 1.0]])
        out = wks(spec).values
        assert np.all(out <= 1.0 + 1e-12)

    def test_all_zero_eigenvalues(self):
        spec = make_spectrum([0.0, 0.0], [[1.0, 1.0]])
        with pytest.raises(DataError):
            wks(spec)

    def test_sign_flip_invariant(self, sphere_spectrum):
        flipped = make_spectrum(sphere_spectrum.eigenvalues,
                                -sphere_spectrum.eigenfunctions,
                                sphere_spectrum.mass)
        assert np.array_equal(wks(sphere_spectrum).values,
                              wks(flipped).values)


def unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestLSF:
    def test_single_pair_histogram(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        nrm = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        out = lsf(PointCloud(pts, nrm),
                  LSFParams(radius=2.0, neighbor_cap=512)).values
        # both directions give beta = (0, 0, 0, 1) -> bins (2, 2, 2, 2)
        flat = ((2 * 5 + 2) * 5 + 2) * 5 + 2
        expected = np.zeros((2, 625))
        expected[:, flat] = 1.0
        assert np.array_equal(out, expected)

    def test_pair_along_normal_skipped(self):
        # displacement parallel to n1 leaves no frame
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        nrm = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        out = lsf(PointCloud(pts, nrm),
                  LSFParams(radius=2.0, neighbor_cap=512)).values
        assert np.array_equal(out, np.zeros((2, 625)))

    def test_coincident_points_skipped(self):
        pts = np.zeros((2, 3))
        nrm = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        out = lsf(PointCloud(pts, nrm),
                  LSFParams(radius=1.0, neighbor_cap=512)).values
        assert np.array_equal(out, np.zeros((2, 625)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(10, 3))
        nrm = unit_rows(rng, 10)
        radius = 1.7
        out = lsf(PointCloud(pts, nrm),
                  LSFParams(radius=radius, neighbor_cap=512)).values

        def bin_of(x, lo, width, nbins):
            for b in range(nbins):
                if x <= lo + (b + 1) * width:
                    return b
            return nbins - 1

        lows = [-np.pi, -1.0, -1.0, 0.0]
        widths = [2.0 * np.pi / 5, 0.4, 0.4, radius / 5]
        expected = np.zeros((10, 625))
        for i in range(10):
            for j in range(10):
                if i == j:
                    continue
                d = pts[j] - pts[i]
                dist = np.linalg.norm(d)
                if dist > radius or dist == 0.0:
                    continue
                u = nrm[i]
                v = np.cross(d, u)
                if np.linalg.norm(v) == 0.0:
                    continue
                v = v / np.linalg.norm(v)
                w = np.cross(u, v)
                n2 = nrm[j]
                beta = (math.atan2(w @ n2, u @ n2), v @ n2,
                        (u @ d) / dist, dist)
                idx = 0
                for b, lo, wd in zip(beta, lows, widths):
                    idx = idx * 5 + bin_of(b, lo, wd, 5)
                expected[i, idx] += 1.0
        assert np.array_equal(out, expected)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, size=(12, 3))
        nrm = unit_rows(rng, 12)
        rot = random_rotation(rng)
        params = LSFParams(radius=1.3, neighbor_cap=512)
        a = lsf(PointCloud(pts, nrm), params)
        b = lsf(PointCloud(pts @ rot.T, nrm @ rot.T), params)
        assert np.array_equal(a.values, b.values)

    def test_neighbor_cap(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 3)) * 0.01
        nrm = unit_rows(rng, 40)
        cloud = PointCloud(pts, nrm)
        out = lsf(cloud, LSFParams(radius=1.0, neighbor_cap=5), seed=3)
        assert out.values.sum(axis=1).max() <= 5
        again = lsf(cloud, LSFParams(radius=1.0, neighbor_cap=5), seed=3)
        assert np.array_equal(out.values, again.values)
        other = lsf(cloud, LSFParams(radius=1.0, neighbor_cap=5), seed=4)
        assert not np.array_equal(out.values, other.values)

    def test_empty_neighborhood_warning(self, caplog):
        pts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        nrm = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with caplog.at_level(logging.WARNING, logger="specpool"):
            out = lsf(PointCloud(pts, nrm),
                      LSFParams(radius=0.5, neighbor_cap=512))
        assert "no neighbors" in caplog.text
        assert np.array_equal(out.values, np.zeros((2, 625)))

    def test_matches_reference_on_synth_cloud(self, monkeypatch, caplog):
        mesh = synth.make_instance("capsule", 600, 0.06,
                                   np.random.default_rng(5))
        cloud = sample_points(mesh, 3000, 5)
        pts, nrm = cloud.points.copy(), cloud.normals.copy()
        radius = 0.15 * bounding_sphere_diameter(pts)
        # a sparse point gets a coincident partner b and a partner c along
        # its normal; point e is moved out of everyone's reach
        a = int(np.argmin([len(nb) for nb in
                           cKDTree(pts).query_ball_point(pts, radius)]))
        b, c, e = [k for k in range(4) if k != a][:3]
        pts[b] = pts[a]
        nrm[a] = nrm[c] = [0.0, 0.0, 1.0]
        pts[c] = pts[a] + [0.0, 0.0, 0.1 * radius]
        pts[e] = pts.max(axis=0) + 2.0 * radius
        cloud = PointCloud(pts, nrm)
        tree = cKDTree(pts)
        degree = np.array([len(nb) - 1
                           for nb in tree.query_ball_point(pts, radius)])
        cap = int(np.median(degree))
        assert (degree > cap).any() and 0 < degree[a] <= cap
        n_pairs = 2 * len(tree.query_pairs(radius, output_type="ndarray"))
        monkeypatch.setattr(descriptors, "PAIR_CHUNK", n_pairs // 7 + 3)
        params = LSFParams(radius=radius, neighbor_cap=cap)
        with caplog.at_level(logging.WARNING, logger="specpool"):
            out = lsf(cloud, params, seed=2).values
        assert "1 of 3000 points have no neighbors" in caplog.text
        assert np.array_equal(out, lsf_reference(cloud, params,
                                                 seed=2).values)
        # the coincident pair and the pair along the normal are skipped
        assert out[a].sum() == degree[a] - 2

    def test_default_radius(self):
        # the radius the pipeline passes with the default run config
        rng = np.random.default_rng(9)
        pts = rng.uniform(size=(20, 3))
        r = RunConfig().lsf_radius_frac * bounding_sphere_diameter(pts)
        diam = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
        assert 0.0 < r < diam

    def test_bad_params(self):
        with pytest.raises(DataError):
            LSFParams(radius=-1.0, neighbor_cap=512)


class TestConcatAndField:
    def test_concat_dims(self):
        a = DescriptorField(np.ones((4, 50)))
        b = DescriptorField(np.full((4, 100), 2.0))
        out = concat([a, b])
        assert out.values.shape == (4, 150)
        assert np.array_equal(out.values[:, :50], a.values)
        assert np.array_equal(out.values[:, 50:], b.values)

    def test_concat_single_identity(self):
        a = DescriptorField(np.ones((3, 5)))
        assert concat([a]) is a

    def test_concat_empty(self):
        with pytest.raises(DataError):
            concat([])

    def test_concat_mismatched_points(self):
        a = DescriptorField(np.ones((3, 5)))
        b = DescriptorField(np.ones((4, 5)))
        with pytest.raises(DataError, match="mismatched"):
            concat([a, b])

    def test_field_validation(self):
        with pytest.raises(DataError):
            DescriptorField(np.ones(5))
        with pytest.raises(DataError):
            DescriptorField(np.array([[np.nan, 1.0]]))
