import numpy as np
import pytest

from specpool import synth
from specpool.errors import DataError
from specpool.lb_operator import (cotan_laplacian, lb_spectrum,
                                  mesh_component_count, mesh_spectrum,
                                  voronoi_areas)
from specpool.shape_io import TriMesh, face_areas

from conftest import dense_lb_spectrum, random_rotation


def icosphere_mesh(level, scale=1.0):
    verts, faces = synth.icosphere(level)
    return TriMesh(verts * scale, faces)


class TestVoronoiAreas:
    def test_equilateral_thirds(self, equilateral_mesh):
        areas = voronoi_areas(equilateral_mesh)
        total = face_areas(equilateral_mesh.vertices,
                           equilateral_mesh.faces).sum()
        np.testing.assert_allclose(areas, total / 3.0, rtol=1e-12)

    def test_right_triangle_mixed_rule(self, right_triangle_mesh):
        # circumcentric cells: the right-angle vertex collects
        # (|e|^2 cot 45 + |e|^2 cot 45)/8 = 1/4; each acute vertex gets
        # (1 * cot 45 + 2 * cot 90)/8 = 1/8
        areas = voronoi_areas(right_triangle_mesh)
        np.testing.assert_allclose(areas, [0.25, 0.125, 0.125], rtol=1e-12)

    def test_square_partition(self, square_mesh):
        areas = voronoi_areas(square_mesh)
        np.testing.assert_allclose(areas.sum(), 1.0, rtol=1e-9)

    def test_obtuse_half_quarter_split(self):
        # obtuse corner takes half the triangle area, the others a quarter
        verts = np.array([[0.0, 0.0, 0.0],
                          [4.0, 0.0, 0.0],
                          [2.0, 0.5, 0.0]])
        mesh = TriMesh(verts, np.array([[0, 1, 2]]))
        areas = voronoi_areas(mesh)
        tri = face_areas(verts, mesh.faces)[0]
        np.testing.assert_allclose(
            areas, [0.25 * tri, 0.25 * tri, 0.5 * tri], rtol=1e-12)

    def test_closed_mesh_sums_to_total_area(self, tetra_mesh):
        areas = voronoi_areas(tetra_mesh)
        total = face_areas(tetra_mesh.vertices, tetra_mesh.faces).sum()
        assert np.all(areas > 0)
        np.testing.assert_allclose(areas.sum(), total, rtol=1e-9)

    def test_degenerate_face_rejected(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        mesh = TriMesh.__new__(TriMesh)
        mesh.vertices = verts
        mesh.faces = np.array([[0, 1, 2]])
        with pytest.raises(DataError):
            voronoi_areas(mesh)


class TestCotanLaplacian:
    def test_constant_in_kernel(self, tetra_mesh):
        lap = cotan_laplacian(tetra_mesh)
        assert np.abs(lap @ np.ones(4)).max() < 1e-12

    def test_equilateral_off_diagonals(self, equilateral_mesh):
        # one face per edge: weight cot(60 deg)/2, so L_ij = -1/(2 sqrt(3))
        lap = cotan_laplacian(equilateral_mesh).toarray()
        off = lap[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / (2.0 * np.sqrt(3.0)),
                                   rtol=1e-12)

    def test_symmetric_and_row_sums_zero(self, tetra_mesh):
        lap = cotan_laplacian(tetra_mesh).toarray()
        np.testing.assert_allclose(lap, lap.T, atol=1e-15)
        assert np.abs(lap.sum(axis=1)).max() < 1e-10

    def test_positive_semidefinite(self):
        mesh = icosphere_mesh(1)
        lap = cotan_laplacian(mesh).toarray()
        assert np.linalg.eigvalsh(lap).min() >= -1e-8

    def test_degenerate_face_rejected(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        mesh = TriMesh.__new__(TriMesh)
        mesh.vertices = verts
        mesh.faces = np.array([[0, 1, 2]])
        with pytest.raises(DataError):
            cotan_laplacian(mesh)


class TestSpectrum:
    def test_first_pair_is_constant_mode(self, tetra_mesh):
        spec = mesh_spectrum(tetra_mesh, 3)
        assert spec.eigenvalues[0] == 0.0 < spec.eigenvalues[1]
        phi1 = spec.eigenfunctions[:, 0]
        assert np.ptp(phi1) < 1e-8 * np.abs(phi1).max()

    def test_eigenvalues_ascending_nonnegative(self):
        spec = mesh_spectrum(icosphere_mesh(2), 30)
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert np.all(spec.eigenvalues >= 0)

    def test_mass_orthonormal(self):
        spec = mesh_spectrum(icosphere_mesh(2), 30)
        gram = spec.eigenfunctions.T @ (spec.mass[:, None]
                                        * spec.eigenfunctions)
        np.testing.assert_allclose(gram, np.eye(30), atol=1e-6)

    def test_residuals(self):
        mesh = icosphere_mesh(2)
        lap = cotan_laplacian(mesh)
        mass = voronoi_areas(mesh)
        spec = lb_spectrum(lap, mass, 30)
        num = lap @ spec.eigenfunctions \
            - (mass[:, None] * spec.eigenfunctions) * spec.eigenvalues
        den = np.linalg.norm(mass[:, None] * spec.eigenfunctions, axis=0)
        assert (np.linalg.norm(num, axis=0) / den).max() < 1e-6

    def test_unit_sphere_first_band(self):
        # analytic eigenvalues l(l+1): the l=1 band is 2.0, threefold
        spec = mesh_spectrum(icosphere_mesh(4), 10)
        np.testing.assert_allclose(spec.eigenvalues[1:4], 2.0, rtol=0.05)

    def test_rigid_motion_invariance(self):
        mesh = icosphere_mesh(2)
        spec = mesh_spectrum(mesh, 20)
        rot = random_rotation(np.random.default_rng(3))
        moved = TriMesh(mesh.vertices @ rot.T + np.array([2.0, -1.0, 0.5]),
                        mesh.faces)
        spec2 = mesh_spectrum(moved, 20)
        np.testing.assert_allclose(spec2.eigenvalues[1:],
                                   spec.eigenvalues[1:], rtol=1e-9)

    def test_scale_covariance(self):
        mesh = icosphere_mesh(2)
        spec = mesh_spectrum(mesh, 20)
        spec2 = mesh_spectrum(TriMesh(mesh.vertices * 3.0, mesh.faces), 20)
        np.testing.assert_allclose(spec2.eigenvalues[1:],
                                   spec.eigenvalues[1:] / 9.0, rtol=1e-9)

    def test_sign_convention_deterministic(self):
        a = mesh_spectrum(icosphere_mesh(1), 10)
        b = mesh_spectrum(icosphere_mesh(1), 10)
        assert np.array_equal(a.eigenfunctions, b.eigenfunctions)
        for j in range(10):
            col = a.eigenfunctions[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_sparse_path_matches_dense(self):
        # the shift-invert solve against the dense generalized reference on
        # the synth meshes' vertex counts: 162, 642, 1519 and 2562
        meshes = [icosphere_mesh(2), icosphere_mesh(3),
                  TriMesh(*synth.torus_mesh(49, 31)), icosphere_mesh(4)]
        for mesh in meshes:
            lap = cotan_laplacian(mesh)
            mass = voronoi_areas(mesh)
            spec = lb_spectrum(lap, mass, 100)
            expected, _ = dense_lb_spectrum(lap, mass, 100)
            err = np.abs(spec.eigenvalues - expected).max()
            assert err <= 1e-12 * expected[-1], mesh.n_vertices
            gram = spec.eigenfunctions.T @ (mass[:, None]
                                            * spec.eigenfunctions)
            np.testing.assert_allclose(gram, np.eye(100), rtol=0,
                                       atol=1e-12, err_msg=str(mesh.n_vertices))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 256.0, 1e4])
    def test_sparse_path_is_scale_free(self, scale):
        # lambda * area does not depend on the mesh unit, so the solve must
        # reach the dense reference at unit scale from every scale
        unit = icosphere_mesh(3)
        mass = voronoi_areas(unit)
        dense, _ = dense_lb_spectrum(cotan_laplacian(unit), mass, 20)
        expected = dense * mass.sum()
        mesh = icosphere_mesh(3, scale)
        mass = voronoi_areas(mesh)
        sparse = lb_spectrum(cotan_laplacian(mesh), mass, 20)
        got = sparse.eigenvalues * mass.sum()
        assert np.abs(got - expected).max() <= 1e-12 * expected[-1]
        gram = sparse.eigenfunctions.T @ (mass[:, None]
                                          * sparse.eigenfunctions)
        np.testing.assert_allclose(gram, np.eye(20), rtol=0, atol=1e-12)

    def test_k_out_of_range(self, tetra_mesh):
        # Lanczos cannot return all n pairs, so k = n is out of range too
        lap = cotan_laplacian(tetra_mesh)
        mass = voronoi_areas(tetra_mesh)
        for k in (0, 4, 5):
            with pytest.raises(DataError, match="need 1 <= k < 4"):
                lb_spectrum(lap, mass, k)

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_overflowing_coordinates_rejected(self, scale):
        # finite vertices whose squared edges and cross products overflow
        mesh = icosphere_mesh(2, scale)
        with pytest.raises(DataError, match="non-finite cotangent"):
            mesh_spectrum(mesh, 20)

    @pytest.mark.parametrize("k", [4, 100])
    def test_mesh_spectrum_caps_k_below_vertex_count(self, tetra_mesh, k):
        spec = mesh_spectrum(tetra_mesh, k)
        assert spec.eigenvalues.shape == (3,)
        assert spec.eigenfunctions.shape == (4, 3)

    def test_cancelled_cotangent_edge_still_connected(self, square_mesh):
        # the square's diagonal edge weight is cot90+cot90 = 0; the mesh
        # must still pass the connectivity check and yield a simple kernel
        spec = mesh_spectrum(square_mesh, 4)
        assert spec.eigenvalues[1] > 1e-6 * spec.eigenvalues[-1]


class TestConnectivity:
    def two_component_mesh(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0],
                          [10.0, 0, 0], [11.0, 0, 0], [10.0, 1, 0]])
        faces = np.array([[0, 1, 2], [3, 4, 5]])
        return TriMesh(verts, faces)

    def test_component_count(self, tetra_mesh):
        assert mesh_component_count(tetra_mesh) == 1
        assert mesh_component_count(self.two_component_mesh()) == 2

    def test_mesh_spectrum_rejects_disconnected(self):
        with pytest.raises(DataError, match="2 connected components"):
            mesh_spectrum(self.two_component_mesh(), 3)

    def test_lb_spectrum_rejects_disconnected(self):
        # at k = 2 both eigenvalues are zero modes, so neither gives a scale
        mesh = self.two_component_mesh()
        for scale in (1e-3, 1.0, 1e3):
            scaled = TriMesh(mesh.vertices * scale, mesh.faces)
            lap = cotan_laplacian(scaled)
            mass = voronoi_areas(scaled)
            for k in (2, 3):
                with pytest.raises(DataError, match="2 connected components"):
                    lb_spectrum(lap, mass, k)
