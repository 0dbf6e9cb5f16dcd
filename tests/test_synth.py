import hashlib

import numpy as np
import pytest

from conftest import loop_save_mesh, loop_subdivide, loop_torus_mesh
from specpool import synth
from specpool.errors import DataError
from specpool.lb_operator import mesh_component_count, mesh_spectrum
from specpool.shape_io import TriMesh, face_unit_normals, load_manifest
from specpool.synth import (SynthSpec, base_shape, generate, icosphere,
                            icosphere_level_for, make_instance, torus_mesh,
                            vertex_normals)
from specpool.rng import substream


def euler_characteristic(verts, faces):
    edges = set()
    for f in faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            edges.add((min(a, b), max(a, b)))
    return len(verts) - len(edges) + len(faces)


class TestBaseShapes:
    def test_icosphere_counts(self):
        for level, n in ((0, 12), (1, 42), (2, 162), (3, 642)):
            verts, faces = icosphere(level)
            assert len(verts) == n
            assert len(faces) == 20 * 4 ** level

    def test_icosphere_is_unit_sphere(self):
        verts, faces = icosphere(2)
        np.testing.assert_allclose(np.linalg.norm(verts, axis=1), 1.0,
                                   rtol=1e-12)
        assert euler_characteristic(verts, faces) == 2
        assert mesh_component_count(TriMesh(verts, faces)) == 1

    def test_icosphere_outward_orientation(self):
        verts, faces = icosphere(1)
        normals = face_unit_normals(verts, faces)
        centroids = verts[faces].mean(axis=1)
        assert np.all(np.einsum("ij,ij->i", normals, centroids) > 0)

    def test_level_for_target(self):
        assert icosphere_level_for(12) == 0
        assert icosphere_level_for(41) == 0
        assert icosphere_level_for(42) == 1
        assert icosphere_level_for(641) == 2
        assert icosphere_level_for(642) == 3
        assert icosphere_level_for(1500) == 3

    def test_torus_topology(self):
        verts, faces = torus_mesh(12, 8)
        assert len(verts) == 96
        assert len(faces) == 192
        assert euler_characteristic(verts, faces) == 0
        assert mesh_component_count(TriMesh(verts, faces)) == 1

    def test_base_shape_kinds(self):
        for kind in ("sphere", "ellipsoid", "torus", "capsule",
                     "bumpy_sphere"):
            verts, faces = base_shape(kind, 200)
            mesh = TriMesh(verts, faces)
            assert mesh_component_count(mesh) == 1
        with pytest.raises(DataError, match="unknown generator"):
            base_shape("cube", 200)

    def test_vertex_normals_radial_on_sphere(self):
        verts, faces = icosphere(2)
        normals = vertex_normals(verts, faces)
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0,
                                   rtol=1e-12)
        assert np.einsum("ij,ij->i", normals, verts).min() > 0.99


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestArrayBuildMatchesLoops:
    """The array-built meshes equal the per-element loops' byte for byte."""

    @pytest.mark.parametrize("level", range(6))
    def test_icosphere(self, level, monkeypatch):
        verts, faces = icosphere(level)
        monkeypatch.setattr(synth, "_subdivide", loop_subdivide)
        ref_verts, ref_faces = icosphere(level)
        assert same_bytes(verts, ref_verts)
        assert same_bytes(faces, ref_faces)

    @pytest.mark.parametrize("n_major,n_minor", [(8, 6), (9, 7), (49, 31)])
    def test_torus(self, n_major, n_minor):
        _, faces = torus_mesh(n_major, n_minor)
        assert same_bytes(faces, loop_torus_mesh(n_major, n_minor)[1])

    def test_generate_writes_the_loops_files(self, tmp_path, monkeypatch):
        spec = SynthSpec(classes=synth.GENERATORS, instances_per_class=4,
                         resolution=700, seed=3)
        generate(spec, tmp_path / "array")
        monkeypatch.setattr(synth, "_subdivide", loop_subdivide)
        monkeypatch.setattr(synth, "torus_mesh", loop_torus_mesh)
        monkeypatch.setattr(synth, "save_mesh", loop_save_mesh)
        generate(spec, tmp_path / "loop")
        names = sorted(p.name for p in (tmp_path / "array").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "loop").iterdir())
        assert len(names) == 21
        for name in names:
            assert (tmp_path / "array" / name).read_bytes() \
                == (tmp_path / "loop" / name).read_bytes(), name


class TestSpecValidation:
    def test_defaults(self):
        spec = SynthSpec()
        assert spec.classes == ("sphere", "ellipsoid", "torus", "capsule")
        assert spec.instances_per_class == 20

    @pytest.mark.parametrize("kw", [dict(classes=("sphere",)),
                                    dict(classes=("sphere", "cube")),
                                    dict(instances_per_class=3),
                                    dict(resolution=8),
                                    dict(amplitude=0.5),
                                    dict(amplitude=-0.1)])
    def test_rejects(self, kw):
        with pytest.raises(DataError):
            SynthSpec(**kw)


class TestInstances:
    def test_scale_applied(self):
        rng = substream(0, "shape", "sphere", 0)
        mesh = make_instance("sphere", 200, 0.05, rng)
        r = np.linalg.norm(mesh.vertices, axis=1)
        assert 0.3 * 256 < r.max() < 3 * 256

    def test_zero_amplitude_instances_are_congruent(self):
        # amplitude 0 leaves a rigid motion: identical spectra
        specs = []
        for i in range(2):
            rng = substream(3, "shape", "sphere", i)
            mesh = make_instance("sphere", 200, 0.0, rng)
            specs.append(mesh_spectrum(mesh, 10).eigenvalues)
        np.testing.assert_allclose(specs[0][1:], specs[1][1:], rtol=1e-9)

    def test_deformed_instances_differ(self):
        rngs = [substream(3, "shape", "sphere", i) for i in range(2)]
        meshes = [make_instance("sphere", 200, 0.06, r) for r in rngs]
        a = mesh_spectrum(meshes[0], 10).eigenvalues
        b = mesh_spectrum(meshes[1], 10).eigenvalues
        assert np.abs(a[1:] - b[1:]).max() > 1e-6 * np.abs(a[1:]).max()

    def test_classes_separate_in_spectrum(self):
        # scale-normalized eigenvalue vectors cluster by class
        spec = SynthSpec(instances_per_class=4, resolution=200, seed=5)
        vecs, labels = [], []
        for label, kind in enumerate(spec.classes):
            for i in range(4):
                rng = substream(spec.seed, "shape", kind, i)
                mesh = make_instance(kind, 200, spec.amplitude, rng)
                ev = mesh_spectrum(mesh, 20).eigenvalues
                vecs.append(ev[1:] / ev[1])
                labels.append(label)
        vecs = np.array(vecs)
        labels = np.array(labels)
        good = bad = 0
        for a in range(len(vecs)):
            for p in np.flatnonzero(labels == labels[a]):
                if p == a:
                    continue
                for g in np.flatnonzero(labels != labels[a]):
                    d_in = np.linalg.norm(vecs[a] - vecs[p])
                    d_out = np.linalg.norm(vecs[a] - vecs[g])
                    if d_in < d_out:
                        good += 1
                    else:
                        bad += 1
        assert good / (good + bad) >= 0.95


class TestGenerate:
    def small_spec(self, seed=7):
        return SynthSpec(classes=("sphere", "torus"), instances_per_class=4,
                         resolution=150, seed=seed)

    def test_writes_files_and_manifest(self, tmp_path):
        manifest = generate(self.small_spec(), tmp_path)
        assert len(manifest.entries) == 8
        assert manifest.class_count == 2
        files = sorted(p.name for p in tmp_path.iterdir())
        assert "manifest.tsv" in files
        assert sum(name.endswith(".off") for name in files) == 8
        assert "sphere_000.off" in files and "torus_003.off" in files

        reloaded = load_manifest(tmp_path / "manifest.tsv")
        assert [e.shape_id for e in reloaded.entries] \
            == [e.shape_id for e in manifest.entries]
        assert all(e.split == "train" for e in reloaded.entries)
        for label, kind in enumerate(("sphere", "torus")):
            count = sum(e.label == label for e in reloaded.entries)
            assert count == 4

    def test_bit_identical_regeneration(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate(self.small_spec(), a_dir)
        generate(self.small_spec(), b_dir)
        for name in sorted(p.name for p in a_dir.iterdir()):
            ha = hashlib.sha256((a_dir / name).read_bytes()).hexdigest()
            hb = hashlib.sha256((b_dir / name).read_bytes()).hexdigest()
            assert ha == hb, name

    def test_seed_changes_output(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate(self.small_spec(seed=7), a_dir)
        generate(self.small_spec(seed=8), b_dir)
        same = all(
            (a_dir / n).read_bytes() == (b_dir / n).read_bytes()
            for n in sorted(p.name for p in a_dir.iterdir())
            if n.endswith(".off"))
        assert not same
