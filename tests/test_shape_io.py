import numpy as np
import pytest

from conftest import loop_save_mesh
from specpool import synth
from specpool.errors import DataError, ManifestError, MeshFormatError
from specpool.shape_io import (DatasetManifest, ManifestEntry, PointCloud,
                               TriMesh, face_areas, face_unit_normals,
                               load_manifest, load_mesh, mesh_file_hash,
                               sample_points, save_manifest, save_mesh)

OFF_TETRA = """OFF
4 4 6
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 1 2
3 0 3 1
3 0 2 3
3 1 3 2
"""

OBJ_TRI = """# comment
v 0 0 0
v 1 0 0
v 0 1 0
f 1 2 3
"""

PLY_TRI = """ply
format ascii 1.0
element vertex 3
property float x
property float y
property float z
element face 1
property list uchar int vertex_indices
end_header
0 0 0
1 0 0
0 1 0
3 0 1 2
"""

PLY_FACE_FIRST = """ply
format ascii 1.0
element face 1
property list uchar int vertex_indices
element vertex 3
property float x
property float y
property float z
end_header
3 0 1 2
0 0 0
1 0 0
0 1 0
"""

# (file name, text, message fragment, line it names)
MALFORMED = [
    ("short_face.ply", PLY_TRI.replace("3 0 1 2", "3 0 1"),
     "bad face line '3 0 1'", 13),
    ("word_count.ply", PLY_TRI.replace("vertex 3", "vertex four"),
     "bad element line 'element vertex four'", 3),
    ("no_count.ply", PLY_TRI.replace("vertex 3", "vertex"),
     "bad element line 'element vertex'", 3),
    ("bare_format.ply", PLY_TRI.replace("format ascii 1.0", "format"),
     "unsupported PLY format line 'format'", 2),
    ("face_first.ply", PLY_FACE_FIRST,
     "face element before vertex", 3),
    ("short_face.off", OFF_TETRA.replace("3 0 3 1", "3 0 3"),
     "bad face line '3 0 3'", 8),
    ("short_face.obj", OBJ_TRI.replace("f 1 2 3", "f 1 2"),
     "non-triangle face (arity 2)", 5),
    ("negative_count.off", "OFF\n-1 1 0\n0 0 0\n3 0 1 2\n",
     "bad counts line '-1 1 0'", 2),
    ("missing_face.off", "OFF\n5 1 0\n0 0 0\n0 1 0\n1 0 0\n1 1 0\n3 0 1 2\n",
     "face rows: 1 declared, 0 found", 2),
    ("nan.off", OFF_TETRA.replace("-1 1 -1", "-1 nan -1"),
     "bad vertex line '-1 nan -1'", 5),
    ("inf.off", OFF_TETRA.replace("-1 1 -1", "-inf 1 -1"),
     "bad vertex line '-inf 1 -1'", 5),
    ("nan.obj", OBJ_TRI.replace("v 1 0 0", "v 1 0 nan"),
     "bad vertex line '1 0 nan'", 3),
    ("inf.obj", OBJ_TRI.replace("v 1 0 0", "v 1 1e999 0"),
     "bad vertex line '1 1e999 0'", 3),
    ("nan.ply", PLY_TRI.replace("1 0 0\n", "NaN 0 0\n"),
     "bad vertex line 'NaN 0 0'", 11),
    ("inf.ply", PLY_TRI.replace("1 0 0\n", "1 0 inf\n"),
     "bad vertex line '1 0 inf'", 11),
]


def obj_and_ply_texts(verts, faces):
    """The mesh as OBJ and PLY text; 17 significant digits identify a
    double exactly, so both parse back to the same arrays."""
    vlines = ["%.17g %.17g %.17g" % tuple(p) for p in verts]
    return {
        ".obj": ["v " + line for line in vlines]
                + ["f %d %d %d" % tuple(t + 1) for t in faces],
        ".ply": ["ply", "format ascii 1.0",
                 f"element vertex {len(verts)}",
                 "property float64 x", "property float64 y",
                 "property float64 z", f"element face {len(faces)}",
                 "property list uchar int vertex_indices", "end_header"]
                + vlines + ["3 %d %d %d" % tuple(t) for t in faces],
    }


class TestTriMesh:
    def test_validates_index_range(self):
        with pytest.raises(DataError):
            TriMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))

    def test_rejects_repeated_index_in_face(self):
        with pytest.raises(DataError):
            TriMesh(np.eye(3), np.array([[0, 1, 1]]))

    def test_rejects_too_few_vertices(self):
        with pytest.raises(DataError):
            TriMesh(np.zeros((2, 3)), np.array([[0, 1, 0]]))

    def test_rejects_no_faces(self):
        with pytest.raises(DataError):
            TriMesh(np.eye(3), np.zeros((0, 3), dtype=int))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_vertex(self, value):
        verts = np.eye(4, 3)
        verts[2, 1] = value
        with pytest.raises(DataError,
                           match="vertex 2 has a non-finite coordinate"):
            TriMesh(verts, np.array([[0, 1, 2], [0, 1, 3]]))


class TestPointCloud:
    def test_accepts_unit_normals(self):
        pc = PointCloud(np.zeros((2, 3)),
                        np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        assert pc.points.shape == (2, 3)

    def test_rejects_non_unit_normals(self):
        with pytest.raises(DataError):
            PointCloud(np.zeros((1, 3)), np.array([[0.5, 0.0, 0.0]]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            PointCloud(np.zeros((2, 3)), np.array([[1.0, 0.0, 0.0]]))


class TestLoadMesh:
    def test_off_tetrahedron(self, tmp_path):
        p = tmp_path / "t.off"
        p.write_text(OFF_TETRA)
        mesh = load_mesh(p)
        assert mesh.n_vertices == 4 and mesh.faces.shape == (4, 3)

    def test_obj_one_based_indices(self, tmp_path):
        p = tmp_path / "t.obj"
        p.write_text(OBJ_TRI)
        mesh = load_mesh(p)
        assert mesh.faces.tolist() == [[0, 1, 2]]

    def test_ply_ascii(self, tmp_path):
        p = tmp_path / "t.ply"
        p.write_text(PLY_TRI)
        mesh = load_mesh(p)
        assert mesh.n_vertices == 3 and mesh.faces.shape == (1, 3)

    def test_off_truncated_vertices_reports_line(self, tmp_path):
        bad = "OFF\n5 1 0\n0 0 0\n0 1 0\n1 0 0\n1 1 0\n3 0 1 2\n"
        p = tmp_path / "bad.off"
        p.write_text(bad)
        with pytest.raises(MeshFormatError) as err:
            load_mesh(p)
        assert "bad.off" in str(err.value)

    def test_non_utf8_off_comment_is_a_format_error(self, tmp_path):
        p = tmp_path / "latin.off"
        p.write_bytes(OFF_TETRA.encode() + b"# \xff\xfe\n")
        offset = len(OFF_TETRA) + 2
        line = OFF_TETRA.count("\n") + 1
        with pytest.raises(MeshFormatError,
                           match=f"latin.off:{line}: byte 0xff at offset "
                                 f"{offset} is not UTF-8"):
            load_mesh(p)

    def test_binary_ply_is_a_format_error(self, tmp_path):
        p = tmp_path / "bin.ply"
        header = (b"ply\nformat binary_little_endian 1.0\n"
                  b"element vertex 3\nproperty float x\nproperty float y\n"
                  b"property float z\nend_header\n")
        p.write_bytes(header + np.array([-1.0, 0.5, 2.0], "<f4").tobytes())
        with pytest.raises(MeshFormatError,
                           match=f"byte 0x80 at offset {len(header) + 2} "):
            load_mesh(p)

    def test_crlf_and_utf8_comment_parse_like_plain_text(self, tmp_path):
        plain, other = tmp_path / "plain.off", tmp_path / "other.off"
        plain.write_text(OFF_TETRA)
        other.write_bytes(("# caf\u00e9\n" + OFF_TETRA)
                          .replace("\n", "\r\n").encode("utf-8"))
        a, b = load_mesh(plain), load_mesh(other)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, b.faces)

    def test_unknown_extension(self, tmp_path):
        p = tmp_path / "t.stl"
        p.write_text("solid\n")
        with pytest.raises(MeshFormatError):
            load_mesh(p)

    def test_out_of_range_face_index(self, tmp_path):
        p = tmp_path / "t.off"
        p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n")
        with pytest.raises((MeshFormatError, DataError)):
            load_mesh(p)

    def test_round_trip_preserves_arrays(self, tmp_path, tetra_mesh):
        p = tmp_path / "rt.off"
        save_mesh(p, tetra_mesh)
        back = load_mesh(p)
        np.testing.assert_allclose(back.vertices, tetra_mesh.vertices,
                                   rtol=0, atol=1e-9)
        assert np.array_equal(back.faces, tetra_mesh.faces)

    def test_round_trip_obj_and_ply(self, tmp_path, tetra_mesh):
        verts = tetra_mesh.vertices / 3.0 + 0.1
        faces = tetra_mesh.faces
        for ext, lines in obj_and_ply_texts(verts, faces).items():
            p = tmp_path / f"rt{ext}"
            p.write_text("\n".join(lines) + "\n")
            back = load_mesh(p)
            assert np.array_equal(back.vertices, verts)
            assert np.array_equal(back.faces, faces)

    @pytest.mark.parametrize("kind", synth.GENERATORS)
    def test_synth_meshes_parse_bit_identically(self, tmp_path, kind):
        mesh = synth.make_instance(kind, 642, synth.SynthSpec().amplitude,
                                   np.random.default_rng(11))
        save_mesh(tmp_path / "m.off", mesh)
        texts = obj_and_ply_texts(mesh.vertices, mesh.faces)
        for ext, lines in texts.items():
            (tmp_path / f"m{ext}").write_text("\n".join(lines) + "\n")
        for ext in (".off", ".obj", ".ply"):
            back = load_mesh(tmp_path / f"m{ext}")
            assert np.array_equal(back.vertices, mesh.vertices)
            assert np.array_equal(back.faces, mesh.faces)

    @pytest.mark.parametrize("name,text,fragment,line", MALFORMED,
                             ids=[row[0] for row in MALFORMED])
    def test_malformed_record_names_its_line(self, tmp_path, name, text,
                                             fragment, line):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(MeshFormatError) as err:
            load_mesh(p)
        assert err.value.line == line
        assert f"{name}:{line}: {fragment}" in str(err.value)

    @pytest.mark.parametrize("kind", synth.GENERATORS)
    def test_save_writes_the_per_line_text(self, tmp_path, kind):
        mesh = synth.make_instance(kind, 642, synth.SynthSpec().amplitude,
                                   np.random.default_rng(5))
        save_mesh(tmp_path / "a.off", mesh)
        loop_save_mesh(tmp_path / "b.off", mesh)
        assert (tmp_path / "a.off").read_bytes() \
            == (tmp_path / "b.off").read_bytes()

    def test_save_writes_edge_values_as_the_per_line_text(self, tmp_path):
        mesh = TriMesh(np.array([[-0.0, 5e-324, 1e300],
                                 [-1e300, -5e-324, 0.1],
                                 [-2.5, 1.0 / 3.0, -123456789.0]]),
                       np.array([[0, 1, 2], [2, 1, 0]]))
        save_mesh(tmp_path / "a.off", mesh)
        loop_save_mesh(tmp_path / "b.off", mesh)
        text = (tmp_path / "a.off").read_text()
        assert text == (tmp_path / "b.off").read_text()
        assert text.splitlines()[2] \
            == "-0 4.9406564584124654e-324 1.0000000000000001e+300"
        assert np.array_equal(load_mesh(tmp_path / "a.off").vertices,
                              mesh.vertices)

    def test_writes_only_off(self, tmp_path, tetra_mesh):
        for ext in (".obj", ".ply", ".stl"):
            with pytest.raises(MeshFormatError, match="use .off"):
                save_mesh(tmp_path / f"t{ext}", tetra_mesh)
            assert not (tmp_path / f"t{ext}").exists()


class TestFileHash:
    def test_same_bytes_same_digest(self, tmp_path):
        a, b = tmp_path / "a.off", tmp_path / "b.off"
        a.write_text(OFF_TETRA)
        b.write_text(OFF_TETRA)
        assert mesh_file_hash(a) == mesh_file_hash(b)

    def test_one_changed_byte_changes_digest(self, tmp_path):
        p = tmp_path / "t.off"
        p.write_text(OFF_TETRA)
        before = mesh_file_hash(p)
        p.write_text(OFF_TETRA.replace("-1 -1 1", "-1 -1 2"))
        assert mesh_file_hash(p) != before

    def test_extension_is_part_of_digest(self, tmp_path):
        off, obj = tmp_path / "t.off", tmp_path / "t.obj"
        off.write_text(OBJ_TRI)
        obj.write_text(OBJ_TRI)
        assert mesh_file_hash(off) != mesh_file_hash(obj)
        upper = tmp_path / "u.OBJ"
        upper.write_text(OBJ_TRI)
        assert mesh_file_hash(upper) == mesh_file_hash(obj)

    def test_missing_file_raises_like_load_mesh(self, tmp_path):
        p = tmp_path / "absent.off"
        with pytest.raises(MeshFormatError, match="cannot read file") as h:
            mesh_file_hash(p)
        with pytest.raises(MeshFormatError) as parse:
            load_mesh(p)
        assert str(h.value) == str(parse.value)


class TestFaceGeometry:
    def test_face_areas(self, right_triangle_mesh):
        areas = face_areas(right_triangle_mesh.vertices,
                           right_triangle_mesh.faces)
        np.testing.assert_allclose(areas, [0.5])

    def test_face_normals_unit(self, tetra_mesh):
        n = face_unit_normals(tetra_mesh.vertices, tetra_mesh.faces)
        np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0)


class TestSamplePoints:
    def test_single_triangle_all_points_share_normal(self, tetra_mesh,
                                                     equilateral_mesh):
        pc = sample_points(equilateral_mesh, 3, 0)
        assert pc.points.shape == (3, 3)
        assert np.ptp(pc.normals, axis=0).max() == 0.0

    def test_points_lie_on_face_plane(self, equilateral_mesh):
        pc = sample_points(equilateral_mesh, 50, 1)
        assert np.abs(pc.points[:, 2]).max() < 1e-12

    def test_area_weighted_face_frequency(self):
        # two coplanar triangles with areas 9 and 1
        verts = np.array([[0.0, 0, 0], [6.0, 0, 0], [0.0, 3, 0],
                          [-2.0, 0, 0], [0.0, -1, 0]])
        faces = np.array([[0, 1, 2], [0, 3, 4]])
        mesh = TriMesh(verts, faces)
        pc = sample_points(mesh, 10000, 0)
        on_large = np.mean((pc.points[:, 0] >= 0) & (pc.points[:, 1] >= 0))
        assert 0.88 <= on_large <= 0.92

    def test_deterministic(self, tetra_mesh):
        a = sample_points(tetra_mesh, 100, 5)
        b = sample_points(tetra_mesh, 100, 5)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.normals, b.normals)

    def test_face_selection_chi_square(self, tetra_mesh):
        # frequencies proportional to face areas (all equal here), plus a
        # scaled-face variant with known 2:1:1:1 area ratios
        verts = tetra_mesh.vertices.copy()
        faces = tetra_mesh.faces
        areas = face_areas(verts, faces)
        pc = sample_points(tetra_mesh, 100000, 2)
        normals = face_unit_normals(verts, faces)
        # assign each sample to the face whose normal it carries
        counts = np.zeros(len(faces))
        for i in range(len(faces)):
            counts[i] = np.sum(np.all(np.abs(pc.normals - normals[i])
                                      < 1e-12, axis=1))
        expected = areas / areas.sum() * 100000
        chi2 = np.sum((counts - expected) ** 2 / expected)
        # 3 dof, significance 0.01 -> critical value 11.345
        assert chi2 < 11.345

    def test_zero_area_mesh_rejected(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        mesh = TriMesh.__new__(TriMesh)
        mesh.vertices = verts
        mesh.faces = np.array([[0, 1, 2]])
        with pytest.raises(DataError):
            sample_points(mesh, 5, 0)

    def test_degenerate_faces_dropped_with_warning(self, caplog):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0],
                          [2.0, 0, 0]])
        faces = np.array([[0, 1, 2], [0, 1, 3]])  # second face has zero area
        mesh = TriMesh(verts, faces)
        import logging
        with caplog.at_level(logging.WARNING):
            pc = sample_points(mesh, 200, 0)
        assert pc.points.shape == (200, 3)
        assert np.abs(pc.points[:, 2]).min() >= 0.0
        assert any("zero-area" in r.message for r in caplog.records)


class TestManifest:
    def write(self, tmp_path, body):
        p = tmp_path / "m.tsv"
        p.write_text(body)
        return p

    def test_basic_load(self, tmp_path):
        p = self.write(tmp_path, "# comment\na\ta.off\t0\ttrain\n"
                                 "b\tb.off\t1\ttest\n")
        m = load_manifest(p)
        assert m.class_count == 2 and len(m.entries) == 2
        assert m.full_path(m.entries[0]) == tmp_path / "a.off"

    def test_duplicate_id_rejected(self, tmp_path):
        p = self.write(tmp_path, "a\ta.off\t0\ttrain\na\tb.off\t1\ttest\n")
        with pytest.raises(ManifestError, match="a"):
            load_manifest(p)

    def test_bad_split_rejected(self, tmp_path):
        p = self.write(tmp_path, "a\ta.off\t0\tvalidation\n")
        with pytest.raises(ManifestError):
            load_manifest(p)

    def test_round_trip(self, tmp_path):
        entries = [ManifestEntry("s1", "s1.off", 0, "train"),
                   ManifestEntry("s2", "s2.off", 1, "test")]
        m = DatasetManifest(entries, 2, root=tmp_path)
        save_manifest(tmp_path / "rt.tsv", m)
        back = load_manifest(tmp_path / "rt.tsv")
        assert back.entries == entries
        assert back.class_count == 2

    def test_subset(self, tmp_path):
        p = self.write(tmp_path, "a\ta.off\t0\ttrain\nb\tb.off\t1\ttest\n"
                                 "c\tc.off\t1\ttrain\n")
        m = load_manifest(p)
        assert [e.shape_id for e in m.subset("train")] == ["a", "c"]
