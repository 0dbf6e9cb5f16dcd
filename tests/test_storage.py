import logging
import os
import stat

import numpy as np
import pytest

from specpool import storage
from specpool.errors import CacheError
from specpool.storage import (ShapeCache, counters, load_bundle, params_hash,
                              reset_counters, save_bundle)


class TestBundles:
    def test_round_trip(self, tmp_path):
        arrays = {"evals": np.arange(5.0), "flag": np.int64(3),
                  "mat": np.eye(3)}
        path = tmp_path / "b.npz"
        save_bundle(path, arrays)
        out = load_bundle(path)
        assert set(out) == set(arrays)
        for k in arrays:
            assert np.array_equal(out[k], arrays[k])

    def test_byte_identical_rewrites(self, tmp_path):
        arrays = {"z": np.linspace(0, 1, 7), "a": np.ones((2, 2))}
        p1, p2 = tmp_path / "x.npz", tmp_path / "y.npz"
        save_bundle(p1, arrays)
        save_bundle(p2, dict(reversed(list(arrays.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_partial_files(self, tmp_path):
        # writes go through a temp name, so the target appears atomically
        save_bundle(tmp_path / "c.npz", {"v": np.zeros(2)})
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]

    def test_overlapping_writers_of_one_record(self, tmp_path, monkeypatch):
        # a second writer saves the same record while the first is still
        # writing; each must go through a temp file of its own
        path = tmp_path / "r.npz"
        savez = np.savez

        def savez_then_second_writer(fh, **arrays):
            savez(fh, **arrays)
            if "first" in arrays:
                save_bundle(path, {"second": np.ones(2)})

        monkeypatch.setattr(np, "savez", savez_then_second_writer)
        save_bundle(path, {"first": np.zeros(2)})
        assert set(load_bundle(path)) == {"first"}
        assert [p.name for p in tmp_path.iterdir()] == ["r.npz"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def savez_fails(fh, **arrays):
            raise OSError("device full")

        monkeypatch.setattr(np, "savez", savez_fails)
        with pytest.raises(OSError, match="device full"):
            save_bundle(tmp_path / "d.npz", {"v": np.zeros(2)})
        assert list(tmp_path.iterdir()) == []

    def test_default_file_permissions(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        save_bundle(tmp_path / "e.npz", {"v": np.zeros(2)})
        assert stat.S_IMODE((tmp_path / "e.npz").stat().st_mode) \
            == 0o666 & ~umask


class TestParamsHash:
    def test_stable_across_key_order(self):
        a = params_hash({"k": 100, "t": 0.5})
        b = params_hash({"t": 0.5, "k": 100})
        assert a == b and len(a) == 16

    def test_value_sensitivity(self):
        assert params_hash({"k": 100}) != params_hash({"k": 101})
        assert params_hash({"k": 100}) != params_hash({"j": 100})

    def test_numpy_and_container_types(self):
        h = params_hash({"i": np.int64(4), "f": np.float64(0.25),
                         "arr": np.array([1.0, 2.0]), "s": "hks",
                         "tup": [1, 2], "none": None})
        assert params_hash({"i": 4, "f": 0.25, "arr": [1.0, 2.0], "s": "hks",
                            "tup": [1, 2], "none": None}) == h

    def test_unhashable_type(self):
        with pytest.raises(TypeError):
            params_hash({"x": object()})


class TestShapeCache:
    def entry(self, cache, value, shape_id="s0", params=None):
        calls = []

        def compute():
            calls.append(1)
            return {"v": np.full(3, float(value))}

        out = cache.get_or_compute(shape_id, "stage", "abc123" * 3,
                                   params or {"k": 1}, compute)
        return out["v"], len(calls)

    def test_miss_store_hit(self, tmp_path):
        reset_counters()
        cache = ShapeCache(tmp_path)
        v1, computed = self.entry(cache, 7.0)
        assert computed == 1
        assert (counters["misses"], counters["stores"],
                counters["hits"]) == (1, 1, 0)
        v2, computed = self.entry(cache, 99.0)  # must come from disk
        assert computed == 0
        assert np.array_equal(v2, v1)
        assert counters["hits"] == 1

    def test_params_invalidate(self, tmp_path):
        cache = ShapeCache(tmp_path)
        v1, _ = self.entry(cache, 1.0, params={"k": 1})
        v2, computed = self.entry(cache, 2.0, params={"k": 2})
        assert computed == 1
        assert v1[0] == 1.0 and v2[0] == 2.0

    def test_content_hash_in_key(self, tmp_path):
        cache = ShapeCache(tmp_path)

        def compute():
            return {"v": np.zeros(1)}

        cache.get_or_compute("s0", "stage", "aaaa", {}, compute)
        cache.get_or_compute("s0", "stage", "bbbb", {}, compute)
        assert len(list(tmp_path.iterdir())) == 2

    def test_corrupt_record_recomputed(self, tmp_path, caplog):
        cache = ShapeCache(tmp_path)
        self.entry(cache, 5.0)
        record = next(tmp_path.iterdir())
        record.write_bytes(b"garbage")
        with caplog.at_level(logging.WARNING, logger="specpool"):
            v, computed = self.entry(cache, 6.0)
        assert "unreadable" in caplog.text
        assert computed == 1 and v[0] == 6.0
        # the fresh record replaces the corrupt one
        v2, computed = self.entry(cache, 7.0)
        assert computed == 0 and v2[0] == 6.0

    def test_compute_must_return_dict(self, tmp_path):
        cache = ShapeCache(tmp_path)
        with pytest.raises(CacheError, match="dict"):
            cache.get_or_compute("s0", "stage", "cc", {}, lambda: np.ones(2))

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPECPOOL_CACHE", raising=False)
        assert ShapeCache.from_env() is None
        monkeypatch.setenv("SPECPOOL_CACHE", str(tmp_path / "env"))
        cache = ShapeCache.from_env()
        assert cache.root == tmp_path / "env"
        override = ShapeCache.from_env(str(tmp_path / "cli"))
        assert override.root == tmp_path / "cli"
