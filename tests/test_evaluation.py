import logging
import math

import numpy as np
import pytest

from specpool.errors import DataError
from specpool.evaluation import (RankedList, accuracy, export_ranked_lists,
                                 format_report, query_metrics, rank, rank_one,
                                 retrieval_metrics, split_disjoint_classes,
                                 split_fraction, split_kfold)
from specpool.shape_io import DatasetManifest, ManifestEntry

from conftest import loo_nn_accuracy


def toy_manifest(per_class, n_classes):
    entries = [ManifestEntry(f"c{c}_i{i}", f"c{c}_i{i}.off", c, "train")
               for c in range(n_classes) for i in range(per_class)]
    return DatasetManifest(entries, n_classes)


class TestRanking:
    def test_orders_by_distance(self):
        gallery = np.array([[2.0], [1.0], [3.0]])
        assert rank_one(np.array([0.0]), gallery).tolist() == [1, 0, 2]

    def test_stable_ties(self):
        gallery = np.array([[1.0], [-1.0], [1.0]])
        assert rank_one(np.array([0.0]), gallery).tolist() == [0, 1, 2]

    def test_matches_sorted_oracle(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=4)
        gallery = rng.normal(size=(20, 4))
        order = rank_one(q, gallery)
        dists = [float(np.linalg.norm(g - q)) for g in gallery]
        ref = sorted(range(20), key=lambda j: (dists[j], j))
        assert order.tolist() == ref

    def test_leave_one_out_lists(self):
        emb = np.array([[0.0], [1.0], [1.1], [5.0]])
        ids = ["a", "b", "c", "d"]
        labels = np.array([0, 0, 1, 1])
        lists = rank(emb, ids, labels)
        assert [rl.query_id for rl in lists] == ids
        for rl in lists:
            assert rl.query_id not in rl.ordered_ids
            assert len(rl.ordered_ids) == 3
        assert lists[1].ordered_ids == ["c", "a", "d"]
        assert lists[1].relevant.tolist() == [False, True, False]

    def test_needs_two_shapes(self):
        with pytest.raises(DataError):
            rank(np.zeros((1, 2)), ["a"], np.array([0]))


class TestQueryMetrics:
    def test_perfect_two_relevant(self):
        nn, t1, t2, em, dcg, ap = query_metrics([True, True, False, False])
        assert (nn, t1, t2) == (1.0, 1.0, 1.0)
        assert abs(em - 2.0 / 17.0) < 1e-15
        assert dcg == 1.0 and ap == 1.0

    def test_single_relevant_second(self):
        nn, t1, t2, em, dcg, ap = query_metrics([False, True, False])
        assert (nn, t1, t2) == (0.0, 0.0, 1.0)
        assert abs(em - 2.0 / 33.0) < 1e-15
        assert dcg == 1.0 and ap == 0.5

    def test_alternating_example(self):
        nn, t1, t2, em, dcg, ap = query_metrics([True, False, True, False])
        assert (nn, t1, t2) == (1.0, 0.5, 1.0)
        assert abs(em - 2.0 / 17.0) < 1e-15
        ref_dcg = (1.0 + 1.0 / math.log2(3)) / 2.0
        assert abs(dcg - ref_dcg) < 1e-15
        assert abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-15

    def test_relevant_past_cutoff_scores_zero_e_measure(self):
        rel = [False] * 40 + [True]
        *_, em, dcg, ap = query_metrics(rel)
        assert em == 0.0
        assert abs(ap - 1.0 / 41.0) < 1e-15
        assert abs(dcg - 1.0 / math.log2(41)) < 1e-15

    def test_no_relevant_rejected(self):
        with pytest.raises(DataError):
            query_metrics([False, False])

    def test_swapping_relevant_earlier_never_hurts(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            rel = rng.random(12) < 0.4
            if not rel.any():
                rel[5] = True
            pos = [i for i in range(11) if not rel[i] and rel[i + 1]]
            if not pos:
                continue
            i = pos[0]
            better = rel.copy()
            better[i], better[i + 1] = better[i + 1], better[i]
            a = query_metrics(rel.tolist())
            b = query_metrics(better.tolist())
            for x, y in zip(a, b):
                assert y >= x - 1e-12


class TestRetrievalMetrics:
    def test_averages(self):
        lists = [RankedList("q0", ["a", "b"], np.array([True, False])),
                 RankedList("q1", ["a", "b"], np.array([False, True]))]
        report = retrieval_metrics(lists)
        assert report.nn == 0.5
        assert report.n_queries == 2 and report.n_skipped == 0

    def test_skips_singleton_queries(self, caplog):
        lists = [RankedList("q0", ["a", "b"], np.array([True, False])),
                 RankedList("lone", ["a", "b"], np.array([False, False]))]
        with caplog.at_level(logging.WARNING, logger="specpool"):
            report = retrieval_metrics(lists)
        assert "lone" in caplog.text
        assert report.nn == 1.0
        assert report.n_queries == 1 and report.n_skipped == 1

    def test_all_skipped_rejected(self):
        lists = [RankedList("q", ["a"], np.array([False]))]
        with pytest.raises(DataError, match="no scorable"):
            retrieval_metrics(lists)

    def test_nn_equals_independent_loo_classifier(self):
        rng = np.random.default_rng(2)
        labels = np.repeat(np.arange(4), 6)
        emb = rng.normal(size=(24, 5)) + labels[:, None] * 1.5
        ids = [f"s{i}" for i in range(24)]
        report = retrieval_metrics(rank(emb, ids, labels))
        assert abs(report.nn - loo_nn_accuracy(emb, labels)) < 1e-12


class TestAccuracy:
    def test_values(self):
        labels = np.array([0, 1, 2, 1])
        assert accuracy(labels, labels) == 1.0
        assert accuracy(np.array([1, 2, 0, 0]), labels) == 0.0
        assert accuracy(np.array([0, 1, 2, 0]), labels) == 0.75

    def test_validation(self):
        with pytest.raises(DataError, match="empty"):
            accuracy(np.array([]), np.array([]))
        with pytest.raises(DataError, match="length"):
            accuracy(np.array([0]), np.array([0, 1]))


class TestSplits:
    def test_fraction_stratified(self):
        manifest = toy_manifest(10, 10)
        out = split_fraction(manifest, 0.4, seed=0)
        assert [e.shape_id for e in out.entries] \
            == [e.shape_id for e in manifest.entries]
        for c in range(10):
            members = [e for e in out.entries if e.label == c]
            assert sum(e.split == "train" for e in members) == 4
            assert sum(e.split == "test" for e in members) == 6

    def test_fraction_clamps_to_leave_both_sides(self):
        out = split_fraction(toy_manifest(2, 2), 0.01, seed=0)
        for c in range(2):
            members = [e for e in out.entries if e.label == c]
            assert sum(e.split == "train" for e in members) == 1

    def test_fraction_deterministic(self):
        manifest = toy_manifest(6, 3)
        a = split_fraction(manifest, 0.5, seed=4)
        b = split_fraction(manifest, 0.5, seed=4)
        assert [e.split for e in a.entries] == [e.split for e in b.entries]
        c = split_fraction(manifest, 0.5, seed=5)
        assert [e.split for e in a.entries] != [e.split for e in c.entries]

    def test_fraction_validation(self):
        with pytest.raises(DataError):
            split_fraction(toy_manifest(4, 2), 1.0, seed=0)
        single = DatasetManifest(
            [ManifestEntry("a", "a.off", 0, "train"),
             ManifestEntry("b", "b.off", 0, "train"),
             ManifestEntry("c", "c.off", 1, "train")], 2)
        with pytest.raises(DataError, match="fewer than 2"):
            split_fraction(single, 0.5, seed=0)

    def test_kfold_partition(self):
        manifest = toy_manifest(24, 2)
        folds = split_kfold(manifest, 5, seed=1)
        assert len(folds) == 5
        test_ids = [set(e.shape_id for e in f.subset("test"))
                    for f in folds]
        union = set().union(*test_ids)
        assert len(union) == 48
        for i in range(5):
            for j in range(i + 1, 5):
                assert not (test_ids[i] & test_ids[j])
        # round-robin dealing keeps fold sizes within one per class
        for f in folds:
            for c in range(2):
                n_test = sum(e.split == "test" for e in f.entries
                             if e.label == c)
                assert n_test in (4, 5)

    def test_kfold_validation(self):
        with pytest.raises(DataError):
            split_kfold(toy_manifest(6, 2), 1, seed=0)
        with pytest.raises(DataError, match="smallest class"):
            split_kfold(toy_manifest(3, 2), 4, seed=0)

    def test_disjoint_classes(self):
        manifest = toy_manifest(4, 10)
        out = split_disjoint_classes(manifest, 0.3, seed=2)
        train_labels = {e.label for e in out.subset("train")}
        test_labels = {e.label for e in out.subset("test")}
        assert len(train_labels) == 3 and len(test_labels) == 7
        assert not (train_labels & test_labels)
        assert len(out.subset("train")) == 12
        assert len(out.subset("test")) == 28

    def test_disjoint_validation(self):
        with pytest.raises(DataError, match="two classes"):
            split_disjoint_classes(toy_manifest(4, 1), 0.5, seed=0)


class TestReporting:
    def test_format_report(self):
        lists = [RankedList("q0", ["a", "b"], np.array([True, False]))]
        report = retrieval_metrics(lists)
        text = format_report([report], ["st_net"])
        lines = text.splitlines()
        assert lines[0] == "method\tNN\t1-T\t2-T\tEM\tDCG\tmAP"
        cells = lines[1].split("\t")
        assert cells[0] == "st_net"
        assert cells[1] == "100.00"

    def test_export_ranked_lists(self, tmp_path):
        lists = [RankedList("q0", ["b", "a"], np.array([True, False])),
                 RankedList("q1", ["a", "b"], np.array([False, True]))]
        path = tmp_path / "ranked.tsv"
        export_ranked_lists(lists, path)
        assert path.read_text() == "q0\tb,a\nq1\ta,b\n"
