from pathlib import Path

import pytest

from specpool.config import RunConfig, parse_config, with_overrides
from specpool.errors import ConfigError


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestDefaults:
    def test_retrieval_training_defaults(self):
        run = RunConfig()
        assert (run.batch_size, run.learning_rate, run.margin, run.eta) \
            == (5, 20.0, 60.0, 1.0)
        assert run.k_eig == 100 and run.n_points == 3000
        assert run.descriptor == "sihks_wks" and run.task == "retrieval"

    def test_validation(self):
        with pytest.raises(ConfigError, match="descriptor"):
            RunConfig(descriptor="curvature")
        with pytest.raises(ConfigError, match="task"):
            RunConfig(task="generation")

    def test_training_defaults(self):
        run = RunConfig()
        assert run.epochs == 200 and run.d_m == 100 and run.n_mix == 10
        assert run.loss_variant == "bce" and run.transform == ""

    def test_training_validation(self):
        with pytest.raises(ConfigError, match="batch_size"):
            RunConfig(batch_size=0)
        with pytest.raises(ConfigError, match="epochs"):
            RunConfig(epochs=0)
        with pytest.raises(ConfigError, match="learning_rate"):
            RunConfig(learning_rate=0.0)
        with pytest.raises(ConfigError, match="loss variant"):
            RunConfig(loss_variant="hinge")
        with pytest.raises(ConfigError, match="transform"):
            RunConfig(transform="log_banana")
        assert RunConfig(transform="half_power").transform == "half_power"

    @pytest.mark.parametrize("name, edge, outside", [
        ("d_m", 1, 0), ("n_mix", 1, 0), ("k_eig", 1, 0), ("n_points", 1, 0),
        ("neighbor_cap", 1, 0), ("t_max_factor", 1, 0),
        ("early_stop_patience", 1, 0), ("lsf_radius_frac", 1e-9, 0.0),
        ("log_eps", 1e-12, 0.0), ("margin", 0.0, -1e-9), ("eta", 0.0, -1.0),
        ("early_stop_tol", 0.0, -1e-4),
        ("lsf_radius_frac", 1e-9, float("nan")),
    ])
    def test_ranges(self, name, edge, outside):
        assert getattr(RunConfig(**{name: edge}), name) == edge
        with pytest.raises(ConfigError, match=f"{name} must be"):
            RunConfig(**{name: outside})


class TestParsing:
    def test_values_comments_blanks(self, tmp_path):
        path = write(tmp_path, """
# synthetic benchmark, small model
task = retrieval
d_m = 32            # embedding size
learning_rate = 0.5
seed = 3

descriptor = sihks
""")
        run = parse_config(path)
        assert run.d_m == 32
        assert run.learning_rate == 0.5
        assert run.seed == 3
        assert run.descriptor == "sihks"
        assert run.margin == 60.0  # untouched default

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

    def test_unknown_key(self, tmp_path):
        path = write(tmp_path, "momentum = 0.9\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1.*momentum"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write(tmp_path, "seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="2: duplicate"):
            parse_config(path)

    def test_bad_value(self, tmp_path):
        path = write(tmp_path, "epochs = soon\n")
        with pytest.raises(ConfigError, match="bad value 'soon'"):
            parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = write(tmp_path, "task retrieval\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path)

    def test_semantic_error_names_file(self, tmp_path):
        path = write(tmp_path, "descriptor = spin_image\n")
        with pytest.raises(ConfigError, match=r"run\.cfg"):
            parse_config(path)


class TestShippedConfigs:
    @pytest.mark.parametrize("name, task", [
        ("retrieval_synth.cfg", "retrieval"),
        ("classification_synth.cfg", "classification"),
    ])
    def test_parse(self, name, task):
        path = Path(__file__).parent.parent / "configs" / name
        run = parse_config(path)
        assert run.task == task


class TestRoundTrip:
    def test_overrides(self):
        run = RunConfig()
        same = with_overrides(run, seed=None, d_m=None)
        assert same == run
        changed = with_overrides(run, seed=4, epochs=10)
        assert changed.seed == 4 and changed.epochs == 10
        assert changed.margin == run.margin
        assert run.seed == 0  # original untouched
