import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dgkan.cli import (ConfigError, ExperimentConfig, build_stream, config_hash, config_lines,
                       dump_embeddings, dump_profile, main, parse_config_text, parse_scores_csv,
                       pca_2d, report, run_experiment, trainer_config, validate_config)
from dgkan.continual import ScoreMatrix, TrainerConfig, average_forgetting, run_stream
from dgkan.numcore import ContractViolation, RngStream
from dgkan.synthbench import REFERENCE_SEEDS, gen_sequence, save_stream

SRC = Path(__file__).resolve().parents[1] / "src"

# a value other than the default, per field type
_OTHER = {"bool": lambda v: not v, "int": lambda v: v + 8, "float": lambda v: 3.0 * v,
          "str": lambda v: "groupkan"}

TINY = """\
config_version = 1
protocol = four-task
seed = 11
epochs = 2
train_samples = 96
eval_samples = 64
memory_budget = 60
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = parse_config_text(TINY)
    matrix = run_experiment(cfg, out)
    return cfg, out, matrix


class TestConfig:
    def test_defaults_reproduce_reference_values(self):
        cfg = ExperimentConfig()
        assert cfg.lambda_sc == 2.0 and cfg.lambda_kd == 1.0 and cfg.tau == 0.1
        assert cfg.batch_size == 64 and cfg.memory_budget == 500
        assert cfg.main_lr == 2e-4 and cfg.proj_lr == 5e-4
        assert cfg.epochs == 40
        assert cfg.train_samples == 1024 and cfg.eval_samples == 512

    @pytest.mark.parametrize("protocol", ["four-task", "ten-task"])
    def test_defaults_are_the_acceptance_reference_run(self, protocol, monkeypatch, tmp_path):
        import test_acceptance
        used = []
        monkeypatch.setattr(test_acceptance, "_RUN_CACHE", {})
        monkeypatch.setattr(test_acceptance, "run_stream",
                            lambda stream, cfg: used.append((stream, cfg)) or (ScoreMatrix(), None))
        for seed in REFERENCE_SEEDS:
            test_acceptance.bench_run(protocol, seed)
            stream, tcfg = used.pop()
            cfg = ExperimentConfig(protocol=protocol, seed=seed)
            assert tcfg == trainer_config(cfg)
            save_stream(stream, tmp_path / "bench.txt")
            save_stream(build_stream(cfg), tmp_path / "cli.txt")
            assert (tmp_path / "bench.txt").read_text() == (tmp_path / "cli.txt").read_text()

    def test_every_trainer_field_reaches_trainer_config(self):
        for f in fields(TrainerConfig):
            value = _OTHER[f.type](getattr(TrainerConfig(), f.name))
            cfg = ExperimentConfig(**{f.name: value})
            assert trainer_config(cfg) == replace(TrainerConfig(), **{f.name: value}), f.name

    def test_parse_round_trip(self):
        cfg = parse_config_text(TINY)
        again = parse_config_text("\n".join(config_lines(cfg)))
        assert cfg == again

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config_text("config_version = 1\nnot_a_field = 3\n")

    def test_bad_type(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("config_version = 1\nseed = banana\n")

    def test_missing_version(self):
        with pytest.raises(ConfigError, match="config_version"):
            parse_config_text("seed = 1\n")

    def test_validation_rules(self):
        cfg = ExperimentConfig(protocol="six-task")
        with pytest.raises(ConfigError, match="protocol"):
            validate_config(cfg)
        with pytest.raises(ConfigError, match="tau"):
            validate_config(ExperimentConfig(tau=0.0))
        with pytest.raises(ConfigError, match="mlp_hidden"):
            validate_config(ExperimentConfig(head="groupkan", mlp_hidden=8))
        validate_config(ExperimentConfig(head="mlp", mlp_hidden=8))
        with pytest.raises(ConfigError, match="seed"):
            validate_config(ExperimentConfig(seed=-1))
        validate_config(ExperimentConfig(seed=0))

    def test_config_version_not_an_integer(self):
        with pytest.raises(ConfigError, match="config_version"):
            parse_config_text("config_version = x\nseed = 1\n")

    @pytest.mark.parametrize("name", ["tau", "main_lr", "proj_lr", "lambda_sc", "lambda_kd",
                                      "jitter_scale"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            parse_config_text(f"config_version = 1\n{name} = {value}\n")

    def test_d_x_multiple_of_eight(self):
        for d_x in (4, 12):
            with pytest.raises(ConfigError, match="d_x"):
                validate_config(ExperimentConfig(d_x=d_x))
        validate_config(ExperimentConfig(d_x=16))

    def test_hash_changes_iff_any_field_changes(self):
        base = ExperimentConfig()
        assert config_hash(base) == config_hash(ExperimentConfig())
        for field, value in [("seed", 12), ("epochs", 21), ("use_sc", False),
                             ("lambda_sc", 1.5), ("head", "mlp")]:
            other = ExperimentConfig(**{field: value})
            assert config_hash(other) != config_hash(base), field


class TestRunArtifacts:
    def test_artifacts_exist(self, tiny_run):
        _, out, _ = tiny_run
        for name in ("config_resolved.txt", "scores.csv", "summary.json",
                     "memory_final.csv", "manifest.json"):
            assert (out / name).exists(), name

    def test_four_score_rows_af_from_row_two(self, tiny_run):
        _, out, matrix = tiny_run
        assert matrix.num_steps == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"][0]["af_acc"] is None
        assert all(summary["steps"][t]["af_acc"] is not None for t in (1, 2, 3))

    def test_scores_csv_round_trip(self, tiny_run):
        _, out, matrix = tiny_run
        back = parse_scores_csv((out / "scores.csv").read_text())
        assert back.acc_rows == matrix.acc_rows
        assert back.auc_rows == matrix.auc_rows

    def test_rerun_byte_identical(self, tiny_run, tmp_path):
        cfg, out, _ = tiny_run
        run_experiment(cfg, tmp_path / "again")
        assert (tmp_path / "again" / "scores.csv").read_bytes() == (out / "scores.csv").read_bytes()
        assert (tmp_path / "again" / "summary.json").read_bytes() == (out / "summary.json").read_bytes()

    def test_manifest_hashes_artifacts(self, tiny_run):
        _, out, _ = tiny_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert "scores.csv" in manifest["artifacts"]
        assert manifest["config_hash"] == config_hash(tiny_run[0])


class TestReport:
    def test_report_matches_summary(self, tiny_run):
        _, out, _ = tiny_run
        text = report(out)
        summary = json.loads((out / "summary.json").read_text())
        for step in summary["steps"]:
            assert f"{step['aa_acc']:.2f}" in text

    def test_af_recomputed_from_csv_matches_json(self, tiny_run):
        _, out, _ = tiny_run
        matrix = parse_scores_csv((out / "scores.csv").read_text())
        summary = json.loads((out / "summary.json").read_text())
        for step in summary["steps"]:
            if step["af_acc"] is not None:
                assert average_forgetting(matrix, step["task"]) == pytest.approx(
                    step["af_acc"], abs=1e-9)

    def test_missing_artifacts_listed(self, tmp_path):
        with pytest.raises(ContractViolation, match="scores.csv"):
            report(tmp_path)


class TestCliVerbs:
    def test_run_and_verify(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["verify", "--dir", str(out)]) == 0

    def test_verify_fails_after_memory_edit(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        mem = out / "memory_final.csv"
        mem.write_text(mem.read_text().replace(",", ", ", 1))
        assert main(["verify", "--dir", str(out)]) == 3

    def test_manifest_lists_only_this_runs_artifacts(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY)
        out = tmp_path / "out"
        (out / "subdir").mkdir(parents=True)
        (out / "stale.csv").write_text("left by an earlier run\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert sorted(manifest["artifacts"]) == ["config_resolved.txt", "memory_final.csv",
                                                 "scores.csv", "summary.json"]
        assert main(["verify", "--dir", str(out)]) == 0

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.txt"
        cfg_path.write_text("config_version = 1\nbogus = 1\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("bad", [TINY.replace("config_version = 1", "config_version = x"),
                                     TINY + "tau = nan\n", TINY + "main_lr = inf\n",
                                     TINY + "d_x = 4\n", TINY.replace("seed = 11", "seed = -1")],
                             ids=["version-x", "tau-nan", "main_lr-inf", "d_x-4", "seed-negative"])
    def test_rejected_at_parse_exit_code(self, bad, tmp_path):
        cfg_path = tmp_path / "bad.txt"
        cfg_path.write_text(bad)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", ["memory_budget = 7\n",
                                     "protocol = ten-task\nmemory_budget = 19\n",
                                     "train_samples = 1\n", "eval_samples = 1\n"],
                             ids=["budget-7-four-task", "budget-19-ten-task", "train_samples-1",
                                  "eval_samples-1"])
    def test_unfinishable_stream_rejected_at_parse(self, bad, tmp_path):
        # each of these trained and then failed (exit 3) with a config file
        # and a failed manifest already written
        cfg_path = tmp_path / "bad.txt"
        cfg_path.write_text(TINY.replace("epochs = 2", "epochs = 1") + bad)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_memory_budget_floor_follows_protocol(self):
        validate_config(ExperimentConfig(memory_budget=8))
        validate_config(ExperimentConfig(protocol="ten-task", memory_budget=20))
        with pytest.raises(ConfigError, match="memory_budget"):
            validate_config(ExperimentConfig(protocol="ten-task", memory_budget=19))

    def test_negative_seed_flag_rejected_at_parse(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY)
        assert main(["run", "--config", str(cfg_path), "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_ablate_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--out", str(out), "--ablate", "sc,kdcp"])
        assert rc == 0
        resolved = (out / "config_resolved.txt").read_text()
        assert "use_sc = false" in resolved and "use_kdcp = false" in resolved
        assert "use_kd = true" in resolved

    def test_bad_ablate_component(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--ablate", "banana"]) == 2

    def test_module_entry_point_runs_without_warnings(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "dgkan.cli", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_report_verb_missing_dir(self, tmp_path):
        assert main(["report", "--dir", str(tmp_path / "nope")]) == 3

    def test_dump_profile_verb(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY)
        out = tmp_path / "profile.csv"
        assert main(["dump-profile", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,value,task_count"
        assert all(line.endswith(",4") for line in lines[1:])

    @pytest.mark.parametrize("extra", [["--group", "99"], ["--group", "-1"], ["--points", "-3"],
                                       ["--points", "0"], ["--head", "mlp"]],
                             ids=["group-99", "group-neg1", "points-neg3", "points-0", "head-mlp"])
    def test_dump_profile_bad_arguments_fail_before_training(self, extra, tmp_path, monkeypatch):
        import dgkan.cli
        trained = []
        monkeypatch.setattr(dgkan.cli, "run_stream", lambda *a: trained.append(a))
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY)
        out = tmp_path / "profile.csv"
        assert main(["dump-profile", "--config", str(cfg_path), "--out", str(out)] + extra) == 2
        assert trained == []
        assert not out.exists()

    def test_dump_embeddings_one_feature_dim_fails_before_training(self, tmp_path, monkeypatch):
        import dgkan.cli
        trained = []
        monkeypatch.setattr(dgkan.cli, "run_stream", lambda *a: trained.append(a))
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY + "d_f = 1\ngroups = 1\n")
        out = tmp_path / "emb.csv"
        assert main(["dump-embeddings", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert trained == []
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["dump-profile", "dump-embeddings"])
    def test_dump_out_in_missing_directory_fails_before_training(self, verb, tmp_path, monkeypatch,
                                                                 capsys):
        import dgkan.cli

        def no_training(*args):
            raise AssertionError("run_stream called")

        monkeypatch.setattr(dgkan.cli, "run_stream", no_training)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY)
        out = tmp_path / "missing" / "out.csv"
        assert main([verb, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not out.parent.exists()


class TestEmbeddings:
    def test_row_count_matches_pooled_eval(self, tmp_path):
        cfg = parse_config_text(TINY)
        stream = gen_sequence(cfg.protocol, cfg.seed, train_n=cfg.train_samples,
                              eval_n=cfg.eval_samples)
        matrix, trainer = run_stream(stream, trainer_config(cfg))
        n = dump_embeddings(trainer, stream, tmp_path / "emb.csv")
        assert n == 4 * cfg.eval_samples
        lines = (tmp_path / "emb.csv").read_text().splitlines()
        assert len(lines) == n + 1

    def test_pca_isotropic_explained_variance(self):
        rng = RngStream(5)
        F = rng.normal(size=(6000, 16))
        _, ratios = pca_2d(F)
        assert ratios.sum() == pytest.approx(2.0 / 16.0, abs=0.03)

    def test_pca_duplicated_rows(self, rng):
        F = rng.normal(size=(40, 5))
        proj, _ = pca_2d(np.vstack([F, F]))
        assert np.allclose(proj[:40], proj[40:], atol=1e-12)

    def test_pca_needs_two_dims(self):
        with pytest.raises(ContractViolation):
            pca_2d(np.zeros((10, 1)))

    def test_pca_sign_convention(self, rng):
        F = rng.normal(size=(100, 4)) * np.array([3.0, 1.0, 0.5, 0.1])
        proj1, _ = pca_2d(F)
        proj2, _ = pca_2d(F.copy())
        assert np.array_equal(proj1, proj2)
