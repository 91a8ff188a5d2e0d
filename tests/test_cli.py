import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dgkan.cli import (ConfigError, ExperimentConfig, build_stream, config_hash, config_lines,
                       load_model, main, parse_config_text, parse_scores_csv, report,
                       run_experiment, summary_text, trainer_config, validate_config, verify)
from dgkan.continual import (ScoreMatrix, Trainer, TrainerConfig, average_forgetting,
                            run_stream)
from dgkan.numcore import ContractViolation
from dgkan.probes import probe_run
from dgkan.synthbench import REFERENCE_SEEDS, dataset

SRC = Path(__file__).resolve().parents[1] / "src"

# a value other than the default, per field type
_OTHER = {"bool": lambda v: not v, "int": lambda v: v + 8, "float": lambda v: 3.0 * v,
          "str": lambda v: "groupkan"}

# a value of another type than its field declares; each of these used to pass
# validation, then fail mid-run or in a later `dgkan verify`
_MISTYPED = [("epochs", 1.5), ("batch_size", 16.0), ("memory_budget", 40.5), ("use_kd", "no"),
             ("groups", 2.5), ("seed", 1.5), ("epochs", True), ("lambda_sc", 2),
             ("tau", np.float64(0.1)), ("seed", np.int64(3))]

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
    def test_defaults_are_the_acceptance_reference_run(self, protocol, monkeypatch):
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
            cli_stream = build_stream(cfg)
            for f in fields(stream):
                assert np.array_equal(getattr(stream, f.name), getattr(cli_stream, f.name)), f.name
            draws = [dataset(s, len(stream) - 1, "eval") for s in (stream, cli_stream)]
            assert all(x.tobytes() == y.tobytes() for x, y in zip(*draws))

    def test_every_trainer_field_reaches_trainer_config(self):
        for f in fields(TrainerConfig):
            value = _OTHER[f.type](getattr(TrainerConfig(), f.name))
            cfg = ExperimentConfig(**{f.name: value})
            assert trainer_config(cfg) == replace(TrainerConfig(), **{f.name: value}), f.name

    def test_parse_round_trip(self):
        cfg = parse_config_text(TINY)
        again = parse_config_text("\n".join(config_lines(cfg)))
        assert cfg == again

    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
    def test_every_field_round_trips(self, name):
        # each field in turn at a valid non-default value of its declared type
        typ = {f.name: f.type for f in fields(ExperimentConfig)}[name]
        other = _OTHER[typ](getattr(ExperimentConfig(), name))
        cfg = ExperimentConfig(**{name: "ten-task" if name == "protocol" else other})
        assert cfg != ExperimentConfig()
        assert parse_config_text("\n".join(config_lines(cfg))) == cfg

    def test_readme_example_config_parses(self):
        # the example config in README.md's "## CLI" section, parsed as written
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        block = re.search(r"\n## CLI\n.*?Example:\n\n```\n(.*?)```", readme, re.S)
        assert block is not None, "README.md has no example config under '## CLI'"
        cfg = parse_config_text(block.group(1))
        assert (cfg.protocol, cfg.seed, cfg.head, cfg.use_kdcp) == ("four-task", 11, "dgkd", False)

    @pytest.mark.parametrize("name,value", _MISTYPED, ids=[f"{n}={v!r}" for n, v in _MISTYPED])
    def test_field_of_another_type_rejected_before_anything_is_built(self, name, value,
                                                                     tmp_path, monkeypatch):
        import dgkan.continual
        monkeypatch.setattr(dgkan.continual, "FeatureExtractor", None)   # building fails
        message = f"config field '{name}': must be of type "
        configs = [ExperimentConfig(**{name: value})]
        if name in {f.name for f in fields(TrainerConfig)}:
            configs.append(TrainerConfig(**{name: value}))
        for cfg in configs:
            with pytest.raises(ConfigError, match=message):
                Trainer(cfg, 0)
        with pytest.raises(ConfigError, match=message):
            run_experiment(configs[0], tmp_path)
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("text,line,field,first", [
        ("config_version = 1\nepochs = 40\nepochs = 5\n", 3, "epochs", 2),
        ("config_version = 1\nseed = 3\n\nconfig_version = 1\n", 4, "config_version", 1)],
        ids=["epochs", "config_version"])
    def test_repeated_field_rejected(self, text, line, field, first):
        # the second line used to win silently
        with pytest.raises(ConfigError, match=f"config line {line}: field '{field}' repeats "
                                              f"line {first}"):
            parse_config_text(text)

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
                     "memory_final.csv", "model_final.csv", "manifest.json"):
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


def _canonical(obj) -> str:
    """JSON text in the form ``run`` writes ``summary.json``."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _without(summary: dict, key: str) -> dict:
    return {name: value for name, value in summary.items() if name != key}


def _at(n: int, stored, derived=...) -> str:
    """The start of report's message for line ``n`` of ``summary.json``; a
    line given as None is past the end of its file, and an omitted
    ``derived`` line is left out."""
    show = lambda line: "<end of file>" if line is None else repr(line)
    message = f"summary.json line {n} is {show(stored)}; scores.csv and config_resolved.txt give "
    return message + (show(derived) if derived is not ... else "")


def _assert_report_rejects(edit, message, tiny_run, tmp_path, capsys):
    """Write ``edit``(the run's summary) as summary.json next to the run's
    config and scores; report must exit 3 with ``message``."""
    _, out, _ = tiny_run
    for name in ("scores.csv", "config_resolved.txt"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    (tmp_path / "summary.json").write_text(edit(json.loads((out / "summary.json").read_text())))
    with pytest.raises(ContractViolation, match=re.escape(message)):
        report(tmp_path)
    assert main(["report", "--dir", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err


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

    def test_missing_config_is_named(self, tiny_run, tmp_path, capsys):
        # report takes its header from the config, so it needs the file
        _, out, _ = tiny_run
        for name in ("scores.csv", "summary.json"):
            (tmp_path / name).write_bytes((out / name).read_bytes())
        with pytest.raises(ContractViolation, match="missing artifacts in .*: config_resolved.txt$"):
            report(tmp_path)
        assert main(["report", "--dir", str(tmp_path)]) == 3
        assert ": config_resolved.txt\n" in capsys.readouterr().err

    @pytest.mark.parametrize("key,step,value,message", [
        ("aa_acc", 3, 99.99, _at(29, '      "aa_acc": 99.99,')),
        ("af_acc", 1, 0.0, _at(17, '      "af_acc": 0.0,')),
        ("aa_auc", 0, 1.0, _at(9, '      "aa_auc": 1.0,')),
        ("af_auc", 3, -5.0, _at(32, '      "af_auc": -5.0,')),
        ("steps", 2, None, _at(20, "    }", "    },")),
    ], ids=["aa-acc", "af-acc", "aa-auc", "af-auc", "cut-steps"])
    def test_summary_that_disagrees_with_the_csv_is_rejected(self, key, step, value, message,
                                                             tiny_run, tmp_path, capsys):
        def edit(summary):
            if key == "steps":
                del summary["steps"][step:]
            else:
                assert summary["steps"][step][key] != value
                summary["steps"][step][key] = value
            return _canonical(summary)

        _assert_report_rejects(edit, message, tiny_run, tmp_path, capsys)

    @pytest.mark.parametrize("edit,message", [
        (lambda s: "not json", _at(1, "not json", "{")),
        (lambda s: _canonical([1, 2]), _at(1, "[", "{")),
        (lambda s: _canonical({"seed": 1}), _at(2, '  "seed": 1', '  "head": "dgkd",')),
        (lambda s: _canonical(_without(s, "protocol")),
         _at(3, '  "schema_version": 1,', '  "protocol": "four-task",')),
        (lambda s: _canonical(_without(s, "seed")), _at(5, '  "steps": [', '  "seed": 11,')),
        (lambda s: _canonical(_without(s, "head")),
         _at(2, '  "protocol": "four-task",', '  "head": "dgkd",')),
        (lambda s: _canonical({**s, "steps": {"1": {}}}), _at(6, '  "steps": {', '  "steps": [')),
        (lambda s: _canonical({**s, "steps": s["steps"][:1] + [7] + s["steps"][2:]}),
         _at(14, "    7,", "    {")),
        (lambda s: _canonical(s)[:-1], _at(37, None, "")),
        (lambda s: _canonical(s) + "\n", _at(38, "", None)),
        (lambda s: json.dumps(s, indent=4, sort_keys=True) + "\n",
         _at(2, '    "head": "dgkd",', '  "head": "dgkd",')),
        (lambda s: _canonical({**s, "note": "x"}),
         _at(3, '  "note": "x",', '  "protocol": "four-task",')),
        (lambda s: _canonical({**s, "schema_version": 2}),
         _at(4, '  "schema_version": 2,', '  "schema_version": 1,')),
    ], ids=["not-json", "not-object", "no-steps", "no-protocol", "no-seed", "no-head",
            "steps-not-list", "step-not-object", "no-final-newline", "extra-line",
            "indent-4", "extra-key", "schema-version"])
    def test_malformed_summary_is_named(self, edit, message, tiny_run, tmp_path, capsys):
        # a bare KeyError, JSONDecodeError or AttributeError used to be the only message
        _assert_report_rejects(edit, message, tiny_run, tmp_path, capsys)

    @pytest.mark.parametrize("edit,message", [
        (lambda s: s["steps"][2].update(task=4), _at(26, '      "task": 4', '      "task": 3')),
        (lambda s: s["steps"][0].pop("task"),
         _at(11, '      "af_auc": null', '      "af_auc": null,')),
        (lambda s: s.update(protocol="ten-task"),
         _at(3, '  "protocol": "ten-task",', '  "protocol": "four-task",')),
        (lambda s: s.update(seed=12345), _at(5, '  "seed": 12345,', '  "seed": 11,')),
        (lambda s: s.update(head="groupkan"), _at(2, '  "head": "groupkan",', '  "head": "dgkd",')),
        (lambda s: s.update(seed=12345, head="groupkan",
                            steps=[{**step, "task": 99} for step in s["steps"]]),
         _at(2, '  "head": "groupkan",', '  "head": "dgkd",')),
    ], ids=["task-number", "task-missing", "protocol", "seed", "head", "seed-head-tasks"])
    def test_summary_that_disagrees_with_its_run_is_rejected(self, edit, message, tiny_run,
                                                            tmp_path, capsys):
        # the header and the task numbers used to be printed from summary.json unchecked
        def canonical_edit(summary):
            edit(summary)
            return _canonical(summary)

        _assert_report_rejects(canonical_edit, message, tiny_run, tmp_path, capsys)

    @pytest.mark.parametrize("head", ["dgkd", "mlp", "groupkan"])
    @pytest.mark.parametrize("variant", ["default", "raw-replay", "no-kdcp"])
    def test_summary_re_derives_from_scores_and_config(self, head, variant, tmp_path):
        extra = {"default": "", "raw-replay": "use_raw_replay = true\n",
                 "no-kdcp": "use_kdcp = false\n"}[variant]
        cfg = parse_config_text(TINY.replace("epochs = 2", "epochs = 1")
                                + f"head = {head}\n" + extra)
        run_experiment(cfg, tmp_path)
        derived = summary_text(parse_scores_csv((tmp_path / "scores.csv").read_text()),
                               parse_config_text((tmp_path / "config_resolved.txt").read_text()))
        assert derived.encode() == (tmp_path / "summary.json").read_bytes()
        assert report(tmp_path).startswith(f"Results for protocol=four-task seed=11 head={head}\n")


_SCORES_HEADER = "train_step,eval_task,acc,auc\n"


@pytest.mark.parametrize("body,message", [
    ("1,1,90.0,0.9\n3,1,80.0,0.8\n3,2,70.0,0.7\n3,3,60.0,0.6\n",
     r"lacks cell \(2, 1\)"),                                    # step 2 missing
    ("1,1,90.0,0.9\n2,1,80.0,0.8\n",
     r"lacks cell \(2, 2\)"),
    ("1,1,90.0,0.9\n1,2,80.0,0.8\n",
     r"line 3: cell \(1, 2\) is not in the grid"),               # eval_task > train_step
    ("1,0,90.0,0.9\n", r"line 2: cell \(1, 0\) is not in the grid"),
    ("1,1,90.0,0.9\n2,1,80.0\n", "line 3: expected four numbers"),
    ("1,1,90.0,0.9,x\n", "line 2: expected four numbers"),
    ("1,1,ninety,0.9\n", "line 2: expected four numbers"),
    ("1,1,90.0,0.9\n1,1,91.0,0.9\n", r"line 3: cell \(1, 1\) is repeated"),
], ids=["skipped-step", "short-row", "above-diagonal", "column-zero", "three-fields",
        "five-fields", "not-a-number", "repeated-cell"])
def test_parse_scores_csv_names_the_bad_line_or_cell(body, message):
    with pytest.raises(ContractViolation, match=message):
        parse_scores_csv(_SCORES_HEADER + body)


def test_report_exits_3_naming_the_bad_scores_line(tiny_run, tmp_path, capsys):
    _, out, _ = tiny_run
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("scores.csv", "summary.json", "config_resolved.txt"):
        (bad / name).write_bytes((out / name).read_bytes())
    lines = (bad / "scores.csv").read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0]
    (bad / "scores.csv").write_text("\n".join(lines) + "\n")
    assert main(["report", "--dir", str(bad)]) == 3
    assert "scores CSV line 5: expected four numbers" in capsys.readouterr().err


_BOTH = ("config_resolved.txt", "manifest.json")


class TestCliVerbs:
    def test_run_and_verify(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["verify", "--dir", str(out)]) == 0

    def test_verify_fails_after_memory_edit(self, tmp_path, monkeypatch, capsys):
        # verify once re-ran the whole experiment before comparing digests,
        # then failed naming no file
        import dgkan.cli

        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        mem = out / "memory_final.csv"
        mem.write_text(mem.read_text().replace(",", ", ", 1))

        def no_rerun(*args):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(dgkan.cli, "run_experiment", no_rerun)
        capsys.readouterr()
        message = f"{mem} does not match its digest in {out / 'manifest.json'}"
        with pytest.raises(ContractViolation, match=re.escape(message)):
            verify(out)
        assert main(["verify", "--dir", str(out)]) == 3
        assert message in capsys.readouterr().err

    def test_verify_fails_after_model_edit(self, tiny_run, tmp_path, monkeypatch, capsys):
        # one float of the trained weights changed: the digest names the file
        import dgkan.cli

        _, out, _ = tiny_run
        for artifact in out.iterdir():
            (tmp_path / artifact.name).write_bytes(artifact.read_bytes())
        model = tmp_path / "model_final.csv"
        lines = model.read_text().split("\n")
        name, first, rest = lines[1].split(",", 2)
        lines[1] = ",".join([name, repr(float(first) + 1.0), rest])
        model.write_text("\n".join(lines))

        def no_rerun(*args):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(dgkan.cli, "run_experiment", no_rerun)
        message = f"{model} does not match its digest in {tmp_path / 'manifest.json'}"
        with pytest.raises(ContractViolation, match=re.escape(message)):
            verify(tmp_path)
        assert main(["verify", "--dir", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err

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
                                                 "model_final.csv", "scores.csv", "summary.json"]
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
                                     "train_samples = 1\n", "eval_samples = 1\n",
                                     "train_samples = 0\n", "eval_samples = -4\n"],
                             ids=["budget-7-four-task", "budget-19-ten-task", "train_samples-1",
                                  "eval_samples-1", "train_samples-0", "eval_samples-neg4"])
    def test_unfinishable_stream_rejected_at_parse(self, bad, tmp_path, capsys):
        # each of these trained and then failed (exit 3) with a config file
        # and a failed manifest already written.  Each line replaces TINY's
        # line of its field: appended, it was rejected as a repeated field
        text = TINY.replace("epochs = 2", "epochs = 1")
        for line in bad.splitlines():
            text = re.sub(rf"^{line.split(' =')[0]} = .*$", line, text, flags=re.M)
        cfg_path = tmp_path / "bad.txt"
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        field = bad.splitlines()[-1].split(" =")[0]
        assert f"config field {field!r}" in capsys.readouterr().err

    def test_repeated_field_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.txt"
        cfg_path.write_text(TINY + "epochs = 5\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/run"], ids=["file", "under-file"])
    def test_run_out_not_a_directory_fails_before_training(self, out, tmp_path, monkeypatch,
                                                           capsys):
        # each used to exit 3 with a bare FileExistsError or NotADirectoryError
        import dgkan.cli

        def no_training(*args):
            raise AssertionError("run_stream called")

        monkeypatch.setattr(dgkan.cli, "run_stream", no_training)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY)
        (tmp_path / "taken").write_text("a file\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "is not a directory" in err
        assert (tmp_path / "taken").read_text() == "a file\n"

    @pytest.mark.parametrize("present,listed,message", [
        ((), [], "missing artifacts in .*: config_resolved.txt, manifest.json$"),
        (("config_resolved.txt",), [], "missing artifacts in .*: manifest.json$"),
        (("manifest.json",), [], "missing artifacts in .*: config_resolved.txt$"),
        (_BOTH, ["config_resolved.txt", "scores.csv", "memory_final.csv"],
         "missing artifacts in .*: scores.csv, memory_final.csv$"),
        (_BOTH, ["config_resolved.txt", "../x"], "lists '../x', which is not a file name in "),
        (_BOTH, ["/x"], "lists '/x', which is not a file name in "),
        (_BOTH, ["sub/x"], "lists 'sub/x', which is not a file name in "),
        (_BOTH, [".."], "lists '..', which is not a file name in "),
    ], ids=["none", "config-only", "manifest-only", "listed-missing", "listed-parent",
            "listed-absolute", "listed-subdir", "listed-dotdot"])
    def test_verify_names_missing_files(self, present, listed, message, tmp_path, monkeypatch,
                                        capsys):
        # a bare FileNotFoundError, or for a listed artifact "hashes differ",
        # used to be the only message; "../x" used to hash a file outside the run
        import dgkan.cli

        def no_rerun(*args):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(dgkan.cli, "run_experiment", no_rerun)
        run = tmp_path / "run"
        (run / "sub").mkdir(parents=True)
        (run / "sub" / "x").write_text("x\n")
        (tmp_path / "x").write_text("x\n")
        manifest = json.dumps({"artifacts": {name: "0" * 64 for name in listed}})
        for name in present:
            (run / name).write_text(TINY if name.endswith(".txt") else manifest)
        with pytest.raises(ContractViolation, match=message):
            verify(run)
        assert main(["verify", "--dir", str(run)]) == 3
        assert re.search(message, capsys.readouterr().err, re.MULTILINE)

    @pytest.mark.parametrize("text,message", [
        ("{", "manifest.json is not valid JSON"),
        ('"artifacts"', "manifest.json must hold a JSON object, got str"),
        ('{"status": "complete"}', "manifest.json lacks the field 'artifacts'"),
        ('{"artifacts": ["scores.csv"]}', "manifest.json: field 'artifacts' must be a dict"),
    ], ids=["not-json", "not-object", "no-artifacts", "artifacts-not-object"])
    def test_verify_names_a_malformed_manifest(self, text, message, tmp_path, capsys):
        (tmp_path / "config_resolved.txt").write_text(TINY)
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(ContractViolation, match=message):
            verify(tmp_path)
        assert main(["verify", "--dir", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("status", "failed"), ("seed", 999),
                                             ("config_hash", "0" * 64)],
                             ids=["status", "seed", "config-hash"])
    def test_verify_names_an_edited_manifest_line(self, field, value, tmp_path, capsys):
        # verify once compared only the manifests' artifact maps, so a manifest
        # edited to another status, seed or config hash verified OK
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY.replace("four-task", "two-task-separated"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        path = out / "manifest.json"
        written = path.read_text()
        n, line = next((i, line) for i, line in enumerate(written.split("\n"), start=1)
                       if line.startswith(f'  "{field}": '))
        path.write_text(_canonical({**json.loads(written), field: value}))
        edited = path.read_text().split("\n")[n - 1]
        message = f"{path} line {n} is {edited!r}; the re-run writes {line!r}"
        with pytest.raises(ContractViolation, match=re.escape(message)):
            verify(out)
        assert main(["verify", "--dir", str(out)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("verb,name", [
        (verb, name) for verb in ("report", "verify")
        for name in ("config_resolved.txt", "scores.csv", "summary.json")
    ] + [("probe", name) for name in ("config_resolved.txt", "scores.csv", "memory_final.csv")],
        ids=lambda v: v)
    def test_non_utf8_byte_is_named(self, verb, name, tiny_run, tmp_path, monkeypatch, capsys):
        # a bare UnicodeDecodeError naming no file, for verify's scores.csv
        # "hashes differ", or for report's summary.json a line holding U+FFFD
        # used to be the only message; probe reads no summary.json
        import dgkan.cli

        def no_rerun(*args):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(dgkan.cli, "run_experiment", no_rerun)
        _, out, _ = tiny_run
        for artifact in out.iterdir():
            (tmp_path / artifact.name).write_bytes(artifact.read_bytes())
        offset = (tmp_path / name).stat().st_size
        with (tmp_path / name).open("ab") as f:
            f.write(b"\xff")
        message = f"{tmp_path / name}: byte {offset} (0xff) is not UTF-8"
        with pytest.raises(ContractViolation, match=re.escape(message)):
            (probe_run if verb == "probe" else getattr(dgkan.cli, verb))(tmp_path)
        assert main([verb, "--dir", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("verb", ["run", "probe"])
    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_fails_before_anything_is_written(self, verb, case, tmp_path,
                                                                monkeypatch, capsys):
        # run reads --config (exit 2); probe reads its --dir run's
        # config_resolved.txt, as report and verify do (exit 3)
        import dgkan.cli

        def no_training(*args):
            raise AssertionError("run_stream or load_model called")

        monkeypatch.setattr(dgkan.cli, "run_stream", no_training)
        monkeypatch.setattr(dgkan.cli, "load_model", no_training)
        run = tmp_path / "run"
        if verb == "run":
            cfg_path, code = tmp_path / "cfg.txt", 2
            argv = ["--config", str(cfg_path), "--out", str(tmp_path / "out")]
        else:
            cfg_path, argv, code = run / "config_resolved.txt", ["--dir", str(run)], 3
            if case != "missing":
                run.mkdir()
        if case == "directory":
            cfg_path.mkdir()
        elif case == "not-utf8":
            cfg_path.write_bytes(TINY.encode() + b"# \xff\xfe\n")
        assert main([verb, *argv]) == code
        out, err = capsys.readouterr()
        assert out == ""
        if verb == "run":
            assert "config error: --config: cannot read" in err
        if case == "not-utf8":
            assert f"{cfg_path}: byte {len(TINY) + 2} (0xff) is not UTF-8, on line 8" in err
        elif verb != "run":
            assert f"missing artifacts in {run}: config_resolved.txt" in err
        written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert written == ([] if case == "missing" else
                           ["cfg.txt"] if verb == "run" else ["run", "run/config_resolved.txt"])

def _lines(edit):
    """A bytes edit of model_final.csv that applies ``edit`` to its list of lines."""
    return lambda data: "\n".join(edit(data.decode().split("\n"))).encode()


def _line(n: int, edit):
    """A bytes edit of model_final.csv that applies ``edit`` to its line ``n``."""
    return _lines(lambda lines: lines[:n - 1] + [edit(lines[n - 1])] + lines[n:])


class TestModelFile:
    """``model_final.csv`` of the four-task dgkd run: the header, the
    extractor's 1616 numbers, then layer1 ... layer4 of 24 numbers each."""

    @pytest.mark.parametrize("head", ["dgkd", "mlp", "groupkan"])
    def test_load_model_gives_the_trained_modules(self, head, tmp_path):
        cfg = parse_config_text(TINY.replace("epochs = 2", "epochs = 1") + f"head = {head}\n")
        run_experiment(cfg, tmp_path)
        stream = build_stream(cfg)
        trained = run_stream(stream, trainer_config(cfg))[1]
        extractor, loaded = load_model(tmp_path)
        pairs = [(extractor, trained.extractor)]
        if head == "dgkd":
            assert len(loaded.layers) == len(trained.head.layers) == 4
            assert [layer.frozen for layer in loaded.layers] == [True] * 3 + [False]
            assert [layer.frozen for layer in trained.head.layers] == [True] * 3 + [False]
            pairs += list(zip(loaded.layers, trained.head.layers))
        else:
            pairs.append((loaded, trained.head))
        assert type(loaded) is type(trained.head)
        for got, want in pairs:
            assert type(got) is type(want)
            assert got.params.tobytes() == want.params.tobytes()
        for t in range(len(stream)):
            Xe, _ = dataset(stream, t, "eval")
            F = extractor.forward(Xe)
            assert F.tobytes() == trained.extractor.forward(Xe).tobytes()
            assert loaded.forward(F).tobytes() == trained.head.forward(F).tobytes()

    @pytest.mark.parametrize("edit,message", [
        (None, "missing artifacts in {run}: model_final.csv"),
        (_line(1, lambda l: "dgkan_memory,version=1"),
         "{model} line 1: expected 'dgkan_model,version=1', got 'dgkan_memory,version=1'"),
        (_line(1, lambda l: "dgkan_model,version=2"),
         "{model} line 1: expected 'dgkan_model,version=1', got 'dgkan_model,version=2'"),
        (_line(4, lambda l: l.replace("layer2", "layer9")),
         "{model} line 4: expected 'layer2', got 'layer9'"),
        (_line(2, lambda l: l.rsplit(",", 1)[0]),
         "{model} line 2: FeatureExtractor parameter vector has length 1615, expected 1616"),
        (_line(6, lambda l: l + ",0.5"),
         "{model} line 6: DgLayer parameter vector has length 25, expected 24"),
        (_line(3, lambda l: "layer1,abc," + l.split(",", 2)[2]),
         "{model} line 3: could not convert string to float: 'abc'"),
        (_line(5, lambda l: "layer3,nan," + l.split(",", 2)[2]),
         "{model} line 5: layer3 contains non-finite entries (first at index (0,))"),
        (_line(2, lambda l: l.rsplit(",", 1)[0] + ",inf"),
         "{model} line 2: extractor contains non-finite entries (first at index (1615,))"),
        (_lines(lambda lines: lines[:4] + lines[5:]),
         "{model} line 5: expected 'layer3', got 'layer4'"),
        (_lines(lambda lines: lines[:5] + lines[6:]),
         "{model} line 6: expected 'layer4', got <end of file>"),
        (_lines(lambda lines: lines[:6] + [lines[5].replace("layer4", "layer5")] + lines[6:]),
         "{model} line 7: expected <end of file>, got 'layer5'"),
        (lambda data: data + b"\xff", "{model}: byte {size} (0xff) is not UTF-8, on line 7"),
        # DgLayer clamps widths to 1e-3, so this one used to load as 0.001
        (_line(3, lambda l: l.rsplit(",", 1)[0] + ",1e-05"),
         "{model} line 3: layer1 entry 23 is 1e-05 but loads as 0.001"),
    ], ids=["missing", "header", "version", "name", "too-few", "too-many", "not-a-number",
            "nan", "inf", "missing-line", "missing-last-line", "extra-line", "not-utf8",
            "width-below-floor"])
    def test_malformed_model_is_named(self, edit, message, tiny_run, tmp_path, capsys):
        _, out, _ = tiny_run
        run = tmp_path / "run"
        run.mkdir()
        for artifact in out.iterdir():
            (run / artifact.name).write_bytes(artifact.read_bytes())
        model = run / "model_final.csv"
        if edit is None:
            model.unlink()
        else:
            model.write_bytes(edit(model.read_bytes()))
        message = message.format(run=run, model=model, size=(out / model.name).stat().st_size)
        with pytest.raises(ContractViolation, match=re.escape(message)):
            load_model(run)
        assert main(["probe", "--dir", str(run)]) == 3
        out, err = capsys.readouterr()
        assert message in err and out == ""

    @pytest.mark.parametrize("case", ["edited-seed", "edited-model", "no-manifest",
                                      "model-not-listed", "edited-scores", "edited-memory",
                                      "rehashed-scores", "no-scores", "no-memory",
                                      "memory-not-listed", "rehashed-seed", "rehashed-model"])
    def test_probe_checks_the_manifest_digests(self, case, tiny_run, tmp_path, capsys):
        # a copy of the run with `seed = 12` in its config used to be read
        # with exit 0, from a model trained at seed 11
        _, out, _ = tiny_run
        run = tmp_path / "run"
        run.mkdir()
        for artifact in out.iterdir():
            (run / artifact.name).write_bytes(artifact.read_bytes())
        manifest = run / "manifest.json"
        if case == "edited-seed":
            config = run / "config_resolved.txt"
            config.write_text(config.read_text().replace("seed = 11", "seed = 12"))
            message = f"{config} does not match its digest in {manifest}"
        elif case == "edited-model":
            model = run / "model_final.csv"
            # a '+' in front of the extractor's first number: it loads as the same value
            model.write_bytes(_line(2, lambda l: l.replace(",", ",+", 1))(model.read_bytes()))
            message = f"{model} does not match its digest in {manifest}"
        elif case == "no-manifest":
            manifest.unlink()
            message = f"missing artifacts in {run}: manifest.json"
        elif case == "model-not-listed":
            stored = json.loads(manifest.read_text())
            del stored["artifacts"]["model_final.csv"]
            manifest.write_text(_canonical(stored))
            message = f"{manifest} does not list {run / 'model_final.csv'}"
        elif case in ("edited-scores", "edited-memory"):
            edited = run / ("scores.csv" if case == "edited-scores" else "memory_final.csv")
            edited.write_text(edited.read_text() + "\n")
            message = f"{edited} does not match its digest in {manifest}"
        elif case in ("no-scores", "no-memory"):
            name = "scores.csv" if case == "no-scores" else "memory_final.csv"
            (run / name).unlink()
            message = f"missing artifacts in {run}: {name}"
        elif case == "memory-not-listed":
            stored = json.loads(manifest.read_text())
            del stored["artifacts"]["memory_final.csv"]
            manifest.write_text(_canonical(stored))
            message = f"{manifest} does not list {run / 'memory_final.csv'}"
        elif case in ("rehashed-seed", "rehashed-model"):
            # a config or model that still loads, re-hashed to match: the
            # eval sets of seed 12, or an extractor with every number doubled
            if case == "rehashed-seed":
                edited = run / "config_resolved.txt"
                edited.write_text(edited.read_text().replace("seed = 11", "seed = 12"))
            else:
                edited = run / "model_final.csv"
                edited.write_bytes(_line(2, lambda l: ",".join(
                    ["extractor"] + [repr(2.0 * float(v)) for v in l.split(",")[1:]]))(
                    edited.read_bytes()))
            stored = json.loads(manifest.read_text())
            stored["artifacts"][edited.name] = hashlib.sha256(edited.read_bytes()).hexdigest()
            manifest.write_text(_canonical(stored))
            message = f"the model in {run} does not recompute the last row of scores.csv"
        else:
            # the last cell's accuracy moved, and the manifest re-hashed to match
            scores = run / "scores.csv"
            lines = scores.read_text().split("\n")
            i, j, acc, rest = lines[-2].split(",", 3)
            lines[-2] = ",".join([i, j, repr(float(acc) + 1.0), rest])
            scores.write_text("\n".join(lines))
            stored = json.loads(manifest.read_text())
            stored["artifacts"]["scores.csv"] = hashlib.sha256(scores.read_bytes()).hexdigest()
            manifest.write_text(_canonical(stored))
            message = f"the model in {run} does not recompute the last row of scores.csv"
        with pytest.raises(ContractViolation, match=re.escape(message)):
            probe_run(run)
        assert main(["probe", "--dir", str(run)]) == 3
        out, err = capsys.readouterr()
        assert message in err and out == ""
