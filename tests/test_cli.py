"""End-to-end command-line behavior: artifacts, output text, exit codes."""

import json
import warnings

import pytest

from calibkit import __version__, cli
from calibkit.cli import run_cli

ARTIFACTS = ("run.json", "report.json", "reliability.svg", "predictions.jsonl")


def write_two_record_log(path):
    path.write_text('{"probs": [0.9, 0.1], "label": 0}\n'
                    '{"probs": [0.2, 0.8], "label": 1}\n')
    return path


def train_args(out, *extra):
    """A deliberately tiny linear run so CLI tests stay fast."""
    return ["train", "--classes", "3", "--per-class", "30", "--dim", "4",
            "--overlap", "1.0", "--epochs", "3", "--batch-size", "16",
            "--hidden-dim", "0", "--gamma", "0.5", "--seed", "0",
            "--out", str(out), *extra]


class TestEval:
    def test_two_record_log_scores_point_fifteen(self, tmp_path, capsys):
        log = write_two_record_log(tmp_path / "p.jsonl")
        code = run_cli(["eval", "--predictions", str(log), "--bins", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ece (M = 2): 0.150000" in out
        assert "accuracy: 1.0000" in out
        assert "n: 2" in out

    def test_missing_log_is_a_clean_failure(self, tmp_path, capsys):
        code = run_cli(["eval", "--predictions", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_probability_sum_names_the_line(self, tmp_path, capsys):
        log = tmp_path / "p.jsonl"
        log.write_text('{"probs": [0.9, 0.9], "label": 0}\n')
        code = run_cli(["eval", "--predictions", str(log)])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_optional_diagram_output(self, tmp_path, capsys):
        log = write_two_record_log(tmp_path / "p.jsonl")
        svg = tmp_path / "plots" / "rel.svg"
        code = run_cli(["eval", "--predictions", str(log), "--bins", "2",
                        "--diagram", str(svg)])
        assert code == 0
        assert svg.exists() and svg.read_bytes().startswith(b"<?xml")
        manifest = json.loads(svg.with_suffix(".run.json").read_text())
        assert manifest["version"] == __version__

    @pytest.mark.parametrize("body", [
        b'{"probs": [1%s, 0], "label": 0}\n' % (b"0" * 400),
        b'{"probs": [1%s, 0], "label": 0}\n' % (b"0" * 5000),
        b'{"probs": [0.5, 0.5], "label": 0, "note": "\xff"}\n',
    ], ids=["400-digit", "5000-digit", "not-utf8"])
    def test_unreadable_row_names_the_line(self, tmp_path, capsys, body):
        log = tmp_path / "p.jsonl"
        log.write_bytes(b'{"probs": [0.5, 0.5], "label": 0}\n' + body)
        code = run_cli(["eval", "--predictions", str(log)])
        assert code == 1
        assert "error: line 2:" in capsys.readouterr().err

    def test_row_sum_past_float_max_fails_without_warnings(self, tmp_path, capfd):
        log = tmp_path / "p.jsonl"
        log.write_text('{"probs": [1e308, 1e308, 0.5], "label": 0}\n')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["eval", "--predictions", str(log)])
        assert code == 1
        assert capfd.readouterr().err == (
            "error: line 1: probabilities sum to inf, outside 1 +/- 1e-3\n")
        assert caught == []

    @pytest.mark.parametrize("command", [
        ["eval"], ["diagram", "--out", "rel.svg"],
    ], ids=["eval", "diagram"])
    def test_bad_bins_fails_before_the_log_is_parsed(self, tmp_path, capsys, command):
        log = tmp_path / "p.jsonl"
        log.write_text("not json at all\n")  # parsing it would fail on line 1
        code = run_cli([*command, "--predictions", str(log), "--bins", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: --bins: bin count must be >= 1, got 0\n"

    def test_csv_format_flag(self, tmp_path, capsys):
        log = tmp_path / "p.csv"
        log.write_text("p0,p1,label\n0.9,0.1,0\n0.2,0.8,1\n")
        code = run_cli(["eval", "--predictions", str(log), "--format", "csv",
                        "--bins", "2"])
        assert code == 0
        assert "ece (M = 2): 0.150000" in capsys.readouterr().out


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = run_cli(train_args(out_dir, "--mode", "vanilla"))
        assert code == 0
        for name in ARTIFACTS:
            assert (out_dir / name).exists(), name
        stdout = capsys.readouterr().out
        assert "mode: vanilla" in stdout
        assert "gamma_e: 0.500000 (explicit)" in stdout
        assert "test ece (M = 15)" in stdout

    def test_manifest_records_the_configuration(self, tmp_path):
        out_dir = tmp_path / "run"
        run_cli(train_args(out_dir, "--mode", "curriculum"))
        manifest = json.loads((out_dir / "run.json").read_text())
        assert manifest["version"] == __version__
        assert "kernel_backend" not in manifest
        assert manifest["train"]["mode"] == "curriculum"
        assert manifest["train"]["epochs"] == 3
        assert manifest["loss"]["gamma_e"] == 0.5
        assert manifest["loss"]["gamma_source"] == "explicit"
        assert manifest["data"]["classes"] == 3
        assert manifest["seed"] == 0

    def test_vanilla_epochs_never_weight_calibration(self, tmp_path):
        out_dir = tmp_path / "run"
        run_cli(train_args(out_dir, "--mode", "vanilla"))
        report = json.loads((out_dir / "report.json").read_text())
        epochs = report["epochs"]
        assert len(epochs) == 3
        assert all(e["ece_weight"] == 0.0 for e in epochs)
        assert all("seconds" not in e for e in epochs)
        assert set(report) >= {"epochs", "eval_bins", "val", "test"}

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(train_args(a, "--mode", "curriculum")) == 0
        assert run_cli(train_args(b, "--mode", "curriculum")) == 0
        for name in ARTIFACTS:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_auto_gamma_runs_a_warm_pass(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        args = train_args(out_dir, "--mode", "fixed")
        args[args.index("--gamma") + 1] = "auto"
        code = run_cli(args)
        assert code == 0
        assert "(auto)" in capsys.readouterr().out
        manifest = json.loads((out_dir / "run.json").read_text())
        assert manifest["loss"]["gamma_source"] == "auto"
        assert manifest["loss"]["gamma_e"] > 0

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "run"
        monkeypatch.setenv("CALIB_SEED", "7")
        args = train_args(out_dir, "--mode", "vanilla")
        del args[args.index("--seed"):args.index("--seed") + 2]
        assert run_cli(args) == 0
        assert json.loads((out_dir / "run.json").read_text())["seed"] == 7

    def test_invalid_seed_env_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CALIB_SEED", "many")
        args = train_args(tmp_path / "run", "--mode", "vanilla")
        del args[args.index("--seed"):args.index("--seed") + 2]
        assert run_cli(args) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_env_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CALIB_SEED", "-3")
        args = train_args(tmp_path / "run", "--mode", "vanilla")
        del args[args.index("--seed"):args.index("--seed") + 2]
        assert run_cli(args) == 1
        assert capsys.readouterr().err == "error: CALIB_SEED: seed must be non-negative, got -3\n"

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 14.9 GiB for an array"),
         "error: out of memory: Unable to allocate 14.9 GiB for an array\n"),
        (MemoryError(), "error: out of memory: allocation failed\n"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_fails_cleanly(self, tmp_path, monkeypatch, capsys, exc, message):
        """An allocation too large for the machine, such as the 14.9 GiB
        validation forward of --classes 100000 --per-class 1, exits 1."""
        def exhausted(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_train", exhausted)
        assert run_cli(train_args(tmp_path / "run")) == 1
        assert capsys.readouterr().err == message


class TestCompareAndDiagram:
    def test_compare_renders_a_table_over_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(train_args(a, "--mode", "vanilla"))
        run_cli(train_args(b, "--mode", "fixed"))
        capsys.readouterr()
        code = run_cli(["compare", str(a), str(b)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("| Model | P(%) | R(%) | F1(%) | ACC(%) | ECE |")
        assert len(out.splitlines()) == 4

    def test_compare_missing_run_dir(self, tmp_path, capsys):
        assert run_cli(["compare", str(tmp_path / "ghost")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_compare_report_without_test_section(self, tmp_path, capsys):
        run_dir = tmp_path / "partial"
        run_dir.mkdir()
        (run_dir / "report.json").write_text('{"val": {}}\n')
        assert run_cli(["compare", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(run_dir) in err

    def test_compare_report_with_invalid_json(self, tmp_path, capsys):
        run_dir = tmp_path / "truncated"
        run_dir.mkdir()
        (run_dir / "report.json").write_text('{"test": {"accuracy": ')
        assert run_cli(["compare", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(run_dir) in err

    def test_compare_report_nested_too_deep(self, tmp_path, capsys):
        run_dir = tmp_path / "deep"
        run_dir.mkdir()
        (run_dir / "report.json").write_text("[" * 200_000)
        assert run_cli(["compare", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is not a calibkit report" in err

    @pytest.mark.parametrize("field, value", [
        ("macro_precision", "x"),
        ("macro_precision", None),
        ("ece", "0.1"),
        ("ece", float("nan")),
        ("accuracy", True),
        ("accuracy", float("inf")),
        ("per_class[0].f1", "x"),
    ])
    def test_compare_report_with_bad_metric_value(self, tmp_path, capsys, field, value):
        test = {"macro_precision": 0.5, "macro_recall": 0.5, "macro_f1": 0.5,
                "accuracy": 0.5, "ece": 0.1,
                "per_class": [{"precision": 0.5, "recall": 0.5, "f1": 0.5}]}
        if field.startswith("per_class"):
            test["per_class"][0]["f1"] = value
        else:
            test[field] = value
        run_dir = tmp_path / "bad"
        run_dir.mkdir()
        (run_dir / "report.json").write_text(json.dumps({"test": test}))
        assert run_cli(["compare", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(run_dir) in err and field in err

    def test_diagram_writes_svg_and_manifest(self, tmp_path, capsys):
        log = write_two_record_log(tmp_path / "p.jsonl")
        svg = tmp_path / "rel.svg"
        code = run_cli(["diagram", "--predictions", str(log), "--bins", "2",
                        "--out", str(svg)])
        assert code == 0
        assert svg.exists()
        assert "Confidence (M = 2 bins)" in svg.read_text()
        assert svg.with_suffix(".run.json").exists()


class TestExperiment:
    def test_three_arms_plus_comparison(self, tmp_path, capsys):
        out_dir = tmp_path / "exp"
        args = train_args(out_dir)
        args[0] = "experiment"  # same flags, no --mode: it runs all three
        code = run_cli(args)
        stdout = capsys.readouterr().out
        assert code == 0
        for arm in ("vanilla", "curriculum", "fixed"):
            for name in ARTIFACTS:
                assert (out_dir / arm / name).exists(), f"{arm}/{name}"
            assert f"{arm}: accuracy" in stdout
        table = (out_dir / "comparison.md").read_text()
        assert table.splitlines()[0] == "| Model | P(%) | R(%) | F1(%) | ACC(%) | ECE |"
        assert len(table.splitlines()) == 5
        top = json.loads((out_dir / "run.json").read_text())
        assert top["train"]["mode"] is None
        # arm manifests agree with the top-level one apart from the mode
        arm_manifest = json.loads((out_dir / "vanilla" / "run.json").read_text())
        assert arm_manifest["train"]["mode"] == "vanilla"
        assert arm_manifest["loss"] == top["loss"]


    @pytest.mark.parametrize("gamma", ["0.7", "auto"])
    def test_arms_match_single_train_runs_byte_for_byte(self, tmp_path, capsys, gamma):
        flags = ["--classes", "3", "--per-class", "30", "--dim", "4", "--epochs", "3",
                 "--batch-size", "16", "--hidden-dim", "5", "--gamma", gamma,
                 "--seed", "4"]
        assert run_cli(["experiment", *flags, "--out", str(tmp_path / "exp")]) == 0
        for arm in ("vanilla", "curriculum", "fixed"):
            single = tmp_path / arm
            assert run_cli(["train", "--mode", arm, *flags, "--out", str(single)]) == 0
            stacked = tmp_path / "exp" / arm
            for name in ("report.json", "predictions.jsonl", "reliability.svg"):
                assert (stacked / name).read_bytes() == (single / name).read_bytes(), name
            manifests = [json.loads((d / "run.json").read_text()) for d in (stacked, single)]
            assert [m.pop("command") for m in manifests] == ["experiment", "train"]
            assert manifests[0] == manifests[1]

    def test_divergence_names_the_arm_and_writes_no_arm(self, tmp_path, capfd):
        out_dir = tmp_path / "exp"
        args = ["experiment", "--classes", "3", "--per-class", "30", "--dim", "4",
                "--epochs", "2", "--hidden-dim", "0", "--overlap", "1e200",
                "--lr", "1e300", "--gamma", "1", "--out", str(out_dir)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(args)
        assert code == 1
        assert capfd.readouterr().err.startswith(
            "error: vanilla run diverged at epoch 0, batch 1: non-finite logits")
        assert caught == []
        assert not any(p.is_dir() for p in out_dir.iterdir())


class TestUsage:
    def test_version_flag(self, capsys):
        assert run_cli(["--version"]) == 0
        assert f"calibkit {__version__}" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(["train", "--does-not-exist"]) == 2

    def test_no_command_is_usage_error(self, capsys):
        assert run_cli([]) == 2

    def test_bad_gamma_value(self, capsys):
        assert run_cli(["train", "--gamma", "fast", "--out", "x"]) == 2

    def test_bad_split_ratios(self, capsys):
        assert run_cli(["train", "--split", "0.5,0.5", "--out", "x"]) == 2

    @pytest.mark.parametrize("command", ["train", "experiment"])
    @pytest.mark.parametrize("flag, value, field", [
        ("--epochs", "0", "epochs"),
        ("--se", "60", "s_e"),
    ])
    def test_bad_schedule_fails_before_the_warm_pass(self, tmp_path, capsys, monkeypatch,
                                                     command, flag, value, field):
        def no_training(*args):
            raise AssertionError("training started before the config was checked")
        monkeypatch.setattr(cli, "train", no_training)
        monkeypatch.setattr(cli, "train_arms", no_training)
        args = train_args(tmp_path / "run", "--gamma", "auto", flag, value)
        args[0] = command
        assert run_cli(args) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--gamma", "nan", "gamma_e"),
        ("--gamma", "inf", "gamma_e"),
        ("--lr", "inf", "learning_rate"),
        ("--lr", "nan", "learning_rate"),
        ("--overlap", "nan", "overlap"),
        ("--overlap", "1e308", "overlap"),
        ("--split", "nan,0.5,0.5", "ratios"),
        ("--seed", "-1", "seed"),
    ])
    def test_non_finite_config_is_rejected_up_front(self, tmp_path, capsys,
                                                    flag, value, field):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(train_args(tmp_path / "run", flag, value))
        assert code == 1
        assert field in capsys.readouterr().err
        assert caught == []

    # One argv per flag of cli._FLAGS.
    FLAG_ERRORS = [
        (["--classes", "1"], "--classes: k must be >= 2, got 1"),
        (["--per-class", "0"], "--per-class: n_per_class must be >= 1, got 0"),
        (["--dim", "1"], "--dim: dim must be >= 2, got 1"),
        (["--overlap", "-1"], "--overlap: overlap must be finite and non-negative, got -1.0"),
        (["--split", "0.5,0.5,0.5"], "--split: ratios must sum to 1 within 1e-9, got 1.5"),
        (["--seed", "-1"], "--seed: seed must be non-negative, got -1"),
        (["--epochs", "0"], "--epochs: total_epochs must be >= 1, got 0"),
        (["--batch-size", "0"], "--batch-size: batch_size must be >= 1, got 0"),
        (["--lr", "0"], "--lr: learning_rate must be finite and positive, got 0.0"),
        (["--hidden-dim", "-1"], "--hidden-dim: hidden_dim must be non-negative, got -1"),
        (["--bins-eval", "0"], "--bins-eval: eval_bins must be >= 1, got 0"),
        (["--bins-train", "0"], "--bins-train: m_train must be >= 1, got 0"),
        (["--gamma", "-1"], "--gamma: gamma_e must be finite and non-negative, got -1.0"),
        (["--se", "3"], "--se: s_e must satisfy 0 <= s_e < total_epochs, got 3"),
        (["--bins", "0"], "--bins: bin count must be >= 1, got 0"),
    ]

    @pytest.mark.parametrize("argv, line", FLAG_ERRORS, ids=[a[0] for a, _ in FLAG_ERRORS])
    def test_errors_name_the_flag(self, tmp_path, capsys, argv, line):
        assert {a[0] for a, _ in self.FLAG_ERRORS} == set(cli._FLAGS.values())
        if argv[0] == "--bins":
            args = ["eval", "--predictions", str(write_two_record_log(tmp_path / "p.jsonl")),
                    *argv]
        else:
            args = train_args(tmp_path / "run", *argv)
        assert run_cli(args) == 1
        assert capsys.readouterr().err == f"error: {line}\n"
