import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import solvtree
from solvtree import (
    ATTRIBUTE_NAMES,
    BalanceTargets,
    CompanyRecord,
    Leaf,
    LearnerParams,
    PipelineConfig,
    class_distribution,
    evaluate_on,
    grow,
    load_csv,
    parse,
    predict,
    prune,
    render_text,
    serialize,
    write_csv,
)
from solvtree.cli import main

from oracles import make_dataset


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


_ODD = st.booleans() | st.floats(allow_nan=False) | st.sampled_from(["3", "0.5", "5555"]) | _JSON


def _object(*keys: str, **likely) -> st.SearchStrategy:
    """JSON objects over some of ``keys``; a key in ``likely`` often holds a value drawn from it."""
    return st.fixed_dictionaries({}, optional={k: likely.get(k, st.nothing()) | _ODD for k in keys})


# configs: any JSON value, or objects over the config keys whose values are often plausible;
# a string in paths can only sit under a key of at most four characters (random JSON keys are
# that short), and the one such key, 'test', names a file that is read, never written
_CONFIGS = _JSON | _object(
    "seed", "folds", "feature_bins", "learner", "balance", "paths", "other",
    seed=st.integers(0, 2**32), folds=st.integers(2, 5), feature_bins=st.integers(2, 20),
    learner=_object("confidence_factor", "min_leaf", "max_depth", min_leaf=st.integers(1, 4)),
    balance=_object(
        "mode", "bias_to_uniform", "sample_size_percent", "target_counts", "k_neighbors", "seed",
        mode=st.sampled_from(["resample", "smote"]), bias_to_uniform=st.floats(0, 1),
        sample_size_percent=st.floats(1, 300),
        target_counts=st.lists(st.integers(1, 50), min_size=4, max_size=4),
        k_neighbors=st.integers(1, 6),
    ),
    paths=st.dictionaries(
        st.sampled_from(["input", "output", "model", "test", "report", "summary"]),
        _JSON.filter(lambda v: not isinstance(v, str)),
    ),
)


def _tagged(value):
    """A JSON value with its numbers tagged by kind: True != 1 and 2 != 2.7, but 100 == 100.0."""
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return ("number", value)
    if isinstance(value, (list, tuple)):
        return [_tagged(v) for v in value]
    if isinstance(value, dict):
        return {k: _tagged(v) for k, v in value.items()}
    return value


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = main(["generate", "--counts", "20,8,8,44", "--seed", "7", "-o", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code, _, _ = _run(capsys, "generate", "--counts", "44,13,16,543", "--seed", "7", "-o", str(path))
        assert code == 0
        ds = load_csv(path)
        assert class_distribution(ds) == (44, 13, 16, 543)

    def test_stdout_when_no_output(self, capsys):
        code, out, _ = _run(capsys, "generate", "--counts", "1,1,1,1", "--seed", "0")
        assert code == 0
        assert out.startswith("company_id,year,tca,tcr,car,V1")
        assert len(out.strip().splitlines()) == 5

    def test_empty_output_flag_writes_stdout(self, capsys):
        absent = _run(capsys, "generate", "--counts", "1,1,1,1", "--seed", "0")
        assert _run(capsys, "generate", "--counts", "1,1,1,1", "--seed", "0", "-o", "") == absent
        assert absent[1].startswith("company_id,year,tca,tcr,car,V1")

    def test_bad_counts_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "generate", "--counts", "1,2,3")
        assert code == 2
        assert "usage" in err


class TestLabel:
    def test_derives_classes(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        eleven = ",".join(["0.1"] * 11)
        src.write_text(
            "company_id,year,tca,tcr,car,V1,V2,V3,V4,V5,V6,V7,V8,V9,V10,V11\n"
            f"A,2001,,,160.0,{eleven}\n"
            f"B,2001,330,220,,{eleven}\n"
            f"C,2001,,,99.0,{eleven}\n",
            encoding="utf-8",
        )
        out = tmp_path / "labeled.csv"
        code, _, _ = _run(capsys, "label", "--input", str(src), "-o", str(out))
        assert code == 0
        ds = load_csv(out)
        assert [r.label.csv_name for r in ds.records] == ["strong", "strong", "insolvency"]


class TestBalanceCommand:
    def test_smote_hits_targets(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert main(["generate", "--counts", "45,13,17,541", "--seed", "3", "-o", str(data)]) == 0
        out = tmp_path / "smoted.csv"
        code, _, _ = _run(
            capsys, "balance", "--input", str(data), "--mode", "smote",
            "--targets", "540,533,522,541", "--seed", "1", "-o", str(out),
        )
        assert code == 0
        assert out.read_text().count("\n") == 2137  # header + 2136 rows
        ds = load_csv(out)
        assert class_distribution(ds) == (540, 533, 522, 541)

    def test_k_flag_spelling(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert main(["generate", "--counts", "4,4,4,8", "--seed", "3", "-o", str(data)]) == 0
        out = tmp_path / "s.csv"
        code, _, _ = _run(
            capsys, "balance", "--input", str(data), "--mode", "smote",
            "--targets", "8,8,8,8", "--k", "2", "--seed", "1", "-o", str(out),
        )
        assert code == 0
        assert class_distribution(load_csv(out)) == (8, 8, 8, 8)

    def test_k_above_a_class_size_takes_the_whole_class(self, data_csv, tmp_path):
        # 19 neighbours is every other member of the largest class SMOTE oversamples (20 rows)
        for command in (
            ["balance", "--mode", "smote", "--targets", "30,30,30,44"],
            ["cross-validate", "--balance-mode", "smote", "--targets", "20,8,8,44"],
        ):
            outputs = []
            for k in ("1000000", "19"):
                out = tmp_path / f"{command[0]}-{k}.txt"
                target = ["-o", str(out)] if command[0] == "balance" else ["--report", str(out)]
                assert main([*command, "--input", str(data_csv), "--k", k, "--seed", "1", *target]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], command

    def test_resample_keeps_size(self, data_csv, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code, _, _ = _run(
            capsys, "balance", "--input", str(data_csv), "--mode", "resample",
            "--bias", "1.0", "--seed", "2", "-o", str(out),
        )
        assert code == 0
        assert len(load_csv(out, allow_duplicates=True)) == 80

    def test_smote_without_targets_is_usage_error(self, data_csv, capsys):
        code, _, err = _run(capsys, "balance", "--input", str(data_csv), "--mode", "smote")
        assert code == 2
        assert "--targets" in err

    def test_cv_smote_without_targets_is_usage_error(self, data_csv, capsys):
        code, _, err = _run(
            capsys, "cross-validate", "--input", str(data_csv), "--folds", "4",
            "--balance-mode", "smote",
        )
        assert code == 2
        assert "--targets" in err


    @pytest.mark.parametrize("percent", ["inf", "nan"])
    def test_non_finite_percent_is_a_data_error(self, data_csv, tmp_path, capsys, percent):
        code, _, err = _run(
            capsys, "balance", "--input", str(data_csv), "--mode", "resample",
            "--percent", percent, "-o", str(tmp_path / "out.csv"),
        )
        assert code == 1
        assert "sample_size_percent must be finite" in err

class TestBalanceResolution:
    """Balancing knobs come from the flag, else the config, else the default."""

    @pytest.fixture()
    def hard_csv(self, tmp_path):
        path = tmp_path / "hard.csv"
        argv = ["generate", "--counts", "20,8,8,44", "--separation", "1.0", "--seed", "7", "-o", str(path)]
        assert main(argv) == 0
        return path

    def _report(self, tmp_path, data_csv, name, *argv) -> bytes:
        path = tmp_path / f"{name}.txt"
        assert main([
            "cross-validate", "--input", str(data_csv), "--folds", "4", "--seed", "5",
            "--report", str(path), *argv,
        ]) == 0
        return path.read_bytes()

    def _config(self, tmp_path, balance: dict) -> str:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"balance": balance}), encoding="utf-8")
        return str(path)

    def test_cv_smote_takes_targets_and_k_from_config(self, hard_csv, tmp_path):
        cfg = self._config(
            tmp_path, {"mode": "resample", "target_counts": [40, 40, 40, 40], "k_neighbors": 1}
        )
        by_config = self._report(tmp_path, hard_csv, "cfg", "--config", cfg, "--balance-mode", "smote")
        by_flags = self._report(
            tmp_path, hard_csv, "flags", "--balance-mode", "smote",
            "--targets", "40,40,40,40", "--k", "1",
        )
        default_k = self._report(
            tmp_path, hard_csv, "default_k", "--balance-mode", "smote", "--targets", "40,40,40,40",
        )
        assert by_config == by_flags
        assert by_config != default_k

    def test_cv_resample_takes_bias_and_percent_from_config(self, hard_csv, tmp_path):
        cfg = self._config(
            tmp_path, {"mode": "smote", "target_counts": [40, 40, 40, 40],
                       "bias_to_uniform": 0.5, "sample_size_percent": 60.0},
        )
        by_config = self._report(tmp_path, hard_csv, "cfg", "--config", cfg, "--balance-mode", "resample")
        by_flags = self._report(
            tmp_path, hard_csv, "flags", "--balance-mode", "resample", "--bias", "0.5", "--percent", "60",
        )
        defaults = self._report(tmp_path, hard_csv, "defaults", "--balance-mode", "resample")
        assert by_config == by_flags
        assert by_config != defaults

    def test_flags_win_over_config(self, hard_csv, tmp_path):
        cfg = self._config(
            tmp_path, {"mode": "resample", "bias_to_uniform": 0.5, "sample_size_percent": 60.0}
        )
        config_only = self._report(tmp_path, hard_csv, "cfg", "--config", cfg)
        overridden = self._report(tmp_path, hard_csv, "override", "--config", cfg, "--percent", "100")
        by_flags = self._report(
            tmp_path, hard_csv, "flags", "--balance-mode", "resample", "--bias", "0.5", "--percent", "100",
        )
        assert overridden == by_flags
        assert overridden != config_only

    def test_balance_command_reads_the_same_config(self, data_csv, tmp_path, capsys):
        cfg = self._config(tmp_path, {"mode": "smote", "target_counts": [44, 44, 44, 44], "k_neighbors": 2})
        by_config, by_flags = tmp_path / "c.csv", tmp_path / "f.csv"
        assert main([
            "balance", "--input", str(data_csv), "--config", cfg, "--seed", "1", "-o", str(by_config),
        ]) == 0
        assert main([
            "balance", "--input", str(data_csv), "--mode", "smote", "--targets", "44,44,44,44",
            "--k", "2", "--seed", "1", "-o", str(by_flags),
        ]) == 0
        assert by_config.read_bytes() == by_flags.read_bytes()
        assert class_distribution(load_csv(by_config)) == (44, 44, 44, 44)


class TestOneWayToReadACsv:
    """Every command reads its CSV the same way, so any stage reads what another writes."""

    def test_every_stage_reads_the_resampled_csv(self, data_csv, tmp_path, capsys):
        resampled, model = tmp_path / "resampled.csv", tmp_path / "m.tree"
        assert main(["balance", "--input", str(data_csv), "--mode", "resample", "--seed", "3",
                     "-o", str(resampled)]) == 0
        keys = [tuple(line.split(",")[:2]) for line in resampled.read_text().splitlines()[1:]]
        assert len(set(keys)) < len(keys)  # drawn with replacement, so company_id/year pairs repeat
        argvs = [
            ["select-features", "--input", str(resampled)],
            ["balance", "--input", str(resampled), "--mode", "resample", "-o", str(tmp_path / "again.csv")],
            ["balance", "--input", str(resampled), "--mode", "smote", "--targets", "80,80,80,80",
             "-o", str(tmp_path / "smoted.csv")],
            ["label", "--input", str(resampled), "-o", str(tmp_path / "labeled.csv")],
            ["train", "--input", str(resampled), "-o", str(model)],
            ["cross-validate", "--input", str(resampled), "--folds", "3", "--report", str(tmp_path / "cv.txt")],
            ["evaluate", "--model", str(model), "--test", str(resampled), "--report", str(tmp_path / "ev.txt")],
            ["predict", "--model", str(model), "--input", str(resampled), "-o", str(tmp_path / "p.csv")],
        ]
        for argv in argvs:
            code, _, err = _run(capsys, *argv)
            assert (code, err) == (0, ""), argv
        assert (tmp_path / "labeled.csv").read_bytes() == resampled.read_bytes()

    def test_rows_read_cell_by_cell_go_through_label_train_predict(self, data_csv, tmp_path, capsys):
        # tca/tcr with a blank car, an NBSP-padded number and an upper-case class
        with open(data_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[2][2:5] = ["330.0", "220.0", ""]
        rows[3][5] = "\u00a0" + rows[3][5]
        rows[4][-1] = rows[4][-1].upper()
        odd = tmp_path / "odd.csv"
        with open(odd, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        labeled, model, predictions = tmp_path / "labeled.csv", tmp_path / "m.tree", tmp_path / "p.csv"
        for argv in (["label", "--input", str(odd), "-o", str(labeled)],
                     ["train", "--input", str(labeled), "-o", str(model)],
                     ["predict", "--model", str(model), "--input", str(odd), "-o", str(predictions)]):
            code, _, err = _run(capsys, *argv)
            assert (code, err) == (0, ""), argv
        assert load_csv(labeled).records[1].car == 150.0
        assert len(predictions.read_text(encoding="utf-8").splitlines()) == 80

    def test_cross_validate_notes_folds_whose_balancing_is_skipped(self, tmp_path, capsys):
        # with no insolvency rows, full-bias resampling refuses every fold's training portion
        data, report = tmp_path / "d.csv", tmp_path / "cv.txt"
        assert main(["generate", "--counts", "0,8,8,44", "--seed", "7", "-o", str(data)]) == 0
        code, _, _ = _run(capsys, "cross-validate", "--input", str(data), "--balance-mode", "resample",
                          "--bias", "1", "--folds", "2", "--report", str(report))
        assert code == 0
        assert report.read_text().count("resampling skipped") == 2


class TestTrainPredictEvaluate:
    def test_full_chain(self, data_csv, tmp_path, capsys):
        model = tmp_path / "m.tree"
        assert main(["train", "--input", str(data_csv), "-o", str(model)]) == 0
        assert model.read_text().startswith("solvtree-tree 1\n")

        report = tmp_path / "rep.txt"
        code, _, _ = _run(
            capsys, "evaluate", "--model", str(model), "--test", str(data_csv),
            "--report", str(report),
        )
        assert code == 0
        assert "Overall accuracy:" in report.read_text()

        code, out, _ = _run(capsys, "render-tree", "--model", str(model))
        assert code == 0
        assert "<=" in out or out.strip().endswith("]")

    def test_predict_line_format(self, data_csv, tmp_path, capsys):
        model = tmp_path / "m.tree"
        assert main(["train", "--input", str(data_csv), "-o", str(model)]) == 0
        one = tmp_path / "one.csv"
        lines = data_csv.read_text().splitlines()
        one.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
        code, out, _ = _run(capsys, "predict", "--model", str(model), "--input", str(one))
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 1
        m = re.fullmatch(
            r"(?P<cid>[^,]*),(?P<year>\d*),(?P<cls>insolvency|weak|moderate|strong)"
            r",(?P<p>[0-9.e+-]+,[0-9.e+-]+,[0-9.e+-]+,[0-9.e+-]+)",
            rows[0],
        )
        assert m is not None
        probs = [float(p) for p in m.group("p").split(",")]
        assert abs(sum(probs) - 1.0) < 1e-9

    def test_predict_on_a_header_only_csv_writes_nothing(self, data_csv, tmp_path):
        model, header_only, predictions = tmp_path / "m.tree", tmp_path / "h.csv", tmp_path / "p.csv"
        assert main(["train", "--input", str(data_csv), "-o", str(model)]) == 0
        header_only.write_text(data_csv.read_text().splitlines()[0] + "\n", encoding="utf-8")
        assert main(["predict", "--model", str(model), "--input", str(header_only), "-o", str(predictions)]) == 0
        assert predictions.read_bytes() == b""

    def test_predict_quotes_company_ids(self, data_csv, tmp_path, capsys):
        lines = data_csv.read_text().splitlines()
        lines[1] = '"Acme, Inc."' + lines[1][lines[1].index(","):]
        lines[2] = '"say ""hi"""' + lines[2][lines[2].index(","):]
        data_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model, predictions = tmp_path / "m.tree", tmp_path / "p.csv"
        assert main(["train", "--input", str(data_csv), "-o", str(model)]) == 0
        code, _, err = _run(capsys, "predict", "--model", str(model), "--input", str(data_csv),
                            "-o", str(predictions))
        assert code == 0, err
        with open(predictions, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == len(lines) - 1
        assert {len(row) for row in rows} == {7}
        assert [row[0] for row in rows[:2]] == ["Acme, Inc.", 'say "hi"']

    def test_train_attribute_restriction(self, data_csv, tmp_path, capsys):
        model = tmp_path / "m.tree"
        code, _, _ = _run(
            capsys, "train", "--input", str(data_csv), "--attributes", "V1,V2", "-o", str(model)
        )
        assert code == 0
        assert "schema V1,V2\n" in model.read_text()

    @pytest.mark.parametrize("attributes, message", [
        ("V1,V1", "duplicate attribute 'V1' in schema"),
        ("V99", "unknown attribute 'V99' in schema"),
        (" , ", "schema must name at least one attribute"),
    ])
    def test_bad_attribute_list_is_a_usage_error(self, data_csv, tmp_path, capsys, attributes, message):
        # argparse checks the list by the schema rule, so nothing is read or written
        model = tmp_path / "m.tree"
        code, _, err = _run(capsys, "train", "--input", str(data_csv), f"--attributes={attributes}", "-o", str(model))
        assert code == 2
        assert message in err
        assert not model.exists()


    def test_deep_alternating_set_trains_and_predicts(self, tmp_path, capsys):
        # labels alternating in pairs along V1 grow a chain about 1100 splits deep
        data = tmp_path / "deep.csv"
        write_csv(make_dataset([(float(i),) for i in range(2200)], [(i // 2) % 2 for i in range(2200)]), data)
        model = tmp_path / "m.tree"
        assert main(["train", "--input", str(data), "--attributes", "V1", "-o", str(model)]) == 0
        code, out, _ = _run(capsys, "predict", "--model", str(model), "--input", str(data))
        assert code == 0
        assert [line.split(",")[2] for line in out.splitlines()] == ["insolvency", "insolvency", "weak", "weak"] * 550

    @pytest.mark.parametrize(
        "content, message",
        [
            (f"A,2001,,,160.0,{'1' * 200_000}" + ",0.5" * 10 + "\n", "row 2"),
            (b"\xff,2001,,,160.0" + b",0.5" * 11 + b"\n", "UTF-8"),
        ],
        ids=["overlong-cell", "invalid-utf8"],
    )
    def test_unreadable_csv_is_a_data_error(self, tmp_path, capsys, content, message):
        header = "company_id,year,tca,tcr,car," + ",".join(f"V{i}" for i in range(1, 12)) + "\n"
        data = tmp_path / "bad.csv"
        data.write_bytes(header.encode() + (content if isinstance(content, bytes) else content.encode()))
        code, _, err = _run(capsys, "train", "--input", str(data), "-o", str(tmp_path / "m.tree"))
        assert code == 1
        assert err.startswith("error:") and message in err

class TestCrossValidateCommand:
    def test_deterministic_report_files(self, data_csv, tmp_path, capsys):
        reports = []
        for name in ("r1.txt", "r2.txt"):
            path = tmp_path / name
            code, _, _ = _run(
                capsys, "cross-validate", "--input", str(data_csv), "--folds", "5",
                "--seed", "7", "--report", str(path), "--summary", str(tmp_path / (name + ".kv")),
            )
            assert code == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_seed_changes_numbers_not_format(self, data_csv, tmp_path, capsys):
        texts = []
        for seed in ("7", "8"):
            path = tmp_path / f"r{seed}.txt"
            code, _, _ = _run(
                capsys, "cross-validate", "--input", str(data_csv), "--folds", "5",
                "--seed", seed, "--balance-mode", "resample", "--report", str(path),
            )
            assert code == 0
            texts.append(path.read_text())
        for text in texts:
            lines = text.splitlines()
            assert lines[0].split() == ["Classification", "I", "W", "M", "S", "Total", "Correct", "(%)"]
        assert len(texts[0].splitlines()) == len(texts[1].splitlines())


class TestConfigAndSeeds:
    def test_config_round_trip(self):
        cfg = PipelineConfig(
            seed=3,
            folds=5,
            feature_bins=8,
            learner=LearnerParams(confidence_factor=0.1, min_leaf=3, max_depth=4),
            balance=BalanceTargets(mode="smote", target_counts=(5, 5, 5, 5), k_neighbors=2),
            paths={"input": "a.csv"},
        )
        assert PipelineConfig.from_json(cfg.to_json()) == cfg
        assert PipelineConfig.from_json(PipelineConfig().to_json()) == PipelineConfig()

    def test_config_with_legacy_balance_seed_loads(self):
        cfg = PipelineConfig.from_dict({"balance": {"mode": "resample", "seed": 4}})
        assert cfg.balance == BalanceTargets(mode="resample")

    @pytest.mark.parametrize("command", ["generate", "balance"])
    @pytest.mark.parametrize(
        "config, key",
        [
            ({"balance": {}}, "mode"),
            ([], "config"),
            ({"learner": {"max_depth": "x"}}, "learner.max_depth"),
            ({"learner": []}, "learner"),
            ({"seed": 1e400}, "seed"),
            ({"learner": {"min_leaf": math.inf}}, "learner.min_leaf"),
            ({"balance": {"mode": "resample", "sample_size_percent": math.inf}}, "sample_size_percent"),
        ],
        ids=["balance-without-mode", "top-level-list", "bad-max-depth", "learner-list",
             "seed-overflow", "min-leaf-infinity", "percent-infinity"],
    )
    def test_malformed_config_is_a_data_error(self, command, config, key, data_csv, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        if command == "generate":
            argv = ["generate", "--counts", "4,4,4,4"]
        else:
            argv = ["balance", "--input", str(data_csv), "--mode", "resample"]
        code, _, err = _run(capsys, *argv, "--config", str(cfg_path), "-o", str(tmp_path / "out.csv"))
        assert code == 1
        assert err.startswith("error:")
        assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "[" * 1000 + "]" * 1000,
        '{"a":' * 200_000 + "0" + "}" * 200_000,
    ], ids=["1000-lists", "200000-objects"])
    def test_config_nesting_too_deeply_is_a_data_error(self, text, tmp_path, capsys):
        with pytest.raises(ValueError, match="^the config nests too deeply$"):
            PipelineConfig.from_json(text)
        cfg, out = tmp_path / "deep.json", tmp_path / "out.csv"
        cfg.write_text(text, encoding="utf-8")
        code, _, err = _run(capsys, "generate", "--counts", "4,4,4,4", "--config", str(cfg), "-o", str(out))
        assert (code, err) == (1, "error: the config nests too deeply\n")
        assert not out.exists()

    def test_defaults_match_reference_settings(self):
        cfg = PipelineConfig()
        assert cfg.learner.confidence_factor == 0.25
        assert cfg.learner.min_leaf == 2
        assert cfg.folds == 10

    def test_config_supplies_seed_and_flags_win(self, data_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 3, "folds": 5}), encoding="utf-8")

        by_config = tmp_path / "by_config.txt"
        assert main([
            "cross-validate", "--input", str(data_csv), "--config", str(cfg_path),
            "--report", str(by_config),
        ]) == 0
        explicit = tmp_path / "explicit.txt"
        assert main([
            "cross-validate", "--input", str(data_csv), "--folds", "5", "--seed", "3",
            "--report", str(explicit),
        ]) == 0
        assert by_config.read_bytes() == explicit.read_bytes()

        overridden = tmp_path / "override.txt"
        assert main([
            "cross-validate", "--input", str(data_csv), "--config", str(cfg_path),
            "--seed", "9", "--report", str(overridden),
        ]) == 0
        explicit9 = tmp_path / "explicit9.txt"
        assert main([
            "cross-validate", "--input", str(data_csv), "--folds", "5", "--seed", "9",
            "--report", str(explicit9),
        ]) == 0
        assert overridden.read_bytes() == explicit9.read_bytes()
        capsys.readouterr()

    def test_env_var_seed_default(self, data_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOLVTREE_SEED", "9")
        via_env = tmp_path / "env.txt"
        assert main([
            "cross-validate", "--input", str(data_csv), "--folds", "5",
            "--report", str(via_env),
        ]) == 0
        monkeypatch.delenv("SOLVTREE_SEED")
        explicit = tmp_path / "flag.txt"
        assert main([
            "cross-validate", "--input", str(data_csv), "--folds", "5", "--seed", "9",
            "--report", str(explicit),
        ]) == 0
        assert via_env.read_bytes() == explicit.read_bytes()
        capsys.readouterr()

    def test_any_config_turns_off_the_env_seed(self, tmp_path, monkeypatch):
        empty = tmp_path / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        monkeypatch.setenv("SOLVTREE_SEED", "9")
        outputs = {}
        for name, extra in {"config": ["--config", str(empty)], "env": [], "seed0": ["--seed", "0"]}.items():
            outputs[name] = tmp_path / f"{name}.csv"
            assert main(["generate", "--counts", "2,2,2,2", *extra, "-o", str(outputs[name])]) == 0
        assert outputs["config"].read_bytes() == outputs["seed0"].read_bytes()
        assert outputs["env"].read_bytes() != outputs["seed0"].read_bytes()

    def test_train_ignores_the_env_seed(self, data_csv, tmp_path, monkeypatch):
        models = {}
        for name, env in {"plain": None, "bad": "x"}.items():
            if env is not None:
                monkeypatch.setenv("SOLVTREE_SEED", env)
            models[name] = tmp_path / f"{name}.tree"
            assert main(["train", "--input", str(data_csv), "-o", str(models[name])]) == 0
        assert models["bad"].read_bytes() == models["plain"].read_bytes()

    def test_config_paths_read_only_path_keys(self, data_csv, tmp_path, capsys):
        # paths keys named after other flags or after the parser's own fields stand in for nothing
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"paths": {"func": "x", "folds": "3", "attributes": "V1"}}), encoding="utf-8")
        argv = ["cross-validate", "--input", str(data_csv), "--seed", "3"]
        plain = _run(capsys, *argv)
        assert plain[0] == 0
        assert _run(capsys, *argv, "--config", str(cfg)) == plain

    def test_env_seed_takes_ascii_digits_only(self, tmp_path, monkeypatch, capsys):
        # int alone reads " ٣_3 " as 33; the CSV reader's rule refuses it
        out = tmp_path / "out.csv"
        for value in (" ٣_3 ", "٣", "３", "3_3", "x"):
            monkeypatch.setenv("SOLVTREE_SEED", value)
            code, _, err = _run(capsys, "generate", "--counts", "2,2,2,2", "-o", str(out))
            assert code == 2 and "SOLVTREE_SEED must be an integer" in err, value
        assert not out.exists()
        monkeypatch.setenv("SOLVTREE_SEED", " 33 ")
        assert main(["generate", "--counts", "2,2,2,2", "-o", str(out)]) == 0
        explicit = tmp_path / "explicit.csv"
        assert main(["generate", "--counts", "2,2,2,2", "--seed", "33", "-o", str(explicit)]) == 0
        assert out.read_bytes() == explicit.read_bytes()


COMMANDS = ["generate", "label", "select-features", "balance", "train", "cross-validate", "evaluate",
            "predict", "render-tree"]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A labeled CSV and a model trained on it, for commands that read them."""
    root = tmp_path_factory.mktemp("cli")
    data, model = root / "data.csv", root / "model.txt"
    assert main(["generate", "--counts", "20,8,8,44", "--seed", "7", "-o", str(data)]) == 0
    assert main(["train", "--input", str(data), "-o", str(model)]) == 0
    return data, model


def _argv(command: str, data: Path, model: Path, out: Path) -> list[str]:
    """An argv for ``command`` whose one output goes to ``out``; ``balance`` takes its mode from a config."""
    return {
        "generate": ["generate", "--counts", "4,4,4,4", "-o", out],
        "label": ["label", "--input", data, "-o", out],
        "select-features": ["select-features", "--input", data],
        "balance": ["balance", "--input", data, "-o", out],
        "train": ["train", "--input", data, "-o", out],
        "cross-validate": ["cross-validate", "--input", data, "--folds", "2", "--report", out],
        "evaluate": ["evaluate", "--model", model, "--test", data, "--report", out],
        "predict": ["predict", "--model", model, "--input", data, "-o", out],
        "render-tree": ["render-tree", "--model", model, "-o", out],
    }[command]


def _bad(key: str, value) -> tuple[dict, str]:
    """A config whose dotted ``key`` holds ``value``, and the key the error must name."""
    section, _, name = key.rpartition(".")
    if section == "balance":
        return {"balance": {"mode": "resample", name: value}}, key
    return ({section: {name: value}} if section else {name: value}), key


_BAD_CONFIGS = [
    *(_bad(key, v) for key in ("seed", "folds", "feature_bins", "learner.min_leaf", "balance.k_neighbors")
      for v in (True, 2.7, "3")),
    _bad("learner.max_depth", 2.9), _bad("learner.max_depth", True), _bad("learner.max_depth", "2"),
    *(_bad(key, v) for key in ("learner.confidence_factor", "balance.bias_to_uniform",
                               "balance.sample_size_percent") for v in (True, "0.25", [0.25])),
    _bad("balance.target_counts", "5555"), _bad("balance.target_counts", [1.5, 1, 1, 1]),
    _bad("balance.target_counts", [True, 1, 1, 1]), _bad("balance.target_counts", 5),
    ({"paths": {"input": 5}}, "paths"), ({"paths": {"output": 5}}, "paths"),
    ({"paths": {"model": None}}, "paths"), ({"paths": ["a.csv"]}, "paths"), ({"paths": "a.csv"}, "paths"),
]


class TestConfigTypes:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "config, key", _BAD_CONFIGS, ids=[json.dumps(config) for config, _ in _BAD_CONFIGS]
    )
    def test_wrong_json_type_exits_1_naming_the_key(self, command, config, key, cli_files, tmp_path, capsys):
        cfg, out = tmp_path / "bad.json", tmp_path / "out"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = _run(capsys, *map(str, _argv(command, *cli_files, out)), "--config", str(cfg))
        assert code == 1
        assert err.startswith("error:")
        assert repr(key) in err
        assert not out.exists()

    def test_bad_value_message(self):
        with pytest.raises(ValueError) as exc_info:
            PipelineConfig.from_dict({"learner": {"max_depth": 2.9}})
        assert str(exc_info.value) == "config key 'learner.max_depth' has a bad value 2.9"

    def test_numbers_load_as_given(self):
        balance = {"mode": "smote", "sample_size_percent": 100, "target_counts": [5, 6, 7, 8]}
        cfg = PipelineConfig.from_dict({"seed": 4, "balance": balance})
        assert cfg.seed == 4
        assert type(cfg.balance.sample_size_percent) is float
        assert cfg.balance.target_counts == (5, 6, 7, 8)
        assert PipelineConfig.from_dict({"learner": {"max_depth": None}}).learner.max_depth is None

    @given(_CONFIGS)
    def test_from_json_loads_exactly_the_given_values_or_raises_value_error(self, raw):
        try:
            cfg = PipelineConfig.from_json(json.dumps(raw))
        except ValueError:
            return
        loaded = cfg.to_dict()
        for key, value in raw.items():
            if key not in loaded:
                continue  # unknown keys are ignored
            if isinstance(value, dict) and key in ("learner", "balance"):
                for name, v in value.items():
                    if name in loaded[key]:
                        assert _tagged(loaded[key][name]) == _tagged(v), f"{key}.{name}"
            else:
                assert _tagged(loaded[key]) == _tagged(value), key

    @given(_CONFIGS)
    def test_no_command_ends_in_a_traceback(self, cli_files, raw):
        # every output is given explicitly inside the test directory, and _CONFIGS never
        # names a file to write
        data, model = cli_files
        cfg = data.parent / "fuzz.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        for command in ("generate", "balance", "train", "cross-validate", "evaluate", "predict"):
            argv = _argv(command, data, model, data.parent / "fuzz.out")
            code = main([*map(str, argv), "--config", str(cfg)])
            assert code in (0, 1, 2)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help_exits_zero(self, command, capsys):
        code, out, _ = _run(capsys, command, "--help")
        assert code == 0
        assert out.startswith(f"usage: solvtree {command}")

    def test_config_paths_stand_in_for_path_flags(self, tmp_path, capsys):
        by_flags, by_config = tmp_path / "flags", tmp_path / "config"
        by_flags.mkdir()
        by_config.mkdir()
        flag_of = {"input": "--input", "output": "-o", "model": "--model", "test": "--test",
                   "report": "--report", "summary": "--summary"}
        steps = [
            ("generate", ["--counts", "20,8,8,44", "--seed", "7"], {"output": "data.csv"}),
            ("label", [], {"input": "data.csv", "output": "labeled.csv"}),
            ("select-features", [], {"input": "data.csv"}),
            ("balance", ["--mode", "resample", "--seed", "3"],
             {"input": "data.csv", "output": "balanced.csv"}),
            ("train", [], {"input": "balanced.csv", "model": "model.txt"}),
            ("evaluate", [], {"model": "model.txt", "test": "data.csv", "report": "eval.txt",
                              "summary": "eval.kv"}),
            ("cross-validate", ["--folds", "3", "--seed", "1"], {"input": "data.csv", "report": "cv.txt",
                                                               "summary": "cv.kv"}),
            ("predict", [], {"model": "model.txt", "input": "data.csv", "output": "predictions.csv"}),
            ("render-tree", [], {"model": "model.txt", "output": "tree.txt"}),
        ]
        for command, extra, paths in steps:
            flags = [command, *extra]
            for key, name in paths.items():
                flag = "-o" if (command, key) == ("train", "model") else flag_of[key]
                flags += [flag, str(by_flags / name)]
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps({"paths": {k: str(by_config / v) for k, v in paths.items()}}))
            flagged, configured = _run(capsys, *flags), _run(capsys, command, *extra, "--config", str(cfg))
            assert flagged == configured == (0, flagged[1], ""), command
        names = sorted(p.name for p in by_flags.iterdir())
        assert names == sorted(p.name for p in by_config.iterdir())
        assert len(names) == 10
        for name in names:
            assert (by_flags / name).read_bytes() == (by_config / name).read_bytes(), name


# balancing flag values: mostly valid, else negative, zero, nan, inf, overflowing or malformed;
# targets stay <= 2000 and percents <= 300, so no example allocates much
_FLAG_ODD = st.integers(-3, 40).map(str) | st.floats(-1, 3).map(repr) | st.sampled_from(
    ["nan", "inf", "-inf", "-0.0", "1e400", "", "x", "1_0", "0x10", "2,", "1,2,3", "1,,2,3", "a,b,c,d"]
)


def _mostly(valid: st.SearchStrategy) -> st.SearchStrategy:
    return st.integers(0, 3).flatmap(lambda i: _FLAG_ODD if i == 0 else valid)


_BALANCE_FLAGS = st.fixed_dictionaries({}, optional={
    "--k": _mostly(st.integers(1, 30).map(str)),
    "--targets": _mostly(st.lists(st.integers(-1, 60) | st.just(2000), min_size=4, max_size=4).map(
        lambda c: ",".join(map(str, c)))),
    "--bias": _mostly(st.floats(0, 1).map(repr)),
    "--percent": _mostly(st.floats(1, 300).map(repr)),
    "--seed": _mostly(st.integers(0, 2**64).map(str)),
})


def _assert_exits_cleanly(argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


class TestBalanceFlagFuzz:
    @settings(deadline=None)
    @given(st.sampled_from(["balance", "cross-validate"]),
           _mostly(st.sampled_from(["resample", "smote"])) | st.sampled_from([None, "SMOTE"]), _BALANCE_FLAGS)
    def test_balance_flags_exit_cleanly(self, cli_files, command, mode, flags):
        data, _ = cli_files
        out = data.parent / "fuzz-balance.out"
        argv = [command, "--input", str(data), *(f"{flag}={value}" for flag, value in flags.items())]
        if mode is not None:
            argv += ["--mode" if command == "balance" else "--balance-mode", mode]
        argv += ["-o", str(out)] if command == "balance" else ["--folds", "2", "--report", str(out)]
        _assert_exits_cleanly(argv)


# sizes of at least 10**18 elements (6.9 EiB of int64): no allocator grants them, so the
# commands fail before any large allocation is made
_HUGE = str(10**18)
_LEARNER_FLAGS = {
    "--cf": _mostly(st.floats(0, 0.5).map(repr)),
    "--min-leaf": _mostly(st.integers(1, 10).map(str)) | st.just(_HUGE),
    "--max-depth": _mostly(st.integers(0, 8).map(str)) | st.just(_HUGE),
    "--attributes": _mostly(st.lists(st.sampled_from(ATTRIBUTE_NAMES), min_size=1, max_size=4).map(",".join)),
}
# generated sets hold at most 200 rows, apart from the one absurd count
_COMMAND_FLAGS = {
    "generate": st.fixed_dictionaries(
        {"--counts": _mostly(st.lists(st.integers(0, 50), min_size=4, max_size=4).map(
            lambda c: ",".join(map(str, c)))) | st.just(f"{_HUGE},0,0,0")},
        optional={"--separation": _mostly(st.floats(0, 10).map(repr)) | st.just("1e308"),
                  "--n-attributes": _mostly(st.integers(1, 11).map(str))},
    ),
    "train": st.fixed_dictionaries({}, optional=_LEARNER_FLAGS),
    "cross-validate": st.fixed_dictionaries({}, optional={
        **_LEARNER_FLAGS, "--folds": _mostly(st.integers(2, 5).map(str)) | st.just(_HUGE)}),
    "select-features": st.fixed_dictionaries({}, optional={
        "--bins": _mostly(st.integers(2, 100).map(str)) | st.sampled_from([str(2**62), str(2**64), _HUGE])}),
}


class TestCommandFlagFuzz:
    @settings(deadline=None)
    @given(st.sampled_from(sorted(_COMMAND_FLAGS)).flatmap(lambda c: st.tuples(st.just(c), _COMMAND_FLAGS[c])))
    def test_flags_exit_cleanly(self, cli_files, command_flags):
        command, flags = command_flags
        data, _ = cli_files
        out = data.parent / "fuzz-command.out"
        argv = [command, *(f"{flag}={value}" for flag, value in flags.items())]
        if command != "generate":
            argv += ["--input", str(data)]
        if command != "select-features":
            argv += ["--report" if command == "cross-validate" else "-o", str(out)]
        _assert_exits_cleanly(argv)


class TestSelectFeatures:
    def test_emits_list_and_merit(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        assert main(["generate", "--counts", "10,10,10,10", "--seed", "5", "-o", str(data)]) == 0
        code, out, _ = _run(capsys, "select-features", "--input", str(data))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        names = lines[0].split(",")
        assert all(re.fullmatch(r"V\d+", n) for n in names)
        assert lines[1].startswith("merit=")
        float(lines[1].split("=", 1)[1])

    @pytest.mark.parametrize("bins", [10**9, 2**62, 2**63 - 1, 2**64])
    def test_bins_from_the_row_count_up_select_alike(self, capsys, tmp_path, bins):
        # 40 rows: any bin count from 40 up gives each rank a bin of its own
        data, cfg = tmp_path / "d.csv", tmp_path / "cfg.json"
        assert main(["generate", "--counts", "10,10,10,10", "--seed", "5", "-o", str(data)]) == 0
        want = _run(capsys, "select-features", "--input", str(data), "--bins", "40")
        assert want[0] == 0 and want[2] == ""
        assert _run(capsys, "select-features", "--input", str(data), "--bins", str(bins)) == want
        cfg.write_text(json.dumps({"feature_bins": bins}))
        assert _run(capsys, "select-features", "--input", str(data), "--config", str(cfg)) == want


class TestNoRecordObjects:
    def test_every_command_runs_on_columns(self, tmp_path, capsys, monkeypatch):
        # records are for the public edge only: no command may build one per row
        def refuse(self):
            raise AssertionError("a CompanyRecord was built")

        monkeypatch.setattr(CompanyRecord, "__post_init__", refuse)
        data, raw, model = (str(tmp_path / name) for name in ("d.csv", "raw.csv", "m.txt"))
        steps = [
            ["generate", "--counts", "20,8,8,44", "--seed", "7", "-o", data],
            ["label", "--input", data, "-o", str(tmp_path / "labeled.csv")],
            ["select-features", "--input", data],
            ["balance", "--mode", "resample", "--input", data, "-o", str(tmp_path / "r.csv")],
            ["balance", "--mode", "smote", "--targets", "44,44,44,44", "--input", data,
             "-o", str(tmp_path / "s.csv")],
            ["train", "--input", data, "-o", model],
            ["cross-validate", "--input", data, "--folds", "3", "--balance-mode", "smote",
             "--targets", "30,30,30,44"],
            ["evaluate", "--model", model, "--test", data],
            ["predict", "--model", model, "--input", data, "-o", str(tmp_path / "p.csv")],
            ["render-tree", "--model", model],
        ]
        for argv in steps:
            code, _, err = _run(capsys, *argv)
            assert code == 0, (argv[0], err)


# (rows, labels, train flags): data on which growth stops at the root
_ONE_NODE_TREES = {
    "constant-columns": ([(1.0, 2.0)] * 8, [0, 1, 2, 3, 0, 1, 2, 3], []),
    "single-class": ([(float(i), float(-i)) for i in range(8)], [2] * 8, []),
    "max-depth-0": ([(float(i), 0.0) for i in range(8)], [0] * 4 + [3] * 4, ["--max-depth", "0"]),
}


class TestOneNodeTrees:
    @pytest.mark.parametrize("case", sorted(_ONE_NODE_TREES))
    def test_every_stage_through_library_and_cli(self, case, tmp_path, capsys):
        rows, labels, flags = _ONE_NODE_TREES[case]
        ds = make_dataset(rows, labels)
        model = grow(ds, LearnerParams(max_depth=0 if flags else None))
        assert isinstance(model.root, Leaf)
        assert prune(model.root, 0.25) == model.root
        text = serialize(model)
        assert parse(text) == model
        assert serialize(parse(text)) == text
        rendered = render_text(model)
        assert rendered == f"{model.root.predicted.csv_name} [{' '.join(map(str, model.root.class_counts))}]\n"
        assert predict(model, ds.records[0])[0] is model.root.predicted
        assert evaluate_on(model, ds).n == len(ds)

        data, model_path = str(tmp_path / "d.csv"), str(tmp_path / "m.tree")
        write_csv(ds, data)
        steps = [
            ["train", "--input", data, *flags, "-o", model_path],
            ["render-tree", "--model", model_path],
            ["predict", "--model", model_path, "--input", data],
            ["evaluate", "--model", model_path, "--test", data],
        ]
        outputs = {}
        for argv in steps:
            code, outputs[argv[0]], err = _run(capsys, *argv)
            assert (code, err) == (0, ""), argv[0]
        assert outputs["render-tree"] == rendered
        assert len(outputs["predict"].splitlines()) == len(ds)
        assert "Overall accuracy:" in outputs["evaluate"]


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, err = _run(capsys, "generate", "--counts", "1,1,1,1", "--bogus")
        assert code == 2
        assert "usage" in err

    def test_missing_input_file(self, capsys):
        code, _, err = _run(capsys, "label", "--input", "/nonexistent/x.csv")
        assert code == 2
        assert "not found" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, out, err = _run(capsys, "label", "--config", str(tmp_path / "absent.json"))
        assert (code, out) == (2, "")
        assert "config file not found" in err

    def test_no_input_anywhere(self, capsys):
        code, _, err = _run(capsys, "label")
        assert code == 2
        assert "--help" in err

    @pytest.mark.parametrize("argv", [
        ["generate", "--counts", "1,1,1,1", "--seed"],
        ["generate", "--counts", "1,1,1,1", "--n-attributes"],
        ["generate", "--counts"],
        ["select-features", "--bins"],
        ["balance", "--mode", "smote", "--targets"],
        ["balance", "--mode", "smote", "--k"],
        ["cross-validate", "--folds"],
        ["cross-validate", "--min-leaf"],
        ["cross-validate", "--max-depth"],
    ], ids=lambda argv: f"{argv[0]} {argv[-1]}")
    def test_integer_flags_take_ascii_digits_only(self, argv, capsys):
        # Arabic-Indic and full-width digits and "_" groups are usage errors, as a non-number is;
        # in a CSV cell they are data errors (test below)
        spell = (lambda v: f"{v},1,1,1") if argv[-1] in ("--counts", "--targets") else str
        for value in ("x", "٥", "５", "1_0"):
            code, out, err = _run(capsys, *argv, spell(value))
            assert (code, out) == (2, "") and argv[-1] in err, value

    @pytest.mark.parametrize("argv", [
        ["generate", "--counts", "1,1,1,1", "--separation"],
        ["train", "--cf"],
        ["balance", "--mode", "resample", "--bias"],
        ["balance", "--mode", "resample", "--percent"],
    ], ids=lambda argv: f"{argv[0]} {argv[-1]}")
    def test_float_flags_take_ascii_numbers_only(self, argv, capsys):
        for value in ("x", "٥", "５", "1_0", "٠.٢٥"):
            code, out, err = _run(capsys, *argv, value)
            assert (code, out) == (2, "") and f"argument {argv[-1]}: invalid float value" in err, value

    def test_overflowing_car_is_a_data_error_naming_its_cell(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text(
            "company_id,year,tca,tcr,car,V1,V2,V3,V4,V5,V6,V7,V8,V9,V10,V11\n"
            f"A,2001,1e308,1e-308,,{','.join(['0.1'] * 11)}\n",
            encoding="utf-8",
        )
        code, _, err = _run(capsys, "select-features", "--input", str(src))
        assert code == 1
        assert "(row 2, column car)" in err

    @pytest.mark.parametrize("year, car", [("２００１", "160.0"), ("2001", "1_6_0"), ("2001", "٥")])
    def test_number_outside_ascii_is_a_data_error_naming_its_cell(self, tmp_path, capsys, year, car):
        src = tmp_path / "raw.csv"
        src.write_text(
            "company_id,year,tca,tcr,car,V1,V2,V3,V4,V5,V6,V7,V8,V9,V10,V11\n"
            f"A,{year},,,{car},{','.join(['0.1'] * 11)}\n",
            encoding="utf-8",
        )
        code, _, err = _run(capsys, "label", "--input", str(src))
        assert code == 1
        assert f"(row 2, column {'year' if year != '2001' else 'car'})" in err

    @pytest.mark.parametrize("argv", [
        ["generate", "--counts", "1000000000000000000,0,0,0"],
        ["balance", "--mode", "smote", "--targets", "1000000000000000000,8,8,44"],
        ["cross-validate", "--balance-mode", "smote", "--targets", "1000000000000000000,8,8,44"],
        ["balance", "--mode", "resample", "--percent", "1e20"],
        ["cross-validate", "--balance-mode", "resample", "--percent", "1e300"],
    ])
    def test_sizes_no_array_can_hold_are_data_errors(self, argv, cli_files, tmp_path, capsys):
        # 10**18 elements (6.9 EiB) is more than any allocator grants, so nothing large is allocated
        out = tmp_path / "out"
        if argv[0] != "generate":
            argv += ["--input", str(cli_files[0])]
        argv += ["--report" if argv[0] == "cross-validate" else "-o", str(out)]
        code, _, err = _run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_separation_with_an_overflowing_class_mean_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, err = _run(capsys, "generate", "--counts", "1,1,1,1", "--separation", "1e308", "-o", str(out))
        assert code == 1
        assert err.startswith("error:") and "separation" in err
        assert not out.exists()
        # the largest class mean still finite: the file loads back
        code, _, err = _run(capsys, "generate", "--counts", "1,1,1,1", "--separation", "5e307", "-o", str(out))
        assert (code, err) == (0, "")
        assert load_csv(out).values.max() > 1.4e308

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("company_id,year\nA,2001\n", encoding="utf-8")
        code, _, err = _run(capsys, "select-features", "--input", str(bad))
        assert code == 1
        assert "error:" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = _run(capsys, "--help")
        assert code == 0
        assert "generate" in out and "cross-validate" in out

    def test_module_run_gives_no_runtime_warning(self):
        # the package must not import cli itself, or runpy warns that
        # solvtree.cli is already in sys.modules
        env = {**os.environ, "PYTHONPATH": str(Path(solvtree.__file__).resolve().parents[1])}
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "solvtree.cli", "--help"],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert "usage" in out.stdout

    def test_missing_subcommand(self, capsys):
        code, _, _ = _run(capsys)
        assert code == 2
