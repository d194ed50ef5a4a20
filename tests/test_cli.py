import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matchgraph as mg
from matchgraph.cli import build_parser, main
from matchgraph.evaluation import GroundTruth, macro_average, per_query_prf
from matchgraph.retrieval import read_pair_file, pairs_to_query_sets
from matchgraph.trainer import load_overlaps


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def scene_files(tmp_path):
    paths = {
        "embeddings": tmp_path / "scene.emb",
        "overlaps": tmp_path / "scene.overlaps",
        "classes": tmp_path / "scene.classes",
    }
    code = run(
        "synth", "--embeddings", paths["embeddings"], "--overlaps", paths["overlaps"],
        "--classes", paths["classes"], "--n-images", 24, "--symmetry", 2,
        "--overlap-angle", math.pi / 6, "--noise-sigma", 0.05, "--dim", 8, "--seed", 3,
    )
    assert code == 0
    return paths


class TestSynth:
    def test_outputs_parse(self, scene_files):
        with open(scene_files["embeddings"], "rb") as fp:
            emb = mg.load_embeddings(fp)
        assert len(emb) == 24
        store = load_overlaps(scene_files["overlaps"].read_text())
        assert len(store) > 0

    def test_rerun_is_byte_identical(self, scene_files, tmp_path):
        again = tmp_path / "again.emb"
        run(
            "synth", "--embeddings", again, "--overlaps", tmp_path / "again.ov",
            "--n-images", 24, "--symmetry", 2, "--overlap-angle", math.pi / 6,
            "--noise-sigma", 0.05, "--dim", 8, "--seed", 3,
        )
        assert again.read_bytes() == scene_files["embeddings"].read_bytes()


class TestIndex:
    def test_validates_and_reports(self, scene_files, capsys):
        assert run("index", "--embeddings", scene_files["embeddings"]) == 0
        assert capsys.readouterr().out == "ok n=24 d=8\n"

    def test_missing_file_is_parse_error(self, tmp_path):
        assert run("index", "--embeddings", tmp_path / "absent.emb") == 3


class TestPipeline:
    def test_synth_train_infer_eval(self, scene_files, tmp_path):
        model = tmp_path / "model.ckpt"
        history = tmp_path / "history.csv"
        code = run(
            "train", "--embeddings", scene_files["embeddings"],
            "--overlaps", scene_files["overlaps"], "--model", model,
            "--history-out", history, "--k1", 6, "--k2", 2, "--u", 3,
            "--epochs", 3, "--batch-size", 8, "--seed", 7,
            "--conv-widths", "8,8,6,6", "--fc-widths", "4",
        )
        assert code == 0
        assert history.read_text().splitlines()[0] == "epoch,loss,precision,recall,fmeasure"
        assert len(history.read_text().strip().splitlines()) == 4

        pairs = tmp_path / "pairs.txt"
        results = tmp_path / "results.csv"
        code = run(
            "infer", "--embeddings", scene_files["embeddings"], "--model", model,
            "--pairs-out", pairs, "--results-out", results,
            "--k1", 6, "--k2", 2, "--u", 3,
        )
        assert code == 0
        assert pairs.read_text().startswith("# matchgraph pairs v1\n")

        report = tmp_path / "report.csv"
        code = run(
            "eval", "--pairs", pairs, "--overlaps", scene_files["overlaps"],
            "--report-out", report,
        )
        assert code == 0
        assert report.read_text().splitlines()[-1].startswith("MACRO,")

    def test_rerun_training_is_byte_identical(self, scene_files, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            model = tmp_path / f"model-{tag}.ckpt"
            pairs = tmp_path / f"pairs-{tag}.txt"
            run(
                "train", "--embeddings", scene_files["embeddings"],
                "--overlaps", scene_files["overlaps"], "--model", model,
                "--k1", 6, "--k2", 2, "--u", 3, "--epochs", 2, "--seed", 9,
                "--conv-widths", "8,8,6,6", "--fc-widths", "4",
                "--history-out", tmp_path / f"history-{tag}.csv",
            )
            run(
                "infer", "--embeddings", scene_files["embeddings"], "--model", model,
                "--pairs-out", pairs, "--k1", 6, "--k2", 2, "--u", 3,
            )
            outputs.append((model.read_bytes(), pairs.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_thread_count_does_not_change_output(self, scene_files, tmp_path):
        model = tmp_path / "model.ckpt"
        run(
            "train", "--embeddings", scene_files["embeddings"],
            "--overlaps", scene_files["overlaps"], "--model", model,
            "--k1", 6, "--k2", 2, "--u", 3, "--epochs", 1, "--seed", 1,
            "--conv-widths", "8,8,6,6", "--fc-widths", "4",
            "--history-out", tmp_path / "h.csv",
        )
        pair_files = []
        for threads in (1, 4):
            pairs = tmp_path / f"pairs-t{threads}.txt"
            run(
                "infer", "--embeddings", scene_files["embeddings"], "--model", model,
                "--pairs-out", pairs, "--k1", 6, "--k2", 2, "--u", 3,
                "--threads", threads,
            )
            pair_files.append(pairs.read_bytes())
        assert pair_files[0] == pair_files[1]

    @pytest.mark.parametrize("mode", [("--topk", 7), ("--tau-dist", 0.6)])
    def test_thread_count_does_not_change_baseline(self, scene_files, tmp_path, mode):
        # each run fills and widens the neighbor table of a fresh index
        outputs = []
        for threads in (1, 4):
            pairs = tmp_path / f"pairs-t{threads}.txt"
            results = tmp_path / f"results-t{threads}.csv"
            assert run(
                "baseline", "--embeddings", scene_files["embeddings"], *mode,
                "--pairs-out", pairs, "--results-out", results, "--threads", threads,
            ) == 0
            outputs.append((pairs.read_bytes(), results.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_blas_thread_count_does_not_change_checkpoint(self, tmp_path):
        # Subgraphs of 60+ nodes and 128-wide convs give products such as
        # (60 x 256) @ (256 x 128), which OpenBLAS splits across two threads.
        src = Path(mg.__file__).resolve().parents[1]
        scene = [
            "synth", "--embeddings", tmp_path / "s.emb", "--overlaps", tmp_path / "s.ov",
            "--n-images", 120, "--symmetry", 2, "--noise-sigma", 0.05, "--dim", 32, "--seed", 5,
        ]
        assert run(*scene) == 0
        checkpoints = []
        for blas_threads in ("1", "2"):
            model = tmp_path / f"model-{blas_threads}.ckpt"
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=blas_threads)
            argv = [
                "train", "--embeddings", tmp_path / "s.emb", "--overlaps", tmp_path / "s.ov",
                "--model", model, "--k1", 60, "--k2", 3, "--u", 8, "--epochs", 3, "--seed", 2,
                "--lr", 0.01, "--conv-widths", "128,128,64,64", "--fc-widths", "32",
            ]
            subprocess.run([sys.executable, "-m", "matchgraph.cli", *map(str, argv)],
                           env=env, check=True, timeout=300)
            checkpoints.append(model.read_bytes())
        assert checkpoints[0] == checkpoints[1]


class TestEval:
    def test_pair_file_against_itself_is_perfect(self, scene_files, tmp_path):
        pairs = tmp_path / "pairs.txt"
        run("baseline", "--embeddings", scene_files["embeddings"],
            "--pairs-out", pairs, "--topk", 3)
        report = tmp_path / "report.csv"
        code = run("eval", "--pairs", pairs, "--truth-pairs", pairs,
                   "--report-out", report)
        assert code == 0
        assert report.read_text().strip().splitlines()[-1] == "MACRO,1.0,1.0,1.0"


class TestBaseline:
    def test_topk_equals_library_computation(self, scene_files, tmp_path):
        pairs = tmp_path / "pairs.txt"
        report = tmp_path / "report.csv"
        assert run("baseline", "--embeddings", scene_files["embeddings"],
                   "--pairs-out", pairs, "--topk", 5) == 0
        assert run("eval", "--pairs", pairs, "--overlaps", scene_files["overlaps"],
                   "--report-out", report) == 0

        with open(scene_files["embeddings"], "rb") as fp:
            emb = mg.load_embeddings(fp)
        index = mg.build_index(emb)
        store = load_overlaps(scene_files["overlaps"].read_text())
        truth = GroundTruth.from_records(store.records(), 0.25, 0.15)
        results = [mg.topk_retrieve(index, q, 5) for q in sorted(emb.ids)]
        predicted = pairs_to_query_sets(
            [(min(r.query_id, v), max(r.query_id, v), s)
             for r in results for v, s in r.retrieved]
        )
        queries = sorted(set(predicted) | set(truth.universe))
        expected = macro_average(
            [per_query_prf(predicted.get(q, set()), truth.relevant(q)) for q in queries]
        )
        macro_line = report.read_text().strip().splitlines()[-1].split(",")
        got = tuple(float(x) for x in macro_line[1:])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_requires_exactly_one_mode(self, scene_files, tmp_path):
        code = run("baseline", "--embeddings", scene_files["embeddings"],
                   "--pairs-out", tmp_path / "p.txt")
        assert code == 2
        code = run("baseline", "--embeddings", scene_files["embeddings"],
                   "--pairs-out", tmp_path / "p.txt", "--topk", 3, "--tau-dist", 0.5)
        assert code == 2


class TestStats:
    def test_counts_cross_class(self, scene_files, tmp_path):
        pairs = tmp_path / "pairs.txt"
        run("baseline", "--embeddings", scene_files["embeddings"],
            "--pairs-out", pairs, "--topk", 4)
        report = tmp_path / "stats.csv"
        code = run("stats", "--pairs", pairs, "--overlaps", scene_files["overlaps"],
                   "--classes", scene_files["classes"], "--report-out", report)
        assert code == 0
        rows = dict(
            line.split(",") for line in report.read_text().strip().splitlines()[1:]
        )
        assert int(rows["cross_class_false_positives"]) > 0


class TestConfigFile:
    def test_flags_beat_config(self, scene_files, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("topk=3\n")
        pairs_cfg = tmp_path / "from-config.txt"
        pairs_flag = tmp_path / "from-flag.txt"
        assert run("baseline", "--embeddings", scene_files["embeddings"],
                   "--pairs-out", pairs_cfg, "--config", config) == 0
        assert run("baseline", "--embeddings", scene_files["embeddings"],
                   "--pairs-out", pairs_flag, "--config", config, "--topk", 5) == 0
        n_cfg = len(read_pair_file(pairs_cfg.read_text()))
        n_flag = len(read_pair_file(pairs_flag.read_text()))
        assert n_flag > n_cfg

    @pytest.mark.parametrize("line", ["nonsense", "k1=abc", "conv_widths=8,x", "fc_widths="])
    def test_bad_config_line(self, scene_files, tmp_path, line):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        model = tmp_path / "model.ckpt"
        code = run("train", "--embeddings", scene_files["embeddings"],
                   "--overlaps", scene_files["overlaps"], "--model", model, "--config", config)
        assert code == 3
        assert not model.exists()


# Minimal argv per subcommand; the tests only parse it.
COMMAND_ARGS = {
    "synth": ["--embeddings", "e", "--overlaps", "o"],
    "index": ["--embeddings", "e"],
    "train": ["--embeddings", "e", "--overlaps", "o", "--model", "m"],
    "infer": ["--embeddings", "e", "--model", "m", "--pairs-out", "p"],
    "baseline": ["--embeddings", "e", "--pairs-out", "p"],
    "eval": ["--pairs", "p"],
    "stats": ["--pairs", "p"],
}
FLAG_READERS = {"synth": "--seed", "train": "--seed", "infer": "--threads", "baseline": "--threads"}


class TestSeedAndThreadFlags:
    @pytest.mark.parametrize("command,flag", [
        (command, flag)
        for command in COMMAND_ARGS
        for flag in ("--seed", "--threads")
        if FLAG_READERS.get(command) != flag
    ])
    def test_flag_without_effect_is_usage_error(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, *COMMAND_ARGS[command], flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", sorted(FLAG_READERS.items()))
    def test_flag_with_effect_is_accepted(self, command, flag):
        args = build_parser().parse_args([command, *COMMAND_ARGS[command], flag, "3"])
        assert getattr(args, flag[2:]) == 3


class TestExitCodes:
    def test_usage_error(self):
        assert run("train") == 2

    def test_unknown_command(self):
        assert run("explode") == 2

    def test_corrupt_embedding_file(self, tmp_path):
        bad = tmp_path / "bad.emb"
        bad.write_bytes(b"MGEB" + b"\x00" * 3)
        assert run("index", "--embeddings", bad) == 3

    def test_compute_error(self, scene_files, tmp_path):
        # model trained for 16-d descriptors cannot classify an 8-d scene
        mismatched = mg.init_model(16, conv_widths=(6, 6, 4, 4), fc_widths=(3,), seed=0)
        model = tmp_path / "model.ckpt"
        model.write_bytes(mg.save_model(mismatched))
        code = run("infer", "--embeddings", scene_files["embeddings"],
                   "--model", model, "--pairs-out", tmp_path / "p.txt",
                   "--k1", 4, "--k2", 2, "--u", 3)
        assert code == 4

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_diverged_training_is_compute_error_and_writes_nothing(self, scene_files, tmp_path):
        model = tmp_path / "model.ckpt"
        history = tmp_path / "history.csv"
        code = run(
            "train", "--embeddings", scene_files["embeddings"],
            "--overlaps", scene_files["overlaps"], "--model", model,
            "--history-out", history, "--k1", 6, "--k2", 2, "--u", 3,
            "--epochs", 3, "--lr", 1e100, "--conv-widths", "8,8,6,6", "--fc-widths", "4",
        )
        assert code == 4
        assert not model.exists() and not history.exists()

    def test_log_env_accepted(self, scene_files, monkeypatch, capsys):
        monkeypatch.setenv("MATCHGRAPH_LOG", "debug")
        assert run("index", "--embeddings", scene_files["embeddings"]) == 0
        assert "ok n=24" in capsys.readouterr().out
