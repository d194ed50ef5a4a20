import argparse
import inspect
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matchgraph as mg
from matchgraph import cli, retrieval
from matchgraph.cli import build_parser, main
from matchgraph.evaluation import GroundTruth, macro_average, per_query_prf
from matchgraph.overlaps import OverlapStore, load_overlaps, save_overlaps
from matchgraph.retrieval import pairs_to_query_sets, read_pair_file, write_pair_file
from matchgraph.synthetic import SceneConfig, generate_scene
from matchgraph.trainer import TrainConfig

from overlap_oracle import overlap_text
from retrieval_oracle import brute_force_knn
from test_retrieval import antipodal_embeddings


def run(*argv):
    return main([str(a) for a in argv])


def knn_table_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("knn table:")]


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
        store = load_overlaps(scene_files["overlaps"].read_bytes())
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

    @pytest.mark.parametrize("k", [1, 5, 23, 40])
    def test_knn_out_lines_equal_oracle(self, scene_files, tmp_path, k):
        # the synth scene, and a zero-noise 4-fold scene (exact ties) whose
        # ids are shuffled so that id order is not row order
        tied = generate_scene(SceneConfig(n_images=32, symmetry_s=4, dim=6)).embeddings
        ids = np.random.default_rng(4).permutation(100)[:32].tolist()
        shuffled = tmp_path / "shuffled.emb"
        shuffled.write_bytes(mg.save_embeddings(mg.EmbeddingMatrix(ids, tied.vectors)))
        for path in (scene_files["embeddings"], shuffled):
            out = tmp_path / "knn.txt"
            assert run("index", "--embeddings", path, "--k", k, "--knn-out", out) == 0
            emb = mg.load_embeddings(path.read_bytes())
            want = []
            for q in sorted(emb.ids):
                parts = [str(q)]
                for v, d in brute_force_knn(emb, q, k).neighbors:
                    parts += [str(v), repr(d)]
                want.append(" ".join(parts))
            assert out.read_text() == "\n".join(want) + "\n"


class TestPipeline:
    def test_synth_train_infer_eval(self, scene_files, tmp_path, caplog):
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
        with caplog.at_level(logging.INFO, logger="matchgraph.cli"):
            code = run(
                "infer", "--embeddings", scene_files["embeddings"], "--model", model,
                "--pairs-out", pairs, "--results-out", results,
                "--k1", 6, "--k2", 2, "--u", 3,
            )
        assert code == 0
        assert pairs.read_text().startswith("# matchgraph pairs v1\n")
        # every image is a query: 24 one-row requests and two block requests each
        table = knn_table_lines(caplog)
        assert len(table) == 1
        assert re.fullmatch(r"knn table: rankings \d+ reranks \d+ rows_read \d+"
                            r" radius_table 0 radius_pass 0 pooled \d+", table[0])

        report = tmp_path / "report.csv"
        code = run(
            "eval", "--pairs", pairs, "--overlaps", scene_files["overlaps"],
            "--report-out", report,
        )
        assert code == 0
        assert report.read_text().splitlines()[-1].startswith("MACRO,")

    def test_two_convolutions_train_infer_eval(self, scene_files, tmp_path):
        model, pairs = tmp_path / "model.ckpt", tmp_path / "pairs.txt"
        assert run(
            "train", "--embeddings", scene_files["embeddings"],
            "--overlaps", scene_files["overlaps"], "--model", model,
            "--k1", 6, "--k2", 2, "--u", 3, "--epochs", 2, "--seed", 7,
            "--conv-widths", "16,8", "--fc-widths", "4",
        ) == 0
        layers = mg.load_model(model.read_bytes()).layers
        assert sum(layer.bias is None for layer in layers) == 2
        assert run(
            "infer", "--embeddings", scene_files["embeddings"], "--model", model,
            "--pairs-out", pairs, "--k1", 6, "--k2", 2, "--u", 3,
        ) == 0
        assert run("eval", "--pairs", pairs, "--overlaps", scene_files["overlaps"]) == 0

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

    def test_thread_count_does_not_change_output(self, scene_files, tmp_path, caplog):
        model = tmp_path / "model.ckpt"
        run(
            "train", "--embeddings", scene_files["embeddings"],
            "--overlaps", scene_files["overlaps"], "--model", model,
            "--k1", 6, "--k2", 2, "--u", 3, "--epochs", 1, "--seed", 1,
            "--conv-widths", "8,8,6,6", "--fc-widths", "4",
            "--history-out", tmp_path / "h.csv",
        )
        outputs = []
        for threads in (1, 4):
            pairs = tmp_path / f"pairs-t{threads}.txt"
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="matchgraph.cli"):
                run(
                    "infer", "--embeddings", scene_files["embeddings"], "--model", model,
                    "--pairs-out", pairs, "--k1", 6, "--k2", 2, "--u", 3,
                    "--threads", threads,
                )
            outputs.append((pairs.read_bytes(), knn_table_lines(caplog)))
        assert len(outputs[0][1]) == 1
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("mode", [("--topk", 7), ("--tau-dist", 0.6)])
    def test_thread_count_does_not_change_baseline(self, scene_files, tmp_path, caplog, mode):
        # each run fills and widens the neighbor table of a fresh index
        outputs = []
        for threads in (1, 4):
            pairs = tmp_path / f"pairs-t{threads}.txt"
            results = tmp_path / f"results-t{threads}.csv"
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="matchgraph.cli"):
                assert run(
                    "baseline", "--embeddings", scene_files["embeddings"], *mode,
                    "--pairs-out", pairs, "--results-out", results, "--threads", threads,
                ) == 0
            outputs.append((pairs.read_bytes(), results.read_bytes(), knn_table_lines(caplog)))
        assert len(outputs[0][2]) == 1
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


    def test_embeddings_make_every_image_a_query(self, scene_files, tmp_path):
        # images 0-3 have no overlap record and appear in no predicted pair:
        # without --embeddings the CLI leaves them out of its macro average
        store = load_overlaps(scene_files["overlaps"].read_bytes())
        kept = [r for r in store.records() if r.i > 3 and r.j > 3]
        overlaps = tmp_path / "partial.ov"
        overlaps.write_bytes(save_overlaps(OverlapStore(kept)))
        pairs = tmp_path / "pairs.txt"
        with open(pairs, "w", encoding="utf-8") as fp:
            write_pair_file([(a, a + d, 0.5) for a in range(4, 20) for d in (1, 2)], fp)
        truth = GroundTruth.from_columns(*load_overlaps(overlaps.read_bytes()).columns())
        predicted = pairs_to_query_sets(read_pair_file(pairs.read_text()))
        want = macro_average([per_query_prf(predicted.get(q, set()), truth.relevant(q))
                              for q in range(24)])
        report = tmp_path / "report.csv"
        assert run("eval", "--pairs", pairs, "--overlaps", overlaps,
                   "--embeddings", scene_files["embeddings"], "--report-out", report) == 0
        lines = report.read_text().splitlines()
        assert [int(line.split(",")[0]) for line in lines[1:-1]] == list(range(24))
        assert lines[-1] == "MACRO," + ",".join(repr(v) for v in want)
        assert run("eval", "--pairs", pairs, "--overlaps", overlaps, "--report-out", report) == 0
        assert [int(line.split(",")[0]) for line in report.read_text().splitlines()[1:-1]] \
            == list(range(4, 24))

    def test_queries_and_embeddings_together_are_a_usage_error(self, scene_files, tmp_path,
                                                               capsys):
        queries = tmp_path / "q.txt"
        queries.write_text("1\n")
        report = tmp_path / "report.csv"
        assert run("eval", "--pairs", queries, "--overlaps", scene_files["overlaps"],
                   "--queries", queries, "--embeddings", scene_files["embeddings"],
                   "--report-out", report) == 2
        assert "at most one of --queries / --embeddings" in capsys.readouterr().err
        assert not report.exists()


class TestOverlapFiles:
    def test_binary_and_text_give_identical_outputs(self, scene_files, tmp_path):
        binary = scene_files["overlaps"]
        scene = generate_scene(SceneConfig(n_images=24, symmetry_s=2, overlap_angle=math.pi / 6,
                                           noise_sigma=0.05, dim=8, seed=3))
        assert binary.read_bytes() == save_overlaps(scene.overlaps)
        text = tmp_path / "scene.txt"
        text.write_text(overlap_text(scene.overlaps))
        pairs = tmp_path / "pairs.txt"
        assert run("baseline", "--embeddings", scene_files["embeddings"], "--topk", 4,
                   "--pairs-out", pairs) == 0
        outputs = []
        for overlaps in (binary, text):
            out = tmp_path / f"from-{overlaps.name}"
            out.mkdir()
            assert run("train", "--embeddings", scene_files["embeddings"], "--overlaps", overlaps,
                       "--model", out / "model.ckpt", "--history-out", out / "history.csv",
                       "--k1", 6, "--k2", 2, "--u", 3, "--epochs", 2, "--seed", 7,
                       "--conv-widths", "8,8,6,6", "--fc-widths", "4") == 0
            assert run("eval", "--pairs", pairs, "--overlaps", overlaps,
                       "--report-out", out / "report.csv") == 0
            assert run("stats", "--pairs", pairs, "--overlaps", overlaps, "--classes",
                       scene_files["classes"], "--report-out", out / "stats.csv") == 0
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert sorted(outputs[0]) == ["history.csv", "model.ckpt", "report.csv", "stats.csv"]
        assert outputs[0] == outputs[1]

    def test_loader_logs_one_line_per_file(self, scene_files, tmp_path, caplog):
        binary = scene_files["overlaps"]
        n = len(load_overlaps(binary.read_bytes()))
        text = tmp_path / "scene.txt"
        text.write_text(overlap_text(load_overlaps(binary.read_bytes())))
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("# matchgraph pairs v1\n0 1 0.5\n")
        with caplog.at_level(logging.INFO, logger="matchgraph.cli"):
            for overlaps in (binary, text):
                assert run("eval", "--pairs", pairs, "--overlaps", overlaps,
                           "--report-out", tmp_path / "report.csv") == 0
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("overlaps ")]
        assert len(lines) == 2
        for line, path, kind in zip(lines, (binary, text), ("binary", "text")):
            assert re.fullmatch(rf"overlaps {re.escape(str(path))}: {n} records, {kind}, "
                                r"\d+\.\d{4} s", line)


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
        store = load_overlaps(scene_files["overlaps"].read_bytes())
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

    @pytest.mark.parametrize("mode,counts", [
        (("--tau-dist", 0.6), "rankings 0 reranks 0 rows_read 0 radius_table 0 radius_pass 24 pooled 0"),
        (("--topk", 5), "rankings 24 reranks 0 rows_read 48 radius_table 0 radius_pass 0 pooled 0"),
    ])
    def test_logs_knn_table_line(self, scene_files, tmp_path, caplog, mode, counts):
        # each run has a fresh index, so every radius query takes a pass
        with caplog.at_level(logging.INFO, logger="matchgraph.cli"):
            assert run("baseline", "--embeddings", scene_files["embeddings"], *mode,
                       "--pairs-out", tmp_path / "p.txt") == 0
        assert knn_table_lines(caplog) == [f"knn table: {counts}"]

    @pytest.mark.parametrize("mode", [("--topk", 2), ("--tau-dist", "inf")])
    def test_antipodal_rows_score_zero(self, tmp_path, mode):
        emb = tmp_path / "antipodal.emb"
        emb.write_bytes(mg.save_embeddings(antipodal_embeddings()))
        results = tmp_path / "results.csv"
        assert run("baseline", "--embeddings", emb, *mode, "--pairs-out", tmp_path / "p.txt",
                   "--results-out", results) == 0
        assert "0,1,0.0" in results.read_text().splitlines()

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

    def test_false_pair_id_without_class_is_compute_error(self, tmp_path, capsys):
        pairs, truth, classes = (tmp_path / name for name in ("pairs", "truth", "classes"))
        for path, rows in ((pairs, [(0, 1, 0.5), (0, 2, 0.5)]), (truth, [(0, 1, 1.0)])):
            with path.open("w") as fp:
                write_pair_file(rows, fp)
        classes.write_text("0 0\n1 1\n")
        report = tmp_path / "stats.csv"
        assert run("stats", "--pairs", pairs, "--truth-pairs", truth, "--classes", classes,
                   "--report-out", report) == 4
        assert "image id 2 has no symmetry class" in capsys.readouterr().err
        assert not report.exists()


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


@pytest.fixture()
def train_calls(monkeypatch):
    """Replace the trainer under the CLI; record each call's arguments with
    the trainer's own defaults filled in."""
    calls = []
    signature = inspect.signature(cli.trainer.train)

    def fake(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return mg.init_model(2, conv_widths=(2, 2, 2, 2), fc_widths=(2,)), []

    monkeypatch.setattr(cli.trainer, "train", fake)
    return calls


class TestLibraryDefaults:
    """A setting given neither as a flag nor in --config takes the
    library's default; config keys are the long flag names."""

    def test_synth_without_optional_flags(self, tmp_path):
        emb, ov = tmp_path / "s.emb", tmp_path / "s.ov"
        assert run("synth", "--embeddings", emb, "--overlaps", ov) == 0
        scene = generate_scene(SceneConfig(n_images=360))
        assert emb.read_bytes() == mg.save_embeddings(scene.embeddings)
        assert ov.read_bytes() == save_overlaps(scene.overlaps)

    def test_synth_symmetry_from_config_equals_flag(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("symmetry=2\n")
        outputs = []
        for tag, extra in (("cfg", ["--config", config]), ("flag", ["--symmetry", 2])):
            emb, ov = tmp_path / f"{tag}.emb", tmp_path / f"{tag}.ov"
            assert run("synth", "--embeddings", emb, "--overlaps", ov,
                       "--n-images", 24, *extra) == 0
            outputs.append((emb.read_bytes(), ov.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == mg.save_embeddings(
            generate_scene(SceneConfig(n_images=24, symmetry_s=2)).embeddings)

    def test_train_without_settings(self, scene_files, tmp_path, train_calls):
        assert run("train", "--embeddings", scene_files["embeddings"],
                   "--overlaps", scene_files["overlaps"], "--model", tmp_path / "m") == 0
        (call,) = train_calls
        widths = inspect.signature(mg.init_model).parameters
        assert call["config"] == TrainConfig()
        assert call["conv_widths"] == widths["conv_widths"].default
        assert call["fc_widths"] == widths["fc_widths"].default

    def test_train_settings_from_config_and_flag(self, scene_files, tmp_path, train_calls):
        config = tmp_path / "run.cfg"
        config.write_text("lr=0.01\nk1=7\ntau_mo=0.4\nepochs=9\nconv-widths=8,8,6,6\n")
        assert run("train", "--embeddings", scene_files["embeddings"],
                   "--overlaps", scene_files["overlaps"], "--model", tmp_path / "m",
                   "--config", config, "--epochs", 3) == 0
        (call,) = train_calls
        assert call["config"] == TrainConfig(
            learning_rate=0.01, qes_params=mg.QesParams(k1=7), tau_mo=0.4, epochs=3)
        assert call["conv_widths"] == (8, 8, 6, 6)
        assert call["fc_widths"] == inspect.signature(mg.init_model).parameters["fc_widths"].default


def _typed_options():
    """(command, dest) for every subcommand option that takes a typed value."""
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return [(name, action.dest) for name, sub in commands.choices.items()
            for action in sub._actions if action.type is not None]


@pytest.fixture(scope="module")
def guard_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("guard")
    files = {name: root / name for name in ("e", "o", "m", "p")}
    assert run("synth", "--embeddings", files["e"], "--overlaps", files["o"],
               "--n-images", 24, "--symmetry", 2, "--noise-sigma", 0.05, "--dim", 8) == 0
    files["m"].write_bytes(mg.save_model(mg.init_model(8, (4, 4, 4, 4), (3,), seed=0)))
    assert run("baseline", "--embeddings", files["e"], "--topk", 3,
               "--pairs-out", files["p"]) == 0
    return files


class TestEveryOptionReadsConfig:
    """An option added to the parser but not read from --config fails here."""

    @pytest.mark.parametrize("command,dest", _typed_options())
    def test_bad_config_value_is_parse_error(self, command, dest, guard_inputs,
                                             tmp_path, capsys):
        e, o, m, p = (guard_inputs[name] for name in ("e", "o", "m", "p"))
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "synth": ["--embeddings", out / "e", "--overlaps", out / "o"],
            "index": ["--embeddings", e, "--knn-out", out / "knn"],
            "train": ["--embeddings", e, "--overlaps", o, "--model", out / "m",
                      "--history-out", out / "h"],
            "infer": ["--embeddings", e, "--model", m, "--pairs-out", out / "p"],
            "baseline": ["--embeddings", e, "--pairs-out", out / "p"],
            "eval": ["--pairs", p, "--overlaps", o, "--report-out", out / "r"],
            "stats": ["--pairs", p, "--overlaps", o, "--report-out", out / "r"],
        }[command]
        config = tmp_path / "run.cfg"
        config.write_text(f"{dest}=x\n")
        assert run(command, *argv, "--config", config) == 3
        assert f"config value {dest}='x' is not a valid" in capsys.readouterr().err
        assert list(out.iterdir()) == []


BAD_THRESHOLDS = [
    ("baseline", "tau_dist", "nan", "a number >= 0 or inf"),
    ("baseline", "tau_dist", "-1", "a number >= 0 or inf"),
    ("infer", "prob_threshold", "nan", "a number in [0, 1)"),
    ("infer", "prob_threshold", "1.5", "a number in [0, 1)"),
    ("eval", "tau_mo", "nan", "a number in [0, 1]"),
    ("eval", "tau_ct", "nan", "a number in [0, 1]"),
    ("stats", "tau_mo", "5", "a number in [0, 1]"),
    ("stats", "tau_ct", "-0.1", "a number in [0, 1]"),
]


class TestBadThresholds:
    """A threshold outside its range is refused before anything is written."""

    @staticmethod
    def argv(command, files, out):
        if command in ("eval", "stats"):
            return ["--pairs", files["p"], "--overlaps", files["o"], "--report-out", out / "r"]
        model = ["--model", files["m"]] if command == "infer" else []
        return ["--embeddings", files["e"], *model, "--pairs-out", out / "p",
                "--results-out", out / "r"]

    @pytest.mark.parametrize("command,dest,value,expected", BAD_THRESHOLDS)
    def test_flag_is_usage_error(self, command, dest, value, expected, guard_inputs,
                                 tmp_path, capsys):
        flag = "--" + dest.replace("_", "-")
        assert run(command, *self.argv(command, guard_inputs, tmp_path), flag, value) == 2
        assert f"argument {flag}: expected {expected}, got {value!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,dest,value,expected", BAD_THRESHOLDS)
    def test_config_value_is_parse_error(self, command, dest, value, expected, guard_inputs,
                                         tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        config = tmp_path / "run.cfg"
        config.write_text(f"{dest}={value}\n")
        assert run(command, *self.argv(command, guard_inputs, out), "--config", config) == 3
        assert f"config value {dest}={value!r} is not a valid" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command,dest,value", [
        ("baseline", "tau_dist", "inf"), ("baseline", "tau_dist", "0"),
        ("infer", "prob_threshold", "0"), ("eval", "tau_mo", "0"), ("eval", "tau_ct", "1"),
        ("stats", "tau_mo", "1"), ("stats", "tau_ct", "0")])
    def test_range_ends_accepted(self, command, dest, value, guard_inputs, tmp_path):
        flag = "--" + dest.replace("_", "-")
        assert run(command, *self.argv(command, guard_inputs, tmp_path), flag, value) == 0
        assert (tmp_path / ("r" if command in ("eval", "stats") else "p")).exists()


class TestInferLog:
    def test_pairs_are_collapsed_once_for_the_file_and_the_log(self, guard_inputs, tmp_path,
                                                               caplog, monkeypatch):
        calls = []
        collapse = retrieval.collapse_pairs

        def counted(results):
            calls.append(len(results))
            return collapse(results)

        monkeypatch.setattr(retrieval, "collapse_pairs", counted)
        pairs = tmp_path / "p"
        with caplog.at_level(logging.INFO, logger="matchgraph.cli"):
            assert run("infer", "--embeddings", guard_inputs["e"], "--model", guard_inputs["m"],
                       "--pairs-out", pairs, "--prob-threshold", 0) == 0
        assert calls == [24]
        written = len(pairs.read_text().splitlines()) - 1
        assert written > 0
        assert f"retrieved {written} pairs for 24 queries" in [r.getMessage()
                                                               for r in caplog.records]


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


class TestOneImageCollection:
    @pytest.fixture()
    def lone(self, tmp_path):
        paths = {"embeddings": tmp_path / "one.emb", "overlaps": tmp_path / "one.overlaps"}
        assert run("synth", "--embeddings", paths["embeddings"], "--overlaps",
                   paths["overlaps"], "--n-images", 1, "--dim", 8) == 0
        return paths

    def test_infer_writes_a_header_only_pair_file(self, lone, tmp_path):
        model = tmp_path / "model.ckpt"
        model.write_bytes(mg.save_model(
            mg.init_model(8, conv_widths=(6, 6, 4, 4), fc_widths=(3,), seed=0)))
        pairs = tmp_path / "pairs.txt"
        assert run("infer", "--embeddings", lone["embeddings"], "--model", model,
                   "--pairs-out", pairs) == 0
        assert pairs.read_text() == "# matchgraph pairs v1\n"

    def test_train_is_compute_error_and_writes_no_checkpoint(self, lone, tmp_path, capsys):
        model = tmp_path / "model.ckpt"
        assert run("train", "--embeddings", lone["embeddings"], "--overlaps", lone["overlaps"],
                   "--model", model, "--epochs", 1) == 4
        assert "no query produced a trainable subgraph" in capsys.readouterr().err
        assert not model.exists()


class TestExitCodes:
    def test_usage_error(self):
        assert run("train") == 2

    def test_unknown_command(self):
        assert run("explode") == 2

    def test_corrupt_embedding_file(self, tmp_path):
        bad = tmp_path / "bad.emb"
        bad.write_bytes(b"MGEB" + b"\x00" * 3)
        assert run("index", "--embeddings", bad) == 3

    def test_embedding_id_outside_u64_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.emb"
        bad.write_text(f"0 1.0 0.5\n{2**64} 0.5 1.0\n")
        assert run("index", "--embeddings", bad) == 3
        assert f"image id {2**64} outside [0, 2^64) (byte offset 10)" in capsys.readouterr().err

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

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_non_finite_noise_sigma_is_compute_error_and_writes_nothing(self, tmp_path, capsys,
                                                                        sigma):
        emb, ov = tmp_path / "s.emb", tmp_path / "s.overlaps"
        assert run("synth", "--embeddings", emb, "--overlaps", ov, "--n-images", 8,
                   f"--noise-sigma={sigma}") == 4
        assert "noise sigma must be a finite number >= 0" in capsys.readouterr().err
        assert not emb.exists() and not ov.exists()

    @pytest.mark.parametrize("classes", [False, True])
    def test_noise_beyond_float32_is_compute_error_and_writes_nothing(self, tmp_path, capsys,
                                                                      classes):
        # the scene is finite in float64, but its embedding file would
        # hold values that `index` refuses
        out = {name: tmp_path / name for name in ("s.emb", "s.ov", "s.cls")}
        argv = ["synth", "--embeddings", out["s.emb"], "--overlaps", out["s.ov"],
                "--n-images", 12, "--noise-sigma", "1e39"]
        if classes:
            argv += ["--classes", out["s.cls"]]
        assert run(*argv) == 4
        assert "outside the 32-bit float range" in capsys.readouterr().err
        assert not any(path.exists() for path in out.values())

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_is_compute_error(self, scene_files, tmp_path, capsys, lr):
        model = tmp_path / "model.ckpt"
        assert run("train", "--embeddings", scene_files["embeddings"],
                   "--overlaps", scene_files["overlaps"], "--model", model, "--lr", lr) == 4
        assert f"learning rate must be finite and > 0, got {lr}" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("flag, widths", [
        ("--fc-widths", "0"), ("--fc-widths", "2,0"), ("--fc-widths", "-2"),
        ("--conv-widths", "8,0,6,6"),
    ])
    def test_widths_below_one_are_compute_error(self, scene_files, tmp_path, capsys, flag,
                                                widths):
        model = tmp_path / "model.ckpt"
        assert run("train", "--embeddings", scene_files["embeddings"],
                   "--overlaps", scene_files["overlaps"], "--model", model,
                   f"{flag}={widths}") == 4
        err = capsys.readouterr().err
        assert "layer widths must be >= 1" in err and str(cli._widths(widths)) in err
        assert not model.exists()

    def test_overlap_id_outside_u64_is_parse_error(self, scene_files, tmp_path, capsys):
        pairs = tmp_path / "p.txt"
        pairs.write_text("# matchgraph pairs v1\n0 1 0.5\n")
        bad = tmp_path / "bad.ov"
        bad.write_text("0 1 0.5 0.5\n-1 2 0.5 0.5\n")
        assert run("eval", "--pairs", pairs, "--overlaps", bad) == 3
        assert "overlap id -1 outside [0, 2^64) (byte offset 12)" in capsys.readouterr().err

    # Each input starts with valid text, then blank lines, so that the bad
    # byte lies past the first 8 KiB a text-mode reader decodes at once.
    NOT_UTF8 = {
        "query file": b"0\n1\n",
        "config file": b"k1=4\n# comment\n",
        "pair file": b"# matchgraph pairs v1\n0 1 0.5\n",
        "truth pair file": b"# matchgraph pairs v1\n0 2 0.5\n",
        "class file": b"0 0\n1 1\n",
        "overlap text": b"0 1 0.5 0.5\n",
    }

    @pytest.mark.parametrize("what", list(NOT_UTF8))
    def test_text_input_that_is_not_utf8_is_parse_error(self, scene_files, tmp_path, capsys,
                                                        what):
        head = self.NOT_UTF8[what]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(head + b"\n" * 9000 + b"\xff\n")
        pairs, out = tmp_path / "p.txt", tmp_path / "out"
        pairs.write_text("# matchgraph pairs v1\n0 1 0.5\n")
        truth = ["--overlaps", scene_files["overlaps"]]
        argv = {
            "query file": ["eval", "--pairs", pairs, *truth, "--queries", bad],
            "config file": ["eval", "--pairs", pairs, *truth, "--config", bad],
            "pair file": ["eval", "--pairs", bad, *truth],
            "truth pair file": ["eval", "--pairs", pairs, "--truth-pairs", bad],
            "class file": ["stats", "--pairs", pairs, *truth, "--classes", bad],
            "overlap text": ["eval", "--pairs", pairs, "--overlaps", bad],
        }[what]
        assert run(*argv, "--report-out", out) == 3
        offset = len(head) + 9000
        assert f"parse error: {what} is not valid UTF-8 (byte offset {offset})" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("what", ["pair file", "class file"])
    def test_crlf_text_input_reports_the_file_byte_offset(self, tmp_path, capsys, what):
        pairs, bad = tmp_path / "p.txt", tmp_path / "bad.txt"
        pairs.write_text("# matchgraph pairs v1\n0 1 0.5\n")
        if what == "pair file":
            bad.write_bytes(b"# matchgraph pairs v1\r\n0 1 0.5\r\n3 2 0.5\r\n")
            argv = ["eval", "--pairs", bad, "--truth-pairs", pairs]
            want = "pair ids must ascend within a line (byte offset 32)"
        else:
            bad.write_bytes(b"0 0\r\n1 x\r\n")
            argv = ["stats", "--pairs", pairs, "--truth-pairs", pairs, "--classes", bad]
            want = "bad class label 'x' (byte offset 5)"
        assert run(*argv) == 3
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("bad_id", [-1, 2**64])
    def test_class_id_outside_u64_is_parse_error(self, tmp_path, capsys, bad_id):
        pairs, classes, out = tmp_path / "p.txt", tmp_path / "c.txt", tmp_path / "out"
        pairs.write_text("# matchgraph pairs v1\n0 1 0.5\n")
        classes.write_text(f"0 0\n{bad_id} 0\n1 1\n")
        assert run("stats", "--pairs", pairs, "--truth-pairs", pairs, "--classes", classes,
                   "--report-out", out) == 3
        assert f"class id {bad_id} outside [0, 2^64) (byte offset 4)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad_id", [-5, 2**70])
    @pytest.mark.parametrize("flag", ["--pairs", "--truth-pairs"])
    def test_pair_id_outside_u64_is_parse_error(self, tmp_path, capsys, flag, bad_id):
        good = tmp_path / "good.txt"
        good.write_text("# matchgraph pairs v1\n0 1 0.5\n")
        bad = tmp_path / "bad.txt"
        line = f"{bad_id} 3 0.5" if bad_id < 0 else f"3 {bad_id} 0.5"  # ids ascend
        bad.write_text(f"# matchgraph pairs v1\n0 1 0.5\n{line}\n")
        files = {"--pairs": good, "--truth-pairs": good, flag: bad}
        assert run("eval", *(x for kv in files.items() for x in kv)) == 3
        assert f"pair id {bad_id} outside [0, 2^64) (byte offset 30)" in capsys.readouterr().err

    @pytest.mark.parametrize("text, offset, message", [
        ("0\n1\n-1\n", 4, "query id -1 outside [0, 2^64)"),
        (f"0\n1\n{2**64}\n", 4, f"query id {2**64} outside [0, 2^64)"),
        ("0\n1\n99999999999999999999999\n", 4,
         "query id 99999999999999999999999 outside [0, 2^64)"),
        ("0\r\n\r\n1\r\nseven\r\n", 8, "bad query id 'seven'"),
    ], ids=["-1", "2^64", "23 digits", "not an integer, CRLF"])
    @pytest.mark.parametrize("command", ["train", "infer", "baseline", "eval"])
    def test_query_id_outside_u64_is_parse_error(self, scene_files, tmp_path, capsys, command,
                                                 text, offset, message):
        queries = tmp_path / "q.txt"
        queries.write_bytes(text.encode())
        assert self._with_queries(command, queries, scene_files, tmp_path) == 3
        assert f"{message} (byte offset {offset})" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "infer", "baseline"])
    def test_unknown_query_id_in_range_is_compute_error(self, scene_files, tmp_path, capsys,
                                                        command):
        queries = tmp_path / "q.txt"
        queries.write_text(f"0\n{2**64 - 1}\n")
        assert self._with_queries(command, queries, scene_files, tmp_path) == 4
        assert "compute error" in capsys.readouterr().err

    @staticmethod
    def _with_queries(command, queries, files, tmp_path):
        """Run `command` on the scene with `--queries`, writing to tmp_path/out."""
        out, model, pairs = tmp_path / "out", tmp_path / "model.ckpt", tmp_path / "p.txt"
        model.write_bytes(mg.save_model(mg.init_model(8, (6, 6, 4, 4), (3,), seed=0)))
        pairs.write_text("# matchgraph pairs v1\n0 1 0.5\n")
        emb, ov = files["embeddings"], files["overlaps"]
        small = ["--k1", 4, "--k2", 2, "--u", 3]
        argv = {
            "train": ["--embeddings", emb, "--overlaps", ov, "--model", out, "--epochs", 1,
                      "--conv-widths", "6,6,4,4", "--fc-widths", "3", *small],
            "infer": ["--embeddings", emb, "--model", model, "--pairs-out", out, *small],
            "baseline": ["--embeddings", emb, "--topk", 3, "--pairs-out", out],
            "eval": ["--pairs", pairs, "--overlaps", ov, "--report-out", out],
        }[command]
        return run(command, *argv, "--queries", queries)

    @pytest.mark.parametrize("knn_out", [False, True])
    def test_index_k_below_one_is_compute_error(self, scene_files, tmp_path, capsys, knn_out):
        out = ["--knn-out", tmp_path / "knn.txt"] if knn_out else []
        assert run("index", "--embeddings", scene_files["embeddings"], "--k", 0, *out) == 4
        assert "k must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "knn.txt").exists()

    def test_log_env_accepted(self, scene_files, monkeypatch, capsys):
        monkeypatch.setenv("MATCHGRAPH_LOG", "debug")
        assert run("index", "--embeddings", scene_files["embeddings"]) == 0
        assert "ok n=24" in capsys.readouterr().out
