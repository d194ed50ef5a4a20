import argparse
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matchgraph as mg
from matchgraph import cli
from matchgraph.cli import build_parser, main
from matchgraph.evaluation import GroundTruth, macro_average, per_query_prf
from matchgraph.retrieval import read_pair_file, pairs_to_query_sets
from matchgraph.synthetic import SceneConfig, generate_scene
from matchgraph.trainer import TrainConfig, load_overlaps, save_overlaps

from retrieval_oracle import brute_force_knn


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
        assert ov.read_text() == save_overlaps(scene.overlaps)

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

    def test_overlap_id_outside_u64_is_parse_error(self, scene_files, tmp_path, capsys):
        pairs = tmp_path / "p.txt"
        pairs.write_text("# matchgraph pairs v1\n0 1 0.5\n")
        bad = tmp_path / "bad.ov"
        bad.write_text("0 1 0.5 0.5\n-1 2 0.5 0.5\n")
        assert run("eval", "--pairs", pairs, "--overlaps", bad) == 3
        assert "overlap id -1 outside [0, 2^64) (byte offset 12)" in capsys.readouterr().err

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
