import argparse
import dataclasses
import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import golden
from helpers import conv_relu_dense_model, write_model_file

from tivis import cli
from tivis.cli import _build_parser, main
from tivis.model_io import load_model, save_model
from tivis import nn
from tivis.nn import MAX_VALUES, OBJECTIVES, Dense, Flatten, Model
from tivis.ppm import read_ppm, write_ppm
from tivis.shapes import load_dataset
from tivis.training import TrainConfig, evaluate
from tivis.visualizer import GRADIENT_MODES, OptimConfig, StoppingCriterion


@pytest.fixture
def confident_model_file(tmp_path):
    """Model whose bias pins class 'beta' above any q_target, saved to disk."""
    n = 16
    model = Model(
        layers=[Flatten(), Dense(weight=np.zeros((3, 3 * n * n)), bias=np.array([0.0, 12.0, 0.0]))],
        input_shape=(3, n, n),
        class_names=("alpha", "beta", "gamma"),
    ).validate()
    path = tmp_path / "model.gbxm"
    save_model(model, path)
    return path


@pytest.fixture
def sample_ppm(tmp_path):
    img = np.floor(np.random.default_rng(8).uniform(0, 256, (16, 16, 3)))
    path = tmp_path / "img.ppm"
    write_ppm(img, path)
    return path


def test_make_dataset(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["make-dataset", "--seed", "3", "--count-per-class", "2", "--out", str(out)]) == 0
    ds = load_dataset(out)
    assert len(ds) == 12
    assert "wrote 12 images" in capsys.readouterr().out


def test_train_and_classify(tmp_path, capsys):
    model_path = tmp_path / "m.gbxm"
    report_path = tmp_path / "train.txt"
    code = main([
        "train", "--seed", "3", "--count-per-class", "4", "--epochs", "2",
        "--out", str(model_path), "--report", str(report_path),
    ])
    assert code == 0
    model = load_model(model_path)
    assert model.num_classes == 6
    text = report_path.read_text()
    assert text.startswith("#tivis-report v1 kind=train")
    assert "epoch 1 " in text

    img_path = tmp_path / "x.ppm"
    write_ppm(np.full((64, 64, 3), 30.0), img_path)
    rep = tmp_path / "cls.txt"
    code = main([
        "classify", "--model", str(model_path), str(img_path), "-k", "2",
        "--variants", "original,inverted,screened", "--rect", "4,4,8,8",
        "--report", str(rep),
    ])
    assert code == 0
    text = rep.read_text()
    assert text.startswith("#tivis-report v1 kind=classify")
    assert "variant=screened" in text and "variant=inverted" in text
    assert "rank=2" in text


def test_train_reports_the_last_epoch_accuracy_without_evaluating(tmp_path, monkeypatch, capsys):
    # train measured it at the last epoch on the same rows in the same chunks;
    # the report's bytes are those of a command that evaluated the model again
    def evaluate_again(*args, **kwargs):
        pytest.fail("the command evaluated the trained model again")

    monkeypatch.setattr("tivis.cli.evaluate", evaluate_again)
    report = tmp_path / "train.txt"
    code = main([
        "train", "--seed", "2", "--count-per-class", "20", "--epochs", "2",
        "--out", str(tmp_path / "m.gbxm"), "--report", str(report),
    ])
    assert code == 0
    assert report.read_text().splitlines()[-2:] == golden.TRAIN_REPORT_TAIL
    assert hashlib.sha256(report.read_bytes()).hexdigest() == golden.TRAIN_REPORT_SHA256
    accuracy = float(golden.TRAIN_REPORT_TAIL[-1].split()[-1])
    assert f"(val accuracy {accuracy:.4f})" in capsys.readouterr().out


def test_train_with_no_epochs_evaluates_the_model(tmp_path, monkeypatch):
    sizes = []

    def counted(model, dataset):
        sizes.append(len(dataset))
        return evaluate(model, dataset)

    monkeypatch.setattr("tivis.cli.evaluate", counted)
    report = tmp_path / "train.txt"
    code = main([
        "train", "--seed", "3", "--count-per-class", "20", "--epochs", "0",
        "--out", str(tmp_path / "m.gbxm"), "--report", str(report),
    ])
    assert code == 0
    assert sizes == [24]  # the validation split of 120 images
    assert report.read_text() == "#tivis-report v1 kind=train\nfinal_val_accuracy 0.20833333333333334\n"


def test_visualize_writes_image_and_report(tmp_path, confident_model_file, capsys):
    out = tmp_path / "vis.ppm"
    rep = tmp_path / "vis.txt"
    code = main([
        "visualize", "--model", str(confident_model_file), "--class", "beta",
        "--init", "40", "--schedule", "rot:90", "--battery", "rot-sweep:90",
        "--out", str(out), "--report", str(rep),
    ])
    assert code == 0
    assert read_ppm(out).shape == (16, 16, 3)
    text = rep.read_text()
    assert text.startswith("#tivis-report v1 kind=run")
    assert "status converged" in text
    assert "schedule rot:90" in text
    assert "status converged" in capsys.readouterr().out.replace("after", "after")


def test_visualize_accepts_class_index_and_ppm_init(tmp_path, confident_model_file, sample_ppm):
    out = tmp_path / "vis.ppm"
    code = main([
        "visualize", "--model", str(confident_model_file), "--class", "1",
        "--init", str(sample_ppm), "--schedule", "rot:90", "--battery", "rot:0",
        "--out", str(out),
    ])
    assert code == 0
    # converged immediately: output equals the (clamped) init
    np.testing.assert_array_equal(read_ppm(out), read_ppm(sample_ppm))


def test_baseline_battery_summary(tmp_path, confident_model_file, capsys):
    out = tmp_path / "base.ppm"
    code = main([
        "baseline", "--model", str(confident_model_file), "--class", "beta",
        "--init", "0", "--battery", "rot-sweep:90", "--out", str(out),
    ])
    assert code == 0
    words = capsys.readouterr().out.split()
    assert words[0::2] == ["confidence", "battery_min", "battery_mean"]
    for value in words[1::2]:
        assert 0.0 <= float(value) <= 1.0, words


def test_sweep_init(tmp_path, confident_model_file):
    rep = tmp_path / "sweep.txt"
    code = main([
        "sweep-init", "--model", str(confident_model_file), "--class", "beta",
        "--grays", "0,50,100", "--schedule", "rot:90", "--battery", "rot:0",
        "--max-inner", "5", "--max-outer", "2", "--window", "8", "--stride", "4",
        "--report", str(rep),
    ])
    assert code == 0
    text = rep.read_text()
    assert text.startswith("#tivis-report v1 kind=sweep")
    assert text.count("init gray=") == 3
    assert "best_init" in text


def test_entropy_command(tmp_path, sample_ppm):
    rep = tmp_path / "ent.txt"
    map_out = tmp_path / "map.ppm"
    code = main([
        "entropy", "--image", str(sample_ppm), "--window", "8", "--stride", "4",
        "--map-out", str(map_out), "--report", str(rep),
    ])
    assert code == 0
    text = rep.read_text()
    assert text.startswith("#tivis-report v1 kind=entropy")
    assert "second_order_total" in text
    assert read_ppm(map_out).shape == (3, 3, 3)


def test_invert_round_trip(tmp_path, sample_ppm):
    inv = tmp_path / "inv.ppm"
    back = tmp_path / "back.ppm"
    assert main(["invert", "--image", str(sample_ppm), "--out", str(inv)]) == 0
    assert main(["invert", "--image", str(inv), "--out", str(back)]) == 0
    np.testing.assert_array_equal(read_ppm(back), read_ppm(sample_ppm))


def test_screen_command(tmp_path, confident_model_file, sample_ppm):
    out = tmp_path / "scr.ppm"
    code = main([
        "screen", "--model", str(confident_model_file), "--image", str(sample_ppm),
        "--rect", "2,3,5,4", "--out", str(out),
    ])
    assert code == 0
    img = read_ppm(out)
    assert np.all(img[3:7, 2:7] == 0.0)


def test_error_exit_code_and_machine_readable_line(tmp_path, capsys):
    code = main(["classify", "--model", str(tmp_path / "missing.gbxm"), "x.ppm"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "FileNotFoundError" in err


def test_domain_error_reported(tmp_path, confident_model_file, capsys):
    code = main([
        "visualize", "--model", str(confident_model_file), "--class", "nope",
        "--out", str(tmp_path / "x.ppm"),
    ])
    assert code == 1
    assert "InvalidClassError" in capsys.readouterr().err


def test_max_outer_zero_reported(tmp_path, confident_model_file, capsys):
    code = main([
        "visualize", "--model", str(confident_model_file), "--class", "beta",
        "--max-outer", "0", "--out", str(tmp_path / "x.ppm"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ValueError: max_outer_iterations")


@pytest.mark.parametrize(
    "layer_line",
    ["layer conv2d out=3", "layer flatten foo=1", "layer dense out=x in=2 w=0:0 b=0:0"],
)
def test_malformed_layer_line_reported(tmp_path, sample_ppm, capsys, layer_line):
    manifest = f"pixel_norm unit_01\ninput_shape 3 16 16\nclasses a b\n{layer_line}\nblob_bytes 0\n"
    path = tmp_path / "bad.gbxm"
    write_model_file(path, manifest.encode())
    code = main(["classify", "--model", str(path), str(sample_ppm)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ModelFormatError: manifest line 4: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("seed", "malformed"),
        ("seed x", "invalid literal"),
        ("image", "malformed"),
        ("image sample_00000.ppm", "malformed"),
        ("image sample_00000.ppm 0 1", "malformed"),
        ("image sample_00000.ppm zero", "invalid literal"),
        ("classes", "malformed"),
        ("labels 0 1", "malformed"),
        ("classes a b c d e f", "misplaced"),
        ("image sample_00000.ppm -1", r"label -1 outside \[0, 6\)"),
        ("image sample_00000.ppm 6", r"label 6 outside \[0, 6\)"),
    ],
)
def test_malformed_dataset_manifest_reported(tmp_path, capsys, line, message):
    ds = tmp_path / "ds"
    assert main(["make-dataset", "--seed", "3", "--count-per-class", "1", "--out", str(ds)]) == 0
    manifest = ds / "manifest.txt"
    manifest.write_text(manifest.read_text() + "\n" + line + "\n")
    lineno = len(manifest.read_text().splitlines())
    capsys.readouterr()
    code = main(["train", "--dataset", str(ds), "--epochs", "1", "--out", str(tmp_path / "m.gbxm")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: manifest line {lineno}: ")
    assert re.search(message, err)
    assert err.count("\n") == 1


def _one_per_class_dataset(tmp_path, classes_line):
    ds = tmp_path / "ds"
    assert main(["make-dataset", "--seed", "3", "--count-per-class", "1", "--out", str(ds)]) == 0
    manifest = ds / "manifest.txt"
    text = re.sub(r"(?m)^classes .*$", classes_line, manifest.read_text())
    manifest.write_text(text)
    return ds


def test_train_takes_dataset_class_names(tmp_path):
    ds = _one_per_class_dataset(tmp_path, "classes a b c d e f")
    out = tmp_path / "m.gbxm"
    assert main(["train", "--dataset", str(ds), "--epochs", "1", "--out", str(out)]) == 0
    assert load_model(out).class_names == ("a", "b", "c", "d", "e", "f")


def test_train_rejects_a_repeated_dataset_class_name(tmp_path, capsys):
    ds = _one_per_class_dataset(tmp_path, "classes a b c d e a")
    capsys.readouterr()
    out = tmp_path / "m.gbxm"
    code = main(["train", "--dataset", str(ds), "--epochs", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: ValueError: class name 'a' is given more than once\n"
    assert not out.exists()


def test_train_dataset_class_count_must_match_head(tmp_path, capsys):
    ds = _one_per_class_dataset(tmp_path, "classes a b c d e f g")
    capsys.readouterr()
    out = tmp_path / "m.gbxm"
    code = main(["train", "--dataset", str(ds), "--epochs", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: ValueError: dataset has 7 classes, the reference architecture has 6\n"
    )
    assert not out.exists()


def test_make_dataset_count_is_bounded(tmp_path, capsys):
    code = main(["make-dataset", "--count-per-class", "1001", "--out", str(tmp_path / "ds")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: ValueError: count_per_class must be in [1, 1000], got 1001\n"
    )
    assert not (tmp_path / "ds").exists()


def test_sweep_gray_level_out_of_range_reported(tmp_path, confident_model_file, capsys):
    rep = tmp_path / "sweep.txt"
    code = main([
        "sweep-init", "--model", str(confident_model_file), "--class", "beta",
        "--grays", "0,300", "--report", str(rep),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: ValueError: init gray level must be in [0, 255], got 300\n"
    )
    assert not rep.exists()


def test_usage_error_exit_code_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["visualize"])  # missing required --class
    assert exc.value.code == 2


def test_sweep_init_rejects_init(confident_model_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-init", "--model", str(confident_model_file), "--class", "beta", "--init", "40"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --init 40" in capsys.readouterr().err


def test_classify_rect_without_screened_reported(confident_model_file, sample_ppm, capsys):
    argv = ["classify", "--model", str(confident_model_file), str(sample_ppm), "--rect", "1,1,2,2"]
    code = main(argv)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ValueError: screen_rect ")


@pytest.mark.parametrize(
    "command, flag, value, field",
    [
        (["sweep-init", "--class", "beta", "--report"], "--grays", "0,1.5", "1.5"),
        (["sweep-init", "--class", "beta", "--report"], "--grays", "0,1_0", "1_0"),
        (["screen", "--out"], "--rect", "1,2,3,x", "x"),
        (["screen", "--out"], "--rect", "1,2, 3,\u0663", " 3"),
    ],
    ids=["grays", "grays-underscore", "rect", "rect-space-and-non-ascii-digit"],
)
def test_bad_integer_field_names_its_flag(tmp_path, confident_model_file, sample_ppm, capsys,
                                          command, flag, value, field):
    out = tmp_path / "out"
    argv = command + [str(out), "--model", str(confident_model_file), flag, value]
    code = main(argv + (["--image", str(sample_ppm)] if command[0] == "screen" else []))
    assert code == 1
    assert capsys.readouterr().err == f"error: ValueError: {flag} field {field!r} is not an integer\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["1_0", "\u0663", "+5", " 5", "5.", ".5", "1e2", "nan"])
def test_init_is_a_gray_level_only_in_ascii_decimal(tmp_path, monkeypatch, confident_model_file,
                                                    capsys, value):
    # float() takes each of these; any value but ASCII digits[.digits] is a PPM path
    monkeypatch.chdir(tmp_path)
    argv = ["baseline", "--model", str(confident_model_file), "--class", "beta", "--battery", "rot:0"]
    code = main(argv + ["--init", value, "--out", "b.ppm"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: FileNotFoundError: [Errno 2] No such file or directory: {value!r}\n"
    )
    assert not (tmp_path / "b.ppm").exists()


def test_init_that_float_takes_reads_its_ppm(tmp_path, monkeypatch, confident_model_file, sample_ppm):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "1_0").write_bytes(sample_ppm.read_bytes())
    argv = ["visualize", "--model", str(confident_model_file), "--class", "beta", "--init", "1_0"]
    assert main(argv + ["--schedule", "rot:90", "--battery", "rot:0", "--out", "v.ppm"]) == 0
    # converged at once: the output is the init
    np.testing.assert_array_equal(read_ppm(tmp_path / "v.ppm"), read_ppm(sample_ppm))


@pytest.mark.parametrize("value", ["\u0661", "+1", " 1", "1 "])
def test_class_is_an_index_only_in_ascii_digits(tmp_path, confident_model_file, capsys, value):
    # int() takes each of these as index 1; any value but ASCII digits is a class name
    out = tmp_path / "b.ppm"
    argv = ["baseline", "--model", str(confident_model_file), "--battery", "rot:0", "--out", str(out)]
    code = main(argv + ["--class", value])
    assert code == 1
    assert capsys.readouterr().err == f"error: InvalidClassError: unknown class name {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["sweep-init", "--grays", "", "--max-inner", "1", "--max-outer", "1"],
         "ValueError: --grays field '' is not an integer"),
        (["baseline", "--battery", ""], "ValueError: no transforms found in ''"),
        (["visualize", "--out", "", "--max-inner", "1", "--max-outer", "1"],
         "FileNotFoundError: [Errno 2] No such file or directory: ''"),
        (["baseline", "--out", ""], "FileNotFoundError: [Errno 2] No such file or directory: ''"),
    ],
    ids=["sweep-init-grays", "baseline-battery", "visualize-out", "baseline-out"],
)
def test_empty_flag_value_is_an_error(confident_model_file, capsys, argv, error):
    # an empty value is a value: it never falls back to the flag's absent behaviour
    code = main(argv[:1] + ["--model", str(confident_model_file), "--class", "beta"] + argv[1:])
    assert code == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_baseline_battery_is_parsed_before_the_optimization(tmp_path, confident_model_file, capsys):
    out = tmp_path / "b.ppm"
    argv = ["baseline", "--model", str(confident_model_file), "--class", "beta", "--max-inner", "1"]
    code = main(argv + ["--out", str(out), "--battery", "rot-sweep:0.0001"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ValueError: bad transform spec 'rot-sweep:0.0001': ")
    assert not out.exists()


def test_baseline_battery_runs_on_a_non_square_model(tmp_path, capsys):
    path = tmp_path / "wide.gbxm"
    save_model(conv_relu_dense_model(8, 6), path)
    argv = ["baseline", "--model", str(path), "--class", "a", "--battery", "rot:10", "--max-inner", "20"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    words = captured.out.split()
    assert words[0::2] == ["confidence", "battery_min", "battery_mean"]


def test_sweep_init_raises_a_run_wide_error_once(confident_model_file, monkeypatch, capsys):
    import tivis.visualizer as viz

    monkeypatch.setattr(viz, "gradient_step", lambda *args: pytest.fail("a step ran"))
    argv = ["sweep-init", "--model", str(confident_model_file), "--class", "beta"]
    code = main([*argv, "--q-test", "0.995", "--grays", "0,10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: ValueError: q_test (0.995) must not exceed q_target (0.99)\n"


def _cli_in_new_process(*argv):
    """The completed `python -m tivis.cli` run of argv in a new interpreter,
    whose stderr carries any warning numpy prints."""
    env = dict(os.environ)
    src = str(Path(nn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tivis.cli", *map(str, argv)], env=env, capture_output=True, text=True
    )


# layers over an input of side 0: flatten gives 0 features, the global average of none is nan
_ZERO_SIDE_LAYERS = {
    "flatten": ("layer flatten\nlayer dense out=2 in=0 w=0:0 b=0:16\n", 16),
    "avgpool_global": ("layer avgpool_global\nlayer dense out=2 in=3 w=0:48 b=48:16\n", 64),
}


@pytest.mark.parametrize("kind", sorted(_ZERO_SIDE_LAYERS))
def test_zero_side_model_is_one_error_line(tmp_path, kind):
    layers, blob = _ZERO_SIDE_LAYERS[kind]
    manifest = f"pixel_norm unit_01\ninput_shape 3 0 0\nclasses a b\n{layers}blob_bytes {blob}\n"
    write_model_file(tmp_path / "m.gbxm", manifest.encode(), bytes(blob))
    args = ["--class", "a", "--max-outer", "1", "--max-inner", "1", "--out", tmp_path / "e.ppm"]
    proc = _cli_in_new_process("visualize", "--model", tmp_path / "m.gbxm", *args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: ShapeChainError: input_shape (3, 0, 0) has a side below 1\n"
    assert not (tmp_path / "e.ppm").exists()


def test_repeated_class_name_is_rejected(tmp_path, sample_ppm, capsys):
    n = 16
    manifest = (
        f"pixel_norm unit_01\ninput_shape 3 {n} {n}\nclasses a a\nlayer flatten\n"
        f"layer dense out=2 in={3 * n * n} w=0:{48 * n * n} b={48 * n * n}:16\n"
        f"blob_bytes {48 * n * n + 16}\n"
    )
    path = tmp_path / "m.gbxm"
    write_model_file(path, manifest.encode(), bytes(48 * n * n + 16))
    with pytest.raises(ValueError, match=r"^class name 'a' is given more than once$"):
        load_model(path)
    code = main(["classify", "--model", str(path), str(sample_ppm)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: ValueError: class name 'a' is given more than once\n"


def test_classify_empty_variants_reported(confident_model_file, sample_ppm, capsys):
    code = main(["classify", "--model", str(confident_model_file), str(sample_ppm), "--variants", ","])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ValueError: variants must name at least one")


# each command's argv with every required flag and nothing else; none is run
_MINIMAL_ARGV = {
    "make-dataset": ["--out", "ds"],
    "train": ["--out", "m.gbxm"],
    "classify": ["--model", "m.gbxm", "x.ppm"],
    "visualize": ["--model", "m.gbxm", "--class", "a"],
    "baseline": ["--model", "m.gbxm", "--class", "a"],
    "sweep-init": ["--model", "m.gbxm", "--class", "a"],
    "entropy": ["--image", "x.ppm"],
    "invert": ["--image", "x.ppm", "--out", "y.ppm"],
    "screen": ["--model", "m.gbxm", "--image", "x.ppm", "--rect", "1,1,2,2", "--out", "y.ppm"],
}
# the shared flags a command does not read, and the stop flag of the one-pass baseline
_UNREAD_FLAGS = [
    ("make-dataset", "--model"),
    ("make-dataset", "--report"),
    ("train", "--model"),
    ("classify", "--seed"),
    ("classify", "--out"),
    ("visualize", "--seed"),
    ("baseline", "--seed"),
    ("baseline", "--report"),
    ("baseline", "--q-test"),
    ("sweep-init", "--seed"),
    ("sweep-init", "--out"),
    ("entropy", "--seed"),
    ("entropy", "--model"),
    ("entropy", "--out"),
    ("invert", "--seed"),
    ("invert", "--model"),
    ("invert", "--report"),
    ("screen", "--seed"),
    ("screen", "--report"),
]


def _usage_errors():
    for command, flag in _UNREAD_FLAGS:
        argv = [command, *_MINIMAL_ARGV[command], flag, "1"]
        yield pytest.param(argv, f"unrecognized arguments: {flag} 1", id=f"{command}:{flag}")
    for command, argv in sorted(_MINIMAL_ARGV.items()):
        for flag in ("--model", "--out"):
            if flag in argv:
                at = argv.index(flag)
                message = f"the following arguments are required: {flag}"
                yield pytest.param(
                    [command, *argv[:at], *argv[at + 2 :]], message, id=f"{command}:no{flag}"
                )
    argv = ["train", "--dataset", "ds", "--count-per-class", "3", "--out", "m.gbxm"]
    message = "argument --count-per-class: not allowed with argument --dataset"
    yield pytest.param(argv, message, id="train:--dataset:--count-per-class")


@pytest.mark.parametrize("command", sorted(_MINIMAL_ARGV))
def test_minimal_argv_parses(command):
    # so that each usage error below comes from what its case adds or takes away
    args = _build_parser().parse_args([command, *_MINIMAL_ARGV[command]])
    assert args.command == command


def test_minimal_argv_takes_the_library_defaults():
    # the flags' defaults and choices are read from the configs they fill, seed apart
    parser = _build_parser()

    def parse(command):
        return parser.parse_args([command, *_MINIMAL_ARGV[command]])

    for command in ("visualize", "baseline", "sweep-init"):
        assert cli._optim_config(parse(command)) == OptimConfig(), command
    for command in ("visualize", "sweep-init"):
        assert parse(command).q_test == StoppingCriterion().q_test, command
    train = cli._train_config(parse("train"))
    assert train.seed == 0
    assert dataclasses.replace(train, seed=TrainConfig().seed) == TrainConfig()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("visualize", "baseline", "sweep-init"):
        choices = {a.dest: a.choices for a in commands.choices[command]._actions}
        assert choices["gradient"] == GRADIENT_MODES
        assert choices["objective"] == OBJECTIVES


@pytest.mark.parametrize("argv, message", _usage_errors())
def test_usage_error_exits_two(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# every file a command can write, by flag; make-dataset's --out is a directory it makes
_FILE_OUTPUTS = [
    ("train", "--out"),
    ("train", "--report"),
    ("classify", "--report"),
    ("visualize", "--out"),
    ("visualize", "--report"),
    ("baseline", "--out"),
    ("sweep-init", "--report"),
    ("entropy", "--report"),
    ("entropy", "--map-out"),
    ("invert", "--out"),
    ("screen", "--out"),
]


@pytest.mark.parametrize("command, flag", _FILE_OUTPUTS, ids=[f"{c}:{f}" for c, f in _FILE_OUTPUTS])
@pytest.mark.parametrize(
    "target, error",
    [
        ("missing/file", "FileNotFoundError: [Errno 2] No such file or directory"),
        (".", "IsADirectoryError: [Errno 21] Is a directory"),
    ],
    ids=["missing-dir", "a-dir"],
)
def test_unwritable_output_fails_before_any_work(
    tmp_path, monkeypatch, capsys, command, flag, target, error
):
    def work(*args, **kwargs):
        pytest.fail("the command started work before checking its outputs")

    for name in ("generate_dataset", "load_dataset", "train", "load_model", "read_ppm"):
        monkeypatch.setattr(f"tivis.cli.{name}", work)
    path = os.path.join(tmp_path, target)
    argv = [command, *_MINIMAL_ARGV[command], flag, path]
    if (command, flag) == ("train", "--report"):
        argv += ["--out", str(tmp_path / "m.gbxm")]  # writable, but no model may be written
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {error}: {path!r}\n"
    assert os.listdir(tmp_path) == []


def test_make_dataset_makes_its_out_directory(tmp_path):
    out = tmp_path / "new" / "ds"
    assert main(["make-dataset", "--count-per-class", "1", "--out", str(out)]) == 0
    assert len(load_dataset(out)) == 6


_SHARED_FLAGS = ("--seed", "--model", "--out", "--report")


def _readme_command_line():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_examples_parse():
    block = _readme_command_line().split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("tivis ")]
    assert {argv[0] for argv in examples} == set(_MINIMAL_ARGV)
    parser = _build_parser()
    for argv in examples:
        assert parser.parse_args(argv).command == argv[0]


def test_readme_shared_flag_table_matches_parser():
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", _readme_command_line(), re.MULTILINE)
    assert sorted(command for command, _ in rows) == sorted(_MINIMAL_ARGV)
    parser = _build_parser()
    for command, cell in rows:
        listed = dict(re.findall(r"`(--[a-z]+)`(\\\*)?", cell))
        minimal = [command, *_MINIMAL_ARGV[command]]
        for flag in _SHARED_FLAGS:
            # starred exactly when the minimal argv gives it
            assert (flag in minimal) == bool(listed.get(flag)), (command, flag)
            if flag in listed:
                parser.parse_args(minimal + [flag, "1"])
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(minimal + [flag, "1"])


OVERSIZED_MODELS = {
    # 1x1 conv on a 4x4 input padded to 200004x200004
    "conv pad": (
        "4 4", "out=2 kh=1 kw=1 stride=1 pad=100000",
        "layer 0 (conv2d): conv2d padded input 200004x200004 exceeds the side limit 1024",
    ),
    "input side": (
        "100000 100000", "out=2 kh=1 kw=1 stride=1 pad=0",
        "input_shape (3, 100000, 100000) exceeds the side limit 1024",
    ),
    # 32 GiB of output from a 1x1 conv with 4096 outputs
    "conv output": (
        "1024 1024", "out=4096 kh=1 kw=1 stride=1 pad=0",
        "layer 0 (conv2d): conv2d output of 4294967296 values per image "
        f"exceeds the limit {MAX_VALUES}",
    ),
    # one output channel, but 75 im2col rows of 1020x1020
    "conv columns": (
        "1024 1024", "out=1 kh=5 kw=5 stride=1 pad=0",
        "layer 0 (conv2d): conv2d im2col columns of 78030000 values per image "
        f"exceeds the limit {MAX_VALUES}",
    ),
    # one output value, but the input gradient's strided flat row: stride * ic * wp
    "conv stride": (
        "4 4", "out=1 kh=1 kw=1 stride=10000000 pad=0",
        "layer 0 (conv2d): conv2d input-gradient buffer of 120000000 values per image "
        f"exceeds the limit {MAX_VALUES}",
    ),
}


@pytest.mark.parametrize("command", ["classify", "visualize"])
@pytest.mark.parametrize("case", sorted(OVERSIZED_MODELS))
def test_oversized_model_rejected_before_any_array(tmp_path, capsys, case, command):
    side, conv, message = OVERSIZED_MODELS[case]
    spec = dict(item.split("=") for item in conv.split())
    out = int(spec["out"])
    wb = 24 * out * int(spec["kh"]) * int(spec["kw"])  # the conv's weight bytes
    blob = wb + 24 * out + 16  # then its bias, and the dense head's weight and bias
    manifest = (
        f"pixel_norm unit_01\ninput_shape 3 {side}\nclasses a b\n"
        f"layer conv2d in=3 {conv} w=0:{wb} b={wb}:{8 * out}\n"
        f"layer avgpool_global\nlayer dense out=2 in={out} w={wb + 8 * out}:{16 * out} "
        f"b={blob - 16}:16\nblob_bytes {blob}\n"
    )
    path = tmp_path / "big.gbxm"
    write_model_file(path, manifest.encode(), bytes(blob))
    img = tmp_path / "x.ppm"
    write_ppm(np.zeros((4, 4, 3)), img)
    args = [img] if command == "classify" else ["--class", "a", "--init", "0", "--out", tmp_path / "v.ppm"]
    code = main([command, "--model", str(path), *map(str, args)])
    assert code == 1
    assert capsys.readouterr().err == f"error: ShapeChainError: {message}\n"


@pytest.mark.parametrize("command", ["classify", "visualize"])
def test_overflow_is_one_error_line(tmp_path, command):
    # conv pre-activations of -27e308 overflow to -inf inside the matmul;
    # the run goes in a new interpreter, so numpy's warnings reach its stderr
    n = 8
    model = Model(
        layers=[
            nn.Conv2d(weight=np.full((2, 3, 3, 3), -1e308), bias=np.zeros(2)),
            nn.GlobalAvgPool(),
            Dense(weight=np.ones((2, 2)), bias=np.zeros(2)),
        ],
        input_shape=(3, n, n),
        class_names=("a", "b"),
    )
    save_model(model, tmp_path / "m.gbxm")
    write_ppm(np.full((n, n, 3), 255.0), tmp_path / "white.ppm")
    args = {
        "classify": [str(tmp_path / "white.ppm")],
        "visualize": ["--class", "a", "--init", "255", "--out", str(tmp_path / "v.ppm")],
    }[command]
    proc = _cli_in_new_process(command, "--model", tmp_path / "m.gbxm", *args)
    assert proc.returncode == 1
    assert proc.stderr == "error: NonFiniteError: layer 0 (conv2d) produced non-finite values\n"


_EDGE_TOKENS = ("0", "-1", "nan", "inf", "1e308", str(2**63), "", ",", "junk")
# the flags that set how much work a call does: always given, and small
_COUNT_FLAGS = ("--max-inner", "--max-outer", "--epochs", "--count-per-class")
_COUNT_EDGE_TOKENS = ("0", "-1", "nan", "", "junk")
# required flags are always given too, so that most calls get past argparse
_ALWAYS_GIVEN = _COUNT_FLAGS + ("--class", "--image", "--model", "--out")
_VISUALIZE_FLAGS = (
    "--model", "--class", "--q-target", "--step-size", "--max-inner", "--gradient", "--objective"
)
_RUN_FLAGS = ("--schedule", "--battery", "--q-test", "--max-outer")
_SUBCOMMAND_FLAGS = {
    "make-dataset": ("--seed", "--out", "--count-per-class"),
    "train": (
        "--seed", "--out", "--report", "--dataset", "--count-per-class",
        "--epochs", "--lr", "--batch-size", "--val-split",
    ),
    "classify": ("--model", "--report", "-k", "--variants", "--rect"),
    "visualize": ("--out", "--report") + _VISUALIZE_FLAGS + _RUN_FLAGS + ("--init",),
    "baseline": ("--out",) + _VISUALIZE_FLAGS + ("--init", "--battery"),
    "sweep-init": (
        ("--report",) + _VISUALIZE_FLAGS + _RUN_FLAGS + ("--grays", "--window", "--stride")
    ),
    "entropy": ("--report", "--image", "--window", "--stride", "--map-out"),
    "invert": ("--out", "--image"),
    "screen": ("--model", "--out", "--image", "--rect"),
}
_VALID_TOKENS = {
    "--seed": ("0", "7"),
    "--out": ("out.ppm",),
    "--report": ("report.txt",),
    "--map-out": ("map.ppm",),
    "--dataset": (".",),
    "--lr": ("0.05",),
    "--batch-size": ("4",),
    "--val-split": ("0.25",),
    "-k": ("2",),
    "--variants": ("original,screened,inverted",),
    "--rect": ("2,2,4,4",),
    "--class": ("alpha", "beta", "2"),
    "--q-target": ("0.9",),
    "--q-test": ("0.5",),
    "--step-size": ("2",),
    "--gradient": ("raw",),
    "--objective": ("logit",),
    "--schedule": ("rot:10x2",),
    "--battery": ("rot-sweep:90",),
    "--grays": ("0,128",),
    "--window": ("3",),
    "--stride": ("2",),
    **{flag: ("1", "2") for flag in _COUNT_FLAGS},
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_FLAGS))
@settings(
    derandomize=True,
    database=None,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_argv_exits_cleanly(
    tmp_path, monkeypatch, capsys, confident_model_file, sample_ppm, command, data
):
    monkeypatch.chdir(tmp_path)  # relative output paths land in tmp_path
    missing = str(tmp_path / "missing" / "x.ppm")
    valid = {
        **_VALID_TOKENS,
        "--model": (str(confident_model_file),),
        "--image": (str(sample_ppm),),
        "--init": ("40", str(sample_ppm)),
    }
    argv = [command]
    for flag in _SUBCOMMAND_FLAGS[command]:
        # most flags are valid, so that most calls get past argparse
        kind = data.draw(st.sampled_from(("valid",) * 4 + ("edge", "absent")))
        if kind == "absent" and flag not in _ALWAYS_GIVEN:
            continue
        if flag == "--count-per-class" and "--dataset" in argv:
            continue  # a usage error: the dataset sets the count
        if kind == "edge":
            pool = (_COUNT_EDGE_TOKENS if flag in _COUNT_FLAGS else _EDGE_TOKENS) + (missing,)
        else:
            pool = valid[flag]
        argv += [flag, data.draw(st.sampled_from(pool))]
    if command == "classify":
        images = st.sampled_from((str(sample_ppm), missing) + _EDGE_TOKENS)
        argv += data.draw(st.lists(images, min_size=1, max_size=2))
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # an argparse usage error
        assert exc.code == 2, argv
        return
    err = capsys.readouterr().err
    assert code in (0, 1), argv
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
