import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import write_model_file

from tivis.cli import main
from tivis.model_io import load_model, save_model
from tivis import nn
from tivis.nn import MAX_SIDE, Dense, Flatten, Model
from tivis.ppm import read_ppm, write_ppm
from tivis.shapes import load_dataset


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
    printed = capsys.readouterr().out
    assert "confidence" in printed and "battery_min" in printed


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


OVERSIZED_MODELS = {
    # 1x1 conv on a 4x4 input padded to 200004x200004
    "conv pad": ("4 4", "pad=100000", "layer 0 (conv2d): conv2d padded input 200004x200004"),
    "input side": ("100000 100000", "pad=0", "input_shape (3, 100000, 100000)"),
}


@pytest.mark.parametrize("command", ["classify", "visualize"])
@pytest.mark.parametrize("case", sorted(OVERSIZED_MODELS))
def test_oversized_model_rejected_before_any_array(tmp_path, capsys, case, command):
    side, pad, message = OVERSIZED_MODELS[case]
    manifest = (
        f"pixel_norm unit_01\ninput_shape 3 {side}\nclasses a b\n"
        f"layer conv2d out=2 in=3 kh=1 kw=1 stride=1 {pad} w=0:48 b=48:16\n"
        "layer avgpool_global\nblob_bytes 64\n"
    )
    path = tmp_path / "big.gbxm"
    write_model_file(path, manifest.encode(), bytes(64))
    img = tmp_path / "x.ppm"
    write_ppm(np.zeros((4, 4, 3)), img)
    args = [img] if command == "classify" else ["--class", "a", "--init", "0", "--out", tmp_path / "v.ppm"]
    code = main([command, "--model", str(path), *map(str, args)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ShapeChainError: {message}")
    assert err.endswith(f"exceeds the side limit {MAX_SIDE}\n")
    assert err.count("\n") == 1


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
    env = dict(os.environ)
    src = str(Path(nn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tivis.cli", command, "--model", str(tmp_path / "m.gbxm"), *args],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: NonFiniteError: layer 0 (conv2d) produced non-finite values\n"
