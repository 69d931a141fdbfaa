"""Command-line interface.

One command per process. Exit code 0 on success; on failure a single
machine-readable line "error: <ErrorType>: <message>" goes to stderr and
the exit code is 1, before any work when a file output cannot be written.
Each subcommand declares only the flags it reads: an unknown flag, a missing
required one, or `train --dataset` together with `--count-per-class` is an
argparse usage error, with its conventional 2.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from . import entropy as entropy_mod
from . import reports
from .errors import TivisError
from .model_io import load_model, save_model
from .nn import OBJECTIVES, forward
from .ppm import read_ppm, write_ppm
from .probes import ScreenRect, classify_report, invert, zero_square
from .shapes import generate_dataset, load_dataset, save_dataset
from .training import TrainConfig, evaluate, reference_architecture, train, validation_split
from .transforms import (
    DEFAULT_BATTERY_TEXT,
    DEFAULT_SCHEDULE_TEXT,
    TransformSchedule,
    constant_image,
    parse_transform_list,
    run_battery,
)
from .visualizer import (
    DEFAULT_REVOLUTIONS,
    GRADIENT_MODES,
    OptimConfig,
    StoppingCriterion,
    baseline_visualize,
    default_stop,
    visualize,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        # an overflow is reported once, as the NonFiniteError it leads to,
        # not also as numpy's warning; no result depends on the error state
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (TivisError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _check_outputs(args) -> None:
    """Fail before any work on a file output that cannot be written: one
    whose directory is missing, or that names a directory. make-dataset's
    --out is a directory it makes."""
    if args.command == "make-dataset":
        return
    for path in (getattr(args, flag, None) for flag in ("out", "report", "map_out")):
        if path is None:
            continue
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not path or not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tivis",
        description="Transformation-invariant class visualizations for small CNNs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-dataset", help="generate the shapes dataset")
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--count-per-class", type=int, default=100)
    p.set_defaults(func=_cmd_make_dataset)

    p = sub.add_parser("train", help="train the reference classifier")
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--report", help="write a structured text report here")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--dataset", help="dataset directory (default: generate from --seed)")
    source.add_argument("--count-per-class", type=int, default=100)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--val-split", type=float, default=TrainConfig.val_fraction)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("classify", help="top-k report for images")
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--report", help="write a structured text report here")
    p.add_argument("images", nargs="+", help="PPM files to classify")
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--variants", default="original", help="comma list: original,screened,inverted")
    p.add_argument("--rect", help="x,y,w,h for the screened variant")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("visualize", help="transformation-robust visualization")
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--out", help="output path")
    p.add_argument("--report", help="write a structured text report here")
    _add_visualize_args(p)
    _add_run_args(p)
    p.add_argument("--init", default="0", help="gray level 0-255 or a PPM path (default 0)")
    p.set_defaults(func=_cmd_visualize)

    p = sub.add_parser("baseline", help="classic single-pass visualization")
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--out", help="output path")
    _add_visualize_args(p)
    p.add_argument("--init", default="0", help="gray level 0-255 or a PPM path (default 0)")
    p.add_argument("--battery", help="optionally evaluate this battery on the result")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("sweep-init", help="gray-level initialization sweep")
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--report", help="write a structured text report here")
    _add_visualize_args(p)
    _add_run_args(p)
    grays = ",".join(str(gray) for gray in entropy_mod.DEFAULT_GRAY_LEVELS)
    p.add_argument("--grays", default=grays, help="comma list of gray levels (default: 0,10,...,250,255)")
    p.add_argument("--window", type=int, default=entropy_mod.DEFAULT_WINDOW)
    p.add_argument("--stride", type=int, default=entropy_mod.DEFAULT_STRIDE)
    p.set_defaults(func=_cmd_sweep_init)

    p = sub.add_parser("entropy", help="entropy analytics of an image")
    p.add_argument("--report", help="write a structured text report here")
    p.add_argument("--image", required=True)
    p.add_argument("--window", type=int, default=entropy_mod.DEFAULT_WINDOW)
    p.add_argument("--stride", type=int, default=entropy_mod.DEFAULT_STRIDE)
    p.add_argument("--map-out", help="write the quantized entropy map as a PPM")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("invert", help="color-invert an image")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--image", required=True)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("screen", help="zero-square screening")
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--image", required=True)
    p.add_argument("--rect", required=True, help="x,y,w,h")
    p.set_defaults(func=_cmd_screen)

    return parser


def _add_visualize_args(p):
    p.add_argument("--class", dest="target_class", required=True, help="class name or index")
    p.add_argument("--q-target", type=float, default=OptimConfig.q_target)
    p.add_argument("--step-size", type=float, default=OptimConfig.step_size)
    p.add_argument("--max-inner", type=int, default=OptimConfig.max_inner_steps)
    p.add_argument("--gradient", choices=GRADIENT_MODES, default=OptimConfig.gradient_mode)
    p.add_argument("--objective", choices=OBJECTIVES, default=OptimConfig.objective)


def _add_run_args(p):
    """The schedule, battery and stop of a visualize or sweep-init run (see _run_setup)."""
    p.add_argument("--schedule", default=DEFAULT_SCHEDULE_TEXT)
    p.add_argument("--battery", default=DEFAULT_BATTERY_TEXT)
    p.add_argument("--q-test", type=float, default=StoppingCriterion.q_test)
    p.add_argument(
        "--max-outer",
        type=int,
        help=f"outer iteration cap (default: {DEFAULT_REVOLUTIONS} schedule passes)",
    )


def _resolve_class(model, text):
    try:
        return model.class_index(int(text))
    except ValueError:
        return model.class_index(text)


def _load_init(model, text):
    try:
        gray = float(text)
    except ValueError:
        return read_ppm(text)
    _, h, w = model.input_shape
    return constant_image(h, w, entropy_mod.check_gray_level(gray))


def _int_fields(flag: str, text: str) -> list:
    parts = text.split(",")
    for part in parts:  # ASCII decimal digits only, which int() alone does not insist on
        if not (part.isascii() and part.removeprefix("-").isdigit()):
            raise ValueError(f"{flag} field {part!r} is not an integer")
    return [int(part) for part in parts]


def _parse_rect(text) -> ScreenRect:
    parts = _int_fields("--rect", text)
    if len(parts) != 4:
        raise ValueError(f"rect must be x,y,w,h, got {text!r}")
    return ScreenRect(*parts)


def _optim_config(args) -> OptimConfig:
    return OptimConfig(
        q_target=args.q_target,
        step_size=args.step_size,
        max_inner_steps=args.max_inner,
        gradient_mode=args.gradient,
        objective=args.objective,
    )


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
        val_fraction=args.val_split,
    )


def _write_report(args, text: str) -> None:
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_make_dataset(args) -> int:
    dataset = generate_dataset(args.seed, args.count_per_class)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} images to {args.out}")
    return 0


def _cmd_train(args) -> int:
    if args.dataset is not None:
        dataset = load_dataset(args.dataset)
    else:
        dataset = generate_dataset(args.seed, args.count_per_class)
    arch = reference_architecture(args.seed, image_size=dataset.images.shape[1])
    if len(dataset.class_names) != arch.num_classes:
        raise ValueError(
            f"dataset has {len(dataset.class_names)} classes, "
            f"the reference architecture has {arch.num_classes}"
        )
    arch.class_names = tuple(dataset.class_names)
    config = _train_config(args)
    result = train(dataset, arch, config)
    save_model(result.model, args.out)
    if result.history:  # train measured it on the same rows in the same chunks
        val_acc = result.history[-1].val_accuracy
    else:
        val_acc = evaluate(result.model, validation_split(dataset, config))
    if args.report is not None:
        _write_report(args, reports.train_report(result.history, val_acc))
    print(f"wrote model to {args.out} (val accuracy {val_acc:.4f})")
    return 0


def _cmd_classify(args) -> int:
    model = load_model(args.model)
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    rect = None if args.rect is None else _parse_rect(args.rect)
    images = [(path, read_ppm(path)) for path in args.images]
    report = classify_report(model, images, k=args.k, variants=variants, screen_rect=rect)
    _write_report(args, reports.class_report(report))
    return 0


def _run_setup(args):
    """(model, target, schedule, config, stop) of a visualize or sweep-init command."""
    model = load_model(args.model)
    target = _resolve_class(model, args.target_class)
    steps = parse_transform_list(args.schedule)
    battery = parse_transform_list(args.battery)
    schedule = TransformSchedule(steps=steps, battery=battery)
    if args.max_outer is None:
        stop = default_stop(schedule, q_test=args.q_test)
    else:
        stop = StoppingCriterion(q_test=args.q_test, max_outer_iterations=args.max_outer)
    return model, target, schedule, _optim_config(args), stop


def _cmd_visualize(args) -> int:
    model, target, schedule, config, stop = _run_setup(args)
    init = _load_init(model, args.init)
    image, trace = visualize(model, target, init, schedule, config, stop)
    if args.out is not None:
        write_ppm(image, args.out)
    text = reports.run_report(
        trace,
        config,
        stop,
        target,
        model.class_names[target],
        args.schedule,
        args.battery,
        entropy_mod.image_id(image),
    )
    _write_report(args, text)
    print(f"status {trace.status} after {len(trace.records)} outer iterations")
    return 0


def _cmd_baseline(args) -> int:
    model = load_model(args.model)
    target = _resolve_class(model, args.target_class)
    init = _load_init(model, args.init)
    config = _optim_config(args)
    battery = None
    if args.battery is not None:  # the spec, before the pass
        battery = parse_transform_list(args.battery)
    image = baseline_visualize(model, target, init, config)
    if args.out is not None:
        write_ppm(image, args.out)
    pred = forward(model, image)
    print(f"confidence {float(pred.confidences[target])!r}")
    if battery is not None:
        results = run_battery(model, image, target, battery)
        confs = np.array([c for _, c in results])
        print(f"battery_min {float(confs.min())!r} battery_mean {float(confs.mean())!r}")
    return 0


def _cmd_sweep_init(args) -> int:
    model, target, schedule, config, stop = _run_setup(args)
    gray_levels = tuple(_int_fields("--grays", args.grays))
    report = entropy_mod.init_sweep(
        model,
        target,
        schedule,
        config,
        stop,
        gray_levels=gray_levels,
        window=args.window,
        stride=args.stride,
    )
    text = reports.sweep_report(
        report, config, stop, target, model.class_names[target], args.schedule, args.battery
    )
    _write_report(args, text)
    best = "-" if report.best_init is None else report.best_init
    print(f"best_init {best}")
    return 0


def _cmd_entropy(args) -> int:
    image = read_ppm(args.image)
    gray = entropy_mod.to_grayscale(image)
    whole = entropy_mod.entropy2d(entropy_mod.cooccurrence(gray))
    emap = entropy_mod.entropy_map(gray, window=args.window, stride=args.stride)
    note = None
    try:
        total, quantized = entropy_mod.second_order_entropy(emap)
    except entropy_mod.MapTooSmallError as exc:
        total, quantized = None, entropy_mod.quantize_map(emap)
        note = f"second-order entropy unavailable: {exc}"
    if args.map_out is not None:
        rgb = np.repeat(quantized[:, :, None].astype(np.float64), 3, axis=2)
        write_ppm(rgb, args.map_out)
    _write_report(args, reports.entropy_report(args.image, whole, emap, total, note))
    return 0


def _cmd_invert(args) -> int:
    write_ppm(invert(read_ppm(args.image)), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_screen(args) -> int:
    model = load_model(args.model)
    image = read_ppm(args.image)
    rect = _parse_rect(args.rect)
    write_ppm(zero_square(image, rect, model), args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
