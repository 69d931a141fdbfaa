"""Structured text reports.

Every report starts with a versioned schema line

    #tivis-report v1 kind=<run|sweep|classify|train|entropy>

followed by space-separated key/value lines. Floats are rendered with
repr(), the shortest string that round-trips the exact double, so a report
is bit-identical across runs exactly when the underlying numbers are.
"""

from __future__ import annotations

from .entropy import EntropyMap, SweepReport
from .probes import ClassReport
from .visualizer import OptimConfig, RunTrace, StoppingCriterion


def _f(x: float) -> str:
    return repr(float(x))


def _header(kind: str) -> str:
    return f"#tivis-report v1 kind={kind}"


def _preamble(kind, config, stop, target_class, class_name, schedule_text, battery_text) -> list:
    """The opening lines a run and a sweep report share: what was run, and how."""
    return [
        _header(kind),
        f"target_class {target_class} {class_name}",
        f"q_target {_f(config.q_target)}",
        f"q_test {_f(stop.q_test)}",
        f"step_size {_f(config.step_size)}",
        f"max_inner_steps {config.max_inner_steps}",
        f"max_outer_iterations {stop.max_outer_iterations}",
        f"gradient_mode {config.gradient_mode}",
        f"objective {config.objective}",
        f"schedule {schedule_text}",
        f"battery {battery_text}",
    ]


def run_report(
    trace: RunTrace,
    config: OptimConfig,
    stop: StoppingCriterion,
    target_class: int,
    class_name: str,
    schedule_text: str,
    battery_text: str,
    image_id: str,
) -> str:
    lines = _preamble("run", config, stop, target_class, class_name, schedule_text, battery_text)
    for rec in trace.records:
        transform = rec.transform.label() if rec.transform is not None else "-"
        lines.append(
            f"iter {rec.index} transform={transform} inner_steps={rec.inner_steps} "
            f"q={_f(rec.q_after)} battery_min={_f(rec.battery_min)} "
            f"battery_mean={_f(rec.battery_mean)}"
        )
    lines.append(f"status {trace.status}")
    lines.append(f"image_id {image_id}")
    return "\n".join(lines) + "\n"


def sweep_report(
    report: SweepReport,
    config: OptimConfig,
    stop: StoppingCriterion,
    target_class: int,
    class_name: str,
    schedule_text: str,
    battery_text: str,
) -> str:
    lines = _preamble("sweep", config, stop, target_class, class_name, schedule_text, battery_text)
    lines.append(f"entropy_window {report.window}")
    lines.append(f"entropy_stride {report.stride}")
    for rec in report.records:
        if rec.error is not None:
            lines.append(f"init gray={rec.gray} status=error error={rec.error!r}")
        else:
            lines.append(
                f"init gray={rec.gray} status={rec.status} image={rec.image_id} "
                f"avg_gray_change={_f(rec.avg_gray_change)} "
                f"second_order_total={_f(rec.second_order_total)}"
            )
    best = "-" if report.best_init is None else str(report.best_init)
    lines.append(f"best_init {best}")
    return "\n".join(lines) + "\n"


def class_report(report: ClassReport) -> str:
    lines = [_header("classify"), f"k {report.k}"]
    for rec in report.records:
        for rank, entry in enumerate(rec.entries, start=1):
            lines.append(
                f"image {rec.image_id} variant={rec.variant} rank={rank} "
                f"class={entry.class_name} pct={_f(entry.percent)}"
            )
    return "\n".join(lines) + "\n"


def train_report(history, val_accuracy: float | None = None) -> str:
    lines = [_header("train")]
    for rec in history:
        lines.append(
            f"epoch {rec.epoch} train_loss={_f(rec.train_loss)} "
            f"val_accuracy={_f(rec.val_accuracy)}"
        )
    if val_accuracy is not None:
        lines.append(f"final_val_accuracy {_f(val_accuracy)}")
    return "\n".join(lines) + "\n"


def entropy_report(
    image_name: str,
    whole_image_entropy: float,
    map_: EntropyMap,
    second_order_total: float | None,
    note: str | None = None,
) -> str:
    lines = [_header("entropy")]
    lines.append(f"image {image_name}")
    lines.append(f"entropy2d {_f(whole_image_entropy)}")
    lines.append(f"window {map_.window}")
    lines.append(f"stride {map_.stride}")
    rows, cols = map_.values.shape
    lines.append(f"map_shape {rows} {cols}")
    for r in range(rows):
        lines.append("map_row " + " ".join(_f(v) for v in map_.values[r]))
    if second_order_total is not None:
        lines.append(f"second_order_total {_f(second_order_total)}")
    if note:
        lines.append(f"note {note}")
    return "\n".join(lines) + "\n"
