"""Every golden value the tests assert, in one table.

A golden value pins bits that the determinism contract (README,
"Determinism") says must not move. Most of them also depend on the OpenBLAS
kernel, since kernels order a matrix product's sums differently: those have
one column per kernel they were recorded under, and a test reads the running
kernel's with `column()`. The values that came out the same under every
recorded kernel appear once, as module constants.

Recorded with numpy 2.4.6 and OpenBLAS 0.3.31 (scipy-openblas64). A column
for another kernel is recorded by running the slow tests with
`OPENBLAS_CORETYPE=<kernel>` (README, "Install and test") and copying in
the values their failures print.
"""

from dataclasses import dataclass

import pytest

from tivis.parallel import openblas_corename


@dataclass(frozen=True)
class Column:
    """The kernel-dependent golden values recorded under one kernel."""

    # test_acceptance.py, criterion 5: the reference run's image_id and its
    # last battery minimum; the sha256 prefix of the bench sweep's report
    criterion_5_image_id: str
    criterion_5_battery_min: float
    sweep_report_sha256: str
    # test_training.py: the sha256 of the reference model's file
    reference_model_sha256: str
    # test_nn.py, TestBitCanary: sha256 prefixes of gradient-step bytes, of
    # the reference architecture and of random_small_model(seed)
    reference_step_digest: str
    small_model_step_digests: dict
    # test_determinism.py: six gradient steps and one N=8 forward, in a
    # fresh interpreter that forces this kernel
    kernel_probe_digest: str


COLUMNS = {
    "SkylakeX": Column(
        criterion_5_image_id="d2cc1322922c5b01",
        criterion_5_battery_min=0.8301733193157064,
        sweep_report_sha256="3f9197f94f76e143",
        reference_model_sha256="d954df44890dfc54a118b940845ab037005e75867c8dcc8b70b37e711ae770ec",
        reference_step_digest="820219b89769ef9b",
        small_model_step_digests={3: "b15a2f2c1b284b7c", 0: "cab4bc48cde08809",
                                  1: "5a3f17caff875b3c", 5: "c71b6623389c9874"},
        kernel_probe_digest="0729806abac4b7e0",
    ),
    "Haswell": Column(
        criterion_5_image_id="65fccbb2f31be526",
        criterion_5_battery_min=0.8301733193157057,
        sweep_report_sha256="f1fe9f250e7865ed",
        reference_model_sha256="372b90413269431acef255c780008ffb5a02879cfabc22105a84c9ba934eba34",
        reference_step_digest="6fb0ae0d321953f4",
        small_model_step_digests={3: "a67b0318378277ac", 0: "64602a43193f5be9",
                                  1: "b4f740b9d8c44aca", 5: "39de14db5696f71f"},
        kernel_probe_digest="39bd6474c8718cfb",
    ),
}


def column() -> Column:
    """The golden values of the kernel OpenBLAS runs; a kernel with no column
    fails the test, naming the kernel."""
    kernel = openblas_corename()
    if kernel not in COLUMNS:
        pytest.fail(
            f"no golden values recorded under OpenBLAS kernel {kernel}; "
            f"recorded: {', '.join(COLUMNS)}"
        )
    return COLUMNS[kernel]


# The same under every recorded kernel.

# test_shapes.py: the sha256 of the reference dataset's pixels
REFERENCE_DATASET_SHA256 = "562f3bc9f3dddc5dcd547a826d017cda46540c27d2147a61d96310af21b9828a"

# test_acceptance.py, criterion 5: the inner steps of each of the reference
# run's 32 outer iterations
CRITERION_5_INNER_STEPS = [
    494, 172, 255, 319, 319, 295, 297, 298, 212, 196, 59, 192, 211, 152, 96, 98,
    58, 88, 84, 98, 173, 222, 150, 135, 138, 152, 176, 166, 84, 124, 225, 210,
]

# test_nn.py, TestBitCanary: the image_id after 40 steps from black
FORTY_STEP_IMAGE_ID = "3a3ed164e42500a1"

# test_cli.py: the last two lines and the sha256 of `tivis train --seed 2
# --count-per-class 20 --epochs 2`'s report
TRAIN_REPORT_TAIL = [
    "epoch 1 train_loss=1.7743829761026004 val_accuracy=0.4583333333333333",
    "final_val_accuracy 0.4583333333333333",
]
TRAIN_REPORT_SHA256 = "136f34c6bab3264f4b555641a3cd98b6d41b5182eefe3665ee81d13a6cf059d6"
