import numpy as np
import pytest

from tivis import nn
from tivis.errors import RectError
from tivis.probes import ScreenRect, classify_report, invert, zero_square
from tivis.shapes import CLASS_NAMES, render_shape, shape_params


def _model(pixel_norm="unit_01", n=8, k=3):
    return nn.Model(
        layers=[nn.Flatten(), nn.Dense(weight=np.zeros((k, 3 * n * n)), bias=np.zeros(k))],
        input_shape=(3, n, n),
        class_names=tuple(f"c{i}" for i in range(k)),
        pixel_norm=pixel_norm,
    ).validate()


class TestInvert:
    def test_anchors(self):
        img = np.array([[[0.0, 0.0, 0.0], [100.0, 200.0, 50.0]]])
        out = invert(img)
        assert out[0, 0].tolist() == [255, 255, 255]
        assert out[0, 1].tolist() == [155, 55, 205]

    def test_involution_bit_exact(self):
        img = np.floor(np.random.default_rng(0).uniform(0, 256, (6, 6, 3)))
        np.testing.assert_array_equal(invert(invert(img)), img)

    def test_maps_range_onto_itself(self):
        img = np.random.default_rng(1).uniform(0, 255, (5, 5, 3))
        out = invert(img)
        assert out.min() >= 0.0 and out.max() <= 255.0


class TestZeroSquare:
    def test_full_image_unit01_gives_all_zero(self):
        img = np.full((8, 8, 3), 180.0)
        out = zero_square(img, ScreenRect(0, 0, 8, 8), _model("unit_01"))
        np.testing.assert_array_equal(out, np.zeros((8, 8, 3)))

    def test_zero_area_rect_identity(self):
        img = np.floor(np.random.default_rng(2).uniform(0, 256, (8, 8, 3)))
        out = zero_square(img, ScreenRect(3, 3, 0, 0), _model())
        np.testing.assert_array_equal(out, img)

    def test_touches_exactly_w_times_h_pixels(self):
        img = np.full((8, 8, 3), 200.0)
        rect = ScreenRect(1, 2, 3, 4)
        out = zero_square(img, rect, _model("unit_01"))
        changed = np.any(out != img, axis=2)
        assert int(changed.sum()) == rect.w * rect.h

    def test_signed11_screened_region_normalizes_to_exact_zero(self):
        model = _model("signed_11")
        img = np.floor(np.random.default_rng(3).uniform(0, 256, (8, 8, 3)))
        rect = ScreenRect(2, 1, 4, 5)
        out = zero_square(img, rect, model)
        xnorm = nn.normalize_images(model.pixel_norm, out[None])[0]
        region = xnorm[:, rect.y : rect.y + rect.h, rect.x : rect.x + rect.w]
        assert np.all(region == 0.0)

    def test_out_of_bounds_rejected(self):
        img = np.zeros((8, 8, 3))
        with pytest.raises(RectError):
            zero_square(img, ScreenRect(5, 5, 4, 4), _model())

    def test_input_not_mutated(self):
        img = np.full((8, 8, 3), 99.0)
        before = img.copy()
        zero_square(img, ScreenRect(0, 0, 4, 4), _model())
        np.testing.assert_array_equal(img, before)


class TestClassifyReport:
    def test_constant_model_identical_topk_across_images(self):
        model = _model()
        rng = np.random.default_rng(4)
        images = [(f"img{i}", np.floor(rng.uniform(0, 256, (8, 8, 3)))) for i in range(3)]
        report = classify_report(model, images, k=3)
        rankings = [
            [(e.class_name, e.percent) for e in rec.entries] for rec in report.records
        ]
        assert rankings[0] == rankings[1] == rankings[2]

    def test_variant_tags_and_row_order(self):
        model = _model()
        img = np.full((8, 8, 3), 90.0)
        report = classify_report(
            model, [("a", img)], k=1, variants=("original", "inverted")
        )
        assert [(r.image_id, r.variant) for r in report.records] == [
            ("a", "original"),
            ("a", "inverted"),
        ]

    def test_percentages_in_open_interval(self):
        model = _model()
        img = np.full((8, 8, 3), 90.0)
        report = classify_report(model, [("a", img)], k=3)
        for rec in report.records:
            assert all(0.0 < e.percent < 100.0 for e in rec.entries)
            pcts = [e.percent for e in rec.entries]
            assert pcts == sorted(pcts, reverse=True)

    def test_screened_requires_rect(self):
        model = _model()
        with pytest.raises(ValueError, match="screen_rect"):
            classify_report(model, [("a", np.zeros((8, 8, 3)))], variants=("screened",))

    def test_rect_requires_screened(self):
        model = _model()
        with pytest.raises(ValueError, match="screen_rect"):
            classify_report(
                model, [("a", np.zeros((8, 8, 3)))], variants=("original",),
                screen_rect=ScreenRect(1, 1, 2, 2),
            )

    def test_unknown_variant_rejected(self):
        model = _model()
        with pytest.raises(ValueError, match="variant"):
            classify_report(model, [], variants=("upside_down",))

    def test_empty_variants_rejected(self):
        with pytest.raises(ValueError, match="^variants must name at least one of"):
            classify_report(_model(), [("a", np.zeros((8, 8, 3)))], variants=())

    @pytest.mark.slow
    def test_reference_model_recognizes_fresh_disk(self, reference_model):
        disk_class = CLASS_NAMES.index("disk")
        img = render_shape(shape_params(12345, disk_class, 0))
        report = classify_report(reference_model, [("disk", img)], k=1)
        entry = report.records[0].entries[0]
        assert entry.class_name == "disk"
        assert entry.percent > 50.0
