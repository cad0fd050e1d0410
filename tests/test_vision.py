"""Tests for the visual element extractor and the LCSeg segmentation model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.charts import ChartSpec, build_linechartseg, render_chart_for_table, render_text
from repro.charts.spec import MASK_TICK_LABEL
from repro.data import AugmentationConfig
from repro.vision import (
    LCSegConfig,
    VisualElementExtractor,
    decode_tick_values,
    extract_y_range,
    separate_line_instances,
    tick_pixel_rows,
    train_lcseg,
)


class TestTickDecoding:
    def test_decoded_range_matches_axis(self, simple_chart):
        values = decode_tick_values(simple_chart.image, simple_chart.class_mask)
        assert len(values) >= 2
        low, high = extract_y_range(simple_chart.image, simple_chart.class_mask)
        assert low == pytest.approx(simple_chart.axis_range[0], rel=0.05, abs=0.5)
        assert high == pytest.approx(simple_chart.axis_range[1], rel=0.05, abs=0.5)

    def test_extract_y_range_fallback(self):
        blank = np.zeros((20, 20))
        mask = np.zeros((20, 20), dtype=np.int8)
        assert extract_y_range(blank, mask, fallback=(0.0, 1.0)) == (0.0, 1.0)
        with pytest.raises(ValueError):
            extract_y_range(blank, mask)

    @staticmethod
    def _stamped(labels):
        """A blank image with one tick label per (top row, text) pair."""
        image = np.zeros((40, 40))
        for top, text in labels:
            bitmap = render_text(text)
            image[top : top + bitmap.shape[0], 2 : 2 + bitmap.shape[1]] = bitmap
        return image, np.where(image > 0, MASK_TICK_LABEL, 0).astype(np.int8)

    def test_two_labels_with_one_value_are_not_a_range(self):
        """(v, v) would make every trace a constant line and the interval
        lookup a point query; it is treated as an undecodable axis."""
        image, mask = self._stamped([(3, "2.5"), (20, "2.5")])
        assert decode_tick_values(image, mask) == [2.5, 2.5]
        assert extract_y_range(image, mask, fallback=(0.0, 1.0)) == (0.0, 1.0)
        with pytest.raises(ValueError):
            extract_y_range(image, mask)

    def test_two_distinct_values_are_a_range(self):
        image, mask = self._stamped([(3, "7"), (12, "2.5"), (20, "2.5")])
        assert extract_y_range(image, mask, fallback=(0.0, 1.0)) == (2.5, 7.0)

    def test_unparseable_label_is_skipped(self, simple_chart):
        """One band overwritten with glyphs that spell no number is dropped;
        the range comes from the remaining labels."""
        image, mask = simple_chart.image.copy(), simple_chart.class_mask.copy()
        clean = decode_tick_values(image, mask)
        assert len(clean) == len(simple_chart.ticks) >= 3
        # The middle label: neither end of the range.
        rows = np.unique(np.nonzero(mask == MASK_TICK_LABEL)[0])
        top = int(rows[rows.size // 2]) - 2
        band = mask[top : top + 5] == MASK_TICK_LABEL
        assert not (mask[top - 1] == MASK_TICK_LABEL).any() and band.any()
        image[top : top + 5][band] = 0.0
        mask[top : top + 5][band] = 0
        garbage = render_text("1e-")
        image[top : top + 5, 1 : 1 + garbage.shape[1]] = garbage
        mask[top : top + 5, 1 : 1 + garbage.shape[1]][garbage > 0] = MASK_TICK_LABEL
        noisy = decode_tick_values(image, mask)
        assert len(noisy) == len(clean) - 1 and set(noisy) < set(clean)
        assert extract_y_range(image, mask) == (min(clean), max(clean))

    def test_tick_pixel_rows_grouped(self, simple_chart):
        rows = tick_pixel_rows(simple_chart.class_mask)
        assert len(rows) == len(simple_chart.ticks)


class TestLineExtraction:
    def test_oracle_extraction_matches_chart(self, simple_chart, extractor):
        elements = extractor.extract(simple_chart)
        assert elements.num_lines == simple_chart.num_lines
        for line in elements.lines:
            assert line.coverage > 0.9
            values = line.interpolated_values()
            assert np.all(np.isfinite(values))

    def test_extracted_values_track_underlying_shape(self, simple_chart, extractor):
        elements = extractor.extract(simple_chart)
        # The "rising" line should be recovered as (mostly) increasing values.
        rising_values = elements.lines[0].interpolated_values()
        diffs = np.diff(rising_values)
        assert np.mean(diffs >= -1e-6) > 0.8

    def test_separate_line_instances_two_parallel_lines(self):
        mask = np.zeros((40, 60), dtype=bool)
        mask[10, 5:55] = True
        mask[30, 5:55] = True
        traces = separate_line_instances(mask, (0, 40, 5, 55))
        assert len(traces) == 2
        means = sorted(np.nanmean(t) for t in traces)
        assert means[0] == pytest.approx(10, abs=1)
        assert means[1] == pytest.approx(30, abs=1)

    def test_separate_line_instances_empty(self):
        mask = np.zeros((10, 10), dtype=bool)
        assert separate_line_instances(mask, (0, 10, 0, 10)) == []

    def test_model_free_instance_separation_pipeline(self, simple_chart):
        extractor = VisualElementExtractor(use_oracle_instances=False)
        elements = extractor.extract(simple_chart)
        assert elements.num_lines >= 1
        assert elements.y_range[0] < elements.y_range[1]


class TestLCSeg:
    @pytest.fixture(scope="class")
    def tiny_lcseg(self, small_records):
        config = AugmentationConfig(partition=False, down_sample=False)
        dataset = build_linechartseg(small_records[:3], augmentation=config, max_examples=4)
        lcseg_config = LCSegConfig(window=5, hidden_dim=24, epochs=3, max_pixels_per_image=300)
        model, history = train_lcseg(dataset, config=lcseg_config)
        return model, history, dataset

    def test_training_reduces_loss(self, tiny_lcseg):
        _, history, _ = tiny_lcseg
        assert history.losses[-1] < history.losses[0]

    def test_pixel_accuracy_beats_chance(self, tiny_lcseg):
        model, _, dataset = tiny_lcseg
        example = dataset[0]
        accuracy = model.pixel_accuracy(example.image, example.class_mask)
        assert accuracy > 0.5  # 5 classes; chance would be ~0.2

    def test_predict_mask_shape_and_background(self, tiny_lcseg):
        model, _, dataset = tiny_lcseg
        example = dataset[0]
        predicted = model.predict_mask(example.image)
        assert predicted.shape == example.image.shape
        assert (predicted[example.image == 0] == 0).all()

    def test_window_must_be_odd(self):
        with pytest.raises(ValueError):
            LCSegConfig(window=4)

    def test_extractor_with_trained_model(self, tiny_lcseg, simple_chart):
        model, _, _ = tiny_lcseg
        extractor = VisualElementExtractor(model=model)
        elements = extractor.extract(simple_chart)
        assert elements.num_lines == simple_chart.num_lines
        assert elements.y_range[0] < elements.y_range[1]
