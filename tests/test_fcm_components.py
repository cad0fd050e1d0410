"""Tests for FCM preprocessing, encoders, DA layers and matchers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.fcm import (
    ChartInput,
    FCMConfig,
    FCMModel,
    FCMScorer,
    SegmentDatasetEncoder,
    SegmentLineChartEncoder,
    column_segments,
    paper_scale_config,
    prepare_chart_input,
    prepare_table_input,
    resample_series,
)
from repro.fcm.da_layers import (
    DataAggregationEncoder,
    HierarchicalMultiScaleLayer,
    MixtureOfExpertsLayer,
    TransformationLayer,
)
from repro.fcm.matcher import AveragedMatcher, HCMANMatcher, build_matcher
from repro.nn import Tensor


class TestConfig:
    def test_defaults_are_consistent(self):
        config = FCMConfig()
        assert config.chart_segment_feature_dim > 0
        assert config.num_chart_segments >= 1
        assert config.sub_segment_size * (2 ** config.beta) == config.data_segment_size

    def test_validation(self):
        with pytest.raises(ValueError):
            FCMConfig(embed_dim=30, num_heads=4)
        with pytest.raises(ValueError):
            FCMConfig(data_segment_size=30, beta=3)
        with pytest.raises(ValueError):
            FCMConfig(image_pool=0)

    def test_with_overrides(self):
        config = FCMConfig().with_overrides(embed_dim=64)
        assert config.embed_dim == 64
        assert FCMConfig().embed_dim == 32  # original untouched

    def test_paper_scale_config(self):
        config = paper_scale_config()
        assert config.embed_dim == 768 and config.num_layers == 12


class TestPreprocessing:
    def test_resample_series(self):
        values = np.array([0.0, 1.0, 2.0, 3.0])
        out = resample_series(values, 7)
        assert out.shape == (7,)
        assert out[0] == 0.0 and out[-1] == 3.0
        np.testing.assert_allclose(resample_series(values, 4), values)

    def test_column_segments_shape(self, tiny_fcm_config):
        values = np.random.default_rng(0).standard_normal(100)
        segments = column_segments(values, tiny_fcm_config)
        assert segments.shape[1] == tiny_fcm_config.data_segment_size
        assert 1 <= segments.shape[0] <= tiny_fcm_config.max_data_segments

    def test_prepare_chart_input(self, simple_chart, extractor, tiny_fcm_config):
        elements = extractor.extract(simple_chart)
        chart_input = prepare_chart_input(simple_chart, elements, tiny_fcm_config)
        assert chart_input.num_lines == simple_chart.num_lines
        assert chart_input.segment_features.shape == (
            simple_chart.num_lines,
            tiny_fcm_config.num_chart_segments,
            tiny_fcm_config.chart_segment_feature_dim,
        )
        # Standardised features should have roughly zero mean.
        assert abs(chart_input.segment_features.mean()) < 0.2

    def test_prepare_chart_input_refuses_a_chart_with_no_lines(
        self, simple_chart, extractor, tiny_fcm_config
    ):
        """Lines come from the chart's per-line masks; without them there
        is nothing to encode, whatever line ink the class mask holds."""
        chart = dataclasses.replace(simple_chart, line_masks=[])
        elements = extractor.extract(chart)
        with pytest.raises(ValueError, match="cannot encode a chart with no extracted lines"):
            prepare_chart_input(chart, elements, tiny_fcm_config)

    def test_prepare_table_input_filters_by_range(self, simple_table, tiny_fcm_config):
        full = prepare_table_input(simple_table, tiny_fcm_config)
        assert full.num_columns == simple_table.num_columns
        filtered = prepare_table_input(simple_table, tiny_fcm_config, y_range=(-6.0, -3.0))
        assert filtered.num_columns < full.num_columns
        # An impossible range falls back to keeping every column.
        fallback = prepare_table_input(simple_table, tiny_fcm_config, y_range=(1e9, 2e9))
        assert fallback.num_columns == full.num_columns


class TestEncoders:
    def test_chart_encoder_output_shape(self, simple_chart, extractor, tiny_fcm_config):
        elements = extractor.extract(simple_chart)
        chart_input = prepare_chart_input(simple_chart, elements, tiny_fcm_config)
        encoder = SegmentLineChartEncoder(tiny_fcm_config, np.random.default_rng(0))
        encoded = encoder(chart_input.segment_features)
        assert encoded.shape == (
            chart_input.num_lines,
            tiny_fcm_config.num_chart_segments,
            tiny_fcm_config.embed_dim,
        )

    def test_dataset_encoder_output_shape(self, simple_table, tiny_fcm_config):
        table_input = prepare_table_input(simple_table, tiny_fcm_config)
        encoder = SegmentDatasetEncoder(tiny_fcm_config, np.random.default_rng(0))
        encoded = encoder(table_input.segments)
        assert encoded.shape[0] == table_input.num_columns
        assert encoded.shape[2] == tiny_fcm_config.embed_dim

    def test_dataset_encoder_without_da_layers(self, simple_table, tiny_fcm_config):
        config = tiny_fcm_config.with_overrides(enable_da_layers=False)
        encoder = SegmentDatasetEncoder(config, np.random.default_rng(0))
        assert encoder.da_encoder is None
        table_input = prepare_table_input(simple_table, config)
        assert encoder(table_input.segments).shape[-1] == config.embed_dim
        assert encoder.moe_gate_weights(table_input.segments[0]) is None

    def test_column_embeddings_for_lsh(self, simple_table, tiny_fcm_config):
        encoder = SegmentDatasetEncoder(tiny_fcm_config, np.random.default_rng(0))
        table_input = prepare_table_input(simple_table, tiny_fcm_config)
        embeddings = encoder.array_forward(table_input.segments).mean(axis=1)
        assert embeddings.shape == (table_input.num_columns, tiny_fcm_config.embed_dim)

    def test_encoder_input_validation(self, tiny_fcm_config):
        encoder = SegmentDatasetEncoder(tiny_fcm_config, np.random.default_rng(0))
        with pytest.raises(ValueError):
            encoder(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            encoder(np.zeros((0, 2, tiny_fcm_config.data_segment_size)))


class TestDALayers:
    def test_transformation_layer_shape(self, tiny_fcm_config):
        layer = TransformationLayer(tiny_fcm_config, np.random.default_rng(0), "avg")
        out = layer(Tensor(np.zeros((5, 4, tiny_fcm_config.sub_segment_size))))
        assert out.shape == (5, 4, tiny_fcm_config.embed_dim)

    def test_hmrl_reduces_leaves_to_root(self, tiny_fcm_config):
        hmrl = HierarchicalMultiScaleLayer(tiny_fcm_config, np.random.default_rng(0))
        leaves = Tensor(np.random.default_rng(1).standard_normal(
            (3, 2 ** tiny_fcm_config.beta, tiny_fcm_config.embed_dim)
        ))
        root = hmrl(leaves)
        assert root.shape == (3, tiny_fcm_config.embed_dim)
        with pytest.raises(ValueError):
            hmrl(Tensor(np.zeros((3, 3, tiny_fcm_config.embed_dim))))

    def test_moe_gates_sum_to_one(self, tiny_fcm_config):
        moe = MixtureOfExpertsLayer(tiny_fcm_config, np.random.default_rng(0))
        roots = Tensor(np.random.default_rng(1).standard_normal(
            (tiny_fcm_config.num_experts, 4, tiny_fcm_config.embed_dim)
        ))
        blended, gates = moe(roots)
        assert blended.shape == (4, tiny_fcm_config.embed_dim)
        np.testing.assert_allclose(gates.numpy().sum(axis=-1), np.ones(4), atol=1e-9)

    def test_da_encoder_batched_shapes(self, tiny_fcm_config):
        encoder = DataAggregationEncoder(tiny_fcm_config, np.random.default_rng(0))
        segments = np.random.default_rng(1).standard_normal(
            (3, 2, tiny_fcm_config.data_segment_size)
        )
        out = encoder(segments)
        assert out.shape == (3, 2, tiny_fcm_config.embed_dim)
        out_one, gates = encoder(segments[0], return_gates=True)
        assert out_one.shape == (2, tiny_fcm_config.embed_dim)
        assert gates.shape == (2, tiny_fcm_config.num_experts)
        with pytest.raises(ValueError):
            encoder(np.zeros((2, tiny_fcm_config.data_segment_size + 1)))

    def test_da_encoder_is_differentiable(self, tiny_fcm_config):
        encoder = DataAggregationEncoder(tiny_fcm_config, np.random.default_rng(0))
        segments = np.random.default_rng(1).standard_normal((2, tiny_fcm_config.data_segment_size))
        out = encoder(segments).sum()
        out.backward()
        grads = [p.grad for p in encoder.parameters() if p.grad is not None]
        assert grads and any(np.abs(g).sum() > 0 for g in grads)


class TestMatchers:
    def _reprs(self, config):
        rng = np.random.default_rng(0)
        chart = Tensor(rng.standard_normal((2, 3, config.embed_dim)))
        table = Tensor(rng.standard_normal((4, 2, config.embed_dim)))
        return chart, table

    def test_hcman_output_in_unit_interval(self, tiny_fcm_config):
        matcher = HCMANMatcher(tiny_fcm_config, np.random.default_rng(0))
        chart, table = self._reprs(tiny_fcm_config)
        score = matcher(chart, table).item()
        assert 0.0 <= score <= 1.0

    def test_averaged_matcher_output_in_unit_interval(self, tiny_fcm_config):
        matcher = AveragedMatcher(tiny_fcm_config, np.random.default_rng(0))
        chart, table = self._reprs(tiny_fcm_config)
        assert 0.0 <= matcher(chart, table).item() <= 1.0

    def test_build_matcher_respects_config(self, tiny_fcm_config):
        assert isinstance(
            build_matcher(tiny_fcm_config.with_overrides(use_hcman=True), np.random.default_rng(0)),
            HCMANMatcher,
        )
        assert isinstance(
            build_matcher(tiny_fcm_config.with_overrides(use_hcman=False), np.random.default_rng(0)),
            AveragedMatcher,
        )

    def test_matcher_gradients_flow_to_both_inputs(self, tiny_fcm_config):
        matcher = HCMANMatcher(tiny_fcm_config, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        chart = Tensor(rng.standard_normal((2, 3, tiny_fcm_config.embed_dim)), requires_grad=True)
        table = Tensor(rng.standard_normal((3, 2, tiny_fcm_config.embed_dim)), requires_grad=True)
        matcher(chart, table).backward()
        assert np.abs(chart.grad).sum() > 0
        assert np.abs(table.grad).sum() > 0


class TestFCMModel:
    def test_forward_scalar_in_unit_interval(
        self, simple_chart, simple_table, extractor, tiny_fcm_config
    ):
        model = FCMModel(tiny_fcm_config)
        elements = extractor.extract(simple_chart)
        chart_input = prepare_chart_input(simple_chart, elements, tiny_fcm_config)
        table_input = prepare_table_input(simple_table, tiny_fcm_config)
        score = model.relevance(chart_input, table_input)
        assert 0.0 <= score <= 1.0

    def test_empty_table_rejected(self, tiny_fcm_config):
        model = FCMModel(tiny_fcm_config)
        from repro.fcm.preprocessing import TableInput

        empty = TableInput(
            segments=np.zeros((0, 1, tiny_fcm_config.data_segment_size)),
            column_names=[],
            table_id="empty",
        )
        with pytest.raises(ValueError):
            model.encode_table(empty)

    def test_line_and_column_embeddings(self, simple_chart, simple_table, extractor, tiny_fcm_config):
        scorer = FCMScorer(FCMModel(tiny_fcm_config))
        elements = extractor.extract(simple_chart)
        chart_input = prepare_chart_input(simple_chart, elements, tiny_fcm_config)
        assert scorer.encode_query(chart_input).mean(axis=1).shape == (
            simple_chart.num_lines,
            tiny_fcm_config.embed_dim,
        )
        assert scorer.index_table(simple_table).column_embeddings.shape == (
            simple_table.num_columns,
            tiny_fcm_config.embed_dim,
        )

    def test_ablation_models_have_different_parameter_sets(self, tiny_fcm_config):
        full = FCMModel(tiny_fcm_config)
        no_da = FCMModel(tiny_fcm_config.with_overrides(enable_da_layers=False))
        no_hcman = FCMModel(tiny_fcm_config.with_overrides(use_hcman=False))
        assert no_da.num_parameters() < full.num_parameters()
        assert no_hcman.num_parameters() < full.num_parameters()
