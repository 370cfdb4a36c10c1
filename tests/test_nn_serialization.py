"""Tests for flat-parameter serialization (round trips and error handling)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.models import SmallCNN
from repro.nn.serialization import (
    FlatParams,
    get_flat_params,
    parameter_shapes,
    parameter_views,
    set_flat_params,
    state_dict_to_vector,
    vector_to_state_dict,
    clone_state_dict,
)


def _make_model(seed: int = 0):
    return nn.Sequential(
        nn.Linear(6, 8, rng=np.random.default_rng(seed)),
        nn.ReLU(),
        nn.Linear(8, 3, rng=np.random.default_rng(seed + 1)),
    )


class TestFlatParams:
    def test_get_flat_params_length(self):
        model = _make_model()
        assert get_flat_params(model).size == model.num_parameters()

    def test_roundtrip_preserves_values(self):
        model = _make_model(0)
        vector = get_flat_params(model)
        other = _make_model(5)
        set_flat_params(other, vector)
        np.testing.assert_allclose(get_flat_params(other), vector)

    def test_set_flat_params_wrong_size_raises(self):
        model = _make_model()
        with pytest.raises(ValueError):
            set_flat_params(model, np.zeros(3))

    def test_set_flat_params_copies_data(self):
        model = _make_model()
        vector = np.zeros(model.num_parameters())
        set_flat_params(model, vector)
        vector[:] = 5.0
        assert np.all(get_flat_params(model) == 0.0)

    def test_roundtrip_on_cnn(self):
        model = SmallCNN(in_channels=1, image_size=12, num_classes=10, width=4,
                         rng=np.random.default_rng(0))
        vector = get_flat_params(model)
        clone = SmallCNN(in_channels=1, image_size=12, num_classes=10, width=4,
                         rng=np.random.default_rng(1))
        set_flat_params(clone, vector)
        np.testing.assert_allclose(get_flat_params(clone), vector)

    def test_parameter_shapes_match_named_parameters(self):
        model = _make_model()
        shapes = parameter_shapes(model)
        for name, param in model.named_parameters():
            assert shapes[name] == param.data.shape


class TestDtypePolicy:
    """Flat vectors keep the native float32 dtype; float64 is an explicit opt-in."""

    def test_get_flat_params_defaults_to_native_float32(self):
        assert get_flat_params(_make_model()).dtype == np.float32

    def test_get_flat_params_float64_opt_in(self):
        model = _make_model()
        vector = get_flat_params(model, dtype=np.float64)
        assert vector.dtype == np.float64
        np.testing.assert_allclose(vector, get_flat_params(model), atol=1e-7)

    def test_state_dict_to_vector_keeps_native_dtype(self):
        model = _make_model()
        assert state_dict_to_vector(model.state_dict(), model).dtype == np.float32

    def test_vector_to_state_dict_casts_to_parameter_dtype(self):
        model = _make_model()
        state = vector_to_state_dict(np.zeros(model.num_parameters(), dtype=np.float64), model)
        assert all(value.dtype == np.float32 for value in state.values())

    def test_flat_buffer_is_contiguous(self):
        vector = get_flat_params(_make_model())
        assert vector.flags["C_CONTIGUOUS"]


class TestFlatParamsView:
    def test_named_slices_are_views(self):
        model = _make_model()
        flat = FlatParams.from_module(model)
        name, param = next(model.named_parameters())
        np.testing.assert_array_equal(flat[name], param.data)
        flat[name][...] = 7.0
        assert np.all(flat.vector[: param.data.size] == 7.0)  # same buffer

    def test_names_follow_parameter_order(self):
        model = _make_model()
        flat = FlatParams.from_module(model)
        assert flat.names() == [name for name, _ in model.named_parameters()]

    def test_roundtrip_through_module(self):
        source, target = _make_model(0), _make_model(9)
        flat = FlatParams.from_module(source)
        flat.write_to(target)
        np.testing.assert_array_equal(get_flat_params(target), flat.vector)

    def test_from_vector_validates_size(self):
        model = _make_model()
        with pytest.raises(ValueError):
            FlatParams.from_vector(np.zeros(3), model)

    def test_with_vector_reuses_layout(self):
        model = _make_model()
        flat = FlatParams.from_module(model)
        other = flat.with_vector(np.zeros_like(flat.vector))
        assert other.names() == flat.names()
        with pytest.raises(ValueError):
            flat.with_vector(np.zeros(3))

    def test_to_state_dict_matches_module_state(self):
        model = _make_model(4)
        flat = FlatParams.from_module(model)
        state = flat.to_state_dict()
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(state[name], param.data)

    def test_copy_is_deep(self):
        flat = FlatParams.from_module(_make_model())
        clone = flat.copy()
        clone.vector[:] = 0.0
        assert not np.all(flat.vector == 0.0)

    def test_parameter_views_share_the_vector(self):
        model = _make_model(2)
        vector = get_flat_params(_make_model(5))
        views = parameter_views(model, vector)
        assert [v.shape for v in views] == [p.data.shape for p in model.parameters()]
        assert all(np.shares_memory(view, vector) for view in views)
        set_flat_params(model, vector)
        for view, param in zip(views, model.parameters()):
            np.testing.assert_array_equal(view, param.data)

    def test_parameter_views_cast_like_set_flat_params(self):
        model = _make_model(2)
        vector = get_flat_params(_make_model(5), dtype=np.float64) + 1e-9
        views = parameter_views(model, vector)
        set_flat_params(model, vector)
        for view, param in zip(views, model.parameters()):
            assert view.dtype == param.data.dtype
            assert np.array_equal(view, param.data)
        with pytest.raises(ValueError):
            parameter_views(model, vector[:-1])

    def test_nbytes_halved_vs_float64(self):
        model = _make_model()
        assert FlatParams.from_module(model).nbytes * 2 == (
            FlatParams.from_module(model, dtype=np.float64).nbytes
        )


class TestStateDictVector:
    def test_state_dict_vector_roundtrip(self):
        model = _make_model(3)
        state = model.state_dict()
        vector = state_dict_to_vector(state, model)
        recovered = vector_to_state_dict(vector, model)
        for name in state:
            np.testing.assert_allclose(state[name], recovered[name], atol=1e-6)

    def test_state_dict_to_vector_matches_get_flat_params(self):
        model = _make_model(4)
        np.testing.assert_allclose(
            state_dict_to_vector(model.state_dict(), model), get_flat_params(model), atol=1e-6
        )

    def test_missing_parameter_raises(self):
        model = _make_model()
        state = model.state_dict()
        key = next(iter(state))
        del state[key]
        with pytest.raises(KeyError):
            state_dict_to_vector(state, model)

    def test_shape_mismatch_raises(self):
        model = _make_model()
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            state_dict_to_vector(state, model)

    def test_vector_too_short_raises(self):
        model = _make_model()
        with pytest.raises(ValueError):
            vector_to_state_dict(np.zeros(model.num_parameters() - 1), model)

    def test_vector_too_long_raises(self):
        model = _make_model()
        with pytest.raises(ValueError):
            vector_to_state_dict(np.zeros(model.num_parameters() + 1), model)

    def test_clone_state_dict_is_deep(self):
        model = _make_model()
        state = model.state_dict()
        cloned = clone_state_dict(state)
        key = next(iter(state))
        cloned[key][:] = 123.0
        assert not np.allclose(state[key], 123.0)
