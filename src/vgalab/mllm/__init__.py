"""Tiny visual-prefix decoder: config, kernels, forward pass, weights on disk."""
from .attention import GuidanceRow, attention_explicit, attention_fused
from .config import ModelConfig, SequenceLayout
from .container import load_model, save_model
from .core import (
    KvCache,
    LayerWeights,
    Model,
    PrefillResult,
    decode_step,
    forward_rows_count,
    generated_words,
    greedy_generate,
    prefill,
    prefill_shared,
    reference_forward,
    reset_forward_rows,
)
from .planted import PlantedSpec, build_planted_model, build_random_model

__all__ = [
    "GuidanceRow",
    "KvCache",
    "LayerWeights",
    "Model",
    "ModelConfig",
    "PlantedSpec",
    "PrefillResult",
    "SequenceLayout",
    "attention_explicit",
    "attention_fused",
    "build_planted_model",
    "build_random_model",
    "decode_step",
    "forward_rows_count",
    "generated_words",
    "greedy_generate",
    "load_model",
    "prefill",
    "prefill_shared",
    "reference_forward",
    "reset_forward_rows",
    "save_model",
]
