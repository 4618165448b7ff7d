"""Tensor-train compressed, quantization-aware transformer toolkit."""

__version__ = "0.1.0"
