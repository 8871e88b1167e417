"""Kernel names read by perfbench/tracer.py and perfbench/workloads.py; the code lives in ndi and simulate."""

from .ndi import residual_and_cost, trig_cost, weighted_sin_residual
from .simulate import rasterize_shapes

USING_NUMBA = False
