"""qsmkit: quantitative susceptibility mapping at desk scale.

Nonlinear dipole inversion by gradient descent on the magnitude-weighted
complex-exponential fidelity, the linear benchmark inversions it is compared
against (TKD, COSMOS, L2 closed form), a synthetic-phantom forward simulator,
Laplacian unwrapping and SMV filtering, evaluation metrics, and a CLI
pipeline over minimal NIfTI-1 files.
"""

from .core import (
    Acquisition,
    ComplexVolume,
    GridMismatchError,
    Orientation,
    OrientationDataset,
    ScalarVolume,
    VolumeGrid,
    fft3,
    freq_coords,
    ifft3,
    mask_erode,
)
from .dipole import DipoleKernel, adjoint_field, dipole_kernel, forward_field
from .invert import CosmosConfig, L2Config, TkdConfig, cosmos, l2_closedform, tkd
from .metrics import data_consistency, nrmse, ssim3d
from .ndi import NdiConfig, NdiDivergenceError, NdiResult, ndi_cost, ndi_gradient, ndi_reconstruct
from .preprocess import SmvConfig, laplacian_unwrap, smv_filter
from .simulate import NoiseSpec, PhantomSpec, Shape, make_phantom, simulate_acquisition

__version__ = "0.1.0"

__all__ = [
    "Acquisition",
    "ComplexVolume",
    "CosmosConfig",
    "DipoleKernel",
    "GridMismatchError",
    "L2Config",
    "NdiConfig",
    "NdiDivergenceError",
    "NdiResult",
    "NoiseSpec",
    "Orientation",
    "OrientationDataset",
    "PhantomSpec",
    "ScalarVolume",
    "Shape",
    "SmvConfig",
    "TkdConfig",
    "VolumeGrid",
    "adjoint_field",
    "cosmos",
    "data_consistency",
    "dipole_kernel",
    "fft3",
    "forward_field",
    "freq_coords",
    "ifft3",
    "l2_closedform",
    "laplacian_unwrap",
    "make_phantom",
    "mask_erode",
    "ndi_cost",
    "ndi_gradient",
    "ndi_reconstruct",
    "nrmse",
    "simulate_acquisition",
    "smv_filter",
    "ssim3d",
    "tkd",
]
