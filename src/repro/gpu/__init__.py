"""Simulated-GPU offload layer (paper Sec. VI).

No physical GPU is assumed: :class:`SimulatedDevice` executes every
operation numerically on the host while advancing a virtual clock from a
calibrated Tesla C2050 performance model. The code paths — explicit
device memory, host<->device transfers, CUBLAS calls, fused CUDA-style
kernels — are the ones a real port exercises, and their structural costs
(transfer volume, launch counts) are measurable and tested. The
clustering and wrapping composites run on a device through
:class:`repro.backends.SimulatedGPUBackend`.
"""

from .cublas import Cublas
from .device import DeviceArray, DeviceError, SimulatedDevice
from .kernels import (
    DEFAULT_BLOCK,
    extract_diagonal,
    permute_rows_kernel,
    scale_columns_kernel,
    scale_rows_kernel,
    two_sided_scale_kernel,
)
from .multi import MultiDeviceClusterFarm
from .perfmodel import NEHALEM_8CORE, TESLA_C2050, CPUModel, GPUModel
from .qr import GpuBlockedQR, column_norms_kernel, permute_columns_kernel
from .stratification import (
    gpu_stratified_decomposition,
    gpu_stratified_inverse,
)

__all__ = [
    "CPUModel",
    "Cublas",
    "DEFAULT_BLOCK",
    "DeviceArray",
    "DeviceError",
    "GPUModel",
    "GpuBlockedQR",
    "MultiDeviceClusterFarm",
    "NEHALEM_8CORE",
    "SimulatedDevice",
    "TESLA_C2050",
    "column_norms_kernel",
    "extract_diagonal",
    "gpu_stratified_decomposition",
    "gpu_stratified_inverse",
    "permute_columns_kernel",
    "permute_rows_kernel",
    "scale_columns_kernel",
    "scale_rows_kernel",
    "two_sided_scale_kernel",
]
