"""The kernel module.  Callers look kernels up as ``kernels.<name>`` at
call time, so a kernel can be wrapped (for tracing) in one place."""

from . import _pykernels as kernels

BACKEND = kernels.BACKEND_NAME
