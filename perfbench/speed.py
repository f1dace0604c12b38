"""Machine-speed probe: a fixed kernel timed between the timed passes.

The CPU speed a shared virtual machine gives one process drifts by a third
or more over tens of seconds, from one run to the next as much as within a
run, and the best or median pass of a run cannot remove that.  So the kernel
runs before the first timed pass and after every pass (once per EVERY_S of
pass), and the run's times are scaled to the machine speed at which the
kernel takes REFERENCE_S seconds:

    scaled = measured * REFERENCE_S / median(kernel times of the run)

The median over the run, not the kernel times next to each pass, because one
kernel run varies about as much as one pass does.

The kernel is a small copy of the program's inner loops, written here
independently.  At desk scale, per subcarrier: a steering matrix over a
192 x 8 grid of a 64-element array (complex exponentials of an outer
product), its product with channel rows, Gaussian noise draws and
accumulation, and array-gain kernels on short vectors.  At full scale, per
subcarrier of a 256-element array: near-field channel rows of 20 users,
three pilot beamformers built one by one, their product and an array-gain
kernel; then array gains over 1024 points at once.  So the kernel slows
with the program when the machine does.  It is the benchmark's own code, so
a change to the program cannot change it.  REFERENCE_S is about its median time
on a 2-vCPU Intel Xeon virtual machine (Python 3.11, NumPy 2.4, one BLAS
thread).
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.2
EVERY_S = 2.5
_SUBCARRIERS = 10
_FULL_SUBCARRIERS = 200
_FULL_GAIN_STEPS = 6
_ELEMENTS = np.arange(64) * 5e-3
_THETAS = np.repeat(np.linspace(-0.9, 0.9, 192), 8)
_ALPHAS = np.tile(np.linspace(0.0, 0.2, 8), 192)
_ROWS = np.random.default_rng(0).standard_normal((16, 64, 2)) @ [1.0, 1j]
_GAIN_X = np.linspace(-5.0, 5.0, 25)
_FULL_ELEMENTS = np.arange(256) * 5e-3
_USER_R = np.linspace(10.0, 160.0, 20)[:, None]
_USER_THETA = np.linspace(-0.8, 0.8, 20)[:, None]
_PILOTS = ((0.1, 0.01), (0.3, 0.02), (-0.2, 0.0))
_FULL_X = np.linspace(-50.0, 50.0, 1024)


def kernel_s() -> float:
    """Wall time of one run of the kernel."""
    rng = np.random.default_rng(1)
    power = np.zeros((len(_ROWS), len(_THETAS)))
    start = time.perf_counter()
    for m in range(_SUBCARRIERS):
        k = 600.0 + m
        grid = np.exp(1j * k * (np.outer(_THETAS, _ELEMENTS)
                                - np.outer(_ALPHAS, _ELEMENTS**2)))
        p = _ROWS @ grid.conj().T
        z = (rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape)) / np.sqrt(2)
        power += np.abs(p + z) ** 2
        for j in range(12):
            phase = np.multiply.outer(k * _GAIN_X + j, _ELEMENTS)
            np.abs(np.exp(1j * phase).sum(axis=-1))
    for m in range(_FULL_SUBCARRIERS):
        k = 600.0 + m
        rn = np.sqrt(_USER_R**2 + _FULL_ELEMENTS**2 - 2 * _USER_R * _USER_THETA * _FULL_ELEMENTS)
        rows = np.exp(-1j * k * rn)
        columns = [np.exp(1j * k * (_FULL_ELEMENTS * theta - _FULL_ELEMENTS**2 * alpha))
                   for theta, alpha in _PILOTS]
        rows @ np.stack(columns, axis=1)
        phase = np.multiply.outer(k * _GAIN_X[:4], _FULL_ELEMENTS)
        np.abs(np.exp(1j * phase).sum(axis=-1))
    for j in range(_FULL_GAIN_STEPS):
        phase = (np.multiply.outer(_FULL_X + j, _FULL_ELEMENTS)
                 - np.multiply.outer(1e-2 * _FULL_X, _FULL_ELEMENTS**2))
        np.abs(np.exp(1j * phase).sum(axis=-1))
    return time.perf_counter() - start


class Probe:
    """Kernel times of one run; `after(wall)` after every pass."""

    def __init__(self):
        kernel_s()  # warm-up
        self.times = [kernel_s()]

    def after(self, wall: float):
        """Runs the kernel once per started EVERY_S of the pass just ended,
        so that the kernel samples the machine about as often on every
        workload."""
        for _ in range(max(1, math.ceil(wall / EVERY_S))):
            self.times.append(kernel_s())

    def scale(self) -> float:
        """Factor from this run's times to reference machine speed."""
        return REFERENCE_S / statistics.median(self.times)
