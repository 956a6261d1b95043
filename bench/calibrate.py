"""Host-speed calibration: a fixed kernel timed next to every measured interval.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x within seconds, as neighbours come and go.  That drift moves the
program's wall and CPU time and a fixed kernel's time alike, so the
benchmark times :meth:`Calibrator.sample` right before and right after each
measured interval and reports the interval rescaled to the host speed at
which the kernel takes :data:`REFERENCE_S`::

    normalised = measured * REFERENCE_S / mean(kernel before, kernel after)

The kernel uses nothing from ``unlearn_lab``, so a change to the program
moves the normalised time exactly as it moves the measured one at a fixed
host speed.  It is a softmax gradient loop on small arrays: like both the
linear and the classifier layers, its time is numpy call overhead plus
small dense products.  Of the kernels tried (a pure-Python loop, small
SVDs, this loop), it tracked the program's drift most closely on every
workload.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the 2-vCPU host the bounds were set on; normalised
# times are seconds at that host's typical speed.
REFERENCE_S = 0.010

_STEPS = 250


class Calibrator:
    """Fixed inputs, built once, and a method that times the kernel on them."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.weights = rng.standard_normal((5, 20)) * 0.1
        self.features = rng.standard_normal((20, 500))
        self.onehot = np.eye(5)[:, rng.integers(0, 5, size=500)]
        self.sample()  # the first call pays numpy's lazy set-up

    def sample(self) -> float:
        """Seconds the kernel takes now."""
        start = time.perf_counter()
        w = self.weights.copy()
        for _ in range(_STEPS):
            logits = w @ self.features
            logits -= logits.max(axis=0, keepdims=True)
            probs = np.exp(logits)
            probs /= probs.sum(axis=0, keepdims=True)
            w -= 0.01 * ((probs - self.onehot) @ self.features.T)
        return time.perf_counter() - start
