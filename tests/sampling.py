"""Sample points shared by the barrier tests."""
import numpy as np


def layer_points(dom, ell, n):
    """``(n, dim)`` points with wall distance spread over [0, 0.95 ell]: on
    the interval alternately from each wall, on the disk one per angle
    2 pi k / n."""
    d = np.linspace(0.0, 0.95, n) * ell
    if dom.kind == "interval":
        return np.where(np.arange(n) % 2 == 0, dom.a + d, dom.c - d)[:, None]
    angles = 2.0 * np.pi * np.arange(n) / n
    return (dom.radius - d)[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
