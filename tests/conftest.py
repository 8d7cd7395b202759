"""Shorthands and checks the tests share and the program does not need.

Import them as ``from tests.conftest import ...``, like the other
cross-module test helpers.
"""

import numpy as np

from bemopt import autodiff as ad
from bemopt.autodiff import Tensor
from bemopt.schema import (
    DAYS_PER_WEEK,
    OUTPUT_CHANNELS,
    T_INT_INDEX,
    WEEKDAYS,
    BmsSchedule,
    OccupancySchedule,
)


def constant_bms(**daily_values: float) -> BmsSchedule:
    """Same value every day; keyword per variable name."""
    return BmsSchedule(**{k: (float(v),) * DAYS_PER_WEEK for k, v in daily_values.items()})


def constant_occ(start: float, end: float) -> OccupancySchedule:
    """Same occupation window every weekday."""
    return OccupancySchedule((float(start),) * WEEKDAYS, (float(end),) * WEEKDAYS)


def channel(out, name: str):
    """One named output channel of a simulated week (`SimOutput`)."""
    return out.data[:, OUTPUT_CHANNELS.index(name)]


def t_int(out):
    """The indoor temperature channel of a simulated week (`SimOutput`)."""
    return out.data[:, T_INT_INDEX]


def parameter(data) -> Tensor:
    """A float64 leaf that collects a gradient (copies its input): the
    leaves of the float64 gradient checks."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def item(t: Tensor) -> float:
    """The value of a one-element Tensor as a float."""
    if t.data.size != 1:
        raise ValueError(f"item() needs a scalar, got shape {t.data.shape}")
    return float(t.data.reshape(()))


def softmax(x, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, optionally with an additive mask, as an
    autodiff op: the dense reference `windowed_attention` is checked
    against.

    The mask is a plain array (no gradient) broadcast onto the scores;
    banned positions carry a large negative value rather than -inf so the
    arithmetic stays finite even for all-banned rows.
    """
    x = ad._coerce(x)
    z = x.data + mask if mask is not None else x.data
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def grad_x(g):
        return y * (g - np.sum(g * y, axis=-1, keepdims=True))

    return ad._result(y, (x,), (grad_x,))


def grad_check(f, params, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    f is a zero-argument callable rebuilding the scalar graph from params.
    Parameters with requires_grad off are excluded.  The metric per element
    is |a - n| / max(1e-8, |a| + |n|).
    """
    if isinstance(params, Tensor):
        params = [params]
    checked = [p for p in params if p.requires_grad]
    root = f()
    if not np.isfinite(root.data).all():
        raise ValueError("grad_check: objective is not finite")
    for p in checked:
        p.grad = None
    root.backward()
    worst = 0.0
    for p in checked:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        for idx in np.ndindex(p.data.shape):
            keep = p.data[idx]
            p.data[idx] = keep + eps
            up = item(f())
            p.data[idx] = keep - eps
            dn = item(f())
            p.data[idx] = keep
            if not (np.isfinite(up) and np.isfinite(dn)):
                raise ValueError("grad_check: objective is not finite")
            numeric = (up - dn) / (2.0 * eps)
            a = analytic[idx]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
