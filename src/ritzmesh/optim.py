"""Adam, the one optimizer of both training modes.

Learning-rate schedules are piecewise constant in the epoch: a list of
(start_epoch, lr) pairs; the pair with the largest start_epoch not
exceeding the current epoch wins.
"""

from dataclasses import dataclass, field

import numpy as np


def lr_at(schedule, epoch):
    schedule = sorted(schedule, key=lambda pair: pair[0])
    if not schedule or schedule[0][0] > 0:
        raise ValueError("schedule must start at epoch 0")
    lr = schedule[0][1]
    for start, value in schedule:
        if epoch >= start:
            lr = value
    return lr


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    schedule: list = field(default_factory=lambda: [(0, 1e-3)])

    @classmethod
    def for_params(cls, params, schedule=None, **kwargs):
        arrays = params if isinstance(params, list) else params.arrays()
        state = cls(m=[np.zeros_like(a) for a in arrays],
                    v=[np.zeros_like(a) for a in arrays], **kwargs)
        if schedule is not None:
            state.schedule = list(schedule)
        return state


def adam_step(state: AdamState, params, grads, epoch=0):
    """One bias-corrected Adam update, in place; returns (params, state)."""
    arrays = params if isinstance(params, list) else params.arrays()
    garrays = grads if isinstance(grads, list) else grads.arrays()
    lr = lr_at(state.schedule, epoch)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    for p, g, m, v in zip(arrays, garrays, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / corr1) / (np.sqrt(v / corr2) + state.eps)
    return params, state
