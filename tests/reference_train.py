"""Adam one parameter at a time, as ``train.adam_step`` ran it before its
flat arenas: the oracle the arena update must match byte for byte.

Each parameter's update is the textbook expressions on whole arrays
(``adam_update``), over its live rows while some of its rows never had a
nonzero gradient, with moments stored up to the last live row.
"""

from dataclasses import dataclass, field

import numpy as np

from ttq.quant import MIN_SCALE


def adam_update(p, g, m, v, t: int, lr: float, config):
    """The Adam arithmetic on matching arrays: the new (p, m, v)."""
    b1, b2 = config.beta1, config.beta2
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * (g * g)
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    # an ndarray even for a 0-d p, whose arithmetic gives numpy scalars
    return np.asarray(p - lr * m_hat / (np.sqrt(v_hat) + config.eps), dtype=p.dtype), m, v


def stored(moment: np.ndarray, rows: int) -> np.ndarray:
    """``moment`` grown with +0.0 rows to at least ``rows`` leading rows."""
    if len(moment) >= rows:
        return moment
    grown = np.zeros((rows,) + moment.shape[1:])
    grown[:len(moment)] = moment
    return grown


@dataclass
class PerParameterAdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    live: dict = field(default_factory=dict)
    owners: dict = field(default_factory=dict)  # id -> the Parameter it keys


def per_parameter_adam_step(params, grads, state, config, scale_params=frozenset()):
    """One Adam step over ``params``, one ``adam_update`` per parameter.  The
    entries of a parameter no longer passed are dropped, and those passed are
    held, so a new parameter never takes an old one's id and moments."""
    owners = {id(p): p for p in params}
    for key in state.owners.keys() - owners.keys():
        for entries in (state.m, state.v, state.live):
            entries.pop(key, None)
    state.owners = owners
    state.step += 1
    t = state.step
    for p in params:
        g = grads.get(id(p))
        if g is None:
            continue
        key = id(p)
        if key not in state.m:
            shape = (0,) + p.data.shape[1:] if p.data.ndim else ()
            state.m[key], state.v[key] = np.zeros(shape), np.zeros(shape)
            if p.data.ndim:
                state.live[key] = np.zeros(len(p.data), dtype=bool)
        lr = config.effective_scale_lr if key in scale_params else config.learning_rate
        rows = None
        if key in state.live:
            state.live[key] |= g.any(axis=tuple(range(1, g.ndim)))
            if state.live[key].all():
                del state.live[key]
            else:
                rows = np.flatnonzero(state.live[key])
        if p.data.ndim:
            n = len(p.data) if rows is None else (int(rows[-1]) + 1 if rows.size else 0)
            state.m[key], state.v[key] = stored(state.m[key], n), stored(state.v[key], n)
        m, v = state.m[key], state.v[key]
        if rows is None:
            p.data, state.m[key], state.v[key] = adam_update(p.data, g, m, v, t, lr, config)
        else:
            data = p.data.copy()
            data[rows], m[rows], v[rows] = adam_update(data[rows], g[rows], m[rows], v[rows],
                                                       t, lr, config)
            p.data = data
        if key in scale_params:
            np.maximum(p.data, MIN_SCALE, out=p.data)
