"""Benchmark workloads: the models each one writes to files during set-up,
and the ops it runs against them, each with the outcome it must produce.

One round runs every op of a workload once. Within a command, every
model contributes one op per round, so every model weighs the same in that
command's percentiles however many rounds a run completes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NAMES = ("ladder", "critical", "oracle")
COMMANDS = {
    "ladder": ("classify", "stationary", "decay"),
    "critical": ("classify", "stationary", "decay"),
    "oracle": ("verify", "simulate"),
}

# retrial parameters shared by the critical workload (acceptance test_04)
CRIT_MU = 0.5
CRIT_THETA = 0.3


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the outcome it must produce.

    verdict: the classification the report must carry (None: not checked).
    decay: closed-form decay rate the report must match to 1e-9 (None: no
    closed form known for this model).
    """

    label: str
    command: str
    argv: tuple
    verdict: str | None = None
    decay: float | None = None


def retrial_decay_c1(lam, mu, theta):
    """Decay rate lam (lam + theta) / (mu theta) of the one-server retrial queue."""
    return lam * (lam + theta) / (mu * theta)


def retrial_decay_c2(lam, mu, theta):
    """Decay rate of the two-server retrial queue (acceptance test_02)."""
    return (lam / (theta * mu)) * ((lam + theta) ** 2 + theta * mu) \
        / (3 * lam + 2 * mu + 2 * theta)


def critical_arrival(excess, mu=CRIT_MU, theta=CRIT_THETA):
    """Arrival rate that puts the one-server retrial load r_c at 1 + excess."""
    r_c = 1.0 + excess
    return (-theta + math.sqrt(theta * theta + 4.0 * r_c * mu * theta)) / 2.0


def critical_horizon(excess):
    """Series horizon for a transient point: the boundary-visit terms decay
    like exp(-|r_c - 1| k), so 40/|r_c - 1| terms reach the 1e-14 floor."""
    return max(10_000, math.ceil(40.0 / abs(excess)))


def _retrial(hs, lam, mu, c, theta="0.3", gamma=None):
    gen = hs.build_retrial(lam, mu, c, hs.RetrySchedule.parse(theta))
    return hs.uniformize(gen, gamma=gamma)


def _scalar(hs, p, q):
    tail = hs.BlockTriple(up=np.array([[p]]), down=np.array([[q]]),
                          stay=np.zeros((1, 1)))
    return hs.QbdModel(d=1, r0=np.zeros((1, 1)), p0=np.ones((1, 1)),
                       prefix=(), tail=tail)


def _swap(hs):
    # two phases coupled by the swap matrix: the scalar 0.3/0.7 chain on
    # every excursion, with genuine 2x2 blocks
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    tail = hs.BlockTriple(up=0.3 * m, down=0.7 * m, stay=np.zeros((2, 2)))
    return hs.QbdModel(d=2, r0=np.zeros((2, 2)), p0=m.copy(), prefix=(),
                       tail=tail)


def _random(hs, rng, d, n_prefix=4, radius_cap=0.9):
    """Random irreducible prefix+tail model whose tail drifts down.

    Dirichlet rows keep every entry positive; the down-weighted alphas make
    the radius cap (hence positive recurrence) hold almost always, and the
    loop resamples otherwise.
    """
    alphas = np.concatenate([np.full(d, 3.0), np.full(d, 1.0), np.full(d, 0.7)])

    def triple():
        rows = rng.dirichlet(alphas, size=d)
        return hs.BlockTriple(down=rows[:, :d], stay=rows[:, d:2 * d],
                              up=rows[:, 2 * d:])

    while True:
        boundary = rng.dirichlet(np.full(2 * d, 1.0), size=d)
        model = hs.QbdModel(d=d, r0=boundary[:, :d], p0=boundary[:, d:],
                            prefix=tuple(triple() for _ in range(n_prefix)),
                            tail=triple())
        if hs.branching_data(model).radius_down < radius_cap:
            return model


def _ladder_models(hs, rng):
    """(name, model, closed-form decay or None) for the ladder."""
    return [
        ("scalar", _scalar(hs, 0.3, 0.7), 0.3 / 0.7),
        ("swap", _swap(hs), 0.3 / 0.7),
        ("c1", _retrial(hs, 0.2, 0.5, 1, gamma=1.0), retrial_decay_c1(0.2, 0.5, 0.3)),
        ("c2", _retrial(hs, 0.1, 0.3, 2), retrial_decay_c2(0.1, 0.3, 0.3)),
        ("c8", _retrial(hs, 1.5, 0.3, 8), None),
        ("c16", _retrial(hs, 3.0, 0.3, 16), None),
        ("c32", _retrial(hs, 6.0, 0.3, 32), None),
        # the 0.3+0.3/n schedule stores 512 prefix levels; its tail is the
        # constant-rate c=1 queue, so the limit decay keeps the closed form
        ("prefix512", _retrial(hs, 0.2, 0.5, 1, theta="0.3+0.3/n"),
         retrial_decay_c1(0.2, 0.5, 0.3)),
        ("rand_d2", _random(hs, rng, 2), None),
        ("rand_d4", _random(hs, rng, 4), None),
        ("rand_d8", _random(hs, rng, 8), None),
    ]


def build(name, hs, seed, workdir):
    """Write the workload's model files under ``workdir`` and return
    (ops of one round, one warm-up op per command).

    The seed draws the ladder's random models and the oracle streams; the
    round order is drawn from it by the caller.
    """
    def save(stem, model):
        path = workdir / f"{stem}.json"
        hs.save_model(model, path)
        return str(path)

    def json_op(label, command, path, *extra, verdict=None, decay=None):
        argv = (command, path, "--format", "json") + tuple(extra)
        return Op(label, command, argv, verdict, decay)

    warm = save("warmup", _scalar(hs, 0.3, 0.7))
    warm_args = {"verify": ("--seed", "1", "--cycles", "2000", "--samples", "500"),
                 "simulate": ("--seed", "1", "--cycles", "2000")}
    warmups = [json_op(f"warmup {cmd}", cmd, warm, *warm_args.get(cmd, ()),
                       verdict="positive-recurrent" if cmd in ("classify", "verify") else None,
                       decay=0.3 / 0.7 if cmd in ("stationary", "decay") else None)
               for cmd in COMMANDS[name]]

    ops = []
    if name == "ladder":
        rng = np.random.default_rng(seed)
        for stem, model, decay in _ladder_models(hs, rng):
            path = save(stem, model)
            ops.append(json_op(f"classify {stem}", "classify", path,
                               verdict="positive-recurrent"))
            ops.append(json_op(f"stationary {stem}", "stationary", path, decay=decay))
            ops.append(json_op(f"decay {stem}", "decay", path, decay=decay))
    elif name == "critical":
        for excess in (-5.5e-6, -1e-4, 1e-2, 1e-3):
            lam = critical_arrival(excess)
            path = save(f"crit{excess:+.1e}", _retrial(hs, lam, CRIT_MU, 1))
            extra = ("--horizon", str(critical_horizon(excess))) if excess > 0 else ()
            verdict = "positive-recurrent" if excess < 0 else "transient"
            ops.append(json_op(f"classify rc-1={excess:+.1e}", "classify", path,
                               *extra, verdict=verdict))
        null = save("null", _scalar(hs, 0.5, 0.5))
        ops.append(json_op("classify null", "classify", null, verdict="null-recurrent"))
        lam = critical_arrival(-1e-3)
        path = save("crit-1.0e-03", _retrial(hs, lam, CRIT_MU, 1))
        decay = retrial_decay_c1(lam, CRIT_MU, CRIT_THETA)
        ops.append(json_op("stationary rc-1=-1.0e-03", "stationary", path, decay=decay))
        ops.append(json_op("decay rc-1=-1.0e-03", "decay", path, decay=decay))
    elif name == "oracle":
        stream = ("--seed", str(seed))
        models = [
            ("c1", _retrial(hs, 0.2, 0.5, 1, gamma=1.0), retrial_decay_c1(0.2, 0.5, 0.3)),
            ("c3", _retrial(hs, 0.4, 0.3, 3), None),
            # low load: level-0 walkers wait long for the rare all-busy phase
            ("c4_low", _retrial(hs, 0.3, 0.3, 4), None),
            ("c8_high", _retrial(hs, 1.5, 0.3, 8), None),
        ]
        for stem, model, decay in models:
            path = save(stem, model)
            ops.append(json_op(f"verify {stem}", "verify", path, *stream,
                               verdict="positive-recurrent", decay=decay))
            if stem in ("c1", "c8_high"):
                ops.append(json_op(f"simulate {stem}", "simulate", path, *stream))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops, warmups
