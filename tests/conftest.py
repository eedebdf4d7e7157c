"""Shared fixtures: small hand-checkable chains plus a seeded random model factory."""

import numpy as np
import pytest

import halfstrip as hs


_ACCEPTANCE_LINES = []


def record_acceptance(line):
    """Collect a one-line acceptance result for the terminal summary."""
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def scalar_chain(p, q, r=0.0, r0=0.0):
    """d=1 half-strip walk: up p, down q, stay r in the tail; boundary stays
    with probability r0 and moves up otherwise."""
    tail = hs.BlockTriple(
        up=np.array([[p]]), down=np.array([[q]]), stay=np.array([[r]])
    )
    return hs.QbdModel(
        d=1,
        r0=np.array([[r0]]),
        p0=np.array([[1.0 - r0]]),
        prefix=(),
        tail=tail,
    )


@pytest.fixture(scope="session")
def d1_pos():
    # drift down: up 0.3, down 0.7
    return scalar_chain(0.3, 0.7)


@pytest.fixture(scope="session")
def d1_transient():
    return scalar_chain(0.7, 0.3)


@pytest.fixture(scope="session")
def d1_null():
    return scalar_chain(0.5, 0.5)


@pytest.fixture(scope="session")
def perm_chain():
    # two phases coupled by the swap matrix; behaves like the scalar chain
    # on each excursion but exercises genuine matrix structure
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    tail = hs.BlockTriple(up=0.3 * m, down=0.7 * m, stay=np.zeros((2, 2)))
    return hs.QbdModel(
        d=2,
        r0=np.zeros((2, 2)),
        p0=m.copy(),
        prefix=(),
        tail=tail,
    )


def reducible_tail_models():
    """Two d=2 walks whose tail phase chain is the identity, so it has no
    unique stationary vector and no drift sign: up 0.3 / down 0.7 in both
    phases, and up 0.5 / down 0.5 in phase 0 with up 0.3 / down 0.7 in
    phase 1. Both are inconclusive."""
    return [hs.QbdModel(d=2, r0=np.zeros((2, 2)), p0=np.eye(2),
                        tail=hs.BlockTriple(up=np.diag(up), down=np.diag(down),
                                            stay=np.zeros((2, 2))))
            for up, down in [([0.3, 0.3], [0.7, 0.7]), ([0.5, 0.3], [0.5, 0.7])]]


def null_behind_prefix_model():
    """Forty drift-down prefix levels (up 0.3 / down 0.7) over the symmetric
    tail (up 0.5 / down 0.5): the tail's exact drift is 0, so the walk is
    null recurrent."""
    one = np.array([[0.0]])
    down = hs.BlockTriple(up=np.array([[0.3]]), down=np.array([[0.7]]), stay=one)
    crit = hs.BlockTriple(up=np.array([[0.5]]), down=np.array([[0.5]]), stay=one)
    return hs.QbdModel(d=1, r0=one, p0=np.array([[1.0]]), prefix=(down,) * 40, tail=crit)


def walled_prefix_models():
    """Walks that cannot reach their tail: one prefix level with a zero up
    block (down 1) over a drift-up tail (up 0.7 / down 0.3), a drift-0 tail
    (up 0.5 / down 0.5), and, at d = 2, the identity tail phase chain with
    no drift sign. Each stays on layers 0 and 1, so it is positive
    recurrent with return time 2 from every phase."""
    models = []
    for d, up, down in [(1, [0.7], [0.3]), (1, [0.5], [0.5]), (2, [0.5, 0.3], [0.5, 0.7])]:
        zero, eye = np.zeros((d, d)), np.eye(d)
        wall = hs.BlockTriple(up=zero, down=eye, stay=zero)
        tail = hs.BlockTriple(up=np.diag(up), down=np.diag(down), stay=zero)
        models.append(hs.QbdModel(d=d, r0=zero, p0=eye, prefix=(wall,), tail=tail))
    return models


def absorbing_boundary_model():
    """A d = 2 walk whose layer-0 phase 0 never leaves (r0 = diag(1, 0.5)),
    while phase 1 rises to either phase (p0 row 0.25, 0.25) over the tail
    up 0.15 J / down 0.35 J, J the all-ones matrix. It validates with only
    the ``boundary-reducible`` warning and is positive recurrent, but
    (I - R0)^{-1} does not exist, so neither does the boundary's upward
    exit."""
    ones = np.ones((2, 2))
    return hs.QbdModel(d=2, r0=np.diag([1.0, 0.5]), p0=np.array([[0.0, 0.0], [0.25, 0.25]]),
                       tail=hs.BlockTriple(up=0.15 * ones, down=0.35 * ones,
                                           stay=np.zeros((2, 2))))


def underflow_prefix_models():
    """Walks whose expected entries underflow inside the prefix while the
    tail stays in reach: 170 and 400 prefix levels (d = 1, up 0.01 / down
    0.99) over a tail drifting up (up 0.7 / down 0.3). The float product
    1 P0 A_1 ... A_{n-1} is exactly 0 from level 164 on, but its support
    never empties, so each walk is transient."""
    one = np.array([[0.0]])
    level = hs.BlockTriple(up=np.array([[0.01]]), down=np.array([[0.99]]), stay=one)
    tail = hs.BlockTriple(up=np.array([[0.7]]), down=np.array([[0.3]]), stay=one)
    return [hs.QbdModel(d=1, r0=one, p0=np.array([[1.0]]), prefix=(level,) * n, tail=tail)
            for n in (170, 400)]


def stacked_pass_models():
    """The 512-level prefix, c=32 retrial with 20 prefix levels copied from
    its tail (whose tail root cycles), and random prefix models up to
    d = 33, seeded."""
    rng = np.random.default_rng(20)
    c32 = retrial_model(6.0, 0.3, 32)
    models = [retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n"),
              hs.QbdModel(d=c32.d, r0=c32.r0, p0=c32.p0, prefix=(c32.tail,) * 20, tail=c32.tail)]
    return models + [random_pos_recurrent_model(rng, d, n_prefix=n)[0]
                     for d, n in [(1, 9), (2, 30), (3, 5), (5, 12), (9, 4), (17, 7), (33, 6)]]


def refused_level_models():
    """(name, model, error) triples. Each model is a d = 2 walk with three
    prefix levels over the 0.3/0.7 diagonal tail. One prefix level is near
    absorbing: phase 0 stays with probability 1 - 2e-13, and the condition
    check refuses its passage factor (1-norm condition 7.0e12). In two
    models another level absorbs every phase, and LAPACK finds its matrix
    singular. ``error`` is what branching_data raises: the error of
    whichever of those levels its backward pass, from the tail down,
    reaches first."""
    zero = np.zeros((2, 2))
    drift_down = hs.BlockTriple(up=0.3 * np.eye(2), down=0.7 * np.eye(2), stay=zero)
    near = hs.BlockTriple(up=np.diag([1e-13, 0.3]), down=np.diag([1e-13, 0.7]),
                          stay=np.diag([1 - 2e-13, 0.0]))
    stuck = hs.BlockTriple(up=zero, down=zero, stay=np.eye(2))
    refused = "1-norm condition number 7.006e+12 above 1e+12"
    return [(name, hs.QbdModel(d=2, r0=zero, p0=np.eye(2), prefix=prefix, tail=drift_down), error)
            for name, prefix, error in [
                ("refused", (drift_down, near, drift_down), refused),
                ("refused-before-singular", (stuck, drift_down, near), refused),
                ("singular-before-refused", (near, drift_down, stuck), "LAPACK: Singular matrix")]]


def layout_models():
    """The refused-level models with their prefixes in both orders, the
    walled-prefix models, the absorbing-boundary model and the stacked-pass
    models: the models the level stacks are checked on against the forms
    they had before level 0 joined them."""
    refused = [model for _, model, _ in refused_level_models()]
    reversed_prefix = [hs.QbdModel(d=m.d, r0=m.r0, p0=m.p0, prefix=m.prefix[::-1], tail=m.tail)
                       for m in refused]
    return (refused + reversed_prefix + walled_prefix_models() + [absorbing_boundary_model()]
            + stacked_pass_models())


def retrial_model(arrival, service, servers, theta="0.3", gamma=None):
    gen = hs.build_retrial(arrival, service, servers, hs.RetrySchedule.parse(theta))
    return hs.uniformize(gen, gamma=gamma)


@pytest.fixture(scope="session")
def retrial_c1():
    # frozen-value tests rely on gamma=1 exactly
    return retrial_model(0.2, 0.5, 1, gamma=1.0)


@pytest.fixture(scope="session")
def retrial_c2():
    return retrial_model(0.1, 0.3, 2, theta="0.3")


def random_pos_recurrent_model(rng, d, n_prefix=2, radius_cap=0.9):
    """Random irreducible prefix+tail model with the tail drifting down.

    Dirichlet rows keep every entry strictly positive, so validation passes
    with no reducibility warnings. Resamples until the descending offspring
    radius clears radius_cap; the down-weighted alphas make that immediate
    almost always.
    """
    alphas = np.concatenate(
        [np.full(d, 3.0), np.full(d, 1.0), np.full(d, 0.7)]
    )
    while True:
        def triple():
            rows = rng.dirichlet(alphas, size=d)
            return hs.BlockTriple(
                down=rows[:, :d], stay=rows[:, d : 2 * d], up=rows[:, 2 * d :]
            )

        boundary = rng.dirichlet(np.full(2 * d, 1.0), size=d)
        model = hs.QbdModel(
            d=d,
            r0=boundary[:, :d],
            p0=boundary[:, d:],
            prefix=tuple(triple() for _ in range(n_prefix)),
            tail=triple(),
        )
        data = hs.branching_data(model)
        if data.radius_down < radius_cap:
            return model, data


# a valid model whose downward tail offspring matrix is nilpotent (Perron root 0)
NILPOTENT_TAIL = {"d": 2, "r0": [[0.5, 0], [0.5, 0]], "p0": [[0.5, 0], [0, 0.5]],
                  "prefix": [], "tail": {"p": [[0, 0.3], [0, 0]], "q": [[0.7, 0], [0, 0.5]],
                                         "r": [[0, 0], [0, 0.5]]}}
