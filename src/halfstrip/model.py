"""Model types for reflecting random walks on a half strip.

States are (level, phase) with level in {0, 1, 2, ...} and phase in
{0, ..., d-1}. One step moves at most one level. Level 0 carries a
(stay, up) pair (r0, p0); every level n >= 1 carries a triple of d x d
blocks (up, down, stay) whose sum is row-stochastic. Level dependence is a
finite prefix of triples followed by a constant limiting tail.

A continuous-time variant stores rate blocks instead and is turned into
the discrete walk by uniformization.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

VALIDATE_ATOL = 1e-9


class ModelFormatError(ValueError):
    """Model file or dict could not be parsed into a model."""


class GammaTooSmallError(ValueError):
    """Uniformization rate below the largest diagonal rate magnitude."""


def _as_block(value, d, name):
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{name}: not a numeric matrix") from exc
    if a.shape != (d, d):
        raise ModelFormatError(f"{name}: expected shape ({d}, {d}), got {a.shape}")
    return a


@dataclass(frozen=True)
class BlockTriple:
    """One level's transition blocks: up one level, down one level, stay."""

    up: np.ndarray
    down: np.ndarray
    stay: np.ndarray

    def __post_init__(self):
        for name in ("up", "down", "stay"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def d(self):
        return self.up.shape[0]


@dataclass(frozen=True)
class QbdModel:
    """Discrete-time half-strip walk: boundary pair plus prefix and tail triples."""

    d: int
    r0: np.ndarray
    p0: np.ndarray
    prefix: tuple = ()
    tail: BlockTriple = None

    def __post_init__(self):
        object.__setattr__(self, "r0", _as_block(self.r0, self.d, "r0"))
        object.__setattr__(self, "p0", _as_block(self.p0, self.d, "p0"))
        object.__setattr__(self, "prefix", tuple(self.prefix))

    @property
    def n_prefix(self):
        return len(self.prefix)

    def block_at(self, n):
        """Blocks of level n >= 1: prefix entry when stored, else the tail."""
        if n < 1:
            raise ValueError("levels with full triples start at 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.tail


@dataclass(frozen=True)
class CallbackModel:
    """Half-strip walk whose level blocks come from an arbitrary callable.

    No limiting tail is assumed, so only partial-sum diagnostics are
    available downstream; classification of such a model is always
    inconclusive and the stationary/decay machinery rejects it.
    """

    d: int
    r0: np.ndarray
    p0: np.ndarray
    level_fn: object = None

    def __post_init__(self):
        object.__setattr__(self, "r0", _as_block(self.r0, self.d, "r0"))
        object.__setattr__(self, "p0", _as_block(self.p0, self.d, "p0"))

    @property
    def n_prefix(self):
        return 0

    def block_at(self, n):
        if n < 1:
            raise ValueError("levels with full triples start at 1")
        trip = self.level_fn(n)
        if not isinstance(trip, BlockTriple):
            trip = BlockTriple(*trip)
        return trip


@dataclass(frozen=True)
class GeneratorTriple:
    """One level's rate blocks: up, local (negative diagonal), down."""

    up: np.ndarray
    local: np.ndarray
    down: np.ndarray

    def __post_init__(self):
        for name in ("up", "local", "down"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass(frozen=True)
class GeneratorModel:
    """Continuous-time half-strip chain stored as rate blocks.

    b0/a0 are the boundary local and up blocks; gamma is a suggested
    uniformization rate (None means use the largest diagonal magnitude).
    """

    d: int
    b0: np.ndarray
    a0: np.ndarray
    prefix: tuple = ()
    tail: GeneratorTriple = None
    gamma: float = None

    def __post_init__(self):
        object.__setattr__(self, "b0", _as_block(self.b0, self.d, "b0"))
        object.__setattr__(self, "a0", _as_block(self.a0, self.d, "a0"))
        object.__setattr__(self, "prefix", tuple(self.prefix))


@dataclass(frozen=True)
class Violation:
    severity: str  # "error" | "warning"
    code: str
    where: str
    detail: str


@dataclass
class ValidationReport:
    problems: list = field(default_factory=list)

    @property
    def errors(self):
        return [p for p in self.problems if p.severity == "error"]

    @property
    def warnings(self):
        return [p for p in self.problems if p.severity == "warning"]

    @property
    def ok(self):
        """Valid means no errors; warnings are advisory."""
        return not self.errors

    def add(self, severity, code, where, detail):
        self.problems.append(Violation(severity, code, where, detail))


def _check_prob_block(report, mat, where, atol):
    if not np.all(np.isfinite(mat)):
        report.add("error", "not-finite", where, "non-finite entry")
        return
    if float(mat.min()) < -atol:
        report.add("error", "negative-entry", where, f"min entry {float(mat.min()):.3e}")
    if float(mat.max()) > 1.0 + 1e-6:
        report.add("error", "entry-above-one", where, f"max entry {float(mat.max()):.6f}")


def _zero_columns(mat):
    return [j for j in range(mat.shape[1]) if float(mat[:, j].sum()) <= 0.0]


def _boundary_communicates(model, atol):
    """Support-level reachability check: do all layer-0 phases communicate?

    Builds the directed support graph of a strip truncated one level past
    the stored prefix (up moves at the top folded into stays, which can only
    overstate connectivity) and checks mutual reachability of the layer-0
    states. A warning from this check is advisory.
    """
    d = model.d
    top = model.n_prefix + 1
    n_states = (top + 1) * d

    def sid(level, phase):
        return level * d + phase

    adj = [[] for _ in range(n_states)]

    def link(block, lev_from, lev_to):
        rows, cols = np.nonzero(block > atol)
        for i, j in zip(rows, cols):
            adj[sid(lev_from, int(i))].append(sid(lev_to, int(j)))

    link(model.r0, 0, 0)
    link(model.p0, 0, 1)
    for n in range(1, top + 1):
        trip = model.block_at(n)
        link(trip.down, n, n - 1)
        link(trip.stay, n, n)
        if n < top:
            link(trip.up, n, n + 1)
        else:
            link(trip.up, n, n)  # fold the top level's up moves into stays

    def reach(src):
        seen = {src}
        stack = [src]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    reach0 = reach(sid(0, 0))
    if any(sid(0, j) not in reach0 for j in range(d)):
        return False
    # every layer-0 phase must reach phase 0 back
    for j in range(1, d):
        if sid(0, 0) not in reach(sid(0, j)):
            return False
    return True


def validate(model, atol=VALIDATE_ATOL):
    """Check a discrete model against its structural requirements.

    Errors (invalid model): wrong shapes, non-finite or negative entries,
    row sums off from 1 by more than ``atol``.
    Warnings (advisory): an up or down block with an all-zero column (the
    walk can never enter that phase from the neighboring level, which can
    starve the exit recursions), and a boundary layer whose phases do not
    all communicate.
    """
    report = ValidationReport()
    d = model.d
    _check_prob_block(report, model.r0, "r0", atol)
    _check_prob_block(report, model.p0, "p0", atol)
    rs = (model.r0 + model.p0).sum(axis=1)
    if float(np.max(np.abs(rs - 1.0))) > atol:
        report.add("error", "row-sum", "level 0",
                   f"max |row sum - 1| = {float(np.max(np.abs(rs - 1.0))):.3e}")

    named = [(f"level {i + 1}", t) for i, t in enumerate(model.prefix)]
    named.append(("tail", model.tail))
    for where, trip in named:
        if trip is None:
            report.add("error", "shape", where, "missing blocks")
            continue
        for part in ("up", "down", "stay"):
            mat = getattr(trip, part)
            if mat.shape != (d, d):
                report.add("error", "shape", f"{where}.{part}",
                           f"expected ({d}, {d}), got {mat.shape}")
                continue
            _check_prob_block(report, mat, f"{where}.{part}", atol)
        if any(getattr(trip, part).shape != (d, d) for part in ("up", "down", "stay")):
            continue
        rs = (trip.up + trip.down + trip.stay).sum(axis=1)
        if float(np.max(np.abs(rs - 1.0))) > atol:
            report.add("error", "row-sum", where,
                       f"max |row sum - 1| = {float(np.max(np.abs(rs - 1.0))):.3e}")
        for part, code in (("up", "column-zero-up"), ("down", "column-zero-down")):
            for j in _zero_columns(getattr(trip, part)):
                report.add("warning", code, where,
                           f"{part} block column {j} is identically zero")
    if not report.errors and not _boundary_communicates(model, atol=0.0):
        report.add("warning", "boundary-reducible", "level 0",
                   "layer-0 phases do not all communicate on the support graph")
    return report


def default_gamma(gen):
    """Largest diagonal rate magnitude over all stored blocks."""
    mags = [float(np.max(np.abs(np.diag(gen.b0))))]
    for trip in list(gen.prefix) + [gen.tail]:
        mags.append(float(np.max(np.abs(np.diag(trip.local)))))
    return max(mags)


def _check_generator(gen, atol=VALIDATE_ATOL):
    d = gen.d
    def check(local, up, down, where):
        for name, mat in (("local", local), ("up", up), ("down", down)):
            if mat.shape != (d, d):
                raise ModelFormatError(f"{where}.{name}: expected ({d}, {d}), got {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ModelFormatError(f"{where}.{name}: non-finite entry")
        off = local - np.diag(np.diag(local))
        if float(min(off.min(), up.min(), down.min())) < -atol:
            raise ModelFormatError(f"{where}: negative off-diagonal rate")
        rows = (local + up + down).sum(axis=1)
        scale = max(1.0, float(np.max(np.abs(local))))
        if float(np.max(np.abs(rows))) > atol * scale:
            raise ModelFormatError(f"{where}: generator row sums not zero")
    check(gen.b0, gen.a0, np.zeros((d, d)), "level 0")
    for i, trip in enumerate(gen.prefix):
        check(trip.local, trip.up, trip.down, f"level {i + 1}")
    check(gen.tail.local, gen.tail.up, gen.tail.down, "tail")


def uniformize(gen, gamma=None):
    """Discrete walk embedded in a rate model: up/gamma, down/gamma, I + local/gamma.

    gamma defaults to the largest diagonal rate magnitude, the smallest
    admissible value. The embedded chain keeps the stationary distribution
    of the continuous chain. Raises GammaTooSmallError when some diagonal of
    I + local/gamma would be negative.
    """
    _check_generator(gen)
    if gamma is None:
        gamma = gen.gamma if gen.gamma is not None else default_gamma(gen)
    gamma = float(gamma)
    if gamma <= 0:
        raise GammaTooSmallError("gamma must be positive")
    need = default_gamma(gen)
    if gamma < need * (1.0 - 1e-12):
        raise GammaTooSmallError(
            f"gamma {gamma:g} below largest diagonal rate {need:g}")
    d = gen.d
    eye = np.eye(d)
    r0 = eye + gen.b0 / gamma
    p0 = gen.a0 / gamma
    prefix = tuple(
        BlockTriple(up=t.up / gamma, down=t.down / gamma, stay=eye + t.local / gamma)
        for t in gen.prefix
    )
    tail = BlockTriple(up=gen.tail.up / gamma, down=gen.tail.down / gamma,
                       stay=eye + gen.tail.local / gamma)
    return QbdModel(d=d, r0=r0, p0=p0, prefix=prefix, tail=tail)


_AFFINE_RE = re.compile(
    r"^\s*([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*\+\s*"
    r"([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*/\s*n\s*$"
)


@dataclass(frozen=True)
class RetrySchedule:
    """Per-level orbit retry rate with a finite limiting value.

    Three forms: a constant, the rational-decay family ``a + b/n``, or an
    explicit per-level table (the last entry repeats as the limit).
    """

    kind: str  # "constant" | "affine" | "table"
    base: float = 0.0
    slope: float = 0.0
    values: tuple = ()

    @classmethod
    def constant(cls, value):
        return cls(kind="constant", base=float(value))

    @classmethod
    def affine(cls, base, slope):
        return cls(kind="affine", base=float(base), slope=float(slope))

    @classmethod
    def table(cls, values):
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("table needs at least one value")
        return cls(kind="table", values=vals)

    @classmethod
    def parse(cls, text):
        """Parse the flag grammar: float | 'a+b/n' | path to a JSON table."""
        try:
            return cls.constant(float(text))
        except ValueError:
            pass
        m = _AFFINE_RE.match(text)
        if m:
            return cls.affine(float(m.group(1)), float(m.group(2)))
        try:
            with open(text) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ModelFormatError(
                f"retry spec {text!r} is neither a number, a+b/n, nor a readable file"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"retry table {text!r}: invalid JSON") from exc
        if isinstance(payload, dict):
            values = payload.get("values")
            if values is None:
                raise ModelFormatError("retry table object needs a 'values' list")
            vals = list(values)
            if "limit" in payload:
                vals.append(payload["limit"])
            return cls.table(vals)
        if isinstance(payload, list):
            return cls.table(payload)
        raise ModelFormatError("retry table must be a JSON list or object")

    @property
    def limit(self):
        if self.kind == "table":
            return self.values[-1]
        return self.base

    def rate(self, level):
        if level < 1:
            raise ValueError("retry rates are defined for levels >= 1")
        if self.kind == "constant":
            return self.base
        if self.kind == "affine":
            return self.base + self.slope / level
        if level <= len(self.values):
            return self.values[level - 1]
        return self.values[-1]

    def default_prefix(self):
        """How many explicit levels to store before the limit takes over."""
        if self.kind == "constant":
            return 0
        if self.kind == "table":
            return len(self.values)
        return 512


def build_retrial(arrival, service, servers, retry, prefix_levels=None):
    """Rate model of a multiserver queue with an orbit of retrying customers.

    Level = orbit size, phase = number of busy servers (0..servers).
    Per level: arrivals at rate ``arrival`` occupy a free server or (all
    busy) push the arrival into the orbit; each busy server completes at
    rate ``service``; the orbit retries at total rate ``retry(level)``,
    succeeding only when a server is free. Retry rates must converge to a
    finite limit, stored as the tail.
    """
    lam = float(arrival)
    mu = float(service)
    c = int(servers)
    if lam <= 0 or mu <= 0 or c < 1:
        raise ValueError("need arrival > 0, service > 0, servers >= 1")
    if not isinstance(retry, RetrySchedule):
        if isinstance(retry, (list, tuple)):
            retry = RetrySchedule.table(retry)
        else:
            retry = RetrySchedule.constant(retry)
    d = c + 1

    def blocks(theta):
        up = np.zeros((d, d))
        up[c, c] = lam
        down = np.zeros((d, d))
        local = np.zeros((d, d))
        for k in range(c):
            local[k, k + 1] = lam
            if k > 0:
                local[k, k - 1] = k * mu
            local[k, k] = -(lam + k * mu + theta)
            down[k, k + 1] = theta
        local[c, c - 1] = c * mu
        local[c, c] = -(lam + c * mu)
        return GeneratorTriple(up=up, local=local, down=down)

    boundary = blocks(0.0)
    if prefix_levels is None:
        prefix_levels = retry.default_prefix()
    prefix_levels = int(prefix_levels)
    limit = float(retry.limit)
    if not math.isfinite(limit) or limit <= 0:
        raise ValueError("retry rates must have a positive finite limit")
    prefix = tuple(blocks(float(retry.rate(n))) for n in range(1, prefix_levels + 1))
    tail = blocks(limit)
    return GeneratorModel(d=d, b0=boundary.local, a0=boundary.up,
                          prefix=prefix, tail=tail, gamma=None)


def model_to_dict(model):
    if isinstance(model, GeneratorModel):
        doc = {
            "type": "generator",
            "d": model.d,
            "b0": model.b0.tolist(),
            "a0": model.a0.tolist(),
            "prefix": [
                {"a": t.up.tolist(), "b": t.local.tolist(), "c": t.down.tolist()}
                for t in model.prefix
            ],
            "tail": {
                "a": model.tail.up.tolist(),
                "b": model.tail.local.tolist(),
                "c": model.tail.down.tolist(),
            },
        }
        if model.gamma is not None:
            doc["gamma"] = model.gamma
        return doc
    return {
        "d": model.d,
        "r0": model.r0.tolist(),
        "p0": model.p0.tolist(),
        "prefix": [
            {"p": t.up.tolist(), "q": t.down.tolist(), "r": t.stay.tolist()}
            for t in model.prefix
        ],
        "tail": {
            "p": model.tail.up.tolist(),
            "q": model.tail.down.tolist(),
            "r": model.tail.stay.tolist(),
        },
    }


def _require(doc, key):
    if key not in doc:
        raise ModelFormatError(f"missing field {key!r}")
    return doc[key]


def model_from_dict(doc):
    """Build a model from the JSON document shape; see model_to_dict."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    try:
        d = int(_require(doc, "d"))
    except (TypeError, ValueError) as exc:
        raise ModelFormatError("field 'd' must be an integer") from exc
    if d < 1:
        raise ModelFormatError("field 'd' must be >= 1")
    if doc.get("type") == "generator":
        prefix = tuple(
            GeneratorTriple(
                up=_as_block(_require(t, "a"), d, "prefix.a"),
                local=_as_block(_require(t, "b"), d, "prefix.b"),
                down=_as_block(_require(t, "c"), d, "prefix.c"),
            )
            for t in doc.get("prefix", [])
        )
        tail_doc = _require(doc, "tail")
        tail = GeneratorTriple(
            up=_as_block(_require(tail_doc, "a"), d, "tail.a"),
            local=_as_block(_require(tail_doc, "b"), d, "tail.b"),
            down=_as_block(_require(tail_doc, "c"), d, "tail.c"),
        )
        gamma = doc.get("gamma")
        return GeneratorModel(
            d=d,
            b0=_as_block(_require(doc, "b0"), d, "b0"),
            a0=_as_block(_require(doc, "a0"), d, "a0"),
            prefix=prefix,
            tail=tail,
            gamma=None if gamma is None else float(gamma),
        )
    prefix = tuple(
        BlockTriple(
            up=_as_block(_require(t, "p"), d, "prefix.p"),
            down=_as_block(_require(t, "q"), d, "prefix.q"),
            stay=_as_block(_require(t, "r"), d, "prefix.r"),
        )
        for t in doc.get("prefix", [])
    )
    tail_doc = _require(doc, "tail")
    tail = BlockTriple(
        up=_as_block(_require(tail_doc, "p"), d, "tail.p"),
        down=_as_block(_require(tail_doc, "q"), d, "tail.q"),
        stay=_as_block(_require(tail_doc, "r"), d, "tail.r"),
    )
    return QbdModel(
        d=d,
        r0=_as_block(_require(doc, "r0"), d, "r0"),
        p0=_as_block(_require(doc, "p0"), d, "p0"),
        prefix=prefix,
        tail=tail,
    )


def load_model(source):
    """Read a model from a path, an open stream, or a JSON string."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise ModelFormatError(f"cannot read model file {source!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    return model_from_dict(doc)


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def as_chain(model, gamma=None):
    """Discrete model from either flavor; rate models get uniformized."""
    if isinstance(model, GeneratorModel):
        return uniformize(model, gamma=gamma)
    return model
