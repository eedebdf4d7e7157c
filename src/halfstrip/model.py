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
import numbers
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


class _Levels:
    """Levels 0..n_prefix + 1 stored once: one (n_prefix + 2, d, d) stack per
    field ``_KINDS`` of the level triple ``_TRIPLE``, level n at index n, the
    tail last. Level 0 is the boundary, its down block zero. ``prefix``,
    ``tail`` and ``block_at`` are views into the stacks."""

    def _set(self, d, levels, **extra):
        for name, value in {"d": d, **dict(zip(self._KINDS, levels)), **extra}.items():
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, d, levels, **extra):
        model = cls.__new__(cls)  # from stacks already (n_prefix + 2, d, d)
        model._set(d, levels, **extra)
        return model

    @classmethod
    def _stacks(cls, d, boundary, prefix, tail):
        """The level stacks of the ``boundary`` blocks (``_CODEC`` order),
        ``prefix`` and ``tail``, shapes checked, boundary blocks first."""
        keys, fields = _CODEC[cls]
        level0 = {key: _as_block(block, d, f"{key}0") for key, block in zip(keys, boundary)}
        kinds = cls._KINDS
        triples = (*prefix, tail)
        for n, trip in enumerate(triples, 1):
            shapes = None if trip is None else tuple(getattr(trip, k).shape for k in kinds)
            if shapes != ((d, d),) * 3:
                where = f"level {n}" if n < len(triples) else "tail"
                raise ModelFormatError(f"{where}: expected {kinds[0]}, {kinds[1]} and "
                                       f"{kinds[2]} blocks of shape ({d}, {d}), got {shapes}")
        zero = np.zeros((d, d))
        return [np.array([level0.get(key, zero), *(getattr(t, k) for t in triples)], dtype=float)
                for key, k in fields]

    @property
    def n_prefix(self):
        return len(self.up) - 2

    def levels(self, start, stop):
        """Stack indices of levels start..stop - 1: level n at index n up to
        the tail's, which every deeper level repeats."""
        return np.minimum(np.arange(start, stop), len(self.up) - 1)

    def block_at(self, n):
        """Blocks of level n >= 1: prefix entry when stored, else the tail."""
        if n < 1:
            raise ValueError("levels with full triples start at 1")
        i = self.levels(n, n + 1)[0]
        return self._TRIPLE(*[getattr(self, k)[i] for k in self._KINDS])

    @property
    def prefix(self):
        return tuple(self.block_at(n) for n in range(1, self.n_prefix + 1))

    @property
    def tail(self):
        return self.block_at(self.n_prefix + 1)


@dataclass(frozen=True, init=False)
class QbdModel(_Levels):
    """Discrete-time half-strip walk: level stacks, level 0 the boundary
    pair (r0, p0) as its (stay, up) blocks."""

    d: int
    up: np.ndarray
    down: np.ndarray
    stay: np.ndarray

    _TRIPLE, _KINDS = BlockTriple, ("up", "down", "stay")

    def __init__(self, d, r0, p0, prefix=(), tail=None):
        self._set(d, self._stacks(d, (r0, p0), prefix, tail))

    r0 = property(lambda self: self.stay[0])
    p0 = property(lambda self: self.up[0])


@dataclass(frozen=True)
class GeneratorTriple:
    """One level's rate blocks: up, local (negative diagonal), down."""

    up: np.ndarray
    local: np.ndarray
    down: np.ndarray

    def __post_init__(self):
        for name in ("up", "local", "down"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass(frozen=True, init=False)
class GeneratorModel(_Levels):
    """Continuous-time half-strip chain stored as rate level stacks, level 0
    the boundary local and up blocks (b0, a0). gamma is a suggested
    uniformization rate (None means use the largest diagonal magnitude).
    """

    d: int
    up: np.ndarray
    local: np.ndarray
    down: np.ndarray
    gamma: float = None

    _TRIPLE, _KINDS = GeneratorTriple, ("up", "local", "down")

    def __init__(self, d, b0, a0, prefix=(), tail=None, gamma=None):
        self._set(d, self._stacks(d, (b0, a0), prefix, tail), gamma=gamma)


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


def _step_rows(model):
    """Every stored level's transitions as one (n_prefix + 2, d, 3d) array.

    Row block n holds level n's blocks [down | stay | up]; level 0 is
    [0 | r0 | p0] and the last block is the tail, which every deeper level
    repeats.
    """
    return np.stack((model.down, model.stay, model.up), axis=2).reshape(
        len(model.up), model.d, 3 * model.d)


def _boundary_communicates(rows):
    """Support-level reachability check: do all layer-0 phases communicate?

    The support graph of ``rows`` (see ``_step_rows``) is the strip
    truncated one level past the stored prefix, with the top level's up
    moves folded into stays, which can only overstate connectivity. The
    layer-0 phases communicate when state (0, 0) reaches each of them and
    each reaches it back. A warning from this check is advisory.
    """
    n_levels, d = rows.shape[:2]
    level, phase, k = np.nonzero(rows > 0)
    src = level * d + phase
    dst = np.minimum(level + k // d - 1, n_levels - 1) * d + k % d

    def reaches_layer0(a, b):
        # every layer-0 state is reached from state 0 along the edges a -> b
        order = np.argsort(a)
        bounds = np.searchsorted(a[order], np.arange(n_levels * d + 1)).tolist()
        targets = b[order].tolist()
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in targets[bounds[u]:bounds[u + 1]]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen.issuperset(range(d))

    return reaches_layer0(src, dst) and reaches_layer0(dst, src)


def _level_name(model, n):
    return "tail" if n > model.n_prefix else f"level {n}"


def _errors(model):
    """(stored level, severity, code, where, detail) of each error of the
    level stacks of ``model``, in ``validate``'s order."""
    # each block's entries contiguous: (level, [down, stay, up], entry)
    blocks = np.stack((model.down, model.stay, model.up), axis=1).reshape(len(model.up), 3, -1)
    finite = np.isfinite(blocks).all(axis=2)
    low, high = blocks.min(axis=2), blocks.max(axis=2)
    # a row holding both +inf and -inf sums to nan; it is reported as not-finite
    with np.errstate(invalid="ignore"):
        dev = np.max(np.abs((model.up + model.down + model.stay).sum(axis=-1) - 1.0), axis=1)
    flagged = (~finite.all(axis=1) | (low < -VALIDATE_ATOL).any(axis=1)
               | (high > 1.0 + 1e-6).any(axis=1) | (dev > VALIDATE_ATOL))
    found = []
    for n in np.flatnonzero(flagged).tolist():
        name = _level_name(model, n)
        blocks = (((2, f"{name}.up"), (0, f"{name}.down"), (1, f"{name}.stay")) if n
                  else ((1, "r0"), (2, "p0")))
        for k, where in blocks:
            if not finite[n, k]:
                found.append((n, "error", "not-finite", where, "non-finite entry"))
                continue
            if low[n, k] < -VALIDATE_ATOL:
                found.append((n, "error", "negative-entry", where, f"min entry {low[n, k]:.3e}"))
            if high[n, k] > 1.0 + 1e-6:
                found.append((n, "error", "entry-above-one", where, f"max entry {high[n, k]:.6f}"))
        if dev[n] > VALIDATE_ATOL:
            found.append((n, "error", "row-sum", name, f"max |row sum - 1| = {dev[n]:.3e}"))
    return found


def _warnings(model, reach):
    """(stored level, severity, code, where, detail) of each warning of the
    level stacks of ``model``, in ``validate``'s order; the boundary
    reachability walk runs only when ``reach`` is set."""
    # (level, [up, down], column), each column summed in the order a one-column sum adds it
    with np.errstate(invalid="ignore"):
        col_sums = np.ascontiguousarray(
            np.stack((model.up[1:], model.down[1:]), axis=1).swapaxes(2, 3)).sum(axis=-1)
    found = []
    for n, k, j in zip(*(a.tolist() for a in np.nonzero(col_sums <= 0.0))):
        part = ("up", "down")[k]
        found.append((n + 1, "warning", f"column-zero-{part}", _level_name(model, n + 1),
                      f"{part} block column {j} is identically zero"))
    if reach and not _boundary_communicates(_step_rows(model)):
        found.append((len(model.up), "warning", "boundary-reducible", "level 0",
                      "layer-0 phases do not all communicate on the support graph"))
    return found


def validation_errors(model):
    """The error entries of ``validate(model)``, in the same order, without
    its warnings or its reachability walk: what decides whether a model is
    valid."""
    return [Violation(*e[1:]) for e in _errors(model)]


def validate(model):
    """Check a discrete model against its structural requirements.

    Errors (invalid model; ``validation_errors`` alone): non-finite or
    negative entries, entries above one, row sums off from 1 by more than
    ``VALIDATE_ATOL``. Block shapes are checked when the model is built.
    Warnings (advisory): an up or down block with an all-zero column (the
    walk can never enter that phase from the neighboring level, which can
    starve the exit recursions), and, on a model without errors, a
    boundary layer whose phases do not all communicate. Each level's
    errors come before its warnings.
    """
    errors = _errors(model)
    found = errors + _warnings(model, reach=not errors)
    # a stable sort by level keeps errors ahead of warnings within a level
    found.sort(key=lambda entry: entry[0])
    return ValidationReport([Violation(*e[1:]) for e in found])


def default_gamma(gen):
    """Largest diagonal rate magnitude over all stored blocks."""
    return float(np.max(np.abs(np.diagonal(gen.local, axis1=1, axis2=2))))


def _check_generator(gen):
    """Raise ModelFormatError for the first level, level 0 first, with a
    non-finite rate (blocks local, up, down in turn), a negative off-diagonal
    rate or a generator row that does not sum to zero, in that order."""
    finite = [np.isfinite(b).all(axis=(1, 2)) for b in (gen.local, gen.up, gen.down)]
    off = np.where(np.eye(gen.d, dtype=bool), 0.0, gen.local)
    with np.errstate(invalid="ignore"):
        low = np.min([b.min(axis=(1, 2)) for b in (off, gen.up, gen.down)], axis=0)
        rows = np.abs((gen.local + gen.up + gen.down).sum(axis=2)).max(axis=1)
    scale = np.maximum(1.0, np.abs(gen.local).max(axis=(1, 2)))
    for n in np.flatnonzero(~np.logical_and.reduce(finite) | (low < -VALIDATE_ATOL)
                            | (rows > VALIDATE_ATOL * scale))[:1].tolist():
        where = _level_name(gen, n)
        for name, ok in zip(("local", "up", "down"), finite):
            if not ok[n]:
                raise ModelFormatError(f"{where}.{name}: non-finite entry")
        if low[n] < -VALIDATE_ATOL:
            raise ModelFormatError(f"{where}: negative off-diagonal rate")
        raise ModelFormatError(f"{where}: generator row sums not zero")


def uniformize(gen, gamma=None):
    """Discrete walk embedded in a rate model: up/gamma, down/gamma, I + local/gamma.

    gamma defaults to the largest diagonal rate magnitude, the smallest
    admissible value. The embedded chain keeps the stationary distribution
    of the continuous chain. Raises GammaTooSmallError when gamma is not
    positive and finite, or when some diagonal of I + local/gamma would be
    negative.
    """
    _check_generator(gen)
    if gamma is None:
        gamma = gen.gamma if gen.gamma is not None else default_gamma(gen)
    gamma = float(gamma)
    if not 0 < gamma < math.inf:  # NaN compares False
        raise GammaTooSmallError(f"gamma must be positive and finite, got {gamma:g}")
    need = default_gamma(gen)
    if gamma < need * (1.0 - 1e-12):
        raise GammaTooSmallError(
            f"gamma {gamma:g} below largest diagonal rate {need:g}")
    return QbdModel._of(gen.d, [gen.up / gamma, gen.down / gamma,
                                np.eye(gen.d) + gen.local / gamma])


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
    rate ``service``; the orbit retries at total rate ``retry.rate(level)``
    (``retry`` a RetrySchedule), succeeding only when a server is free.
    Retry rates must converge to a finite limit, stored as the tail.
    """
    lam = float(arrival)
    mu = float(service)
    c = int(servers)
    if lam <= 0 or mu <= 0 or c < 1:
        raise ValueError("need arrival > 0, service > 0, servers >= 1")
    d = c + 1
    if prefix_levels is None:
        prefix_levels = retry.default_prefix()
    limit = float(retry.limit)
    if not math.isfinite(limit) or limit <= 0:
        raise ValueError("retry rates must have a positive finite limit")
    # retry rate of levels 0..prefix_levels + 1: none at the boundary, the limit in the tail
    theta = np.array([0.0, *(float(retry.rate(n)) for n in range(1, int(prefix_levels) + 1)),
                      limit])
    up, local, down = np.zeros((3, len(theta), d, d))
    up[:, c, c] = lam
    for k in range(c):
        local[:, k, k + 1] = lam
        if k > 0:
            local[:, k, k - 1] = k * mu
        local[:, k, k] = -(lam + k * mu + theta)
        down[:, k, k + 1] = theta
    local[:, c, c - 1] = c * mu
    local[:, c, c] = -(lam + c * mu)
    return GeneratorModel._of(d, [up, local, down])


# File layout of each model flavor: the level keys whose level-0 block is
# stored, under the key with 0 appended (r0, p0), and the (level key,
# stack) pairs of every level.
_CODEC = {
    QbdModel: (("r", "p"), (("p", "up"), ("q", "down"), ("r", "stay"))),
    GeneratorModel: (("b", "a"), (("a", "up"), ("b", "local"), ("c", "down"))),
}


def model_to_dict(model):
    boundary, fields = _CODEC[type(model)]
    levels = [dict(zip([key for key, _ in fields], blocks))
              for blocks in zip(*(getattr(model, name).tolist() for _, name in fields))]
    doc = {f"{key}0": levels[0][key] for key in boundary}
    doc.update(d=model.d, prefix=levels[1:-1], tail=levels[-1])
    if isinstance(model, GeneratorModel):
        doc["type"] = "generator"
        if model.gamma is not None:
            doc["gamma"] = model.gamma
    return doc


def _require(doc, key):
    if key not in doc:
        raise ModelFormatError(f"missing field {key!r}")
    return doc[key]


def _level_stacks(doc, d, boundary, fields):
    """The level stacks of ``doc``, one array expression per (level key, stack)
    pair of ``fields``, level 0 the ``boundary`` blocks and zeros. A document
    that does not stack so is parsed level by level, and its first malformed
    block in file order, the boundary blocks last, raises."""
    prefix = doc.get("prefix", [])
    if not isinstance(prefix, list):
        raise ModelFormatError("field 'prefix' must be a list of level objects")
    try:
        # shaped by a block, not by d: d is not yet checked against the blocks
        zero = np.zeros_like(np.asarray(doc[f"{boundary[0]}0"], dtype=float))
        levels = [{key: doc[f"{key}0"] if key in boundary else zero for key, _ in fields},
                  *prefix, doc["tail"]]
        stacks = [np.array([level[key] for level in levels], dtype=float) for key, _ in fields]
        if all(stack.shape == (len(levels), d, d) for stack in stacks):
            return stacks
    except (KeyError, TypeError, ValueError, OverflowError):
        pass

    def triple(level, where):
        if not isinstance(level, dict):
            raise ModelFormatError(f"{where}: a level must be an object")
        return [_as_block(_require(level, key), d, f"{where}.{key}") for key, _ in fields]

    blocks = [triple(level, "prefix") for level in prefix]
    blocks.append(triple(_require(doc, "tail"), "tail"))
    level0 = {key: _as_block(_require(doc, f"{key}0"), d, f"{key}0") for key in boundary}
    return [np.array([level0.get(key, np.zeros((d, d))), *kind], dtype=float)
            for (key, _), kind in zip(fields, zip(*blocks))]


def _refuse_unknown_fields(doc, flavor):
    """Raise ModelFormatError naming the first field, in sorted order, that a
    ``flavor`` document or its levels (already parsed as objects) do not
    have: a misspelled field would otherwise be ignored, its default read."""
    boundary, fields = _CODEC[flavor]
    rate = flavor is GeneratorModel
    kind = "a rate document" if rate else "a chain document (no 'type')"
    known = {"d", "prefix", "tail", *(f"{key}0" for key in boundary),
             *(("type", "gamma") if rate else ())}
    keys = {key for key, _ in fields}
    used = set().union(*doc.get("prefix", []), doc["tail"])  # by any level
    for where, extra, allowed in (("", set(doc) - known, known), ("level ", used - keys, keys)):
        if extra:
            raise ModelFormatError(f"unknown {where}field {min(extra)!r}: {kind} has the "
                                   f"{where}fields {', '.join(sorted(allowed))}")


def model_from_dict(doc):
    """Build a model from the JSON document shape; see model_to_dict."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    d = _require(doc, "d")
    if isinstance(d, bool) or not (isinstance(d, numbers.Integral)
                                   or isinstance(d, float) and d.is_integer()):
        raise ModelFormatError(f"field 'd' must be an integer, got {d!r}")
    d = int(d)
    if d < 1:
        raise ModelFormatError("field 'd' must be >= 1")
    if doc.get("type", "generator") != "generator":
        raise ModelFormatError(f"field 'type' must be absent or 'generator', got {doc['type']!r}")
    flavor = GeneratorModel if "type" in doc else QbdModel
    levels = _level_stacks(doc, d, *_CODEC[flavor])
    _refuse_unknown_fields(doc, flavor)
    if flavor is QbdModel:
        return QbdModel._of(d, levels)
    gamma = doc.get("gamma")
    if gamma is not None and (isinstance(gamma, bool) or not isinstance(gamma, numbers.Real)):
        raise ModelFormatError(f"field 'gamma' must be a number, got {gamma!r}")
    return GeneratorModel._of(d, levels, gamma=None if gamma is None else float(gamma))


def load_model(source):
    """Read a model from a file path or from an open stream of JSON text."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ModelFormatError(f"cannot read model file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model input is not valid JSON: {exc}") from exc
    return model_from_dict(doc)


def save_model(model, path):
    from .cli import _dump_json  # the one JSON writer; cli imports this module
    with open(path, "w") as fh:
        fh.write(_dump_json(model_to_dict(model)))


def as_chain(model, gamma=None):
    """Discrete model from either flavor; rate models get uniformized."""
    if isinstance(model, GeneratorModel):
        return uniformize(model, gamma=gamma)
    return model
