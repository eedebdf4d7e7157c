import json
import math
import warnings

import numpy as np
import pytest

import halfstrip as hs
from halfstrip import GammaTooSmallError, ModelFormatError
from halfstrip.cli import main

from conftest import layout_models, retrial_model, scalar_chain


def test_retrial_uniformized_blocks_gamma_one():
    """Frozen transition blocks of the single-server retrial model at rate
    scale 1: arrival 0.2, service 0.5, retry 0.3."""
    m = retrial_model(0.2, 0.5, 1, gamma=1.0)
    assert m.d == 2
    assert m.n_prefix == 0
    assert np.allclose(m.tail.up, [[0.0, 0.0], [0.0, 0.2]], atol=1e-14)
    assert np.allclose(m.tail.down, [[0.0, 0.3], [0.0, 0.0]], atol=1e-14)
    assert np.allclose(m.tail.stay, [[0.5, 0.2], [0.5, 0.3]], atol=1e-14)
    assert np.allclose(m.r0, [[0.8, 0.2], [0.5, 0.3]], atol=1e-14)
    assert np.allclose(m.p0, [[0.0, 0.0], [0.0, 0.2]], atol=1e-14)


def test_retrial_rows_sum_to_one():
    m = retrial_model(0.1, 0.3, 2)
    full = m.tail.up + m.tail.down + m.tail.stay
    assert np.allclose(full.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose((m.r0 + m.p0).sum(axis=1), 1.0, atol=1e-12)


def test_gamma_too_small_rejected():
    gen = hs.build_retrial(0.2, 0.5, 1, hs.RetrySchedule.parse("0.3"))
    with pytest.raises(GammaTooSmallError):
        hs.uniformize(gen, gamma=0.1)


def test_default_gamma_covers_all_levels():
    gen = hs.build_retrial(0.2, 0.5, 1, hs.RetrySchedule.parse("0.3+0.3/n"))
    gamma = hs.default_gamma(gen)
    m = hs.uniformize(gen)  # must not raise
    assert gamma > 0
    assert np.all(m.tail.stay.diagonal() >= -1e-12)


def test_validate_accepts_warnings_on_retrial(retrial_c1):
    rep = hs.validate(retrial_c1)
    assert rep.ok
    # structurally zero columns in up/down are advisory only
    assert all(p.severity == "warning" for p in rep.problems)


def test_validate_flags_bad_row_sum():
    m = scalar_chain(0.3, 0.7)
    bad = hs.QbdModel(
        d=1,
        r0=m.r0,
        p0=np.array([[0.8]]),  # boundary row sums to 0.8
        prefix=(),
        tail=m.tail,
    )
    rep = hs.validate(bad)
    assert not rep.ok
    assert any(p.severity == "error" for p in rep.problems)


def test_validate_opposite_infinities_in_one_row_warn_nothing():
    """A row holding +inf and -inf sums to nan; validate reports the blocks
    as not finite without a numpy warning."""
    tail = hs.BlockTriple(up=np.array([[np.inf]]), down=np.array([[-np.inf]]),
                          stay=np.array([[0.0]]))
    m = hs.QbdModel(d=1, r0=np.array([[0.0]]), p0=np.array([[1.0]]), prefix=(), tail=tail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = hs.validate(m)
    codes = [(p.code, p.where) for p in rep.problems if p.severity == "error"]
    assert codes == [("not-finite", "tail.up"), ("not-finite", "tail.down")]


def test_validate_flags_negative_entry():
    tail = hs.BlockTriple(
        up=np.array([[0.5]]), down=np.array([[0.6]]), stay=np.array([[-0.1]])
    )
    bad = hs.QbdModel(
        d=1, r0=np.array([[0.0]]), p0=np.array([[1.0]]), prefix=(), tail=tail
    )
    assert not hs.validate(bad).ok


def _triple(up, down, stay):
    return hs.BlockTriple(up=np.array(up, dtype=float),
                          down=np.array(down, dtype=float),
                          stay=np.array(stay, dtype=float))


_GOOD_TAIL = _triple(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))


@pytest.mark.parametrize("r0, p0, prefix, tail", [
    (np.zeros((1, 1)), np.ones((1, 1)), (), _GOOD_TAIL),
    (np.zeros((2, 2)), np.eye(2),
     (_triple(np.zeros((2, 3)), np.zeros((2, 2)), np.eye(2)),), _GOOD_TAIL),
    (np.zeros((2, 2)), np.eye(2), (),
     _triple(np.zeros((2, 2)), np.zeros((1, 1)), np.eye(2))),
    (np.zeros((2, 2)), np.eye(2), (), None),
], ids=["boundary", "prefix-triple", "tail-block", "missing-tail"])
def test_shape_mismatch_rejected_at_construction(r0, p0, prefix, tail):
    with pytest.raises(ModelFormatError):
        hs.QbdModel(d=2, r0=r0, p0=p0, prefix=prefix, tail=tail)


_NAN, _INF = float("nan"), float("inf")
_REDUCIBLE = ("warning", "boundary-reducible", "level 0",
              "layer-0 phases do not all communicate on the support graph")


# (model, problems) pairs: problems, their order and their detail text,
# recorded on hand-built defective models
_PINNED = [
    (hs.QbdModel(
        d=2, r0=[[0.5, 0.2], [0.5, 0.5]], p0=[[-0.1, 0.3], [0.0, 0.0]],
        prefix=(_triple([[1.5, 0.0], [0.0, 0.0]], np.zeros((2, 2)),
                        [[0.0, 0.5], [0.5, 0.5]]),
                _triple([[_INF, 0.0], [0.0, 0.2]], [[0.0, 0.5], [0.0, 0.5]],
                        [[0.0, 0.0], [0.5, -0.2]])),
        tail=_triple([[0.3, 0.0], [0.3, 0.0]], [[_NAN, 0.7], [0.0, 0.7]],
                     np.zeros((2, 2)))), [
        ("error", "negative-entry", "p0", "min entry -1.000e-01"),
        ("error", "row-sum", "level 0", "max |row sum - 1| = 1.000e-01"),
        ("error", "entry-above-one", "level 1.up", "max entry 1.500000"),
        ("error", "row-sum", "level 1", "max |row sum - 1| = 1.000e+00"),
        ("warning", "column-zero-up", "level 1", "up block column 1 is identically zero"),
        ("warning", "column-zero-down", "level 1", "down block column 0 is identically zero"),
        ("warning", "column-zero-down", "level 1", "down block column 1 is identically zero"),
        ("error", "not-finite", "level 2.up", "non-finite entry"),
        ("error", "negative-entry", "level 2.stay", "min entry -2.000e-01"),
        ("error", "row-sum", "level 2", "max |row sum - 1| = inf"),
        ("warning", "column-zero-down", "level 2", "down block column 0 is identically zero"),
        ("error", "not-finite", "tail.down", "non-finite entry"),
        ("warning", "column-zero-up", "tail", "up block column 1 is identically zero"),
    ]),
    (hs.QbdModel(d=1, r0=[[_NAN]], p0=[[1.0]], tail=_triple([[0.3]], [[0.7]], [[0.0]])),
     [("error", "not-finite", "r0", "non-finite entry")]),
    # layer-0 phase 0 never reaches phase 1
    (hs.QbdModel(d=2, r0=np.eye(2), p0=np.zeros((2, 2)),
                 tail=_triple(0.3 * np.eye(2), 0.7 * np.eye(2), np.zeros((2, 2)))),
     [_REDUCIBLE]),
    # phase 0 reaches phase 1, which never returns
    (hs.QbdModel(
        d=2, r0=[[0.0, 1.0], [0.0, 0.5]], p0=[[0.0, 0.0], [0.0, 0.5]],
        prefix=(_triple([[0.0, 0.0], [0.0, 0.3]], [[0.0, 0.0], [0.0, 0.7]],
                        [[1.0, 0.0], [0.0, 0.0]]),),
        tail=_triple(0.3 * np.eye(2), 0.7 * np.eye(2), np.zeros((2, 2)))), [
        ("warning", "column-zero-up", "level 1", "up block column 0 is identically zero"),
        ("warning", "column-zero-down", "level 1", "down block column 0 is identically zero"),
        _REDUCIBLE,
    ]),
    # the phases meet only through the top level's up moves, folded into stays
    (hs.QbdModel(d=2, r0=np.zeros((2, 2)), p0=np.eye(2),
                 tail=_triple([[0.0, 0.3], [0.3, 0.0]], 0.7 * np.eye(2), np.zeros((2, 2)))),
     []),
]
_PINNED_IDS = ["every-block-check", "non-finite-boundary", "split-phases", "one-way",
               "folded-top"]


@pytest.mark.parametrize("model, expected", _PINNED, ids=_PINNED_IDS)
def test_validate_problem_list_pinned(model, expected):
    """Problems, their order and their detail text, recorded on hand-built
    defective models."""
    got = [(p.severity, p.code, p.where, p.detail) for p in hs.validate(model).problems]
    assert got == expected


@pytest.mark.parametrize("model", [m for m, _ in _PINNED], ids=_PINNED_IDS)
def test_validation_errors_are_the_error_entries_of_validate(model):
    """The errors part alone gives exactly validate's error entries, in
    validate's order."""
    assert hs.validation_errors(model) == hs.validate(model).errors


def test_cli_rejects_the_every_block_check_model(tmp_path, capsys):
    """The CLI checks only errors, and lists every one, in validate's order."""
    path = tmp_path / "defective.json"
    hs.save_model(_PINNED[0][0], path)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == (
        "model failed validation: negative-entry at p0: min entry -1.000e-01; "
        "row-sum at level 0: max |row sum - 1| = 1.000e-01; "
        "entry-above-one at level 1.up: max entry 1.500000; "
        "row-sum at level 1: max |row sum - 1| = 1.000e+00; "
        "not-finite at level 2.up: non-finite entry; "
        "negative-entry at level 2.stay: min entry -2.000e-01; "
        "row-sum at level 2: max |row sum - 1| = inf; "
        "not-finite at tail.down: non-finite entry\n")


def test_block_at_prefix_then_tail():
    m = retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n")
    n = m.n_prefix
    assert n > 0
    inside = m.block_at(1)
    tail_a = m.block_at(n + 1)
    tail_b = m.block_at(n + 50)
    assert np.allclose(tail_a.up, tail_b.up)
    assert np.allclose(tail_a.down, tail_b.down)
    # level 1 retry rate differs from the limit, so the blocks must differ
    assert not np.allclose(inside.down, tail_a.down)


def test_dict_roundtrip(retrial_c2):
    payload = hs.model_to_dict(retrial_c2)
    again = hs.model_from_dict(payload)
    assert again.d == retrial_c2.d
    assert len(again.prefix) == len(retrial_c2.prefix)
    assert np.allclose(again.r0, retrial_c2.r0)
    assert np.allclose(again.tail.stay, retrial_c2.tail.stay)
    # must survive a JSON round trip byte-for-byte in value terms
    again2 = hs.model_from_dict(json.loads(json.dumps(payload)))
    assert np.allclose(again2.tail.up, retrial_c2.tail.up)


def test_save_load_roundtrip(tmp_path, d1_pos):
    path = tmp_path / "model.json"
    hs.save_model(d1_pos, str(path))
    again = hs.load_model(str(path))
    assert again.d == 1
    assert np.allclose(again.tail.down, [[0.7]])


def test_model_from_dict_rejects_garbage():
    with pytest.raises(ModelFormatError):
        hs.model_from_dict({"d": 1})
    with pytest.raises(ModelFormatError):
        hs.model_from_dict({"d": 1, "r0": [[0]], "p0": [[1]], "tail": {}})


_RATES = hs.GeneratorTriple(up=np.diag([0.0, 0.2]), local=[[-0.5, 0.5], [0.3, -0.5]],
                            down=np.zeros((2, 2)))


@pytest.mark.parametrize("b0, prefix, tail, message", [
    (np.zeros((1, 1)), (), _RATES, "b0: expected shape (2, 2), got (1, 1)"),
    (-np.eye(2), (hs.GeneratorTriple(up=np.zeros((2, 3)), local=-np.eye(2), down=np.eye(2)),),
     _RATES, "level 1: expected up, local and down blocks of shape (2, 2), got "
     "((2, 3), (2, 2), (2, 2))"),
    (-np.eye(2), (_RATES,), hs.GeneratorTriple(up=np.zeros((2, 2)), local=[[-1.0]],
                                               down=np.eye(2)),
     "tail: expected up, local and down blocks of shape (2, 2), got "
     "((2, 2), (1, 1), (2, 2))"),
    (-np.eye(2), (), None, "tail: expected up, local and down blocks of shape (2, 2), got None"),
], ids=["boundary", "prefix-triple", "tail-block", "missing-tail"])
def test_generator_shapes_rejected_at_construction(b0, prefix, tail, message):
    """A rate model checks its block shapes when it is built, as a discrete
    model does, so a missing tail no longer surfaces later as an
    AttributeError inside uniformize."""
    with pytest.raises(ModelFormatError) as exc:
        hs.GeneratorModel(d=2, b0=b0, a0=np.eye(2), prefix=prefix, tail=tail)
    assert str(exc.value) == message


def test_level_stacks_serve_prefix_tail_and_blocks():
    """Each flavor stores its levels once, as (n_prefix + 2, d, d) stacks,
    level n at index n and the tail last. Level 0 is the boundary with a
    zero down block: (0, r0, p0) for a chain and (0, b0, a0) for rates, r0
    and p0 views of it. block_at, prefix and tail are views into the
    stacks, and uniformize and the dict round trip keep every level."""
    gen = hs.build_retrial(0.2, 0.5, 1, hs.RetrySchedule.parse("0.3+0.3/n"), prefix_levels=7)
    model = hs.uniformize(gen)
    for m, kinds in [(gen, ("up", "local", "down")), (model, ("up", "down", "stay"))]:
        assert m.n_prefix == 7 and len(m.prefix) == 7
        for kind in kinds:
            stack = getattr(m, kind)
            assert stack.shape == (9, m.d, m.d)
            assert np.shares_memory(getattr(m.block_at(3), kind), stack)
            assert all(np.array_equal(getattr(t, kind), stack[n])
                       for n, t in enumerate(m.prefix, 1))
            assert np.array_equal(getattr(m.block_at(50), kind), stack[-1])
            assert np.array_equal(getattr(m.tail, kind), stack[-1])
        assert not m.down[0].any()
        again = hs.model_from_dict(json.loads(json.dumps(hs.model_to_dict(m))))
        assert type(again) is type(m)
        assert all(np.array_equal(getattr(again, k), getattr(m, k)) for k in kinds)
    doc = hs.model_to_dict(gen)
    assert (np.array_equal(gen.local[0], doc["b0"]) and np.array_equal(gen.up[0], doc["a0"])
            and len(doc["prefix"]) == 7)
    assert np.array_equal(model.r0, np.eye(2) + gen.local[0] / hs.default_gamma(gen))
    for m in (model, hs.model_from_dict(hs.model_to_dict(model))):
        assert np.shares_memory(m.r0, m.stay) and np.shares_memory(m.p0, m.up)
        assert np.array_equal(m.r0, m.stay[0]) and np.array_equal(m.p0, m.up[0])
    r0, p0 = [[0.5, 0.0], [0.0, 0.25]], [[0.5, 0.0], [0.25, 0.5]]
    built = hs.QbdModel(d=2, r0=r0, p0=p0, tail=model.tail)
    assert [s.tolist() for s in (built.down[0], built.stay[0], built.up[0])] == [
        [[0.0, 0.0], [0.0, 0.0]], r0, p0]
    rates = hs.GeneratorModel(d=2, b0=gen.local[0], a0=gen.up[0], tail=gen.tail)
    assert [s.tolist() for s in (rates.down[0], rates.local[0], rates.up[0])] == [
        [[0.0, 0.0], [0.0, 0.0]], gen.local[0].tolist(), gen.up[0].tolist()]
    with pytest.raises(AttributeError):
        model.r0 = np.eye(2)


def _prefix512_doc():
    return hs.model_to_dict(retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n"))


def _broken(doc, level, key, how):
    """Break block ``key`` of prefix ``level`` (or the tail, or a boundary
    block at level None) in ``doc``, in place."""
    owner = doc if level is None else doc["tail"] if level == "tail" else doc["prefix"][level - 1]
    if how == "shape":
        owner[key] = owner[key][:1]
    elif how == "ragged":
        owner[key] = [owner[key][0], owner[key][1][:1]]
    elif how == "string":
        owner[key][1][0] = "oops"
    else:
        del owner[key]


@pytest.mark.parametrize("breaks, message", [
    ([(300, "p", "shape")], "prefix.p: expected shape (2, 2), got (1, 2)"),
    ([(300, "q", "ragged")], "prefix.q: not a numeric matrix"),
    ([(300, "r", "string")], "prefix.r: not a numeric matrix"),
    ([(300, "r", "missing")], "missing field 'r'"),
    ([(400, "p", "shape"), (300, "r", "missing")], "missing field 'r'"),
    ([(300, "p", "missing"), (400, "q", "shape")], "missing field 'p'"),
    ([(300, "r", "string"), (300, "q", "ragged")], "prefix.q: not a numeric matrix"),
    ([("tail", "p", "missing"), (512, "r", "shape")], "prefix.r: expected shape (2, 2), got (1, 2)"),
    ([(None, "r0", "shape"), ("tail", "q", "string")], "tail.q: not a numeric matrix"),
    ([(None, "p0", "string"), (None, "r0", "ragged")], "r0: not a numeric matrix"),
], ids=["shape", "ragged", "string", "missing", "missing-before-shape", "level-order",
        "key-order", "prefix-before-tail", "tail-before-boundary", "boundary-order"])
def test_malformed_long_prefix_reports_the_first_block(breaks, message):
    """The levels of a 512-level document are parsed one block kind at a
    time; a malformed level raises the error a level-by-level parse raises
    first: levels in order, keys p, q, r within a level, then the tail,
    then r0 and p0."""
    doc = _prefix512_doc()
    for level, key, how in breaks:
        _broken(doc, level, key, how)
    with pytest.raises(ModelFormatError) as exc:
        hs.model_from_dict(doc)
    assert str(exc.value) == message

def test_retry_schedule_constant():
    sch = hs.RetrySchedule.parse("0.3")
    assert sch.kind == "constant"
    assert sch.rate(1) == pytest.approx(0.3)
    assert sch.rate(1000) == pytest.approx(0.3)
    assert sch.limit == pytest.approx(0.3)
    assert sch.default_prefix() == 0


def test_retry_schedule_affine():
    sch = hs.RetrySchedule.parse("0.3+0.3/n")
    assert sch.kind == "affine"
    assert sch.rate(1) == pytest.approx(0.6)
    assert sch.rate(3) == pytest.approx(0.4)
    assert sch.limit == pytest.approx(0.3)
    assert sch.default_prefix() == 512


def test_retry_schedule_table_file(tmp_path):
    path = tmp_path / "rates.json"
    path.write_text(json.dumps([0.5, 0.4, 0.3]))
    sch = hs.RetrySchedule.parse(str(path))
    assert sch.kind == "table"
    assert sch.rate(2) == pytest.approx(0.4)
    assert sch.rate(99) == pytest.approx(0.3)
    assert sch.limit == pytest.approx(0.3)
    assert sch.default_prefix() == 3


def test_retry_schedule_bad_spec():
    with pytest.raises(ModelFormatError):
        hs.RetrySchedule.parse("not-a-rate-or-file")


def test_as_chain_on_generator_and_chain(d1_pos):
    gen = hs.build_retrial(0.2, 0.5, 1, hs.RetrySchedule.parse("0.3"))
    from_gen = hs.as_chain(gen, gamma=1.0)
    assert isinstance(from_gen, hs.QbdModel)
    assert hs.as_chain(d1_pos) is d1_pos


def _example_doc(generator=False):
    """The retrial example (lambda 0.2, mu 0.5, c 1, theta 0.3) as a model
    document: its uniformized chain, or with ``generator`` its rate model."""
    gen = hs.build_retrial(0.2, 0.5, 1, hs.RetrySchedule.parse("0.3"))
    return hs.model_to_dict(gen if generator else hs.uniformize(gen))


MALFORMED = [
    ("prefix", "pqr", "field 'prefix' must be a list of level objects"),
    ("prefix", [1], "prefix: a level must be an object"),
    ("prefix", None, "field 'prefix' must be a list of level objects"),
    ("prefix", {"p": [[0.0]]}, "field 'prefix' must be a list of level objects"),
    ("tail", 5, "tail: a level must be an object"),
    ("tail", [[0.0, 1.0]], "tail: a level must be an object"),
    ("d", 2.5, "field 'd' must be an integer, got 2.5"),
    ("d", "2", "field 'd' must be an integer, got '2'"),
    ("d", True, "field 'd' must be an integer, got True"),
    ("d", math.nan, "field 'd' must be an integer, got nan"),
    ("d", 10**12, "tail.p: expected shape (1000000000000, 1000000000000), got (2, 2)"),
    ("type", "weird", "field 'type' must be absent or 'generator', got 'weird'"),
    ("type", None, "field 'type' must be absent or 'generator', got None"),
]


@pytest.mark.parametrize("key, value, message", MALFORMED,
                         ids=[f"{key}={value!r}" for key, value, _ in MALFORMED])
def test_malformed_document_structure_is_refused(key, value, message):
    """A prefix that is not a list of objects, a level that is not an
    object, a d that is not an integer and an unknown type are malformed
    documents, not a TypeError and not a quietly coerced model. A d far
    larger than the blocks is refused by their shapes, with no d-sized
    allocation before."""
    doc = _example_doc()
    doc[key] = value
    with pytest.raises(ModelFormatError) as exc:
        hs.model_from_dict(doc)
    assert str(exc.value) == message


CHAIN_FIELDS = "d, p0, prefix, r0, tail"
RATE_FIELDS = "a0, b0, d, gamma, prefix, tail, type"
UNKNOWN = [
    (False, None, "gamma", f"unknown field 'gamma': a chain document (no 'type') has "
                           f"the fields {CHAIN_FIELDS}"),
    (False, None, "extra", f"unknown field 'extra': a chain document (no 'type') has "
                           f"the fields {CHAIN_FIELDS}"),
    (True, None, "gama", f"unknown field 'gama': a rate document has the fields {RATE_FIELDS}"),
    (True, None, "r0", f"unknown field 'r0': a rate document has the fields {RATE_FIELDS}"),
    (False, "tail", "s", "unknown level field 's': a chain document (no 'type') has the "
                         "level fields p, q, r"),
    (True, 2, "p", "unknown level field 'p': a rate document has the level fields a, b, c"),
]


@pytest.mark.parametrize("generator, level, key, message", UNKNOWN,
                         ids=[f"{level}.{key}" for _, level, key, _ in UNKNOWN])
def test_unknown_fields_are_refused(generator, level, key, message):
    """A field the document's flavor does not have, at the top or in a
    level, is refused by name: a misspelled gamma would otherwise leave the
    default gamma in force, and a chain document never reads one. Every
    document ``model_to_dict`` writes still reads back to itself."""
    gen = hs.build_retrial(0.2, 0.5, 1, hs.RetrySchedule.parse("0.3"), prefix_levels=3)
    model = gen if generator else hs.uniformize(gen)
    doc = hs.model_to_dict(model)
    assert hs.model_to_dict(hs.model_from_dict(doc)) == doc
    where = {None: doc, "tail": doc["tail"]}.get(level) or doc["prefix"][level - 1]
    where[key] = [[0.0]]
    with pytest.raises(ModelFormatError) as exc:
        hs.model_from_dict(doc)
    assert str(exc.value) == message


def test_integral_d_forms_are_read():
    """d may be written as an integral float, or be a numpy integer when a
    document is built in Python."""
    doc = _example_doc()
    for d in (2.0, np.int64(2)):
        doc["d"] = d
        assert hs.model_from_dict(doc).d == 2


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_uniformize_refuses_a_gamma_that_is_not_positive_and_finite(gamma):
    """A non-finite or non-positive gamma, from a file or an argument, is
    refused before any block is divided by it."""
    gen = hs.build_retrial(0.2, 0.5, 1, hs.RetrySchedule.parse("0.3"))
    with pytest.raises(GammaTooSmallError, match="gamma must be positive and finite"):
        hs.uniformize(gen, gamma=gamma)
    doc = _example_doc(generator=True)
    doc["gamma"] = gamma
    with pytest.raises(GammaTooSmallError, match="gamma must be positive and finite"):
        hs.as_chain(hs.model_from_dict(doc))


@pytest.mark.parametrize("gamma", ["x", "2", True, [1.0], {"value": 1.0}])
def test_non_numeric_gamma_is_malformed(gamma):
    doc = _example_doc(generator=True)
    doc["gamma"] = gamma
    with pytest.raises(ModelFormatError) as exc:
        hs.model_from_dict(doc)
    assert str(exc.value) == f"field 'gamma' must be a number, got {gamma!r}"


def _assembled_step_rows(model):
    """Reference: the step rows assembled level by level, level 0 from r0
    and p0 and levels 1.. from stacks of their own; the form ``_step_rows``
    had before level 0 joined the level stacks."""
    d = model.d
    levels = np.zeros((model.n_prefix + 2, 3, d, d))
    levels[0, 1], levels[0, 2] = model.r0, model.p0
    levels[1:, 0], levels[1:, 1], levels[1:, 2] = model.down[1:], model.stay[1:], model.up[1:]
    return levels.transpose(0, 2, 1, 3).reshape(len(levels), d, 3 * d)


def test_step_rows_match_the_assembled_reference():
    """One stack of the level stacks gives the assembled rows bit for bit on
    the refused-level, walled-prefix, absorbing-boundary and random models
    and a rate model's chain."""
    models = layout_models() + [retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n")]
    for model in models:
        rows = hs.model._step_rows(model)
        want = _assembled_step_rows(model)
        assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
