"""Fuzz the library boundary with one strategy of boundary values.

Every number or array argument of the public entry points is fed values that
Python or numpy would read loosely: bools and numpy bools, numeric strings and
bytes, None, complex numbers, fractions, integers past a double, NaN and the
infinities, signed zeros and the extremes of a double, 0-d, ragged and 2-d
arrays, and dicts. Every object argument is fed objects of another kind: each
table class in place of another, a table, an extension and a model over another
n, None, a list, an ndarray, a dict and an operator that is not callable.
Whatever the value, a call returns, every number it returns being finite, or
raises a ``CapacitiesError`` subclass; no other exception and no warning escapes.

``test_loose_numbers_are_refused`` pins calls that read such values as numbers,
or let a bare ``TypeError``, ``ValueError`` or ``OverflowError`` escape, before
one rule, ``subsets._is_real`` and ``subsets._reals``, decided what a number is.
``test_a_table_of_another_class_is_refused`` pins calls that read a table of
another class as their own, before each role had one reader in ``set_function``.
"""

import functools
import math
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capacities import (
    AXIOM_NAMES,
    EXTENSION_NAMES,
    Act,
    AggregationModel,
    AxiomCheckConfig,
    CapacitiesError,
    Capacity,
    CoMobiusRepr,
    DimensionMismatch,
    InteractionReport,
    InvalidFormat,
    MobiusRepr,
    OrdinalMobiusRepr,
    OutOfDomain,
    PseudoProduct,
    SetFunction,
    UnknownAxiom,
    UtilityScale,
    as_capacity,
    capacity_from_binary_acts,
    capacity_from_dict,
    certify,
    check_axiom,
    check_equivalence,
    check_pseudo_product,
    choquet,
    choquet_mobius,
    classify,
    co_mobius,
    compare_extensions,
    conjugate,
    cpt,
    cpt_compatible,
    default_scale,
    evaluate_act,
    interaction_index,
    interaction_report,
    make_extension,
    mle,
    mobius,
    ordinal_mobius,
    ordinal_zeta,
    pseudo_product_extension,
    rank_acts,
    set_function_from_dict,
    shapley,
    sipos,
    sipos_closed_form,
    sipos_mobius,
    smle,
    sugeno_product,
    symmetric_max,
    symmetric_max_fold,
    to_dict,
    validate,
    vector_from_dict,
    zeta,
)
from helpers import edge_tables

SCALARS = [
    0, 1, -3, 0.5, -0.25, 0.0, -0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf,
    np.float32(0.5), np.float64(0.25), np.int64(2), np.uint64(2**64 - 1), 10**400, -10**400,
    10**5000, -10**5000,
    True, False, np.bool_(True), "0.5", "1", "", b"1", None, 1j, complex(0.5, 0.0),
    Fraction(1, 2), np.array(0.5), np.array(True),
]
SHAPES = [[], [0.5], [[0.0], [0.5, 1.0]], np.zeros((2, 2)), np.array([[0.5, 0.25]]), {"1": 0.5}, {}]
# The one strategy of boundary values.
boundary = st.sampled_from(SCALARS + SHAPES)
DTYPES = [np.float32, np.int64, np.uint8, object, bool, str, complex]


def odd(good):
    """``good``, or a boundary value in its place."""
    return st.one_of(st.just(good), boundary)


def obj(good):
    """``good``, or an object of another kind in its place."""
    return st.one_of(st.just(good), objects)


def entries(base):
    """``base``, or ``base`` with one entry a boundary value, as a list or a tuple."""
    put = st.tuples(st.integers(0, len(base) - 1), boundary).map(
        lambda kv: base[: kv[0]] + [kv[1]] + base[kv[0] + 1 :]
    )
    return st.one_of(st.just(base), put, put.map(tuple))


def vectors(base):
    """:func:`entries` of ``base``, a boundary value in its place, or ``base`` as an
    array of some dtype."""
    typed = st.sampled_from(DTYPES).map(lambda dtype: np.array(base).astype(dtype))
    return st.one_of(entries(base), boundary, typed)


def rows(base):
    """A list of one to three vectors from ``base``."""
    return st.lists(vectors(base), min_size=1, max_size=3)


MU = as_capacity([0.0, 0.3, 0.6, 1.0])
M = mobius(MU)
PP = certify(min)
OM = ordinal_mobius(MU)
EXT = make_extension("choquet", MU)
MODEL = AggregationModel(MU, "sipos", (UtilityScale(1, {"neutral": 0, "good": 1, "bad": -1}),))
SMALL = AxiomCheckConfig(samples=5)
MU3 = as_capacity([0.0, 0.2, 0.3, 0.5, 0.4, 0.6, 0.7, 1.0])

# Objects in place of an object argument: each table class, an extension, a
# model and a pseudo-product, some over another n, and what is none of these.
OBJECTS = [
    MU, SetFunction(2, [0.0, 0.5, 0.2, 1.0]), M, co_mobius(MU), OM, MU3, mobius(MU3),
    EXT, make_extension("sipos", MU3), MODEL, AggregationModel(MU3, "choquet"), PP,
    None, 3, "min", [0.0, 0.3, 0.6, 1.0], np.array([0.0, 0.3, 0.6, 1.0]),
    {"n": 2, "values_by_mask": [0.0, 0.3, 0.6, 1.0]},
]
objects = st.sampled_from(OBJECTS)
# An operator, or an object that is not callable in its place.
operators = st.sampled_from([min] + [o for o in OBJECTS if not callable(o)])

VALUES = st.one_of(vectors([0.0, 0.3, 0.6, 1.0]), objects)
SCORES = vectors([0.5, -0.25])
NUMBER = odd(0.5)
TOL = odd(1e-9)


def _op(value):
    """min on the lower half of the grid, ``value`` above it."""
    return lambda a, b: value if a + b > 1.5 else min(a, b)


def _binary_acts(n, value):
    return capacity_from_binary_acts(n, {"": 0, "1": value, "2": 0.6, "1,2": 1})


# name -> (call, one strategy per argument)
ENTRY_POINTS = {
    "SetFunction": (SetFunction, odd(2), VALUES),
    "MobiusRepr": (MobiusRepr, odd(2), VALUES),
    "CoMobiusRepr": (CoMobiusRepr, odd(2), VALUES),
    "OrdinalMobiusRepr": (OrdinalMobiusRepr, odd(2), VALUES),
    "Capacity": (lambda sf, tol: Capacity(sf, tol=tol), obj(SetFunction(2, [0.0, 0.3, 0.6, 1.0])),
                 TOL),
    "transforms": (
        lambda call, v: call(v),
        st.sampled_from([mobius, zeta, co_mobius, ordinal_mobius, ordinal_zeta, conjugate, to_dict,
                         shapley]),
        obj(MU)),
    "as_capacity": (lambda v, n, tol: as_capacity(v, n=n, tol=tol), VALUES, odd(None), TOL),
    "validate": (lambda v, n, tol: validate(v, n=n, tol=tol), VALUES, odd(None), TOL),
    # a parser: the table constructors check that its table is finite
    "vector_from_dict": (
        lambda v: SetFunction(*vector_from_dict({"n": 2, "values_by_mask": v})), VALUES),
    "set_function_from_dict": (
        lambda n, v: set_function_from_dict({"n": n, "values": {"": 0, "1": v, "2": 1, "1,2": 1}}),
        odd(2), NUMBER),
    "capacity_from_dict": (
        lambda v, tol: capacity_from_dict({"n": 2, "values_by_mask": v}, tol=tol), VALUES, TOL),
    "choquet": (choquet, obj(MU), SCORES),
    "choquet_mobius": (choquet_mobius, obj(M), SCORES),
    "sipos": (sipos, obj(MU), SCORES),
    "sipos_closed_form": (sipos_closed_form, obj(MU), SCORES),
    "sipos_mobius": (sipos_mobius, obj(M), SCORES),
    "mle": (mle, obj(M), SCORES),
    "smle": (smle, obj(M), SCORES),
    "sugeno_product": (sugeno_product, obj(OM), SCORES),
    "cpt": (cpt, obj(M), obj(M), SCORES),
    "Extension": (
        lambda name, t: make_extension(name, MU, MU if name == "cpt" else None)(t),
        st.sampled_from(EXTENSION_NAMES), SCORES),
    "Extension.many": (
        lambda name, t: make_extension(name, MU, MU if name == "cpt" else None).many(t),
        st.sampled_from(EXTENSION_NAMES), st.one_of(boundary, rows([0.5, -0.25]))),
    "pseudo_product_extension": (
        pseudo_product_extension, obj(M), obj(PP), vectors([0.5, 0.25])),
    "symmetric_max": (symmetric_max, NUMBER, NUMBER),
    "symmetric_max_fold": (symmetric_max_fold, SCORES),
    "classify": (classify, NUMBER, TOL),
    "cpt_compatible": (cpt_compatible, obj(MU), obj(MU), TOL),
    "interaction_index": (interaction_index, obj(MU), odd(3)),
    "interaction_report": (interaction_report, obj(MU), odd(2), TOL),
    "certify": (lambda value, tol: certify(_op(value), tol=tol), NUMBER, TOL),
    "check_pseudo_product": (lambda value: check_pseudo_product(_op(value), SMALL), NUMBER),
    "PseudoProduct": (PP, NUMBER, NUMBER),
    "PseudoProduct value": (lambda value: PseudoProduct(_op(value))(1.0, 1.0), NUMBER),
    "operators": (
        lambda call, op: call(op),
        st.sampled_from([certify, lambda op: check_pseudo_product(op, SMALL),
                         lambda op: PseudoProduct(op)(0.5, 0.5)]),
        operators),
    "check_axiom": (
        lambda name: check_axiom(name, make_extension("choquet", MU), MU, SMALL), odd("M")),
    "check_axiom arguments": (
        lambda call, ext, mu, cfg: call(ext, mu, cfg),
        st.sampled_from([functools.partial(check_axiom, "HE"), check_equivalence]),
        obj(EXT), obj(MU), st.sampled_from([SMALL, None, 5, {}])),
    "compare_extensions": (
        lambda mu, points: compare_extensions(mu, points, SMALL), obj(MU), rows([0.5, -0.25])),
    "AxiomCheckConfig": (
        lambda samples, seed, tol, score, alpha: AxiomCheckConfig(samples, seed, tol, score, alpha),
        odd(5), odd(1), TOL, vectors([-1.0, 1.0]), vectors([0.5, 2.0])),
    "UtilityScale": (
        lambda criterion, level: UtilityScale(criterion, {"neutral": 0, "good": 1, "x": level}),
        odd(1), NUMBER),
    "default_scale": (default_scale, odd(1)),
    # make_extension reads the capacities of a model
    "AggregationModel": (
        lambda mu, name, losses: AggregationModel(mu, name, capacity_losses=losses),
        obj(MU), st.sampled_from(EXTENSION_NAMES), st.one_of(st.none(), objects)),
    "Act": (lambda model, act: evaluate_act(model, Act(act)), obj(MODEL), entries(["good", 0.5])),
    "rank_acts": (
        lambda model, act, tol: rank_acts(model, [act, ["bad", 1]], tol),
        obj(MODEL), entries(["good", 0.5]), TOL),
    "rank_acts acts": (
        lambda acts: rank_acts(MODEL, acts),
        st.one_of(objects, st.lists(entries(["good", 0.5]), min_size=1, max_size=3))),
    "capacity_from_binary_acts": (_binary_acts, odd(2), NUMBER),
}


def _assert_finite(value):
    """Every number in what a call returned is finite: a float, the entries of a
    float array or of a set function's table, and those of a tuple or list."""
    if isinstance(value, SetFunction):
        value = value.values
    if isinstance(value, (float, np.floating)):
        assert math.isfinite(value), value
    elif isinstance(value, np.ndarray) and value.dtype.kind == "f":
        assert np.isfinite(value).all(), value
    elif isinstance(value, (tuple, list)):
        for v in value:
            _assert_finite(v)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_call_returns_finite_numbers_or_raises_a_named_error(name, data):
    call, *strategies = ENTRY_POINTS[name]
    args = [data.draw(s) for s in strategies]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args)
        except CapacitiesError:
            result = None
    assert not caught, [str(w.message) for w in caught]
    _assert_finite(result)


HOLES = [
    ("as_capacity bool", lambda: as_capacity([0, True]), InvalidFormat),
    ("SetFunction bool", lambda: SetFunction(1, [0, True]), InvalidFormat),
    ("validate strings", lambda: validate(["0", "0.5", "0.5", "1"]), InvalidFormat),
    ("SetFunction bytes", lambda: SetFunction(1, [b"0", b"1"]), InvalidFormat),
    ("as_capacity complex", lambda: as_capacity([0, 1j]), InvalidFormat),
    ("SetFunction object", lambda: SetFunction(1, [0, object()]), InvalidFormat),
    ("MobiusRepr dict", lambda: MobiusRepr(1, {"a": 1}), InvalidFormat),
    ("as_capacity ragged", lambda: as_capacity([[0], [1, 2]]), InvalidFormat),
    ("validate ragged", lambda: validate([[0], [1, 2]]), InvalidFormat),
    ("symmetric_max string and bool", lambda: symmetric_max("1", True), InvalidFormat),
    ("symmetric_max nan", lambda: symmetric_max(math.nan, 1), OutOfDomain),
    ("symmetric_max None", lambda: symmetric_max(None, 1), InvalidFormat),
    ("symmetric_max_fold bool and string", lambda: symmetric_max_fold([True, "2"]), InvalidFormat),
    ("classify string", lambda: classify("x"), InvalidFormat),
    ("classify bool", lambda: classify(True), InvalidFormat),
    ("classify nan", lambda: classify(math.nan), OutOfDomain),
    ("PseudoProduct None", lambda: certify(min)(0.5, None), InvalidFormat),
    ("PseudoProduct string", lambda: certify(min)("0.5", 0.2), InvalidFormat),
    ("certify huge integer", lambda: certify(lambda a, b: 10**400), InvalidFormat),
    # tuple() read these as an act's entries: characters, bytes, keys, or members
    # in no fixed order
    *[("Act " + type(entries).__name__, lambda entries=entries: Act(entries), InvalidFormat)
      for entries in ("ab", b"ab", {"good": 1, "neutral": 0}, {"good"}, frozenset({"good"}))],
    ("rank_acts string act", lambda: rank_acts(MODEL, ["good", "neutral"]), InvalidFormat),
]


@pytest.mark.parametrize("call, error", [h[1:] for h in HOLES], ids=[h[0] for h in HOLES])
def test_loose_numbers_are_refused(call, error):
    with pytest.raises(error):
        call()


T = [0.1, 0.2]
# Each call read its table whatever its class: a wrong number where the table
# has another class's values (choquet(M, T) was 0.07 against 0.16), a bare
# AttributeError where it is a value table.
WRONG_TABLES = [
    ("choquet", lambda: choquet(M, T), "SetFunction or Capacity"),
    ("sipos", lambda: sipos(M, [0.2, 0.1]), "SetFunction or Capacity"),
    ("sipos_closed_form", lambda: sipos_closed_form(M, [0.2, 0.1]), "SetFunction or Capacity"),
    ("make_extension", lambda: make_extension("choquet", M), "SetFunction or Capacity"),
    ("make_extension sipos", lambda: make_extension("sipos", OM), "SetFunction or Capacity"),
    ("make_extension list", lambda: make_extension("choquet", [0, 0.3, 0.6, 1]),
     "SetFunction or Capacity"),
    ("mle ordinal", lambda: mle(OM, [0.5, 0.5]), "MobiusRepr"),
    ("choquet_mobius ordinal", lambda: choquet_mobius(OM, T), "MobiusRepr"),
    ("sugeno_product Mobius", lambda: sugeno_product(M, [0.9, 0.9]), "OrdinalMobiusRepr"),
    ("zeta ordinal", lambda: zeta(OM), "MobiusRepr"),
    ("zeta", lambda: zeta(MU), "MobiusRepr"),
    ("ordinal_zeta", lambda: ordinal_zeta(MU), "OrdinalMobiusRepr"),
    ("choquet_mobius", lambda: choquet_mobius(MU, T), "MobiusRepr"),
    ("sipos_mobius", lambda: sipos_mobius(MU, T), "MobiusRepr"),
    ("mle", lambda: mle(MU, T), "MobiusRepr"),
    ("smle", lambda: smle(OM, T), "MobiusRepr"),
    ("cpt", lambda: cpt(M, OM, T), "MobiusRepr"),
    ("pseudo_product_extension", lambda: pseudo_product_extension(OM, PP, T), "MobiusRepr"),
]


@pytest.mark.parametrize("call, expected", [w[1:] for w in WRONG_TABLES],
                         ids=[w[0] for w in WRONG_TABLES])
def test_a_table_of_another_class_is_refused(call, expected):
    with pytest.raises(InvalidFormat, match="^expected %s, got '" % expected):
        call()


# Each raised a bare AttributeError (the first six) or TypeError on an argument
# of the wrong type; a coefficient table as the capacity was read as a value
# table.
WRONG_ARGUMENTS = [
    ("check_axiom extension", lambda: check_axiom("HE", None, MU), "Extension"),
    ("check_axiom capacity", lambda: check_axiom("HE", EXT, None), "SetFunction or Capacity"),
    ("check_axiom config", lambda: check_axiom("HE", EXT, MU, 5), "AxiomCheckConfig"),
    ("check_equivalence", lambda: check_equivalence(None, MU), "Extension"),
    ("check_equivalence config", lambda: check_equivalence(EXT, MU, {}), "AxiomCheckConfig"),
    ("check_pseudo_product config", lambda: check_pseudo_product(min, 3), "AxiomCheckConfig"),
    ("compare_extensions points", lambda: compare_extensions(MU, 0),
     "an iterable of score vectors"),
    ("compare_extensions config", lambda: compare_extensions(MU, [T], "x"), "AxiomCheckConfig"),
    ("check_axiom coefficient table", lambda: check_axiom("M", EXT, M), "SetFunction or Capacity"),
]
# These raised a bare AttributeError (the first four), TypeError: ... not iterable
# (rank_acts), TypeError: cannot serialize (to_dict), or numpy's TypeError:
# function must be callable (the operators).
WRONG_ARGUMENTS += [
    ("rank_acts model", lambda: rank_acts(None, [["good", 0.5]]), "AggregationModel"),
    ("evaluate_act model", lambda: evaluate_act(None, ["good", 0.5]), "AggregationModel"),
    ("AggregationModel capacity", lambda: AggregationModel(None, "choquet"),
     "SetFunction or Capacity"),
    ("cpt_compatible", lambda: cpt_compatible(None, MU), "SetFunction or Capacity"),
    ("rank_acts None", lambda: rank_acts(MODEL, None), "an iterable of acts"),
    ("rank_acts int", lambda: rank_acts(MODEL, 5), "an iterable of acts"),
    ("to_dict", lambda: to_dict([0, 1]), "SetFunction or a subclass"),
    ("certify None", lambda: certify(None), "a callable operator"),
    ("certify int", lambda: certify(3), "a callable operator"),
    ("check_pseudo_product None", lambda: check_pseudo_product(None), "a callable operator"),
    ("PseudoProduct None", lambda: PseudoProduct(None)(0.5, 0.5), "a callable operator"),
]
# A flag was read by its truth value: "no" let mle sample outside [0, 1], 0.0
# was stored as the flag, and "no" switched the singleton check on. The config
# raises CapacitiesError, as for its other fields.
WRONG_ARGUMENTS += [
    ("AxiomCheckConfig flag", lambda: AxiomCheckConfig(allow_out_of_domain="no"),
     "a bool for allow_out_of_domain", CapacitiesError),
    ("Capacity flag", lambda: Capacity(MU, strictly_positive_singletons=0.0),
     "a bool for strictly_positive_singletons"),
    ("validate flag", lambda: validate(MU, require_positive_singletons="no"),
     "a bool for require_positive_singletons"),
    ("as_capacity flag", lambda: as_capacity(MU, require_positive_singletons=0.0),
     "a bool for require_positive_singletons"),
    ("capacity_from_dict flag",
     lambda: capacity_from_dict(to_dict(MU), require_positive_singletons=None),
     "a bool for require_positive_singletons"),
]
# Scales of None or 5 raised a bare TypeError; a label of 5 was stored and written out.
WRONG_ARGUMENTS += [
    ("AggregationModel scales None", lambda: AggregationModel(MU, "choquet", scales=None),
     "an iterable of UtilityScale objects"),
    ("AggregationModel scales int", lambda: AggregationModel(MU, "choquet", scales=5),
     "an iterable of UtilityScale objects"),
    ("Act label", lambda: Act(("good", "neutral"), label=5), "a string for label"),
]


@pytest.mark.parametrize("call, expected, error",
                         [(w[1], w[2], w[3] if len(w) > 3 else InvalidFormat)
                          for w in WRONG_ARGUMENTS],
                         ids=[w[0] for w in WRONG_ARGUMENTS])
def test_an_argument_of_another_type_is_refused(call, expected, error):
    with pytest.raises(error, match="^expected %s, got '" % expected):
        call()


def test_a_flag_is_stored_as_a_python_bool():
    assert AxiomCheckConfig(allow_out_of_domain=np.True_).allow_out_of_domain is True
    assert Capacity(MU, strictly_positive_singletons=np.False_).strictly_positive_singletons is False
    for cap in (as_capacity(MU, require_positive_singletons=np.True_),
                validate(MU, require_positive_singletons=np.True_).capacity,
                capacity_from_dict(to_dict(MU), require_positive_singletons=np.True_)):
        assert cap.strictly_positive_singletons is True


def test_value_table_integrals_take_a_plain_set_function():
    v = SetFunction(2, [0.0, 0.5, 0.2, 1.0])  # not monotone
    assert choquet(v, T) == make_extension("choquet", v)(T) == sipos(v, T)
    assert sipos_closed_form(v, [-0.1, 0.2]) == sipos(v, [-0.1, 0.2])


# Past the 4,300 digits Python prints by default: these texts raised a bare
# ValueError while formatting the number.
TOO_LONG = 10**5000
LONG_INTEGERS = [
    ("check_n", lambda: as_capacity([0, 1], n=TOO_LONG), InvalidFormat, "integer of 16610 bits"),
    ("certify", lambda: certify(lambda a, b: TOO_LONG), InvalidFormat, "integer of 16610 bits"),
    ("subset mask", lambda: interaction_index(MU, TOO_LONG), InvalidFormat,
     "integer of 16610 bits"),
    ("criterion index", lambda: interaction_index(MU, [TOO_LONG]), InvalidFormat,
     "integer of 16610 bits"),
    ("max_order", lambda: interaction_report(MU, max_order=TOO_LONG), InvalidFormat,
     "integer of 16610 bits"),
    ("scale criterion", lambda: UtilityScale(-TOO_LONG, {}), InvalidFormat,
     "integer of 16610 bits"),
    ("model scale", lambda: AggregationModel(MU, "sipos", (default_scale(TOO_LONG),)),
     DimensionMismatch, "integer of 16610 bits"),
    ("axiom samples", lambda: AxiomCheckConfig(samples=-TOO_LONG), CapacitiesError,
     "integer of 16610 bits"),
    ("axiom bounds", lambda: AxiomCheckConfig(score_bounds=(0, TOO_LONG)), CapacitiesError,
     "a tuple holding an integer too long to print"),
    ("axiom name", lambda: check_axiom(TOO_LONG, make_extension("choquet", MU), MU),
     UnknownAxiom, "integer of 16610 bits"),
]


@pytest.mark.parametrize("call, error, text", [c[1:] for c in LONG_INTEGERS],
                         ids=[c[0] for c in LONG_INTEGERS])
def test_an_integer_too_long_to_print_is_named_by_its_size(call, error, text):
    with pytest.raises(error, match=text):
        call()


def test_ordinary_integers_keep_their_texts():
    with pytest.raises(InvalidFormat, match=r"^criteria count n must be in 1\.\.24, got 25$"):
        as_capacity([0, 1], n=25)
    with pytest.raises(InvalidFormat, match=r"^op\(0, 0\) = 10{400} is not a real number$"):
        certify(lambda a, b: 10**400)
    with pytest.raises(InvalidFormat, match=r"^subset mask 4 out of range for n = 2$"):
        interaction_index(MU, np.int64(4))


@pytest.mark.parametrize("call", [
    lambda: classify(Fraction(1, 10)),
    lambda: classify(0.5, tol=Fraction(1, 10)),
    lambda: choquet(MU, [Fraction(1, 2), 0.25]),
    lambda: UtilityScale(1, {"neutral": 0, "good": 1, "x": Fraction(1, 2)}),
], ids=["value", "tol", "score", "level"])
def test_a_fraction_is_refused_everywhere(call):
    with pytest.raises(InvalidFormat):
        call()


def _finite_or_refused(call, *args, refused=InvalidFormat):
    """What ``call(*args)`` returns, every number in it finite, or None where it
    raises ``refused``, :class:`InvalidFormat` by default; no warning either way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args)
        except refused:
            result = None
    assert not caught, [str(w.message) for w in caught]
    if isinstance(result, InteractionReport):
        _assert_finite([result.shapley, result.pair_matrix, list(result.values.values())])
    else:
        _assert_finite(result)
    return result


@settings(max_examples=300, deadline=None, derandomize=True)
@given(v=edge_tables())
def test_interaction_at_the_edges_of_a_double_is_finite_or_refused(v):
    phi = _finite_or_refused(shapley, v)
    for order in range(1, v.n + 1):
        report = _finite_or_refused(interaction_report, v, order)
        if phi is None:
            assert report is None
        elif order == 1 and report is not None:
            assert report.shapley.tobytes() == phi.tobytes()
    for mask in range(1, 1 << v.n):
        _finite_or_refused(interaction_index, v, mask)


# Scores on the unit cube's edges and a subnormal, and with them a loss and
# scores whose products and sums overflow.
UNIT_SCORES = [0.0, -0.0, 5e-324, 0.5, 1.0]
SIGNED_SCORES = UNIT_SCORES + [-1.0, 1e300, -1e300]
PSEUDO_PRODUCTS = (PP, certify(operator.mul, "product"),
                   certify(lambda a, b: max(0.0, a + b - 1.0), "lukasiewicz"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(v=edge_tables(), data=st.data())
def test_mobius_forms_at_the_edges_of_a_double_are_finite_or_out_of_domain(v, data):
    m = MobiusRepr(v.n, v.values)
    m2 = MobiusRepr(v.n, np.append(0.0, v.values[:0:-1]))  # the losses of cpt
    unit, signed = (data.draw(st.lists(st.sampled_from(pool), min_size=v.n, max_size=v.n))
                    for pool in (UNIT_SCORES, SIGNED_SCORES))
    forms = [functools.partial(f, m) for f in (choquet_mobius, mle, sipos_mobius, smle)]
    for form in [*forms, functools.partial(cpt, m, m2)]:
        for t in (unit, signed):
            _finite_or_refused(form, t, refused=CapacitiesError)
    want = _finite_or_refused(choquet_mobius, m, unit, refused=CapacitiesError)
    for op in PSEUDO_PRODUCTS:
        got = _finite_or_refused(pseudo_product_extension, m, op, unit, refused=CapacitiesError)
        if op is PP and got is not None:
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), unit


@settings(max_examples=300, deadline=None, derandomize=True)
@given(v=edge_tables(), tol=st.sampled_from([0.0, 1e-9, 0.5, 1e300]))
def test_transforms_at_the_edges_of_a_double_are_finite_or_refused(v, tol):
    n, values = v.n, v.values
    a = SetFunction(n, np.abs(values))  # a nonnegative table, as the ordinal pair expects
    for call in (
        lambda: mobius(v),
        lambda: zeta(MobiusRepr(n, values)),
        lambda: co_mobius(v),
        lambda: conjugate(v),
        lambda: ordinal_mobius(v),
        lambda: ordinal_mobius(a),
        lambda: ordinal_zeta(OrdinalMobiusRepr(n, values)),
        lambda: ordinal_zeta(OrdinalMobiusRepr(n, a.values)),
    ):
        _finite_or_refused(call)
    res = _finite_or_refused(validate, v, None, False, tol)
    assert isinstance(res.strictly_monotone, bool) and isinstance(res.additive, bool)
    assert res.ok == (res.error is None) == (res.capacity is not None)
    assert res.error is None or isinstance(res.error, CapacitiesError)
    _assert_finite(res.capacity)
    mu = _finite_or_refused(as_capacity, values, n, False, tol, refused=CapacitiesError)
    assert (mu is None) == (not res.ok)
    if mu is not None:
        _finite_or_refused(conjugate, mu)
        _finite_or_refused(validate, mu, n, True, tol)


# Scores at the edges of a double: zeros of either sign, subnormals and the
# extremes, whose gaps and products with a table overflow.
SORT_SCORES = [0.0, -0.0, 5e-324, -5e-324, 1e-320, 1.7e308, -1.7e308, 0.5, -1.0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(v=edge_tables(), data=st.data())
def test_sort_kernels_at_the_edges_of_a_double_are_finite_or_out_of_domain(v, data):
    rows = data.draw(st.lists(st.lists(st.sampled_from(SORT_SCORES), min_size=v.n, max_size=v.n),
                              min_size=1, max_size=4))
    om = OrdinalMobiusRepr(v.n, np.abs(v.values))  # ordinal coefficients are nonnegative
    for name, call in (("choquet", functools.partial(choquet, v)),
                       ("sipos", functools.partial(sipos, v)),
                       ("sugeno_product", functools.partial(sugeno_product, om))):
        got = [_finite_or_refused(call, t, refused=CapacitiesError) for t in rows]
        ext = _finite_or_refused(make_extension, name, v, refused=CapacitiesError)
        if ext is None:
            continue
        many = _finite_or_refused(ext.many, rows, refused=CapacitiesError)
        for t in rows:
            _finite_or_refused(ext, t, refused=CapacitiesError)
        if name != "sugeno_product":  # the same row kernel as the direct call
            assert (many is None) == (None in got)
            if many is not None:
                assert many.tobytes() == np.array(got).tobytes()


# Scale levels and raw act entries at the edges of a double: the largest
# doubles, 1e300, the least subnormals and zeros of either sign.
MODEL_EDGES = [1.79e308, -1.79e308, 1e300, -1e300, 5e-324, -5e-324, 0.0, -0.0]


def _edge_capacity(v):
    """A capacity with singletons > 0 built from an edge table: its absolute
    values, zero singletons raised to the least subnormal, closed under the
    maximum over subsets, and accepted with a tol that admits its mu(N)."""
    a = np.abs(v.values)
    bits = 1 << np.arange(v.n)
    a[bits] = np.maximum(a[bits], 5e-324)
    w = ordinal_zeta(OrdinalMobiusRepr(v.n, a)).values
    return as_capacity(w, None, True, max(abs(w[-1] - 1.0), 1e-9))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(v=edge_tables(), data=st.data())
def test_the_model_layer_at_the_edges_of_a_double_is_finite_or_refused(v, data):
    mu = _edge_capacity(v)
    levels = data.draw(st.lists(st.sampled_from(MODEL_EDGES), min_size=v.n, max_size=v.n))
    scales = [UtilityScale(i + 1, {"neutral": 0.0, "good": 1.0, "edge": x})
              for i, x in enumerate(levels)]
    entry = st.sampled_from(MODEL_EDGES + ["neutral", "good", "edge"])
    acts = data.draw(st.lists(st.lists(entry, min_size=v.n, max_size=v.n),
                              min_size=1, max_size=4))
    tol = data.draw(st.sampled_from([0.0, 1e-9, 1e300]))
    for name in EXTENSION_NAMES:
        losses = conjugate(mu) if name == "cpt" else None
        model = _finite_or_refused(AggregationModel, mu, name, scales, losses,
                                   refused=CapacitiesError)
        if model is None:
            continue
        ranked = _finite_or_refused(rank_acts, model, acts, tol, refused=CapacitiesError)
        _assert_finite(None if ranked is None else [r.score for r in ranked])
        for act in acts:
            _finite_or_refused(evaluate_act, model, act, refused=CapacitiesError)


# Score bounds from the extremes of 1e300 to the least normals, and alpha
# bounds across [1e-300, 1e300]: the sampled scores, their scalings and the
# gaps between the two sides of an identity overflow or vanish.
SCORE_BOUNDS = [(-1e300, 1e300), (-1e300, -1e-300), (1e-300, 1e300), (0.0, 1e-300),
                (-1.0, 1.0), (0.0, 1.0), (0.5, 1e300)]
ALPHA_BOUNDS = [(1e-300, 1e300), (1e-300, 1e-300), (1e300, 1e300), (1e-300, 1.0), (1.0, 1e300)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(v=edge_tables(max_n=3), data=st.data())
def test_every_axiom_at_the_edges_of_a_double_is_finite_or_refused(v, data):
    """Each axiom on each extension, in and out of its domain, reports a
    counterexample with finite sides or none, or refuses with a named error;
    a numpy warning fails the test."""
    mu = _edge_capacity(v)
    scores = data.draw(st.sampled_from(SCORE_BOUNDS))
    alphas = data.draw(st.sampled_from(ALPHA_BOUNDS))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in EXTENSION_NAMES:
            try:  # a Mobius table of mle, smle or cpt can overflow
                ext = make_extension(name, mu, conjugate(mu) if name == "cpt" else None)
            except CapacitiesError:
                continue
            for outside in (False, True):
                cfg = AxiomCheckConfig(samples=64, seed=7, score_bounds=scores,
                                       alpha_bounds=alphas, allow_out_of_domain=outside)
                for axiom in AXIOM_NAMES:
                    try:
                        report = check_axiom(axiom, ext, mu, cfg)
                    except CapacitiesError:
                        continue
                    cx = report.counterexample
                    if cx is not None:
                        assert math.isfinite(cx.expected) and math.isfinite(cx.got), (
                            name, axiom, outside, cx)
