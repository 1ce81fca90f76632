"""The value records: construction, equality, hashing, repr, immutability and pickling."""

import copy
import pickle
from itertools import product

import pytest

from symtrap.branching import BOSE, ComponentPattern
from symtrap.characters import CharacterTable, ClassFunction, character_table_snz2
from symtrap.mapping import (
    G_INF,
    G_ZERO,
    GNLabel,
    MapResult,
    StateLabel,
    level_content,
)
from symtrap.oscillator import HypercylindricalLabel
from symtrap.partitions import MultiplicityVector, Partition, Record, parity_irreps, partitions_of
from symtrap.snippet import SectorVector, SnippetIrrepLabel

from reference_routes import ExplicitRep, SignedPerm

P21 = Partition((2, 1))
S2_CLASSES = (Partition((1, 1)), Partition((2,)))
HYPER = HypercylindricalLabel(0, 1, 2)
STATE = StateLabel(HYPER, P21, 1, -1, "[1^2]x[1]", G_INF)

#: One instance builder per record class, the field names in constructor
#: order, and the repr when it is short enough to spell out (otherwise the
#: ``Name(field=value, ...)`` form is checked field by field).
RECORDS = [
    pytest.param(lambda: Partition([2, 1]), ("parts",), "Partition(parts=(2, 1))", id="Partition"),
    pytest.param(
        lambda: MultiplicityVector(partitions_of(3), [1, 2, 1]),
        ("keys", "counts"),
        f"MultiplicityVector(keys={partitions_of(3)!r}, counts=(1, 2, 1))",
        id="MultiplicityVector",
    ),
    pytest.param(
        lambda: CharacterTable("S2", 2, S2_CLASSES, (1, 1), S2_CLASSES[::-1], ((1, 1), (1, -1))),
        ("group", "order", "classes", "class_sizes", "irreps", "values"),
        None,
        id="CharacterTable",
    ),
    pytest.param(
        lambda: ClassFunction("S2", S2_CLASSES, (2, 0)),
        ("group", "classes", "values"),
        None,
        id="ClassFunction",
    ),
    pytest.param(
        lambda: HypercylindricalLabel(1, 2, 3),
        ("nu_r", "nu_rho", "lam"),
        "HypercylindricalLabel(nu_r=1, nu_rho=2, lam=3)",
        id="HypercylindricalLabel",
    ),
    pytest.param(
        lambda: ComponentPattern((1, 2), BOSE),
        ("counts", "statistics"),
        "ComponentPattern(counts=(2, 1), statistics='bose')",
        id="ComponentPattern",
    ),
    pytest.param(lambda: GNLabel(1, -1, P21), ("nu_r", "pi", "p"), None, id="GNLabel"),
    pytest.param(
        lambda: StateLabel(HYPER, P21, 1, -1, "[1^2]x[1]", G_INF),
        ("hyper", "p", "tau", "pi", "component", "regime"),
        None,
        id="StateLabel",
    ),
    pytest.param(
        lambda: MapResult(STATE, HYPER, P21, -1, 2, False, True),
        (
            "source",
            "target_hyper",
            "target_p",
            "target_pi",
            "target_dimension",
            "resolved",
            "convention_ordered",
        ),
        None,
        id="MapResult",
    ),
    pytest.param(
        lambda: SnippetIrrepLabel(P21, 1, 0, 1),
        ("p", "pi", "tau", "j"),
        None,
        id="SnippetIrrepLabel",
    ),
    pytest.param(
        lambda: SectorVector(2, (1, -1), 2, SnippetIrrepLabel(Partition((1, 1)), 1, 0, 0)),
        ("n", "amps", "norm_sq", "label"),
        None,
        id="SectorVector",
    ),
    pytest.param(
        lambda: SignedPerm((1, 0), (1, -1)),
        ("images", "signs"),
        "SignedPerm(images=(1, 0), signs=(1, -1))",
        id="SignedPerm",
    ),
    pytest.param(
        lambda: ExplicitRep(
            "S2", 2, ((1, 2), (2, 1)), (("s1", SignedPerm((1, 0), (1, 1))),), S2_CLASSES, (2, 0)
        ),
        ("group", "dimension", "basis", "generators", "classes", "traces"),
        None,
        id="ExplicitRep",
    ),
]


def test_every_record_class_is_sampled():
    sampled = {param.values[0]().__class__ for param in RECORDS}
    assert sampled == set(Record.__subclasses__())


@pytest.mark.parametrize("build,fields,shown", RECORDS)
def test_record_semantics(build, fields, shown):
    a, b = build(), build()
    values = tuple(getattr(a, name) for name in fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values)

    cls = type(a)
    twin = type(cls.__name__, (cls,), {"__slots__": ()})(*values)
    assert a != twin and twin != a
    assert a != values and values != a

    body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(a) == f"{cls.__name__}({body})"
    if shown is not None:
        assert repr(a) == shown

    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    assert cls.__doc__


@pytest.mark.parametrize("build,fields,shown", RECORDS)
def test_pickle_and_copy_round_trip(build, fields, shown):
    original = build()
    for twin in (pickle.loads(pickle.dumps(original)), copy.copy(original), copy.deepcopy(original)):
        assert twin == original
        assert repr(twin) == repr(original)


@pytest.mark.parametrize("build,fields,shown", RECORDS)
def test_keyword_construction_matches_positional(build, fields, shown):
    a = build()
    named = {name: getattr(a, name) for name in fields}
    b = type(a)(**named)
    assert b == a and repr(b) == repr(a)
    first, *rest = fields
    b = type(a)(named[first], **{name: named[name] for name in rest})
    assert b == a


@pytest.mark.parametrize("build,fields,shown", RECORDS)
def test_missing_extra_or_unknown_field_is_a_type_error(build, fields, shown):
    a = build()
    cls, values = type(a), tuple(getattr(a, name) for name in fields)
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in zip(fields[1:], values[1:])})
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, unknown=values[0])
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})


@pytest.mark.parametrize("n", range(3, 9))
def test_one_parity_irrep_order(n):
    """The S_n x Z2 table and both limits' level contents share ``parity_irreps``."""
    assert parity_irreps(n) is parity_irreps(n)
    assert parity_irreps(n) == tuple((p, pi) for pi in (1, -1) for p in partitions_of(n))
    assert character_table_snz2(n).irreps == parity_irreps(n)
    seeded = n * (n - 1) // 2
    for lam in (0, 1, seeded, seeded + 1):
        assert level_content(n, G_ZERO, lam).keys == parity_irreps(n)
        assert level_content(n, G_INF, lam).keys == parity_irreps(n)
    assert any(level_content(n, G_INF, seeded).counts)


def test_hypercylindrical_labels_sort_as_field_tuples():
    triples = list(product(range(3), repeat=3))
    labels = [HypercylindricalLabel(*t) for t in reversed(triples)]
    assert [(h.nu_r, h.nu_rho, h.lam) for h in sorted(labels)] == triples
    for x, y in product(triples[::4], repeat=2):
        a, b = HypercylindricalLabel(*x), HypercylindricalLabel(*y)
        assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)
    with pytest.raises(TypeError):
        HypercylindricalLabel(0, 0, 0) < (1, 0, 0)  # noqa: B015


def test_an_unpickled_vector_still_looks_up():
    """A pickled vector carries only its fields, keys and counts; the copy
    looks up like the original, before and after the original's own lookups."""
    original = MultiplicityVector(partitions_of(3), (1, 2, 1))
    assert pickle.loads(pickle.dumps(original))[P21] == 2
    assert original[P21] == 2
    assert pickle.loads(pickle.dumps(original))[P21] == 2
    assert hash(pickle.loads(pickle.dumps(P21))) == hash(((2, 1),))
