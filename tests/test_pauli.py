import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from daqc.blocks import generate_candidate_patterns, pattern_space_size
from daqc.bounds import evaluate_bounds, sample_defect
from daqc.errors import SimulabilityError, ValidationError
from daqc.pauli import (
    AXES,
    CouplingKey,
    CouplingVector,
    hadamard_divide,
    is_zz_only,
    max_degree,
    vector_p_norm,
)
from daqc.schedule import SynthesisMode, synthesize
from helpers import coupling_text, entries, same, write_couplings


def zz(i, j):
    return CouplingKey(i, j, "z", "z")


ZZ_TRIANGLE = [zz(0, 1), zz(0, 2), zz(1, 2)]


# ---- key order ---------------------------------------------------------------


def test_coupling_vector_iterates_canonically():
    v = CouplingVector(3, {zz(1, 2): 3.0, zz(0, 1): 1.0, CouplingKey(0, 1, "x", "x"): 2.0})
    assert v.keys() == (CouplingKey(0, 1, "x", "x"), zz(0, 1), zz(1, 2))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_derived_vectors_are_canonical_and_checked():
    a = CouplingVector(3, {zz(1, 2): 1.0})
    b = CouplingVector(3, {zz(0, 1): 2.0, zz(1, 2): 0.5})
    assert (a + b).keys() == (a - b).keys() == (zz(0, 1), zz(1, 2))
    assert (a - b)[zz(0, 1)] == -2.0 and (a - b)[zz(1, 2)] == 0.5
    restricted = b.restricted([zz(1, 2), zz(0, 2)])
    assert restricted.keys() == (zz(0, 2), zz(1, 2)) and restricted[zz(0, 2)] == 0.0
    with pytest.raises(ValidationError, match="out of range"):
        b.restricted([zz(1, 3)])
    huge = CouplingVector(3, {zz(0, 1): 1e308})
    with pytest.raises(ValidationError, match="non-finite"):
        huge + huge
    with pytest.raises(ValidationError, match="non-finite"):
        hadamard_divide(huge, CouplingVector(3, {zz(0, 1): 1e-308}))


# ---- stored arrays and derived vectors ----------------------------------------


def test_stored_values_cannot_be_written():
    v = CouplingVector(3, {zz(1, 2): 3.0, zz(0, 1): 1.0})
    assert v.keys() is v.keys() and v.values_array() is v.values_array()
    with pytest.raises(ValueError):
        v.values_array()[0] = 2.0
    for derived in (v + v, v - CouplingVector(3, {zz(0, 2): 1.0}), hadamard_divide(v, v)):
        assert not derived.values_array().flags.writeable


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("other", [{zz(0, 2): 1.0, zz(1, 2): -1e308}, {zz(1, 2): -1e308}], ids=["equal", "merged"])
def test_arithmetic_that_overflows_names_the_key(other):
    a = CouplingVector(3, {zz(0, 2): 1.0, zz(1, 2): 1e308})
    b = CouplingVector(3, other)
    assert (a.keys() == b.keys()) == (len(other) == 2)
    with pytest.raises(ValidationError, match=r"coupling \(1,2,z,z\) has non-finite value inf"):
        a - b
    with pytest.raises(ValidationError, match=r"coupling \(1,2,z,z\) has non-finite value -inf"):
        b + b


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_division_that_overflows_names_the_key():
    a = CouplingVector(3, {zz(0, 1): 1.0, zz(0, 2): 1e300})
    b = CouplingVector(3, {zz(0, 1): 2.0, zz(0, 2): 1e-300})
    with pytest.raises(ValidationError, match=r"coupling \(0,2,z,z\) has non-finite value inf"):
        hadamard_divide(a, b)


def _key_tuple_takers():
    """Each public function that takes a canonical key tuple on 3 qubits, called on one."""
    h = CouplingVector(3, {zz(0, 1): 1.0})
    sched = synthesize(h, h, (zz(0, 1),), 1.0, SynthesisMode.REMOVE_ZEROS, 0)
    defect = sample_defect(3, (zz(0, 1),), 1.0, 0)
    return {
        "from_sorted": lambda keys: CouplingVector.from_sorted(3, keys, [1.0] * len(keys)),
        "sample_defect": lambda keys: sample_defect(3, keys, 1.0, 0),
        "pattern_space_size": lambda keys: pattern_space_size(3, keys),
        "generate_candidate_patterns": lambda keys: generate_candidate_patterns(3, keys, 1, 0),
        "synthesize": lambda keys: synthesize(h, h, keys, 1.0, SynthesisMode.MITIGATE_ZEROS, 0),
        "evaluate_bounds": lambda keys: evaluate_bounds(h, h, keys, sched, defect),
    }


KEY_TUPLE_TAKERS = ("from_sorted", "sample_defect", "pattern_space_size", "generate_candidate_patterns", "synthesize",
                    "evaluate_bounds")


@pytest.mark.parametrize("taker", KEY_TUPLE_TAKERS)
@pytest.mark.parametrize("keys, named", [
    ((zz(0, 2), zz(0, 1)), r"\(0,1,z,z\) repeats or precedes \(0,2,z,z\)"),
    ((zz(0, 1), zz(0, 1)), r"\(0,1,z,z\) repeats or precedes \(0,1,z,z\)"),
    ((zz(0, 1), zz(1, 3)), r"\(1,3,z,z\) out of range for 3 qubits"),
    ((zz(0, 1), (0, 2, "z", "z")), r"\(0, 2, 'z', 'z'\) is not a CouplingKey"),
    ((zz(0, 1), (1, 0, "z", "z")), r"\(1, 0, 'z', 'z'\) is not a CouplingKey"),
    ([zz(0, 1), zz(0, 2)], "must come as a tuple, got list"),
], ids=["unsorted", "duplicate", "out-of-range", "raw-tuple", "invalid-raw-tuple", "list"])
def test_key_tuple_takers_name_the_bad_key(taker, keys, named):
    take = _key_tuple_takers()[taker]
    with pytest.raises(ValidationError, match=named):
        take(keys)
    take((zz(0, 1), zz(0, 2)))  # the canonical tuple passes


@pytest.mark.parametrize("n_qubits", [0, -2, 2.0])
def test_key_tuple_takers_reject_a_qubit_count_that_is_not_positive(n_qubits):
    for take in (
        lambda: CouplingVector.from_sorted(n_qubits, (), []),
        lambda: sample_defect(n_qubits, (), 1.0, 0),
        lambda: pattern_space_size(n_qubits, ()),
        lambda: generate_candidate_patterns(n_qubits, (), 1, 0),
    ):
        with pytest.raises(ValidationError, match="n_qubits must be a positive integer"):
            take()


def test_sorted_constructor_checks_every_value():
    with pytest.raises(ValidationError, match=r"coupling \(1,2,z,z\) has non-finite value nan"):
        CouplingVector.from_sorted(3, (zz(0, 1), zz(1, 2)), [1.0, math.nan])
    with pytest.raises(ValidationError, match="2 coupling keys"):
        CouplingVector.from_sorted(3, (zz(0, 1), zz(1, 2)), [1.0])


def test_arithmetic_keeps_one_sided_values_bit_for_bit():
    # a key of one side keeps its value (a -0.0 stays -0.0) or gets 0.0 + sign * value
    a = CouplingVector(3, {zz(0, 1): -0.0, zz(1, 2): 1.5})
    b = CouplingVector(3, {zz(0, 2): 0.0, zz(1, 2): 0.5})
    for total, expected in ((a + b, [-0.0, 0.0, 2.0]), (a - b, [-0.0, 0.0, 1.0]), (b - a, [0.0, 0.0, -1.0])):
        assert total.keys() == (zz(0, 1), zz(0, 2), zz(1, 2))
        assert np.array_equal(np.signbit(total.values_array()), np.signbit(expected))
        assert total.values_array().tolist() == expected


# ---- p-norms ---------------------------------------------------------------


def test_p_norms_of_two_entry_vector():
    v = CouplingVector(2, {CouplingKey(0, 1, "x", "x"): 3.0, zz(0, 1): -4.0})
    assert vector_p_norm(v, 1) == pytest.approx(7.0)
    assert vector_p_norm(v, 2) == pytest.approx(5.0)
    assert vector_p_norm(v, math.inf) == 4.0


def test_minus_inf_norm_of_empty_vector_is_an_error():
    for v in (CouplingVector(2), CouplingVector(2, {zz(0, 1): 1.0})):
        with pytest.raises(ValidationError):
            vector_p_norm(v, -math.inf)


def test_nonpositive_norm_order_rejected():
    v = CouplingVector(2, {zz(0, 1): 1.0})
    with pytest.raises(ValidationError):
        vector_p_norm(v, 0.0)
    with pytest.raises(ValidationError):
        vector_p_norm(v, -2.0)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=8))
def test_norm_ordering_property(values):
    keys = sorted(CouplingKey(i, j, mu, nu)
                  for i in range(4) for j in range(i + 1, 4) for mu in AXES for nu in AXES)
    v = CouplingVector(4, dict(zip(keys, values)))
    n1 = vector_p_norm(v, 1)
    n2 = vector_p_norm(v, 2)
    ninf = vector_p_norm(v, math.inf)
    assert n1 >= n2 - 1e-9 * max(1.0, n1)
    assert n2 >= ninf - 1e-9 * max(1.0, n2)


# ---- hadamard division -----------------------------------------------------


def test_hadamard_divide_plain():
    a = CouplingVector(2, {zz(0, 1): 2.0})
    b = CouplingVector(2, {zz(0, 1): 4.0})
    assert hadamard_divide(a, b)[zz(0, 1)] == 0.5


def test_hadamard_divide_zero_numerator():
    b = CouplingVector(2, {zz(0, 1): 4.0})
    out = hadamard_divide(CouplingVector(2), b)
    assert entries(out) == {zz(0, 1): 0.0}


def test_hadamard_divide_leaves_out_indeterminate_keys():
    a = CouplingVector(3, {zz(0, 1): 1.0, zz(1, 2): 0.0})
    b = CouplingVector(3, {zz(0, 1): 2.0, zz(1, 2): 0.0, zz(0, 2): 0.0})
    ratios = hadamard_divide(a, b)
    assert entries(ratios) == {zz(0, 1): 0.5}
    assert ratios[zz(1, 2)] == ratios[zz(0, 2)] == 0.0
    for p in (1.0, 2.0, 3.0, math.inf):
        assert vector_p_norm(ratios, p) == 0.5


def test_hadamard_divide_nonzero_over_zero_is_simulability_violation():
    a = CouplingVector(2, {zz(0, 1): 1.0})
    with pytest.raises(SimulabilityError):
        hadamard_divide(a, CouplingVector(2))


def test_hadamard_divide_multiply_back_recovers_numerator():
    rng = np.random.default_rng(3)
    keys = [zz(0, 1), zz(0, 2), zz(1, 2), CouplingKey(0, 1, "x", "y")]
    for _ in range(50):
        b_vals = rng.normal(size=len(keys)) * (rng.random(size=len(keys)) > 0.2)
        a_vals = rng.normal(size=len(keys)) * (b_vals != 0)
        a = CouplingVector(3, dict(zip(keys, a_vals)))
        b = CouplingVector(3, dict(zip(keys, b_vals)))
        ratio = hadamard_divide(a, b)
        for k in b.keys():
            assert ratio[k] * b[k] == pytest.approx(a[k], abs=1e-12)


# ---- graphs ----------------------------------------------------------------


def test_degree_path_graph():
    assert max_degree((zz(0, 1), zz(1, 2), zz(2, 3)), 4) == 2


def test_degree_complete_graph():
    assert max_degree(tuple(zz(i, j) for i in range(5) for j in range(i + 1, 5)), 5) == 4


def test_degree_chain_with_second_neighbour_defects():
    chain = [zz(i, i + 1) for i in range(4)]
    second = [zz(i, i + 2) for i in range(3)]
    assert max_degree(chain + second, 5) == 4
    # the defect-only part alone has degree 2
    assert max_degree(second, 5) == 2


def test_degree_counts_axis_multiplicity():
    assert max_degree([CouplingKey(0, 1, mu, nu) for mu in AXES for nu in AXES], 2) == 9


def test_degree_of_no_edges_is_zero():
    assert max_degree((), 3) == 0


# ---- construction and serialization ----------------------------------------


def test_key_validation():
    with pytest.raises(ValidationError):
        CouplingVector(3, {CouplingKey(1, 0, "z", "z"): 1.0})
    with pytest.raises(ValidationError):
        CouplingVector(3, {CouplingKey(0, 3, "z", "z"): 1.0})
    with pytest.raises(ValidationError):
        CouplingVector(3, {CouplingKey(0, 1, "z", "w"): 1.0})
    with pytest.raises(ValidationError):
        CouplingVector(3, {zz(0, 1): math.nan})


@pytest.mark.parametrize("fields", [(1, 0, "z", "z"), (0, 1, "z", "w"), (0.0, 1, "z", "z"), (-1, 1, "z", "z")])
def test_invalid_key_is_rejected_when_built(fields):
    with pytest.raises(ValidationError):
        CouplingKey(*fields)
    with pytest.raises(ValidationError):
        CouplingKey._make(fields)


def test_replace_checks_the_new_key():
    with pytest.raises(ValidationError):
        zz(0, 1)._replace(i=2)
    assert type(zz(0, 1)._replace(j=2)) is CouplingKey and zz(0, 1)._replace(j=2) == zz(0, 2)


@pytest.mark.parametrize("key", [(0, 3, "z", "z"), zz(0, 3)])
def test_containers_reject_keys_beyond_their_qubits(key):
    with pytest.raises(ValidationError, match="out of range"):
        CouplingVector(3, {key: 1.0})


def test_raw_tuple_keys_are_stored_as_coupling_keys():
    v = CouplingVector(3, {(0, 1, "z", "z"): 1.0, (1, 2, "x", "y"): 2.0})
    assert all(type(k) is CouplingKey for k in v.keys())
    assert v[zz(0, 1)] == 1.0 and v[CouplingKey(1, 2, "x", "y")] == 2.0
    with pytest.raises(ValidationError):
        CouplingVector(3, {(1, 0, "z", "z"): 1.0})


def test_absent_key_reads_zero_and_support_skips_zeros():
    v = CouplingVector(3, {zz(0, 1): 1.5, zz(1, 2): 0.0})
    assert v[zz(0, 2)] == 0.0
    assert v.support() == (zz(0, 1),)
    assert v.keys() == (zz(0, 1), zz(1, 2))


def test_text_round_trip_is_bit_exact():
    rng = np.random.default_rng(11)
    keys = [zz(0, 1), zz(0, 2), CouplingKey(1, 2, "x", "y"), CouplingKey(1, 3, "y", "z")]
    values = [0.1, -1.0 / 3.0, rng.normal() * 1e-7, 123456.789012345678]
    v = CouplingVector(4, dict(zip(keys, values)))
    again = CouplingVector.from_text(coupling_text(v))
    assert same(again, v)
    assert coupling_text(again) == coupling_text(v)


def test_text_accepts_comments_and_rejects_garbage():
    text = "# couplings\nn_qubits=2\n# one edge\n0 1 z z 2.5\n"
    v = CouplingVector.from_text(text)
    assert v[zz(0, 1)] == 2.5
    with pytest.raises(ValidationError):
        CouplingVector.from_text("0 1 z z 2.5\n")  # missing header
    with pytest.raises(ValidationError):
        CouplingVector.from_text("n_qubits=2\n0 1 z z\n")
    with pytest.raises(ValidationError):
        CouplingVector.from_text("n_qubits=2\n0 1 z z 1.0\n0 1 z z 2.0\n")


@pytest.mark.parametrize("text, count", [("n_qubits=0\n", 0), ("n_qubits=-2\n0 1 z z 1.0\n", -2)],
                         ids=["zero", "negative"])
def test_a_header_qubit_count_below_one_is_rejected_at_its_line(text, count):
    with pytest.raises(ValidationError, match=f"^line 1: n_qubits must be a positive integer, got {count}$"):
        CouplingVector.from_text(text)


def test_save_load(tmp_path):
    v = CouplingVector(2, {zz(0, 1): -7.25})
    path = tmp_path / "h.txt"
    write_couplings(v, path)
    assert same(CouplingVector.load(path), v)


def test_vector_arithmetic():
    a = CouplingVector(3, {zz(0, 1): 1.0, zz(1, 2): 2.0})
    b = CouplingVector(3, {zz(1, 2): -2.0, zz(0, 2): 5.0})
    total = a + b
    assert total[zz(0, 1)] == 1.0
    assert total[zz(1, 2)] == 0.0
    assert total[zz(0, 2)] == 5.0
    assert same(total - b, CouplingVector(3, {zz(0, 1): 1.0, zz(1, 2): 2.0, zz(0, 2): 0.0}))


def test_is_zz_only():
    assert is_zz_only([zz(0, 1), zz(1, 2)])
    assert is_zz_only([])
    assert not is_zz_only([zz(0, 1), CouplingKey(0, 1, "z", "x")])
    assert not is_zz_only([CouplingKey(0, 1, "x", "z")])
