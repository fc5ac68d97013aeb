import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from daqc.errors import SimulabilityError, ValidationError
from daqc.pauli import (
    AXES,
    CouplingKey,
    CouplingVector,
    InteractionGraph,
    graph_difference,
    hadamard_divide,
    is_zz_only,
    vector_p_norm,
)


def zz(i, j):
    return CouplingKey(i, j, "z", "z")


ZZ_TRIANGLE = [zz(0, 1), zz(0, 2), zz(1, 2)]


# ---- key order ---------------------------------------------------------------


def test_coupling_vector_iterates_canonically():
    v = CouplingVector(3, {zz(1, 2): 3.0, zz(0, 1): 1.0, CouplingKey(0, 1, "x", "x"): 2.0})
    assert v.keys() == (CouplingKey(0, 1, "x", "x"), zz(0, 1), zz(1, 2))


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


@pytest.mark.parametrize("keys, named", [
    ((zz(0, 2), zz(0, 1)), r"\(0,1,z,z\) repeats or precedes \(0,2,z,z\)"),
    ((zz(0, 1), zz(0, 1)), r"\(0,1,z,z\) repeats or precedes \(0,1,z,z\)"),
    ((zz(0, 1), zz(1, 3)), r"\(1,3,z,z\) out of range for 3 qubits"),
], ids=["unsorted", "duplicate", "out-of-range"])
def test_sorted_constructors_name_the_bad_key(keys, named):
    with pytest.raises(ValidationError, match=named):
        CouplingVector.from_sorted(3, keys, [1.0, 2.0])
    with pytest.raises(ValidationError, match=named):
        InteractionGraph.from_sorted(3, keys)


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
    assert out.items() == ((zz(0, 1), 0.0),)


def test_hadamard_divide_leaves_out_indeterminate_keys():
    a = CouplingVector(3, {zz(0, 1): 1.0, zz(1, 2): 0.0})
    b = CouplingVector(3, {zz(0, 1): 2.0, zz(1, 2): 0.0, zz(0, 2): 0.0})
    ratios = hadamard_divide(a, b)
    assert ratios.items() == ((zz(0, 1), 0.5),)
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


def test_graph_difference_triangle_minus_path():
    d = InteractionGraph(3, ZZ_TRIANGLE)
    s = InteractionGraph(3, [zz(0, 1), zz(0, 2)])
    diff = graph_difference(d, s)
    assert diff.edges == {zz(1, 2)}
    assert diff.edge_count == 1


def test_graph_difference_identical_graphs():
    d = InteractionGraph(3, ZZ_TRIANGLE)
    assert graph_difference(d, d).edge_count == 0


def test_graph_difference_complete_multigraph_minus_triangle():
    nine_k3 = InteractionGraph(3, [CouplingKey(i, j, mu, nu)
                                   for i in range(3) for j in range(i + 1, 3)
                                   for mu in AXES for nu in AXES])
    assert nine_k3.edge_count == 27
    assert graph_difference(nine_k3, InteractionGraph(3, ZZ_TRIANGLE)).edge_count == 24


def test_graph_difference_size_mismatch():
    with pytest.raises(ValidationError):
        graph_difference(InteractionGraph(3, ZZ_TRIANGLE), InteractionGraph(4))


def test_degree_path_graph():
    p4 = InteractionGraph(4, [zz(0, 1), zz(1, 2), zz(2, 3)])
    assert p4.degree() == 2


def test_degree_complete_graph():
    k5 = InteractionGraph(5, [zz(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert k5.degree() == 4


def test_degree_chain_with_second_neighbour_defects():
    chain = [zz(i, i + 1) for i in range(4)]
    second = [zz(i, i + 2) for i in range(3)]
    assert InteractionGraph(5, chain + second).degree() == 4
    # the defect-only part alone has degree 2
    assert InteractionGraph(5, second).degree() == 2


def test_degree_counts_axis_multiplicity():
    g = InteractionGraph(2, [CouplingKey(0, 1, mu, nu) for mu in AXES for nu in AXES])
    assert g.degree() == 9


def test_difference_then_union_restores_supergraph():
    rng = np.random.default_rng(2)
    universe = [zz(i, j) for i in range(5) for j in range(i + 1, 5)]
    for _ in range(25):
        d_edges = [e for e in universe if rng.random() < 0.6]
        s_edges = [e for e in d_edges if rng.random() < 0.5]
        d = InteractionGraph(5, d_edges)
        s = InteractionGraph(5, s_edges)
        assert graph_difference(d, s).edges | s.edges == d.edges


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
    with pytest.raises(ValidationError, match="out of range"):
        InteractionGraph(3, [key])


def test_raw_tuple_keys_are_stored_as_coupling_keys():
    v = CouplingVector(3, {(0, 1, "z", "z"): 1.0})
    g = InteractionGraph(3, [(1, 2, "x", "y")])
    assert all(type(k) is CouplingKey for k in (*v.keys(), *g.edges))
    assert v[zz(0, 1)] == 1.0 and CouplingKey(1, 2, "x", "y") in g.edges
    with pytest.raises(ValidationError):
        CouplingVector(3, {(1, 0, "z", "z"): 1.0})


def test_absent_key_reads_zero_and_support_skips_zeros():
    v = CouplingVector(3, {zz(0, 1): 1.5, zz(1, 2): 0.0})
    assert v[zz(0, 2)] == 0.0
    assert v.support() == (zz(0, 1),)
    assert v.keys() == (zz(0, 1), zz(1, 2))
    assert v.support_graph().edges == {zz(0, 1)}
    assert InteractionGraph.from_declared(v).edge_count == 2


def test_text_round_trip_is_bit_exact():
    rng = np.random.default_rng(11)
    keys = [zz(0, 1), zz(0, 2), CouplingKey(1, 2, "x", "y"), CouplingKey(1, 3, "y", "z")]
    values = [0.1, -1.0 / 3.0, rng.normal() * 1e-7, 123456.789012345678]
    v = CouplingVector(4, dict(zip(keys, values)))
    again = CouplingVector.from_text(v.to_text())
    assert again == v
    assert again.to_text() == v.to_text()


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


def test_save_load(tmp_path):
    v = CouplingVector(2, {zz(0, 1): -7.25})
    path = tmp_path / "h.txt"
    v.save(path)
    assert CouplingVector.load(path) == v


def test_vector_arithmetic():
    a = CouplingVector(3, {zz(0, 1): 1.0, zz(1, 2): 2.0})
    b = CouplingVector(3, {zz(1, 2): -2.0, zz(0, 2): 5.0})
    total = a + b
    assert total[zz(0, 1)] == 1.0
    assert total[zz(1, 2)] == 0.0
    assert total[zz(0, 2)] == 5.0
    assert (total - b) == CouplingVector(3, {zz(0, 1): 1.0, zz(1, 2): 2.0, zz(0, 2): 0.0})


def test_is_zz_only():
    assert is_zz_only([zz(0, 1), zz(1, 2)])
    assert is_zz_only([])
    assert not is_zz_only([zz(0, 1), CouplingKey(0, 1, "z", "x")])
    assert not is_zz_only([CouplingKey(0, 1, "x", "z")])
