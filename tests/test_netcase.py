import importlib.util
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridscreen import dcopf
from gridscreen import CaseError, full_monitored_set, parse_case, serialize_case, solve_opf, to_graph

DERIVED = ("rating", "ptdf", "gen_ptdf", "gen_cost", "gen_p_min", "gen_p_max")

PATH_CASE = """
#BASE
100.0
#BUS
1 3 0.0
2 1 10.0
3 1 20.0
#GEN
1 5.0 0.0 100.0
#BRANCH
1 2 0.1 50.0
2 3 0.1 50.0
"""


def test_ring_case_is_the_output_of_its_script():
    """cases/ring14x8.case is what cases/make_ring.py writes from case14.case; it is parsed, never solved here."""
    cases = Path(__file__).resolve().parents[1] / "cases"
    spec = importlib.util.spec_from_file_location("make_ring", cases / "make_ring.py")
    make_ring = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_ring)
    text = (cases / "ring14x8.case").read_text(encoding="utf-8")
    assert text == make_ring.ring_case((cases / "case14.case").read_text(encoding="utf-8"))
    ring = parse_case(text)
    assert (ring.num_buses, ring.num_branches, ring.num_generators) == (112, 176, 40)


def test_parse_tri3_counts(tri3):
    assert tri3.num_buses == 3
    assert tri3.num_branches == 3
    assert tri3.num_generators == 2
    assert tri3.base_mva == 100.0


def test_parse_tri3_bus_types(tri3):
    assert [b.bus_type for b in tri3.buses] == ["slack", "generator", "load"]
    assert tri3.base_load().tolist() == [0.0, 0.0, 150.0]


def test_external_ids_preserved(tri3):
    assert [b.id for b in tri3.buses] == [1, 2, 3]
    assert (tri3.branches[1].from_bus, tri3.branches[1].to_bus) == (1, 3)


def test_round_trip_identity(tri3, tri3_text):
    again = parse_case(serialize_case(tri3))
    assert again == tri3
    # and serialization itself is stable
    assert serialize_case(again) == serialize_case(tri3)


def test_round_trip_full_precision():
    text = PATH_CASE.replace("0.1 50.0", "0.123456789012345678 50.0", 1)
    net = parse_case(text)
    assert parse_case(serialize_case(net)) == net


def test_same_case_is_equal_and_cases_differ(tri3, case14):
    assert parse_case(serialize_case(tri3)) == tri3
    assert tri3 != case14


def test_comments_and_crlf(tri3_text, tri3):
    text = "% leading comment\r\n" + tri3_text.replace("\n", "\r\n")
    assert parse_case(text) == tri3


@pytest.mark.parametrize("mangle,what", [
    (lambda t: t.replace("1 3 0.0", "1 3 abc"), "not a number"),
    (lambda t: t.replace("1 3 0.0", "1 3"), "expected 3 columns"),
    (lambda t: t.replace("2 2 0.0", "1 2 0.0"), "duplicate bus id"),
    (lambda t: t.replace("2 20.0 0.0 200.0", "9 20.0 0.0 200.0"), "unknown bus"),
    (lambda t: t.replace("2 3 0.1 200.0", "2 9 0.1 200.0"), "unknown bus"),
    (lambda t: t.replace("2 3 0.1 200.0", "3 3 0.1 200.0"), "self-loop"),
    (lambda t: t.replace("1 3 0.0", "1 1 0.0"), "no slack"),
    (lambda t: t.replace("2 2 0.0", "2 3 0.0"), "multiple slack"),
    (lambda t: t.replace("1 3 0.1 80.0", "1 3 -0.1 80.0"), "reactance"),
    (lambda t: t.replace("1 3 0.1 80.0", "1 3 0.1 0.0"), "rating"),
    (lambda t: t.replace("3 1 150.0", "3 1 -5.0"), "load"),
    (lambda t: t.replace("#BRANCH", "#LINES"), "unknown section"),
    (lambda t: "5 5 5\n" + t, "before any section"),
    # every value is finite, and every id and bus type is a whole number
    (lambda t: t.replace("1 10.0 0.0 200.0", "1 10.0 nan 200.0"), "line 10: column 3: not a finite number"),
    (lambda t: t.replace("3 1 150.0", "inf 1 150.0"), "line 8: column 1: not a finite number"),
    (lambda t: t.replace("2 20.0 0.0 200.0", "inf 20.0 0.0 200.0"), "line 11: column 1: not a finite number"),
    (lambda t: t.replace("2 2 0.0", "nan 2 0.0"), "line 7: column 1: not a finite number"),
    (lambda t: t.replace("1 3 0.1 80.0", "1 3 0.1 -inf"), "line 14: column 4: not a finite number"),
    (lambda t: t.replace("2 20.0 0.0 200.0", "1.5 20.0 0.0 200.0"), "line 11: column 1: not an integer"),
    (lambda t: t.replace("2 3 0.1 200.0", "2 1.9 0.1 200.0"), "line 15: column 2: not an integer"),
    (lambda t: t.replace("2 2 0.0", "2 2.5 0.0"), "line 7: column 2: not an integer"),
])
def test_parse_errors(tri3_text, mangle, what):
    with pytest.raises(CaseError) as err:
        parse_case(mangle(tri3_text))
    assert what in str(err.value)


@pytest.mark.parametrize("mangle,message,line", [
    (lambda t: t.replace("#BASE\n100.0\n", ""), "missing #BASE section", None),
    (lambda t: t.replace("100.0\n", "100.0\n100.0\n"), "multiple #BASE rows", 5),
    (lambda t: t.replace("100.0\n", "0.0\n"), "base MVA must be positive, got 0.0", 4),
    (lambda t: t.replace("#BUS\n1 3 0.0\n2 2 0.0\n3 1 150.0\n", ""), "missing #BUS section", None),
    (lambda t: t.replace("3 1 150.0", "0 1 150.0"), "bus id must be positive, got 0", 8),
    (lambda t: t.replace("3 1 150.0", "3 4 150.0"), "bus type must be 1, 2 or 3, got 4", 8),
    (lambda t: t.replace("2 20.0 0.0 200.0", "2 -20.0 0.0 200.0"), "generator cost must be >= 0, got -20.0", 11),
    (lambda t: t.replace("2 20.0 0.0 200.0", "2 20.0 -1.0 200.0"),
     "generator limits must satisfy 0 <= pmin <= pmax, got [-1.0, 200.0]", 11),
    (lambda t: t.replace("2 20.0 0.0 200.0", "2 20.0 50.0 40.0"),
     "generator limits must satisfy 0 <= pmin <= pmax, got [50.0, 40.0]", 11),
    (lambda t: t.replace("2 3 0.1 200.0", "9 3 0.1 200.0"), "branch references unknown bus 9", 15),
], ids=["no-base", "two-base-rows", "base-mva-zero", "no-bus", "bus-id-zero", "bus-type-4", "negative-cost",
        "negative-pmin", "pmax-below-pmin", "branch-from-unknown"])
def test_parse_rejects_bad_sections_and_values(tri3_text, mangle, message, line):
    """Each rule names itself, and a rule about one row names that row's line."""
    with pytest.raises(CaseError) as err:
        parse_case(mangle(tri3_text))
    assert str(err.value) == (message if line is None else f"line {line}: {message}")
    assert err.value.line == line


def test_syntax_error_reports_line(tri3_text):
    bad = tri3_text.replace("3 1 150.0", "3 1 x")
    line_no = bad.splitlines().index("3 1 x") + 1
    with pytest.raises(CaseError) as err:
        parse_case(bad)
    assert f"line {line_no}" in str(err.value)
    assert err.value.line == line_no


def test_single_bus_rejected():
    text = "#BASE\n100\n#BUS\n1 3 0.0\n#GEN\n1 5 0 10\n#BRANCH\n"
    with pytest.raises(CaseError, match="no branches"):
        parse_case(text)


def test_disconnected_rejected():
    text = (
        "#BASE\n100\n#BUS\n1 3 0\n2 1 5\n3 1 5\n4 1 5\n"
        "#GEN\n1 5 0 100\n#BRANCH\n1 2 0.1 50\n3 4 0.1 50\n"
    )
    with pytest.raises(CaseError, match="disconnected"):
        parse_case(text)


def test_to_graph_triangle(tri3):
    topo = to_graph(tri3)
    assert topo.degree.tolist() == [2, 2, 2]
    ef, et = tri3.branch_endpoints()
    assert topo.edge_from.tolist() == ef.tolist()
    assert topo.edge_to.tolist() == et.tolist()


def test_to_graph_incidence_shared_read_only(tri3):
    topo = to_graph(tri3)
    ef, et = tri3.branch_endpoints()
    for incidence, ends in ((topo.incidence_from, ef), (topo.incidence_to, et)):
        assert incidence.shape == (3, 3) and not incidence.flags.writeable
        assert incidence.tolist() == np.eye(3)[ends].tolist()
    assert topo.incidence_from is topo.incidence_from


def test_to_graph_path():
    topo = to_graph(parse_case(PATH_CASE))
    assert topo.degree.tolist() == [1, 2, 1]


def test_to_graph_parallel_branch(tri3_text):
    text = tri3_text + "1 2 0.2 100.0\n"
    topo = to_graph(parse_case(text))
    assert topo.degree.tolist() == [3, 3, 2]


@pytest.mark.parametrize("seed", range(6))
def test_graph_properties_random(seed):
    # random connected graph: spanning tree plus extra chords
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(3, 10))
    edges = [(int(rng.integers(0, i)), i) for i in range(1, nb)]
    for _ in range(int(rng.integers(0, nb))):
        a, b = rng.choice(nb, 2, replace=False)
        edges.append((int(min(a, b)), int(max(a, b))))
    lines = ["#BASE", "100.0", "#BUS"]
    lines += [f"{i + 1} {3 if i == 0 else 1} {rng.uniform(0, 20):.3f}" for i in range(nb)]
    lines += ["#GEN", "1 5.0 0.0 500.0", "#BRANCH"]
    lines += [f"{a + 1} {b + 1} {rng.uniform(0.05, 0.3):.4f} 100.0" for a, b in edges]
    net = parse_case("\n".join(lines))
    topo = to_graph(net)
    assert topo.degree.sum() == 2 * net.num_branches
    assert parse_case(serialize_case(net)) == net


def test_derived_arrays_read_only(tri3_text):
    net = parse_case(tri3_text)
    assert net.rating.tolist() == [200.0, 80.0, 200.0]
    assert net.gen_cost.tolist() == [10.0, 20.0] and net.gen_p_max.tolist() == [200.0, 200.0]
    assert net.gen_ptdf.tolist() == net.ptdf[:, [0, 1]].tolist()
    for name in DERIVED:
        array = getattr(net, name)
        assert getattr(net, name) is array          # derived once
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_derived_arrays_stay_out_of_identity(tri3_text):
    net = parse_case(tri3_text)
    for name in DERIVED:
        getattr(net, name)
    assert serialize_case(net) is serialize_case(net)  # rendered once
    assert parse_case(serialize_case(net)) == net
    back = pickle.loads(pickle.dumps(net))
    assert back == net
    assert not {*DERIVED, "_case_text"} & set(vars(back))  # not pickled ...
    assert back.ptdf.tolist() == net.ptdf.tolist()  # ... but derived again
    assert not back.ptdf.flags.writeable


def test_base_case_derived_once_and_kept_out_of_identity(tri3_text):
    net = parse_case(tri3_text)
    everything = (0, 1, 2)
    start = dcopf._warm_start(net, everything)
    assert dcopf._warm_start(net, everything) is start  # solved and prepared once
    base = start.solution
    assert base.status == "optimal"
    cold = solve_opf(net, net.base_load(), full_monitored_set(net))  # every branch monitored
    assert base.x.tobytes() == cold.p_g.tobytes()
    reduced = dcopf._warm_start(net, (1,))  # each monitored set has a start of its own
    assert reduced is not start and reduced.solution.x.tobytes() == solve_opf(net, net.base_load(), {1}).p_g.tobytes()
    assert net == parse_case(tri3_text)             # equal to a network that has not solved it
    back = pickle.loads(pickle.dumps(net))
    assert back == net
    assert "_warm_starts" not in vars(back)         # not pickled ...
    assert dcopf._warm_start(back, everything) is not start  # ... but derived again
    assert dcopf._warm_start(back, everything).solution.x.tobytes() == base.x.tobytes()


def test_warm_starts_are_bounded_least_recently_used_first(case14):
    net = parse_case(serialize_case(case14))        # a Network with no start prepared
    everything = tuple(range(net.num_branches))
    full = dcopf._warm_start(net, everything)
    sets = [(k,) for k in range(dcopf.MAX_WARM_STARTS)]
    starts = [dcopf._warm_start(net, mon) for mon in sets]  # one set more than the bound in all
    assert list(vars(net)["_warm_starts"]) == sets  # the least recently used, every branch, went first
    assert dcopf._warm_start(net, sets[0]) is starts[0]  # kept, and now the most recently used
    again = dcopf._warm_start(net, everything)
    assert again is not full and again.solution.x.tobytes() == full.solution.x.tobytes()
    assert list(vars(net)["_warm_starts"]) == sets[2:] + [sets[0], everything]
    with pytest.raises(ValueError, match="out of range"):
        dcopf._warm_start(net, (net.num_branches,))
    assert len(vars(net)["_warm_starts"]) == dcopf.MAX_WARM_STARTS


def test_replace_derives_afresh(tri3):
    tri3.rating, dcopf._warm_start(tri3, (0, 1, 2)), dcopf._warm_start(tri3, (1,))
    doubled = tuple(replace(br, rate_a_mw=2 * br.rate_a_mw) for br in tri3.branches)
    wider = replace(tri3, branches=doubled)
    assert wider.rating.tolist() == [400.0, 160.0, 400.0]
    assert tri3.rating.tolist() == [200.0, 80.0, 200.0]
    assert "_warm_starts" not in vars(wider)        # a start table of its own, empty
    # the 80 MW line binds at the base load, the 160 MW one does not
    for mon in ((0, 1, 2), (1,)):
        assert dcopf._warm_start(wider, mon).solution.x.tolist() != dcopf._warm_start(tri3, mon).solution.x.tolist()
        rebuilt = solve_opf(wider, wider.base_load(), mon)
        assert dcopf._warm_start(wider, mon).solution.x.tobytes() == rebuilt.p_g.tobytes()


def _slack_at_bus_2(net):
    """tri3 with the slack moved to bus 2; bus 1 keeps its generator, so parse_case would type it generator."""
    types = {1: "generator", 2: "slack"}
    return replace(net, buses=tuple(replace(b, bus_type=types.get(b.id, b.bus_type)) for b in net.buses))


@pytest.mark.parametrize("rebuild", [
    lambda net: replace(net, buses=tuple(reversed(net.buses))),
    _slack_at_bus_2,
], ids=["buses-reversed", "slack-at-bus-2"])
def test_replaced_buses_derive_their_index_and_slack(tri3, rebuild):
    """A Network replaced in its buses derives its index map and slack from them, as its parsed text does."""
    net = rebuild(tri3)
    parsed = parse_case(serialize_case(net))
    assert parsed == net
    assert net.bus_index == {b.id: i for i, b in enumerate(net.buses)}
    assert net.ptdf.tobytes() == parsed.ptdf.tobytes()
