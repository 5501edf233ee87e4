import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from consistentwalks import cli
from consistentwalks import perms as perms_module
from consistentwalks.cli import main
from consistentwalks.generation import EXACT_DELTA_ORDER_LIMIT
from consistentwalks.graphs import Graph, lex_blowup, named_graph
from consistentwalks.perms import PermutationGroup


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def record_graph_sizes(monkeypatch) -> list[int]:
    """The vertex count of every Graph built from now on, in order."""
    built = []
    init = Graph.__init__

    def recording_init(self, vertex_count, edges):
        built.append(vertex_count)
        init(self, vertex_count, edges)

    monkeypatch.setattr(Graph, "__init__", recording_init)
    return built


def test_orbits_petersen(capsys):
    code, out, _ = run_cli(["orbits", "--graph", "petersen"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["subcommand"] == "orbits"
    assert report["input"]["group_order"] == 120
    assert report["payload"]["orbit_count"] == 3
    lengths = sorted(r["length"] for r in report["payload"]["orbits"])
    assert lengths == [2, 5, 6]


def test_payload_is_deterministic(capsys):
    _, first, _ = run_cli(["orbits", "--graph", "cycle:6"], capsys)
    _, second, _ = run_cli(["orbits", "--graph", "cycle:6"], capsys)
    a, b = json.loads(first), json.loads(second)
    assert a["payload"] == b["payload"]
    assert a["input"] == b["input"]


def test_named_spec_with_surrounding_spaces(capsys):
    code, out, _ = run_cli(["orbits", "--graph", "cycle:5"], capsys)
    assert code == 0
    expected = json.loads(out)["payload"]
    for spec in (" cycle:5", "\tCycle:5 "):
        code, out, err = run_cli(["orbits", "--graph", spec], capsys)
        assert code == 0, err
        assert json.loads(out)["payload"] == expected


@pytest.mark.parametrize("spec", ["cycle:6:7", "complete_bipartite:3:3:junk",
                                  "circulant:8:1,3:x", "complete_bipartite:3",
                                  "circulant:8"])
def test_malformed_named_spec_is_one_json_line(spec, capsys):
    # each kind takes exactly its own parameters, no fewer and no more
    code, out, err = run_cli(["orbits", "--graph", spec], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "BadParameters",
                               "message": f"malformed parameters in {spec!r}"}


def test_trivial_walk_4valent(capsys):
    code, out, _ = run_cli(["trivial-walk", "--graph", "complete:5",
                            "--method", "4valent"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["certificate"]["stabilizer_order"] == 1
    assert payload["certificate"]["certified"]


def test_trivial_walk_auto_and_exhaustive(capsys):
    code, out, _ = run_cli(["trivial-walk", "--graph", "hypercube:3"], capsys)
    assert code == 0
    assert json.loads(out)["payload"]["method"] == "wps"
    code, out, _ = run_cli(["trivial-walk", "--graph", "hypercube:3",
                            "--method", "exhaustive"], capsys)
    assert code == 0
    assert json.loads(out)["payload"]["certificate"]["stabilizer_order"] == 1


def test_wps_check(capsys):
    code, out, _ = run_cli(["wps-check", "--graph", "petersen"], capsys)
    assert code == 0
    witness = json.loads(out)["payload"]["witness"]
    assert witness["prime"] == 2
    code, out, _ = run_cli(["wps-check", "--graph", "complete:5"], capsys)
    assert json.loads(out)["payload"]["witness"] is None


def test_generators_c6(capsys):
    code, out, _ = run_cli(["generators", "--graph", "cycle:6"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["generates"] is True
    assert len(payload["shunts"]) == 2
    assert payload["min_generators_bound"] == 2


def test_property_r(capsys):
    code, out, _ = run_cli(["property-r", "--graph", "cycle:6",
                            "--walk", "0,1", "--target", "3"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["verdict"] is True
    assert payload["chase"]["witness"]["chain"]
    code, _, err = run_cli(["property-r", "--graph", "cycle:6",
                            "--walk", "0,1", "--target", "99"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "BadParameters"


def test_property_r_closes_its_shunt_group_under_the_group_order(monkeypatch, capsys):
    # the shunt group is a subgroup of G, whose order --cap-group admitted,
    # so a raised cap reaches the closure and the default cap does not bound it
    caps = []
    close = PermutationGroup.close.__func__

    def recording_close(cls, generators, degree=None, cap=perms_module.DEFAULT_GROUP_CAP):
        caps.append(cap)
        return close(cls, generators, degree, cap)

    monkeypatch.setattr(PermutationGroup, "close", classmethod(recording_close))
    code, out, err = run_cli(["property-r", "--graph", "hypercube:3", "--walk", "0,1,3",
                              "--cap-group", str(10**16)], capsys)
    assert code == 0, err
    assert caps == [json.loads(out)["input"]["group_order"]] == [48]


def test_property_r_refuses_a_bad_target_before_closing(monkeypatch, capsys):
    closed = []
    close = PermutationGroup.close.__func__

    def recording_close(cls, generators, degree=None, cap=perms_module.DEFAULT_GROUP_CAP):
        closed.append(cap)
        return close(cls, generators, degree, cap)

    monkeypatch.setattr(PermutationGroup, "close", classmethod(recording_close))
    code, out, err = run_cli(["property-r", "--graph", "hypercube:3", "--walk", "0,1,3",
                              "--target", "99"], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "BadParameters"
    assert closed == []


def test_graph_json_file_with_generators(tmp_path, capsys):
    data = {"vertices": 6,
            "edges": [[i, (i + 1) % 6] for i in range(6)],
            "generators": [[1, 2, 3, 4, 5, 0]]}
    path = tmp_path / "c6.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(["orbits", "--graph", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["input"]["group_source"] == "embedded"
    assert report["input"]["group_order"] == 6
    # rotations are still vertex-transitive, so the d-orbit law applies:
    # one orbit of hexagons per direction
    assert report["payload"]["orbit_count"] == 2
    assert all(r["length"] == 6 for r in report["payload"]["orbits"])


def test_group_file_flag(tmp_path, capsys):
    graph = tmp_path / "c6.txt"
    graph.write_text("\n".join(f"{i} {(i + 1) % 6}" for i in range(6)))
    gens = tmp_path / "rot.json"
    gens.write_text(json.dumps({"degree": 6, "generators": [[1, 2, 3, 4, 5, 0]]}))
    code, out, _ = run_cli(["orbits", "--graph", str(graph),
                            "--group-file", str(gens)], capsys)
    assert code == 0
    assert json.loads(out)["input"]["group_source"] == "file"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["orbits", "--graph", "cycle:6",
                            "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["payload"]["orbit_count"] == 2


@pytest.mark.parametrize("target, exc", [("missing/report.json", "FileNotFoundError"),
                                         ("", "IsADirectoryError")])
def test_unwritable_out_is_one_json_line(tmp_path, capsys, target, exc):
    path = str(tmp_path / target) if target else str(tmp_path)
    code, out, err = run_cli(["orbits", "--graph", "cycle:5", "--out", path], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert path in error["message"] and exc in error["message"]


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(["trivial-walk", "--graph", "cycle:6",
                            "--method", "4valent"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "WrongValence"
    for cap in ("0", "-1"):
        code, out, err = run_cli(["trivial-walk", "--graph", "cycle:6",
                                  "--method", "exhaustive", "--depth-cap", cap], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "BadParameters"
    for spec in ("circulant:8:4", "circulant:12:2"):  # two disjoint cycles each
        code, out, err = run_cli(["generators", "--graph", spec], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "NotConnected"


def test_cap_exceeded_exit_code(tmp_path, capsys):
    code, _, err = run_cli(["orbits", "--graph", "petersen",
                            "--cap-group", "10"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "CapExceeded"
    # cycle:65 is twin-free, so its quotient is over the search's 64 vertices;
    # the longer cycles are over the 256-vertex limit and never built
    for spec, n, limit in (("cycle:65", 65, "64"), ("cycle:2000", 2000, "256"),
                           ("cycle:20000", 20000, "256")):
        started = time.perf_counter()
        code, out, err = run_cli(["orbits", "--graph", spec], capsys)
        assert time.perf_counter() - started < 10  # building the graph stays near-linear
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        message = json.loads(err)
        assert message["error"] == "CapExceeded"
        assert str(n) in message["message"] and limit in message["message"]
    code, out, _ = run_cli(["orbits", "--graph", "cycle:64"], capsys)
    assert code == 0
    assert json.loads(out)["payload"]["orbit_count"] == 2

    rot = tmp_path / "rot.json"
    rot.write_text(json.dumps({"degree": 6, "generators": [[1, 2, 3, 4, 5, 0]]}))
    for extra in ([], ["--group-file", str(rot)]):
        for cap in ("0", "-3"):
            code, out, err = run_cli(["orbits", "--graph", "cycle:6",
                                      "--cap-group", cap, *extra], capsys)
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"] == "BadParameters"
    # the automorphism search names |Aut| = 12, the closure stops at the whole group
    for extra, stage in (([], "automorphism search found 12 "),
                         (["--group-file", str(rot)], "group closure reached 6 ")):
        code, out, err = run_cli(["orbits", "--graph", "cycle:6",
                                  "--cap-group", "5", *extra], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        message = json.loads(err)
        assert message["error"] == "CapExceeded"
        assert message["message"].startswith(stage) and "cap of 5" in message["message"]


def test_oversized_graph_file_refused_before_building(tmp_path, monkeypatch, capsys):
    built = record_graph_sizes(monkeypatch)
    text = tmp_path / "big.txt"
    text.write_text("0 1\n1 2\n2 0\n3 2000000\n")
    as_json = tmp_path / "big.json"
    as_json.write_text(json.dumps({"vertices": 2000001,
                                   "edges": [[0, 1], [1, 2], [2, 0], [3, 2000000]]}))
    for path in (text, as_json):
        code, out, err = run_cli(["orbits", "--graph", str(path)], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        message = json.loads(err)
        assert message["error"] == "CapExceeded"
        assert "2000001" in message["message"] and "256" in message["message"]
    assert all(n <= 256 for n in built)


def test_group_file_degree_refuses_graph_before_building(tmp_path, monkeypatch, capsys):
    built = record_graph_sizes(monkeypatch)
    text = tmp_path / "big.txt"
    text.write_text("0 1\n1 2\n2 0\n3 2000000\n")
    as_json = tmp_path / "big.json"
    as_json.write_text(json.dumps({"vertices": 2000001,
                                   "edges": [[0, 1], [1, 2], [2, 0], [3, 2000000]]}))
    declared = tmp_path / "declared.json"
    declared.write_text(json.dumps({"degree": 3, "generators": [[1, 2, 0]]}))
    listed = tmp_path / "listed.json"  # degree read off the first generator
    listed.write_text(json.dumps([[1, 2, 0]]))
    for graph_file in (text, as_json):
        for group_file, error, message in (
                (declared, "ParseError", f"{declared}: declared degree 3 differs "
                                         f"from the graph's 2000001 vertices"),
                (listed, "NotAutomorphisms", "degree 3 != vertex count 2000001")):
            code, out, err = run_cli(["orbits", "--graph", str(graph_file),
                                      "--group-file", str(group_file)], capsys)
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1
            assert json.loads(err) == {"error": error, "message": message}
    assert all(n <= 3 for n in built)


def test_group_degree_over_256_refused_before_building(tmp_path, monkeypatch, capsys):
    built = record_graph_sizes(monkeypatch)
    rotation = [(i + 1) % 300 for i in range(300)]
    group_file = tmp_path / "rotation300.json"
    group_file.write_text(json.dumps({"degree": 300, "generators": [rotation]}))
    embedded = tmp_path / "cycle300.json"
    embedded.write_text(json.dumps({"vertices": 300, "generators": [rotation],
                                    "edges": [[i, (i + 1) % 300] for i in range(300)]}))
    for source in (["--graph", "cycle:300", "--group-file", str(group_file)],
                   ["--graph", str(embedded)]):
        code, out, err = run_cli(["orbits", *source], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "CapExceeded", "message":
                                   "permutation degree 300 exceeds the limit of 256"}
    assert built == []


def test_group_degree_256_answers_orbits(tmp_path, capsys):
    group_file = tmp_path / "rotation256.json"
    group_file.write_text(json.dumps([[(i + 1) % 256 for i in range(256)]]))
    code, out, _ = run_cli(["orbits", "--graph", "cycle:256",
                            "--group-file", str(group_file)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["input"]["group_order"] == 256
    assert report["payload"]["orbit_count"] == 2


def test_embedded_generator_degree_refuses_graph_before_building(tmp_path, monkeypatch,
                                                                 capsys):
    built = record_graph_sizes(monkeypatch)
    path = tmp_path / "bigemb.json"
    path.write_text(json.dumps({"vertices": 2000001,
                                "edges": [[0, 1], [1, 2], [2, 0], [3, 2000000]],
                                "generators": [[1, 2, 0]]}))
    start = time.perf_counter()
    code, out, err = run_cli(["orbits", "--graph", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "NotAutomorphisms",
                               "message": "degree 3 != vertex count 2000001"}
    assert built == []


BIG_EDGES = [[0, 1], [1, 2], [2, 0], [3, 2000000]]
C6_EDGES = [[i, (i + 1) % 6] for i in range(6)]
ROTATION = [1, 2, 3, 4, 5, 0]

# name -> (graph JSON, group file JSON or None, error); every value read from
# a file must be a JSON integer, every edge a pair, every generator n long
MALFORMED_INPUTS = {
    "vertices_float": ({"vertices": 4.9, "edges": C6_EDGES[:3]}, None, "ParseError"),
    "vertices_string": ({"vertices": "6", "edges": C6_EDGES}, None, "ParseError"),
    "vertices_bool": ({"vertices": True, "edges": []}, None, "ParseError"),
    "endpoint_float": ({"vertices": 6, "edges": C6_EDGES[1:] + [[0, 1.7]]}, None,
                       "ParseError"),
    "edge_triple": ({"vertices": 6, "edges": C6_EDGES[1:] + [[0, 1, 3]]}, None,
                    "ParseError"),
    "edge_not_list": ({"vertices": 6, "edges": C6_EDGES[1:] + ["0 1"]}, None,
                      "ParseError"),
    "image_float": ({"vertices": 6, "edges": C6_EDGES,
                     "generators": [[1.2, 2, 3, 4, 5, 0]]}, None, "ParseError"),
    "image_bool": ({"vertices": 6, "edges": C6_EDGES}, [[True, 2, 3, 4, 5, 0]],
                   "ParseError"),
    "degree_float": ({"vertices": 6, "edges": C6_EDGES},
                     {"degree": 6.0, "generators": [ROTATION]}, "ParseError"),
    "degree_bool": ({"vertices": 6, "edges": C6_EDGES},
                    {"degree": True, "generators": [ROTATION]}, "ParseError"),
    "generators_null": ({"vertices": 6, "edges": C6_EDGES},
                        {"degree": 6, "generators": None}, "ParseError"),
    "embedded_generator_int": ({"vertices": 2000001, "edges": BIG_EDGES,
                                "generators": [5]}, None, "ParseError"),
    "file_generator_int": ({"vertices": 2000001, "edges": BIG_EDGES}, [5], "ParseError"),
    "declared_degree_short_generator": (
        {"vertices": 2000001, "edges": BIG_EDGES},
        {"degree": 2000001, "generators": [[1, 2, 0]]}, "NotAutomorphisms"),
    "second_file_generator_short": (
        {"vertices": 6, "edges": C6_EDGES},
        {"degree": 6, "generators": [ROTATION, [1, 0, 2]]}, "NotAutomorphisms"),
    "second_embedded_generator_long": (
        {"vertices": 6, "edges": C6_EDGES, "generators": [ROTATION, list(range(7))]},
        None, "NotAutomorphisms"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_refused_before_building(name, tmp_path, monkeypatch, capsys):
    graph_data, group_data, error = MALFORMED_INPUTS[name]
    built = record_graph_sizes(monkeypatch)
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph_data))
    args = ["orbits", "--graph", str(graph_file)]
    if group_data is not None:
        group_file = tmp_path / "group.json"
        group_file.write_text(json.dumps(group_data))
        args += ["--group-file", str(group_file)]
    started = time.perf_counter()
    code, out, err = run_cli(args, capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    message = json.loads(err)
    assert message["error"] == error, message
    if error == "NotAutomorphisms":
        n = graph_data["vertices"]
        assert message["message"].endswith(f" != vertex count {n}")
    assert built == []


HUGE_INTEGER = "9" * 5000


# json.loads raises a plain ValueError, not JSONDecodeError, for an integer
# of more than 4,300 digits, and RecursionError for deep nesting
@pytest.mark.parametrize("where,text", [
    ("graph", f'{{"vertices": {HUGE_INTEGER}, "edges": [[0, 1]]}}'),
    ("group", f"[[{HUGE_INTEGER}, 2, 3, 4, 5, 0]]"),
    ("group", "[" * 100_000 + "]" * 100_000),
], ids=["graph-integer", "group-integer", "group-nesting"])
def test_unreadable_json_is_a_parse_error(where, text, tmp_path, monkeypatch, capsys):
    built = record_graph_sizes(monkeypatch)
    graph_file = tmp_path / "graph.json"
    args = ["orbits", "--graph", str(graph_file)]
    if where == "graph":
        bad = graph_file
    else:
        bad = tmp_path / "group.json"
        graph_file.write_text(json.dumps({"vertices": 6, "edges": C6_EDGES}))
        args += ["--group-file", str(bad)]
    bad.write_text(text)
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    message = json.loads(err)
    assert message["error"] == "ParseError", message
    assert message["message"].startswith(f"{bad}: unreadable JSON: "), message
    assert built == []


@pytest.mark.parametrize("dimension", [33, 14000, 99999999])
def test_huge_hypercube_refused_by_its_dimension(dimension, monkeypatch, capsys):
    # 2**dimension is never built: formatting it failed past 4,300 digits,
    # and hypercube:14000 printed a 4,215-digit vertex count
    built = record_graph_sizes(monkeypatch)
    started = time.perf_counter()
    code, out, err = run_cli(["orbits", "--graph", f"hypercube:{dimension}"], capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "CapExceeded", "message":
                               f"hypercube dimension {dimension} exceeds the limit of 32"}
    assert built == []


def test_oversized_named_spec_and_blowup_refused_before_building(monkeypatch, capsys):
    built = record_graph_sizes(monkeypatch)
    for args, n in ((["orbits", "--graph", "complete:1200"], 1200),
                    (["orbits", "--graph", "hypercube:16"], 65536),
                    (["blowup-demo", "--graph", "cycle:4", "--m", "160"], 640)):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        message = json.loads(err)
        assert message["error"] == "CapExceeded"
        assert str(n) in message["message"] and "256" in message["message"]
    assert built and all(n <= 256 for n in built)


def test_invariant_violation_exit_code(monkeypatch, capsys):
    valence = Graph.valence
    monkeypatch.setattr(Graph, "valence", lambda self: valence(self) + 1)
    code, out, err = run_cli(["orbits", "--graph", "petersen"], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    message = json.loads(err)
    assert message["error"] == "InvariantViolation"
    assert message["message"] == "expected 4 orbits, found 3"


def test_memory_error_is_one_json_line(monkeypatch, capsys):
    # an expansion past the process's memory is reported like a cap, exit 2
    def exhausted(graph, group, args):
        raise MemoryError

    monkeypatch.setitem(cli.PAYLOADS, "orbits", exhausted)
    code, out, err = run_cli(["orbits", "--graph", "petersen"], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "MemoryError", "message": "out of memory"}


def test_parse_errors(tmp_path, capsys):
    code, _, err = run_cli(["orbits", "--graph", "nosuchfile.json"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": 6,
                               "edges": [[i, (i + 1) % 6] for i in range(6)],
                               "generators": [[0, 0, 1, 2, 3, 4]]}))
    code, _, err = run_cli(["orbits", "--graph", str(bad)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"

    bad_text = tmp_path / "bad.txt"
    bad_text.write_text("0 1\n1 two\n")
    code, _, err = run_cli(["orbits", "--graph", str(bad_text)], capsys)
    assert code == 1
    message = json.loads(err)
    assert message["error"] == "ParseError" and "line 2" in message["message"]

    not_auto = tmp_path / "notauto.json"
    not_auto.write_text(json.dumps({"vertices": 6,
                                    "edges": [[i, (i + 1) % 6] for i in range(6)],
                                    "generators": [[1, 0, 2, 3, 4, 5]]}))
    code, _, err = run_cli(["orbits", "--graph", str(not_auto)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "NotAutomorphisms"

    for name, edges in (("int_edges", 5), ("short_edge", [[0, 1], [1]])):
        malformed = tmp_path / f"{name}.json"
        malformed.write_text(json.dumps({"vertices": 6, "edges": edges}))
        code, _, err = run_cli(["orbits", "--graph", str(malformed)], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "ParseError"

    no_gens = tmp_path / "nogens.json"
    no_gens.write_text(json.dumps({"degree": 6}))
    code, _, err = run_cli(["orbits", "--graph", "cycle:6",
                            "--group-file", str(no_gens)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"

    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00 0 1\n")
    for unreadable in (tmp_path, binary):
        for flag in (["--graph", str(unreadable)],
                     ["--graph", "cycle:6", "--group-file", str(unreadable)]):
            code, out, err = run_cli(["orbits", *flag], capsys)
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"] == "ParseError"

    for degree in (5, 7, "6"):
        declared = tmp_path / f"degree_{degree}.json"
        declared.write_text(json.dumps({"degree": degree,
                                        "generators": [[1, 2, 3, 4, 5, 0]]}))
        code, out, err = run_cli(["orbits", "--graph", "cycle:6",
                                  "--group-file", str(declared)], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        message = json.loads(err)
        assert message["error"] == "ParseError" and "degree" in message["message"]


def test_blowup_demo_small(capsys):
    code, out, _ = run_cli(["blowup-demo", "--graph", "cycle:4", "--m", "2"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["blowup_vertices"] == 8
    assert payload["blowup_group_order"] == 1152
    assert payload["no_trivial_stabilizer"] in (True, False)
    assert len(payload["family"]["cycles"]) == 4


# the finish line: the blow-up of the 3-cube by 3-point fibers, whose
# automorphism group has 6^8 * 48 = 80,621,568 elements
FINISH_LINE_CENSUS = [(2, 373248), (4, 93312), (4, 20736), (6, 93312), (6, 2304),
                      (8, 1296), (12, 1296), (12, 36), (18, 36)]
FINISH_LINE_IDS = {(0, 1): 0, (0, 2): 1, (0, 3): 3, (1, 1): 2, (1, 2): 5,
                   (1, 3): 6, (2, 1): 4, (2, 2): 7, (2, 3): 8}


def test_finish_line_q3_blowup_by_three(capsys):
    code, out, err = run_cli(["blowup-demo", "--graph", "hypercube:3", "--m", "3",
                              "--cap-group", "100000000"], capsys)
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert payload["no_trivial_stabilizer"] is True
    assert payload["family_orbits_distinct"] is True
    assert [(r["length"], r["stabilizer_order"])
            for r in payload["census"]] == FINISH_LINE_CENSUS
    assert {(e["orbit"], e["fibers"]): e["id"]
            for e in payload["family_orbit_ids"]} == FINISH_LINE_IDS


@pytest.mark.parametrize("spec, vertices, aut_order", [("hypercube:3", 8, 48),
                                                      ("petersen", 10, 120)])
@pytest.mark.parametrize("m", range(2, 7))
def test_blowup_demo_sweep_against_closed_forms(spec, vertices, aut_order, m, capsys):
    # arithmetic that shares no code with the library: |Aut(X[mK1])| =
    # (m!)^n * |Aut X| for a twin-free X (Sabidussi 1961), and the census of
    # a 3m-valent arc-transitive graph has 3m records (Miklavic, Potocnik
    # and Wilson 2007)
    code, out, err = run_cli(["blowup-demo", "--graph", spec, "--m", str(m),
                              "--cap-group", str(10**40)], capsys)
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert payload["blowup_vertices"] == vertices * m
    assert payload["blowup_group_order"] == math.factorial(m) ** vertices * aut_order
    assert len(payload["census"]) == 3 * m
    assert payload["no_trivial_stabilizer"] is True
    assert payload["family_orbits_distinct"] is True


def run_cli_process(args):
    """``cwalks args`` in a child process: (exit code, stdout, stderr).

    The session's hooks in ``conftest.py`` re-derive every point stabilizer
    with sympy's Schreier-Sims, about 3 s each at degree 100 and over a
    hundred of them in one census at that scale, so the scale tests run
    the CLI on its own and check it against closed forms alone.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "consistentwalks.cli", *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("spec, vertices, aut_order, m", [("hypercube:3", 8, 48, 16),
                                                         ("petersen", 10, 120, 10)])
def test_blowup_demo_past_the_search_limit(spec, vertices, aut_order, m):
    # Q3[16K1] and Petersen[10K1] have 128 and 100 vertices, over the 64 of
    # the search; their 8- and 10-vertex twin quotients are searched
    # instead.  The closed forms are those of the sweep above.
    code, out, err = run_cli_process(["blowup-demo", "--graph", spec, "--m", str(m),
                                      "--cap-group", str(10**200)])
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert payload["blowup_vertices"] == vertices * m
    assert payload["blowup_group_order"] == math.factorial(m) ** vertices * aut_order
    assert len(payload["census"]) == 3 * m
    assert payload["no_trivial_stabilizer"] is True
    assert payload["family_orbits_distinct"] is True


def test_orbits_on_a_128_vertex_blowup_file(tmp_path):
    # Q4[8K1]: |Aut| = (8!)^16 * 384, and a 4m-valent arc-transitive graph
    # has 4m census records
    graph = lex_blowup(named_graph("hypercube:4"), 8)
    path = tmp_path / "q4-by-8.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in graph.edges()))
    code, out, err = run_cli_process(["orbits", "--graph", str(path),
                                      "--cap-group", str(10**100)])
    assert code == 0, err
    report = json.loads(out)
    assert report["input"]["vertices"] == 128
    assert report["input"]["group_order"] == math.factorial(8) ** 16 * 384
    assert report["payload"]["orbit_count"] == 32


# sha256 of the sorted-key payload, recorded before the generating set was
# read off the census, when this query took about 10 s and 700 MiB
Q3_BY_THREE_GENERATORS_SHA256 = "2180af30e3479272c33b71e822affcb8f0406fa52f1202ba3d671ab2af0ad311"


def test_generators_on_q3_blowup_by_three(tmp_path, capsys):
    graph = lex_blowup(named_graph("hypercube:3"), 3)
    path = tmp_path / "blowup.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in graph.edges()))
    started = time.perf_counter()
    code, out, err = run_cli(["generators", "--graph", str(path),
                              "--cap-group", "100000000"], capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert payload["group_order"] == payload["shunt_group_order"] == 80_621_568
    assert payload["chosen_walk_stabilizer_order"] == 36
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == Q3_BY_THREE_GENERATORS_SHA256


@pytest.mark.parametrize("base,cap", [("hypercube:3", "100000000"),
                                      ("petersen", "10000000000")])
def test_exhaustive_search_ends_on_blowups_by_three(base, cap, tmp_path, capsys):
    # no consistent walk of Q3[3K1] (|Aut| = 80,621,568) or Petersen[3K1]
    # (|Aut| = 7,255,941,120) has a trivial stabilizer, so the search runs
    # through every walk class up to depth 8
    graph = lex_blowup(named_graph(base), 3)
    path = tmp_path / "blowup.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in graph.edges()))
    started = time.perf_counter()
    code, out, err = run_cli(["trivial-walk", "--graph", str(path), "--method", "exhaustive",
                              "--depth-cap", "8", "--cap-group", cap], capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "NoWitness", "message": "no consistent walk of "
                               "length <= 8 has a trivial stabilizer"}


@pytest.fixture(scope="module")
def blowup_files(tmp_path_factory):
    """"C4[2K1]", "Q3[2K1]" and "Q3[3K1]" -> an edge-list file of that blow-up."""
    folder = tmp_path_factory.mktemp("graphs")
    files = {}
    for name, base, m in (("C4[2K1]", "cycle:4", 2), ("Q3[2K1]", "hypercube:3", 2),
                          ("Q3[3K1]", "hypercube:3", 3)):
        graph = lex_blowup(named_graph(base), m)
        path = folder / f"{base.replace(':', '')}k{m}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in graph.edges()))
        files[name] = str(path)
    return files


COLD_QUERIES = {
    "orbits": ["orbits", "--graph", "Q3[2K1]"],
    "generators": ["generators", "--graph", "Q3[2K1]"],
    "generators-q3k3": ["generators", "--graph", "Q3[3K1]", "--cap-group", "100000000"],
    "trivial-walk": ["trivial-walk", "--graph", "Q3[2K1]", "--method", "exhaustive",
                     "--depth-cap", "4"],
    "trivial-walk-q3k3": ["trivial-walk", "--graph", "Q3[3K1]", "--method", "exhaustive",
                          "--depth-cap", "8", "--cap-group", "100000000"],
    "trivial-walk-auto-c4k2": ["trivial-walk", "--graph", "C4[2K1]", "--method", "auto"],
    "trivial-walk-auto-q4": ["trivial-walk", "--graph", "hypercube:4", "--method", "auto"],
    "trivial-walk-4valent-k5": ["trivial-walk", "--graph", "complete:5",
                                "--method", "4valent"],
    "trivial-walk-wps-petersen": ["trivial-walk", "--graph", "petersen", "--method", "wps"],
    "trivial-walk-wps-q3": ["trivial-walk", "--graph", "hypercube:3", "--method", "wps"],
    "property-r": ["property-r", "--graph", "Q3[2K1]", "--walk", "0,2,6", "--target", "15"],
    "blowup-demo": ["blowup-demo", "--graph", "hypercube:3", "--m", "2"],
}

# groups too large to expand or close, |Aut(Q3[3K1])| = 80,621,568: their
# payloads are not compared with the expanded and closed groups' payloads
BEYOND_EXPANSION = {"trivial-walk-q3k3", "generators-q3k3"}


def payload_with_groups(argv, monkeypatch, capsys, prepare):
    """The payload (or error) of ``argv``, each automorphism group the CLI
    builds passed through ``prepare`` first, and those groups."""
    search = cli.automorphism_group
    built = []

    def prepared_search(*args, **kwargs):
        group = search(*args, **kwargs)
        built.append(group)
        return prepare(group)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "automorphism_group", prepared_search)
        code, out, err = run_cli(argv, capsys)
    assert code in (0, 1), err
    return (json.loads(out)["payload"] if code == 0 else json.loads(err)), built


@pytest.mark.parametrize("name", sorted(COLD_QUERIES))
def test_cold_queries_never_expand_aut(name, blowup_files, monkeypatch, capsys):
    # every query here is rooted at 0, so Aut's stabilizer chain answers it
    argv = [blowup_files.get(a, a) for a in COLD_QUERIES[name]]
    expand = PermutationGroup._expand
    expanded = []

    def counting_expand(self):
        expanded.append(self)
        return expand(self)

    monkeypatch.setattr(PermutationGroup, "_expand", counting_expand)
    cold, built = payload_with_groups(argv, monkeypatch, capsys, lambda group: group)
    assert len(built) == (2 if name == "blowup-demo" else 1)
    assert not [g for g in expanded if any(g is aut for aut in built)]
    if name in BEYOND_EXPANSION:
        return

    def read_elements(group):
        assert len(group.elements) == group.order
        return group

    warm, _ = payload_with_groups(argv, monkeypatch, capsys, read_elements)
    assert warm == cold
    closed, _ = payload_with_groups(
        argv, monkeypatch, capsys,
        lambda group: PermutationGroup.close(group.generators, degree=group.degree))
    assert closed == cold


READ_OFF_QUERIES = [
    *(["generators", "--graph", graph]
      for graph in ("cycle:6", "petersen", "hypercube:4", "C4[2K1]", "Q3[2K1]")),
    *(["blowup-demo", "--graph", base, "--m", "2"] for base in ("cycle:4", "hypercube:3")),
]


@pytest.mark.parametrize("argv", READ_OFF_QUERIES, ids=" ".join)
def test_generators_and_blowup_demo_read_the_census(argv, blowup_files, monkeypatch, capsys):
    # the least shunts, the chosen walk's stabilizer and the generated
    # orders come off the census records: no transporter on any group, no
    # level of an automorphism group's chain expanded, and no closure
    # larger than the chosen walk's stabilizer, except that the exact
    # minimal-generator search reads the elements of a small Aut
    argv = [blowup_files.get(a, a) for a in argv]
    expand, dimino = PermutationGroup._expand, perms_module._dimino
    expanded, closure_sizes = [], []

    def counting_expand(self):
        expanded.append(self)
        return expand(self)

    def counting_dimino(*args):
        seen, kept = dimino(*args)
        closure_sizes.append(len(seen))
        return seen, kept

    def refused(self, *args):
        raise AssertionError(f"transporter{args} asked")

    monkeypatch.setattr(PermutationGroup, "_expand", counting_expand)
    monkeypatch.setattr(PermutationGroup, "transporter", refused)
    monkeypatch.setattr(perms_module, "_dimino", counting_dimino)
    payload, built = payload_with_groups(argv, monkeypatch, capsys, lambda group: group)
    levels = []
    for group in built:
        levels.append(group)
        while group._base < group.degree:
            group = group._stabilizers[group._base][1]
            levels.append(group)
    exact = [aut for aut in built if argv[0] == "generators"
             and aut.order <= EXACT_DELTA_ORDER_LIMIT]
    assert not [g for g in expanded
                if any(g is level for level in levels) and not any(g is a for a in exact)]
    if argv[0] == "blowup-demo":
        assert closure_sizes == []
    else:
        largest = max([payload["chosen_walk_stabilizer_order"], *(a.order for a in exact)])
        assert max(closure_sizes) <= largest
