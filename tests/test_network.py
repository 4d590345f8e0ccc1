import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lexchoice.cooc import SignificanceThresholds, WindowConfig, count_pairs
from lexchoice.network import (
    CoocNetwork,
    InvalidRootError,
    NetworkCaps,
    _apply_edge_cap,
    build_network,
    max_sig_shortest_path,
    read_network,
    scoring_network,
    significance,
    write_network,
)

from conftest import from_pairs, pair_key, significant_counts
from oracles import (
    bfs_depths,
    enumerate_shortest_path_scores,
    expected_scoring_network,
    quadratic_edge_cap,
    random_layered_network,
    topic_stream,
    unfloored_significant_neighbors,
)


def chain_network(weights: list[float], root: str = "r") -> CoocNetwork:
    words = [root] + [f"n{i}" for i in range(1, len(weights) + 1)]
    depths = {w: i for i, w in enumerate(words)}
    edges = {pair_key(words[i], words[i + 1]): weights[i] for i in range(len(weights))}
    return CoocNetwork(
        root=root,
        max_order=len(weights),
        depths=depths,
        edges=edges,
        total_tokens=10_000,
        half_width=4,
    )


def test_build_bfs_depths():
    counts = significant_counts([("r", "a"), ("r", "b"), ("a", "c")])
    net = build_network("r", counts, max_order=2)
    assert net.depths == {"r": 0, "a": 1, "b": 1, "c": 2}
    assert set(net.edges) == {("a", "r"), ("b", "r"), ("a", "c")}


def test_build_depth_zero_is_root_only():
    counts = significant_counts([("r", "a")])
    net = build_network("r", counts, max_order=0)
    assert net.depths == {"r": 0}
    assert net.edges == {}


def test_build_respects_order_bound():
    counts = significant_counts([("r", "a"), ("a", "b"), ("b", "c")])
    net = build_network("r", counts, max_order=2)
    assert "c" not in net.depths
    assert net.depths["b"] == 2


def test_build_excludes_insignificant_edges():
    counts = significant_counts([("r", "a")], counts={("b", "r"): 1})  # t ~ 0.2, below threshold
    net = build_network("r", counts, max_order=2)
    assert "b" not in net.depths


def test_build_keeps_lateral_and_cross_edges():
    counts = significant_counts([("r", "a"), ("r", "b"), ("a", "b"), ("a", "c"), ("b", "c")])
    net = build_network("r", counts, max_order=2)
    assert net.depths == {"r": 0, "a": 1, "b": 1, "c": 2}
    assert ("a", "b") in net.edges  # lateral, stored though unused by paths
    assert ("a", "c") in net.edges and ("b", "c") in net.edges


def test_build_unknown_root():
    counts = significant_counts([("r", "a")])
    with pytest.raises(InvalidRootError):
        build_network("missing", counts)


def test_build_stopped_root():
    counts = significant_counts([("r", "a")], extra_freq={"busy": 5000})
    with pytest.raises(InvalidRootError):
        build_network("busy", counts)


def test_build_word_enters_at_first_depth_reached():
    # c reachable at depth 1 from r and also via a; depth must be 1
    counts = significant_counts([("r", "a"), ("r", "c"), ("a", "c")])
    net = build_network("r", counts, max_order=3)
    assert net.depths["c"] == 1


def test_node_cap_admits_strongest_first():
    counts = significant_counts([("r", "a"), ("r", "c")], counts={("b", "r"): 30})  # strongest
    net = build_network("r", counts, caps=NetworkCaps(max_nodes=2, max_edges=100), max_order=2)
    assert set(net.depths) == {"r", "b"}
    assert net.truncated == "nodes"


def test_edge_cap_drops_weakest_keeps_parents():
    counts = significant_counts([("a", "b")], counts={("a", "r"): 30, ("b", "r"): 25})
    net = build_network("r", counts, caps=NetworkCaps(max_nodes=10, max_edges=2), max_order=2)
    assert set(net.edges) == {("a", "r"), ("b", "r")}  # lateral a-b dropped
    assert net.truncated == "edges"
    assert set(net.depths) == {"r", "a", "b"}


def test_edge_cap_tighter_than_parent_edges_trims_nodes():
    counts = significant_counts([("r", "b")], counts={("a", "r"): 30})
    net = build_network("r", counts, caps=NetworkCaps(max_nodes=10, max_edges=1), max_order=1)
    assert set(net.depths) == {"r", "a"}  # weakest parent edge's node trimmed
    assert set(net.edges) == {("a", "r")}
    assert net.truncated == "edges"


def test_node_cap_at_layer_boundary_still_flags():
    # cap exactly filled after depth 1; the depth-2 candidate is cut
    counts = significant_counts([("r", "a"), ("a", "b")])
    net = build_network("r", counts, max_order=2, caps=NetworkCaps(max_nodes=2, max_edges=100))
    assert net.depths == {"r": 0, "a": 1}
    assert net.truncated == "nodes"


def test_untruncated_build_has_no_flag():
    counts = significant_counts([("r", "a")])
    net = build_network("r", counts, max_order=1)
    assert net.truncated is None


def grown_inputs(seed: int, window: int):
    """Pair counts over a random topic stream and a root taken from a topic."""
    rng = random.Random(seed)
    ts, vocab, topics = topic_stream(rng)
    counts = count_pairs(ts, vocab, WindowConfig(window))
    roots = sorted(w for w in vocab.freq if not vocab.is_frequency_stopped(w))
    root = rng.choice([w for w in rng.choice(topics) if w in roots] or roots)
    return counts, root


random_thresholds = st.builds(
    SignificanceThresholds, st.floats(0.1, 1.0), st.floats(-0.5, 1.0)
)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), random_thresholds, random_thresholds)
def test_rows_are_memoised_per_thresholds(seed, window, first, second):
    counts, root = grown_inputs(seed, window)
    build_network(root, counts, first, 3)
    fresh, _ = grown_inputs(seed, window)
    assert build_network(root, counts, second, 3) == build_network(root, fresh, second, 3)


def test_rows_are_memoised_per_thresholds_on_a_chain():
    # a-b: t = 1.34, MI = 1.32: in at 1/1, out at the default 2/2
    counts = significant_counts([("r", "a")], counts={("a", "b"): 5})
    loose = build_network("r", counts, SignificanceThresholds(1.0, 1.0), 2)
    strict = build_network("r", counts, SignificanceThresholds(), 2)
    assert "b" in loose.depths and "b" not in strict.depths


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), random_thresholds,
       st.integers(1, 40), st.floats(0.0, 1.0))
def test_edge_cap_matches_reference(seed, window, thresholds, max_nodes, edge_share):
    counts, root = grown_inputs(seed, window)
    node_capped = build_network(root, counts, thresholds, 4, NetworkCaps(max_nodes, 10**9))
    max_edges = int(edge_share * node_capped.edge_count)
    net = build_network(root, counts, thresholds, 4, NetworkCaps(max_nodes, max_edges))
    depths, edges = node_capped.depths, node_capped.edges
    if len(edges) > max_edges:
        depths, edges = quadratic_edge_cap(depths, edges, max_edges)
        assert "edges" in net.truncated
    assert (net.depths, net.edges) == (depths, edges)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from([1.0, 1.5, 2.0]), min_size=1))
def test_edge_cap_matches_reference_under_tied_weights(seed, weights):
    # Weights from a small set, so equal weights meet at every step of the
    # ranking: among parent edges, spare edges and the victims' layers.
    rng = random.Random(seed)
    net = random_layered_network(rng, max_nodes=12)
    edges = {key: rng.choice(weights) for key in sorted(net.edges)}
    for max_edges in range(len(edges) + 1):
        depths, capped = _apply_edge_cap(net.depths, edges, max_edges)
        assert (depths, capped) == quadratic_edge_cap(net.depths, edges, max_edges)
        assert len(capped) <= max_edges and list(capped) == sorted(capped)
        CoocNetwork(net.root, net.max_order, depths, capped, 10_000, 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), random_thresholds)
def test_node_cap_keeps_depths_as_distances(seed, window, thresholds):
    counts, root = grown_inputs(seed, window)
    adjacency = {
        word: {other for other, _ in unfloored_significant_neighbors(counts, word, thresholds)}
        for word in counts.vocab.freq
    }
    distances = bfs_depths(root, adjacency, 4)
    for max_nodes in range(1, 41):
        net = build_network(root, counts, thresholds, 4, NetworkCaps(max_nodes, 10**9))
        assert {word: distances[word] for word in net.depths} == net.depths
        assert list(net.edges) == sorted(net.edges)  # the order the edge cap needs
        assert all(abs(net.depths[w1] - net.depths[w2]) <= 1 for w1, w2 in net.edges)
        assert net.truncated in (None, "nodes")
        if net.truncated is None:
            assert net.depths == distances
        else:
            # Growth ends in the layer where the cap fills: every nearer word is in.
            last = max(net.depths.values())
            assert len(net.depths) == max_nodes
            assert {w for w, d in distances.items() if d < last} <= net.depths.keys()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), random_thresholds, st.integers(0, 4),
       st.integers(1, 40), st.one_of(st.just(NetworkCaps().max_edges), st.integers(0, 60)))
def test_scoring_network_is_build_network_less_same_depth_edges(
    seed, window, thresholds, order, max_nodes, max_edges
):
    counts, root = grown_inputs(seed, window)
    caps = NetworkCaps(max_nodes, max_edges)
    direct = build_network(root, counts, thresholds, order, caps)
    fresh, _ = grown_inputs(seed, window)
    net = scoring_network(root, fresh, thresholds, order, caps)
    assert net == expected_scoring_network(direct, caps)
    assert net.path_scores() == direct.path_scores()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), random_thresholds, st.integers(1, 4))
def test_scoring_network_counts_no_deepest_layer_row(seed, window, thresholds, order):
    # A row not yet counted is still the word's list of occurrences.
    counts, root = grown_inputs(seed, window)
    net = scoring_network(root, counts, thresholds, order)
    deepest = [word for word, depth in net.depths.items() if depth == order]
    assert all(counts._rows[word].__class__ is list for word in deepest)
    build_network(root, counts, thresholds, order)
    assert all(counts._rows[word].__class__ is dict for word in deepest)


def test_t_min_below_the_weight_precision_is_refused():
    # t = 1 - E is about 1.2e-10: it passes t_min = 1e-12 and would round to 0.0.
    counts = from_pairs({("a", "b"): 1}, freq={"a": 1000000001, "b": 1},
                        total_tokens=8000000009, half_width=4, stop_threshold=10**12)
    for builder in (build_network, scoring_network):
        with pytest.raises(ValueError) as excinfo:
            builder("a", counts, SignificanceThresholds(1e-12, -1e9), 1)
        assert str(excinfo.value) == "t_min 1e-12 is below the edge weight precision 1e-6"
        assert counts._significant == {}  # refused before any row is read
    net = build_network("a", counts, SignificanceThresholds(1e-6, -1e9), 1)
    assert net.depths == {"a": 0} and net.edges == {}


@pytest.mark.parametrize("seed", range(10))
def test_depths_match_independent_bfs(seed):
    rng = random.Random(seed)
    words = [f"v{i}" for i in range(rng.randint(3, 12))]
    edges = []
    for a in words:
        for b in words:
            if a < b and rng.random() < 0.3:
                edges.append((a, b))
    if not any("v0" in e for e in edges):
        edges.append(("v0", words[1]))
    counts = significant_counts(edges)
    max_order = rng.randint(0, 4)
    net = build_network("v0", counts, max_order=max_order)

    adjacency: dict[str, set[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    expected = bfs_depths("v0", adjacency, max_order)
    assert net.depths == expected


def test_unique_path_returned():
    net = chain_network([2.0, 2.56])
    assert max_sig_shortest_path(net, "n2") == ("r", "n1", "n2")


def test_path_prefers_higher_discounted_sum():
    # r-a-c scores 2 + 2/2 = 3.0; r-b-c scores 3 + 1/2 = 3.5
    net = CoocNetwork(
        root="r",
        max_order=2,
        depths={"r": 0, "a": 1, "b": 1, "c": 2},
        edges={
            pair_key("r", "a"): 2.0,
            pair_key("a", "c"): 2.0,
            pair_key("r", "b"): 3.0,
            pair_key("b", "c"): 1.0,
        },
        total_tokens=10_000,
        half_width=4,
    )
    assert max_sig_shortest_path(net, "c") == ("r", "b", "c")
    assert significance(net, "c").value == pytest.approx(3.5 / 8)


def test_path_tie_breaks_lexicographically():
    net = CoocNetwork(
        root="r",
        max_order=2,
        depths={"r": 0, "a": 1, "b": 1, "c": 2},
        edges={
            pair_key("r", "a"): 2.0,
            pair_key("a", "c"): 1.0,
            pair_key("r", "b"): 2.0,
            pair_key("b", "c"): 1.0,
        },
        total_tokens=10_000,
        half_width=4,
    )
    assert max_sig_shortest_path(net, "c") == ("r", "a", "c")


def test_path_for_missing_word_raises():
    net = chain_network([2.0])
    with pytest.raises(KeyError):
        max_sig_shortest_path(net, "ghost")


def test_path_to_root_is_trivial():
    net = chain_network([2.0])
    assert max_sig_shortest_path(net, "r") == ("r",)


@pytest.mark.parametrize("seed", range(30))
def test_dp_matches_exhaustive_enumeration(seed):
    rng = random.Random(1000 + seed)
    net = random_layered_network(rng)
    for word in sorted(net.depths):
        if word == net.root:
            continue
        best_score, _ = max(enumerate_shortest_path_scores(net, word))
        d = net.depths[word]
        assert significance(net, word).value == best_score / d**3


def test_significance_depth1_equals_edge_t_exactly():
    net = chain_network([3.917213])
    score = significance(net, "n1")
    assert score.value == 3.917213  # bitwise, not approximate
    assert score.order == 1


def test_significance_worked_two_hop_chain():
    net = chain_network([2.00, 2.56])
    score = significance(net, "n2")
    assert score.value == pytest.approx(0.41, abs=1e-9)
    assert score.order == 2


def test_significance_unreachable_and_root_are_zero():
    net = chain_network([2.0])
    assert significance(net, "ghost") == (0.0, None)
    assert significance(net, "r") == (0.0, 0)


def test_order_penalty_strictly_decreasing():
    c = 3.0
    net = chain_network([c] * 5)
    values = [significance(net, f"n{d}").value for d in range(1, 6)]
    exact = [
        Fraction(3) * sum(Fraction(1, i) for i in range(1, d + 1)) / d**3
        for d in range(1, 6)
    ]
    for got, want in zip(values, exact):
        assert got == pytest.approx(float(want), rel=1e-12)
    assert all(a > b for a, b in zip(exact, exact[1:]))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lateral_edges_do_not_affect_paths():
    base = {
        pair_key("r", "a"): 2.0,
        pair_key("r", "b"): 2.5,
        pair_key("a", "c"): 3.0,
    }
    plain = CoocNetwork("r", 2, {"r": 0, "a": 1, "b": 1, "c": 2}, dict(base), 10_000, 4)
    lateral = dict(base)
    lateral[pair_key("a", "b")] = 9.9
    with_lateral = CoocNetwork("r", 2, {"r": 0, "a": 1, "b": 1, "c": 2}, lateral, 10_000, 4)
    assert significance(plain, "c") == significance(with_lateral, "c")
    assert max_sig_shortest_path(plain, "c") == max_sig_shortest_path(with_lateral, "c")


def test_network_validation_rejects_broken_structures():
    with pytest.raises(ValueError):
        CoocNetwork("r", 1, {"r": 1}, {}, 10, 4)  # root not at depth 0
    with pytest.raises(ValueError):
        CoocNetwork("r", 1, {"r": 0, "a": 1}, {}, 10, 4)  # a has no parent edge
    with pytest.raises(ValueError):
        CoocNetwork(
            "r", 2, {"r": 0, "a": 2}, {pair_key("r", "a"): 1.0}, 10, 4
        )  # edge spans two layers
    with pytest.raises(ValueError):
        CoocNetwork("r", 1, {"r": 0, "a": 1}, {pair_key("r", "a"): -1.0}, 10, 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_network_without_a_parent_edge_is_refused(seed):
    rng = random.Random(seed)
    net = random_layered_network(rng)
    orphan = rng.choice(sorted(w for w in net.depths if w != net.root))
    depth = net.depths[orphan]
    edges = {
        (w1, w2): weight
        for (w1, w2), weight in net.edges.items()
        if not (orphan in (w1, w2) and net.depths[w1] + net.depths[w2] == 2 * depth - 1)
    }
    problem = f"node {orphan!r} at depth {depth} has no parent edge"
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        CoocNetwork(net.root, net.max_order, net.depths, edges, net.total_tokens, net.half_width)


def test_serialization_roundtrip(tmp_path):
    counts = significant_counts([("r", "a"), ("r", "b"), ("a", "c"), ("a", "b")])
    net = build_network("r", counts, SignificanceThresholds(2.0, 2.0), max_order=2)
    path = tmp_path / "r.net"
    write_network(net, path)
    again = read_network(path)
    assert again == net


def test_serialization_roundtrip_random(tmp_path):
    rng = random.Random(5)
    for i in range(10):
        net = random_layered_network(rng)
        path = tmp_path / f"net{i}.net"
        write_network(net, path)
        assert read_network(path) == net


def test_serialization_deterministic_and_ordered(tmp_path):
    counts = significant_counts([("r", "b"), ("r", "a"), ("a", "c")])
    net = build_network("r", counts, max_order=2)
    write_network(net, tmp_path / "one.net")
    write_network(net, tmp_path / "two.net")
    assert (tmp_path / "one.net").read_bytes() == (tmp_path / "two.net").read_bytes()
    lines = (tmp_path / "one.net").read_text().splitlines()
    node_lines = [l for l in lines if l.startswith("NODE")]
    assert node_lines == ["NODE r 0", "NODE a 1", "NODE b 1", "NODE c 2"]
    edge_lines = [l for l in lines if l.startswith("EDGE")]
    assert edge_lines == sorted(edge_lines)


def test_serialized_header_fields(tmp_path):
    counts = significant_counts([("r", "a")])
    net = build_network("r", counts, max_order=1)
    write_network(net, tmp_path / "r.net")
    lines = (tmp_path / "r.net").read_text().splitlines()
    assert lines[0] == "ROOT r"
    assert lines[1] == "ORDER 1"
    assert lines[2] == "N 10000"
    assert lines[3] == "K 4"


def test_sentence_setting_and_stop_threshold_travel_with_the_network(tmp_path):
    """A network carries its table's sentence setting and F. The file
    names them only when they are not the defaults, so a default network's
    header is unchanged; a file without them reads as the defaults."""
    pairs = {("a", "r"): 20}
    freq = {"r": 50, "a": 50}
    default = build_network("r", from_pairs(pairs, freq, 10_000, 4), max_order=1)
    other = build_network("r", from_pairs(pairs, freq, 10_000, 4, cross_sentences=True,
                                          stop_threshold=900), max_order=1)
    assert (default.cross_sentences, default.stop_threshold) == (False, 800)
    assert (other.cross_sentences, other.stop_threshold) == (True, 900)
    for name, net, extra in (("default", default, []), ("other", other, ["CROSS 1", "F 900"])):
        write_network(net, tmp_path / f"{name}.net")
        lines = (tmp_path / f"{name}.net").read_text().splitlines()
        assert lines[:lines.index("NODE r 0")] == ["ROOT r", "ORDER 1", "N 10000", "K 4", *extra,
                                                   "TMIN 2.0", "MIMIN 2.0"]
        assert read_network(tmp_path / f"{name}.net") == net
    path = tmp_path / "other.net"
    for new, problem in (("CROSS 2", "line 5: expected 'CROSS <1>', got 'CROSS 2'"),
                         ("F 0", "network F 0 must be >= 1")):
        path.write_text((tmp_path / "default.net").read_text().replace("K 4\n", f"K 4\n{new}\n"))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {problem}')}$"):
            read_network(path)


def test_truncation_flag_survives_roundtrip(tmp_path):
    counts = significant_counts([("r", "a"), ("r", "b"), ("r", "c")])
    net = build_network("r", counts, caps=NetworkCaps(max_nodes=2, max_edges=10), max_order=1)
    write_network(net, tmp_path / "r.net")
    assert "TRUNCATED nodes" in (tmp_path / "r.net").read_text()
    assert read_network(tmp_path / "r.net").truncated == "nodes"


@pytest.mark.parametrize(
    "where, line, problem",
    [
        ("end", "NODE widget", "malformed NODE line 'NODE widget'"),
        ("end", "EDGE a r x6.627839", "malformed EDGE line 'EDGE a r x6.627839'"),
        ("header", "F two", "expected 'F <threshold other than 800>', got 'F two'"),
        ("header", "WEIGHT 3", "unknown header key 'WEIGHT'"),
        ("header", "ORDER 5", "header key ORDER repeats an earlier line"),
        ("header", "N 7", "header key N repeats an earlier line"),
        ("header", "TMIN 2.0", "header key TMIN repeats an earlier line"),
        ("end", "NODE a 1", "repeated NODE line for 'a'"),
        ("end", "NODE a 2", "repeated NODE line for 'a'"),
        ("end", "EDGE a r 9.0", "EDGE 'a' 'r' does not sort after the EDGE before it"),
        ("end", "EDGE a b 9.0", "EDGE 'a' 'b' does not sort after the EDGE before it"),
        ("end", "NODE b 1", "NODE line after the first EDGE line"),
        ("end", "ORDER 5", "header line ORDER after the first NODE or EDGE line"),
        ("header", "TRUNCATED nodes edges",
         "expected 'TRUNCATED <nodes, edges or nodes,edges>', got 'TRUNCATED nodes edges'"),
        ("header", "CROSS 01", "expected 'CROSS <1>', got 'CROSS 01'"),
        ("header", "CROSS 0", "expected 'CROSS <1>', got 'CROSS 0'"),
        ("header", "F 800", "expected 'F <threshold other than 800>', got 'F 800'"),
        ("header", "TRUNCATED banana",
         "expected 'TRUNCATED <nodes, edges or nodes,edges>', got 'TRUNCATED banana'"),
        ("header", "TRUNCATED edges,nodes",
         "expected 'TRUNCATED <nodes, edges or nodes,edges>', got 'TRUNCATED edges,nodes'"),
    ],
    ids=["node-without-depth", "edge-weight", "header-value", "unknown-kind", "repeated-order",
         "repeated-total", "repeated-tmin", "repeated-node", "node-at-other-depth",
         "repeated-edge", "edge-out-of-order", "node-after-edges", "header-after-nodes",
         "header-value-with-a-space", "cross-not-as-written", "cross-zero", "default-f",
         "truncated-unknown", "truncated-out-of-order"],
)
def test_read_network_names_file_and_line(tmp_path, where, line, problem):
    """A bad header line is put among the header lines, any other after the last line."""
    counts = significant_counts([("r", "a")])
    path = tmp_path / "r.net"
    write_network(build_network("r", counts, max_order=1), path)
    text = path.read_text()
    at = len(text) if where == "end" else text.index("NODE r 0")
    path.write_text(text[:at] + line + "\n" + text[at:])
    line_no = text[:at].count("\n") + 1
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line_no}: {problem}')}$"):
        read_network(path)


@pytest.mark.parametrize(
    "old, new, problem",
    [
        ("NODE a 1\n", "", "edge .* references a missing node"),
        ("EDGE a r 4.024922", "EDGE a r nan", "edge .* has weight nan"),
        ("EDGE a r 4.024922", "EDGE a r inf", "edge .* has weight inf"),
        ("MIMIN 2.0\n", "", "missing MIMIN header line$"),
        ("TMIN 2.0\n", "", "missing TMIN header line$"),
        ("K 4\n", "K 0\n", r"network K 0 and N 10000 must be >= 1$"),
        ("N 10000\n", "N -16300\n", r"network K 4 and N -16300 must be >= 1$"),
    ],
    ids=["missing-node", "nan-weight", "infinite-weight", "tmin-alone", "mimin-alone",
         "zero-half-width", "negative-token-total"],
)
def test_read_network_names_file_of_an_invalid_network(tmp_path, old, new, problem):
    counts = significant_counts([("r", "a")])
    path = tmp_path / "r.net"
    write_network(build_network("r", counts, max_order=1), path)
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {problem}"):
        read_network(path)


@pytest.mark.parametrize("old, new", [("TMIN 2.0", "TMIN nan"), ("MIMIN 2.0", "MIMIN nan"),
                                      ("TMIN 2.0", "TMIN inf"), ("MIMIN 2.0", "MIMIN inf")])
def test_read_network_names_file_of_invalid_thresholds(tmp_path, old, new):
    counts = significant_counts([("r", "a")])
    path = tmp_path / "r.net"
    write_network(build_network("r", counts, max_order=1), path)
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*t_min"):
        read_network(path)


@pytest.mark.parametrize("thresholds", [
    SignificanceThresholds(2, 3), SignificanceThresholds(0.5, -math.inf),
    SignificanceThresholds(1e-05, -2.5), SignificanceThresholds(10**20 + 1, 0)])
def test_thresholds_read_back_as_written(tmp_path, thresholds):
    """Every threshold the writer writes, ints and -inf among them, reads
    back as itself and writes the same file again."""
    counts = significant_counts([("r", "a")])
    net = dataclasses.replace(build_network("r", counts, max_order=1), thresholds=thresholds)
    write_network(net, tmp_path / "a.net")
    back = read_network(tmp_path / "a.net")
    assert back == net and back.thresholds == thresholds
    write_network(back, tmp_path / "b.net")
    assert (tmp_path / "b.net").read_bytes() == (tmp_path / "a.net").read_bytes()


@pytest.mark.parametrize("value", ["2.00", "02.0", "2.", "1E-05", "-0", "-Infinity", " 2.0"])
def test_thresholds_written_otherwise_are_refused(tmp_path, value):
    counts = significant_counts([("r", "a")])
    path = tmp_path / "r.net"
    write_network(build_network("r", counts, max_order=1), path)
    path.write_text(path.read_text().replace("TMIN 2.0\n", f"TMIN {value}\n"))
    problem = f"line 5: expected 'TMIN <t_min>', got 'TMIN {value}'"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {problem}')}$"):
        read_network(path)


def test_build_weights_match_t_scores():
    counts = significant_counts([("r", "a")])
    net = build_network("r", counts, max_order=1)
    # f=20, marginals 50/50, N=10000, k=4: t = (20 - 2) / sqrt(20)
    expected = round((20 - 2.0) / math.sqrt(20), 6)
    assert net.edges[pair_key("r", "a")] == expected
