import json
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixquant import graph_ir, toys
from fixquant.amp import find_layer_groups
from fixquant.errors import GraphError, ModelFormatError, ShapeError
from fixquant.graph_ir import (
    GraphModel,
    Node,
    array_key,
    field,
    load_model,
    model_paths,
    read_json,
    save_model,
    value_keys,
    write_csv,
    write_json,
)
from fixquant.ptq import CLEReport, cross_layer_scale, fold_batch_norms_detailed
from fixquant.quantsim import create_quantsim


def tiny_graph():
    return GraphModel(
        [
            Node("in", "input"),
            Node("fc", "linear", ["in"], weights={"weight": [[1.0, 2.0]], "bias": [0.5]}),
            Node("act", "relu", ["fc"]),
            Node("out", "output", ["act"]),
        ],
        name="tiny",
    )


class TestNodeValidation:
    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            Node("n", "softmax", ["in"])

    def test_weighted_kind_requires_tensors(self):
        with pytest.raises(GraphError):
            Node("fc", "linear", ["in"])

    def test_plain_kind_rejects_tensors(self):
        with pytest.raises(GraphError):
            Node("r", "relu", ["in"], weights={"weight": [1.0]})

    def test_required_tensor_names(self):
        with pytest.raises(GraphError):
            Node("fc", "linear", ["in"], weights={"weight": [[1.0]]})  # no bias

    def test_weights_snapped_to_float32_values(self):
        n = Node("fc", "linear", ["in"], weights={"weight": [[0.1]], "bias": [0.0]})
        assert n.weights["weight"].dtype == np.float64
        assert n.weights["weight"][0, 0] == float(np.float32(0.1))

    def test_set_weight_rejects_new_names(self):
        n = Node("fc", "linear", ["in"], weights={"weight": [[1.0]], "bias": [0.0]})
        with pytest.raises(GraphError):
            n.set_weight("scale", [1.0])

    def test_attrs_a_manifest_cannot_hold_are_a_graph_error_naming_the_node(self):
        w = {"weight": np.ones((2, 1, 3, 3)), "bias": np.zeros(2)}
        with pytest.raises(GraphError, match="node 'c' attrs are not JSON values"):
            Node("c", "conv2d", ["in"], attrs={"stride": np.int64(1)}, weights=w)

    def test_attrs_must_be_an_object(self):
        with pytest.raises(GraphError, match="node 'r' attrs must be an object"):
            Node("r", "relu", ["in"], attrs=None)

    def test_attrs_are_held_as_a_save_and_load_gives_them_back(self, tmp_path):
        g = GraphModel([Node("in", "input"), Node("mp", "maxpool", ["in"], attrs={"kernel": (2, 2)}),
                        Node("out", "output", ["mp"])])
        assert g.nodes["mp"].attrs == {"kernel": [2, 2]}
        save_model(g, tmp_path / "m")
        batch = {"in": array_key(np.zeros((1, 1, 4, 4)))}
        assert value_keys(g, batch) == value_keys(g.copy(), batch) == value_keys(load_model(tmp_path / "m"), batch)


class TestGraphValidation:
    def test_duplicate_ids(self):
        with pytest.raises(GraphError):
            GraphModel([Node("a", "input"), Node("a", "input"), Node("o", "output", ["a"])])

    def test_needs_input_and_output(self):
        with pytest.raises(GraphError):
            GraphModel([Node("a", "input")])

    def test_unknown_producer(self):
        with pytest.raises(GraphError):
            GraphModel([Node("a", "input"), Node("o", "output", ["ghost"])])

    def test_cycle_detected(self):
        with pytest.raises(GraphError):
            GraphModel(
                [
                    Node("a", "input"),
                    Node("x", "add", ["a", "y"]),
                    Node("y", "relu", ["x"]),
                    Node("o", "output", ["y"]),
                ]
            )

    def test_output_cannot_feed_nodes(self):
        with pytest.raises(GraphError):
            GraphModel(
                [
                    Node("a", "input"),
                    Node("o", "output", ["a"]),
                    Node("r", "relu", ["o"]),
                    Node("o2", "output", ["r"]),
                ]
            )

    def test_every_node_comes_after_its_inputs(self):
        g = toys.three_group_model(seed=0)
        order = list(g.nodes)
        pos = {nid: i for i, nid in enumerate(order)}
        for node in g.nodes.values():
            for src in node.inputs:
                assert pos[src] < pos[node.id]


def test_forward_computes_composition():
    g = tiny_graph()
    y = g.forward(np.array([[1.0, 1.0], [-2.0, 0.0]]))
    assert np.allclose(y, [[3.5], [0.0]])


def test_forward_dict_feed_and_missing_input():
    g = tiny_graph()
    y = g.forward({"in": np.array([[1.0, 1.0]])})
    assert np.allclose(y, [[3.5]])
    with pytest.raises(ShapeError):
        g.forward({"wrong": np.zeros((1, 2))})


def test_evaluate_all_returns_every_node():
    g = tiny_graph()
    values = g.evaluate_all(np.array([[1.0, 1.0]]))
    assert set(values) == {"in", "fc", "act", "out"}
    assert np.allclose(values["fc"], [[3.5]])


def branching_graph(seed=0):
    """Two convs on one input, joined by an add, concatenated with the input,
    then both pools and a linear head. Topological order: in, a, ra, b, s, c,
    mp, ap, fc, out."""
    rng = np.random.default_rng(seed)
    return GraphModel(
        [
            Node("in", "input"),
            Node(
                "a", "conv2d", ["in"], attrs={"padding": 1},
                weights={"weight": rng.normal(0, 0.5, (4, 3, 3, 3)), "bias": rng.normal(0, 0.1, 4)},
            ),
            Node("ra", "relu", ["a"]),
            Node("b", "conv2d", ["in"], weights={"weight": rng.normal(0, 0.5, (4, 3, 1, 1)), "bias": rng.normal(0, 0.1, 4)}),
            Node("s", "add", ["ra", "b"]),
            Node("c", "concat", ["s", "in"], attrs={"axis": 1}),
            Node("mp", "maxpool", ["c"], attrs={"kernel": 2, "stride": 2}),
            Node("ap", "avgpool", ["mp"], attrs={"kernel": 3}),
            Node("fc", "linear", ["ap"], weights={"weight": rng.normal(0, 0.5, (2, 7)), "bias": rng.normal(0, 0.1, 2)}),
            Node("out", "output", ["fc"]),
        ],
        name="branching",
    )


def kahn(nodes):
    """Reference order: Kahn's algorithm, insertion order among ready nodes."""
    index = {n.id: i for i, n in enumerate(nodes)}
    inputs = {n.id: n.inputs for n in nodes}
    pending = {nid: len(ins) for nid, ins in inputs.items()}
    ready = sorted((nid for nid, d in pending.items() if d == 0), key=index.get)
    out = []
    while ready:
        nid = ready.pop(0)
        out.append(nid)
        for cid, ins in inputs.items():
            pending[cid] -= ins.count(nid)
            if nid in ins and pending[cid] == 0:
                ready.append(cid)
        ready.sort(key=index.get)
    return out


def two_in_two_out_nodes():
    return [
        Node("i1", "input"),
        Node("i2", "input"),
        Node("r1", "relu", ["i1"]),
        Node("r2", "relu6", ["i2"]),
        Node("s", "add", ["r1", "r2"]),
        Node("d", "add", ["s", "s"]),
        Node("o1", "output", ["d"]),
        Node("o2", "output", ["r1"]),
    ]


class TestNodeOrder:
    x = np.random.default_rng(1).normal(size=(2, 3, 6, 6))

    @pytest.mark.parametrize("build, x", [
        (toys.three_group_model, np.random.default_rng(2).normal(size=(4, 8))),
        (branching_graph, x),
    ])
    def test_a_shuffled_node_list_is_kept_run_and_saved_in_topological_order(self, build, x, tmp_path):
        ordered = build(seed=0)
        nodes = list(build(seed=0).nodes.values())
        shuffled = [nodes[i] for i in np.random.default_rng(3).permutation(len(nodes))]
        assert [n.id for n in shuffled] != list(ordered.nodes)
        g = GraphModel(shuffled, name=ordered.name)
        pos = {nid: i for i, nid in enumerate(g.nodes)}
        assert all(pos[src] < pos[node.id] for node in g.nodes.values() for src in node.inputs)
        assert list(g.nodes) == kahn(shuffled)
        assert list(GraphModel(list(g.nodes.values())).nodes) == list(g.nodes)  # an ordered list keeps its order
        assert list(g.evaluate_all(x)) == list(g.nodes)
        assert g.forward(x).tobytes() == ordered.forward(x).tobytes()
        batch = {"in": array_key(x)}
        assert value_keys(g, batch) == value_keys(ordered, batch)
        save_model(g, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.model.json").read_text())
        assert [e["id"] for e in manifest["nodes"]] == list(load_model(tmp_path / "m").nodes) == list(g.nodes)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(perm=st.sampled_from([two_in_two_out_nodes(), list(branching_graph().nodes.values())]).flatmap(st.permutations))
    def test_the_order_is_kahns_with_insertion_order_among_ready_nodes(self, perm):
        g = GraphModel(perm)
        order = kahn(perm)
        assert list(g.nodes) == order
        assert g.input_ids == [nid for nid in order if g.nodes[nid].kind == "input"]
        assert g.output_ids == [nid for nid in order if g.nodes[nid].kind == "output"]


class TestResumedPasses:
    x = np.random.default_rng(1).normal(size=(2, 3, 6, 6))

    def test_a_stop_computes_only_what_it_depends_on_as_the_full_pass_does(self):
        g = branching_graph()
        full = g.evaluate_all(self.x)
        order = list(g.nodes)
        assert order == ["in", "a", "ra", "b", "s", "c", "mp", "ap", "fc", "out"]

        def upstream(nid):
            return {nid}.union(*(upstream(src) for src in g.nodes[nid].inputs))

        assert upstream("b") == {"in", "b"}
        known = {}
        for i, stop in enumerate(order):
            alone = g.evaluate_all(self.x, stop=stop)
            known = g.evaluate_all(self.x, known=known, stop=stop)
            assert list(alone) == [nid for nid in order if nid in upstream(stop)]
            assert list(known) == order[: i + 1]
            for values in (alone, known):
                assert all(values[nid].tobytes() == full[nid].tobytes() for nid in values)

    def test_known_nodes_are_taken_as_they_are(self, monkeypatch):
        from fixquant import graph_ir

        g = branching_graph()
        full = g.evaluate_all(self.x)
        known = {nid: full[nid] for nid in ("in", "a", "ra")}
        ran, mapped = [], []
        real = graph_ir.eval_kind
        monkeypatch.setattr(graph_ir, "eval_kind", lambda k, *a: ran.append(k) or real(k, *a))
        values = g.evaluate_all(self.x, activation=lambda nid, y: mapped.append(nid) or y + 1.0, known=known)
        rest = [nid for nid in list(g.nodes) if nid not in known]
        assert mapped == rest  # only the nodes known lacks run, and only they are mapped
        assert ran == [g.nodes[nid].kind for nid in rest]
        assert all(values[nid] is v for nid, v in known.items())
        assert np.array_equal(values["b"], full["b"] + 1.0)
        assert np.array_equal(values["s"], values["ra"] + values["b"] + 1.0)

    def test_a_pass_from_known_values_runs_only_what_the_outputs_need(self, monkeypatch):
        from fixquant import graph_ir

        g = branching_graph()
        full = g.evaluate_all(self.x)
        ran = []
        real = graph_ir.eval_kind
        monkeypatch.setattr(graph_ir, "eval_kind", lambda k, *a: ran.append(k) or real(k, *a))
        values = g.evaluate_all(self.x, known={nid: full[nid] for nid in ("in", "s")}, stream=True)
        # a, ra and b feed only s, which is known
        assert ran == ["concat", "maxpool", "avgpool", "linear", "output"]
        assert values["out"].tobytes() == full["out"].tobytes()

    def test_a_pass_that_stops_at_a_known_value_runs_nothing(self, monkeypatch):
        from fixquant import graph_ir

        g = branching_graph()
        full = g.evaluate_all(self.x)
        ran = []
        real = graph_ir.eval_kind
        monkeypatch.setattr(graph_ir, "eval_kind", lambda k, *a: ran.append(k) or real(k, *a))
        # every reader of s is known, yet the pass keeps s rather than recompute it
        values = g.evaluate_all(self.x, known=full, stop="s", stream=True)
        assert ran == []
        assert values["s"] is full["s"]

    def test_known_is_not_modified(self):
        g = branching_graph()
        known = g.evaluate_all(self.x, stop="a")
        values = g.evaluate_all(self.x, known=known, stop="s")
        assert list(known) == ["in", "a"] and list(values) == ["in", "a", "ra", "b", "s"]

    def test_a_streamed_pass_drops_each_value_once_its_last_consumer_has_run(self):
        g = branching_graph()
        full = g.evaluate_all(self.x)
        order = list(g.nodes)
        assert list(full) == order  # without stream every value is kept
        last = {src: nid for nid in order for src in g.nodes[nid].inputs}
        refs = {}  # the caller holds the input, so only computed values are tracked

        def check(nid, y):
            ran = order[: order.index(nid) + 1]
            # the output node passes its input's array on as its own
            held = {s for s, ref in refs.items() if ref() is not None and ref() is not y}
            assert held == {s for s in refs if last[s] not in ran}, nid
            if nid != "in":
                refs[nid] = weakref.ref(y)
            return y

        values = g.evaluate_all(self.x, activation=check, stream=True)
        assert list(refs) == order[1:] and list(values) == ["out"]
        assert values["out"].tobytes() == full["out"].tobytes()

    def test_a_streamed_pass_that_stops_keeps_what_a_later_pass_reads(self):
        g = branching_graph()
        values = g.evaluate_all(self.x, stop="s", stream=True)
        assert list(values) == ["in", "s"]  # c, which has not run, reads both
        rest = g.evaluate_all(self.x, known=values, stop="out", stream=True)
        assert list(rest) == ["in", "out"]  # a and b read in and hold no value
        assert rest["out"].tobytes() == g.evaluate_all(self.x)["out"].tobytes()

    def test_a_streamed_pass_drops_the_known_values_nothing_left_to_run_reads(self):
        g = branching_graph()
        known = g.evaluate_all(self.x, stop="s")
        values = g.evaluate_all(self.x, known=known, stop="mp", stream=True)
        # ra reads a and s reads ra and b, all known; c reads in and s, then mp c
        assert list(values) == ["mp"]
        assert list(known) == ["in", "a", "ra", "b", "s"]
        assert list(g.evaluate_all(self.x, known=known, stop="s", stream=True)) == ["in", "s"]

    def test_stop_must_name_a_node(self):
        with pytest.raises(GraphError, match="nope"):
            branching_graph().evaluate_all(self.x, stop="nope")


def _keys(g, x, states):
    return value_keys(g, {"in": array_key(x)}, lambda node: states.get(node.id))


def _downstream(g, nid):
    out, stack = set(), [nid]
    while stack:
        for c in g.readers[stack.pop()]:
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def _flip_one_byte(g, x, states):
    g.nodes["b"].weights["bias"].view(np.uint8)[5] ^= 1


# One change to what one node's value reads, and that node.
KEY_EDITS = {
    "kind": ("ra", lambda g, x, states: setattr(g.nodes["ra"], "kind", "relu6")),
    "attrs": ("mp", lambda g, x, states: g.nodes["mp"].attrs.update(note=1)),
    "weight byte": ("b", _flip_one_byte),
    "quantizer state": ("a", lambda g, x, states: states.update(a=("enc", 4))),
    "input key": ("in", lambda g, x, states: np.put(x, 7, x.flat[7] + 1e-9)),
}


class TestValueKeys:
    x = np.random.default_rng(1).normal(size=(2, 3, 6, 6))

    @pytest.mark.parametrize("what", KEY_EDITS)
    def test_a_change_moves_its_node_and_every_key_downstream_and_no_other(self, what):
        g, x, states = branching_graph(), self.x.copy(), {"fc": ("enc", 8)}
        before = _keys(g, x, states)
        nid, edit = KEY_EDITS[what]
        edit(g, x, states)
        after = _keys(g, x, states)
        moved = {n for n in g.nodes if after[n] != before[n]}
        assert moved == {nid} | _downstream(g, nid)
        assert len(set(after.values())) == len(after)  # no two nodes here compute the same value

    def test_a_batch_is_keyed_by_its_bits_shape_and_dtype(self):
        g = tiny_graph()
        # all but -0.0 hold the same 16 zero bytes
        batches = [np.zeros((1, 2)), -np.zeros((1, 2)), np.zeros((2, 1)), np.zeros((1, 2), dtype=np.int64)]
        keys = [array_key(b) for b in batches]
        assert len(set(keys)) == len(keys)
        assert keys[0] == array_key(np.zeros((1, 2)))
        zero, minus_zero = (value_keys(g, {"in": k}) for k in keys[:2])
        assert all(zero[nid] != minus_zero[nid] for nid in g.nodes)

    def test_identical_branches_share_a_key_until_one_quantizer_changes(self):
        w = {"weight": np.ones((2, 2)), "bias": np.zeros(2)}
        g = GraphModel(
            [
                Node("in", "input"),
                Node("p", "linear", ["in"], weights=w),
                Node("q", "linear", ["in"], weights=w),
                Node("s", "add", ["p", "q"]),
                Node("out", "output", ["s"]),
            ]
        )
        x, states = np.ones((1, 2)), {"p": ("enc", 8), "q": ("enc", 8)}
        before = _keys(g, x, states)
        assert before["p"] == before["q"]
        states["q"] = ("enc", 4)
        after = _keys(g, x, states)
        assert after["p"] == before["p"] and after["q"] != before["q"]
        assert {n for n in g.nodes if after[n] != before[n]} == {"q", "s", "out"}


def test_copy_is_deep():
    g = tiny_graph()
    g2 = g.copy()
    g2.nodes["fc"].set_weight("bias", [9.0])
    g2.nodes["fc"].attrs["tag"] = 1
    assert g.nodes["fc"].weights["bias"][0] == 0.5
    assert "tag" not in g.nodes["fc"].attrs


class TestSaveLoad:
    def test_round_trip_bit_identical(self, tmp_path):
        g = toys.conv_bn_relu_conv(seed=7)
        prefix = tmp_path / "m"
        save_model(g, prefix)
        g2 = load_model(prefix)
        x = np.random.default_rng(0).normal(size=(2, 3, 6, 6))
        assert np.array_equal(g.forward(x), g2.forward(x))
        for nid, node in g.nodes.items():
            for name, arr in node.weights.items():
                assert np.array_equal(arr, g2.nodes[nid].weights[name])

    def test_offsets_are_in_float_elements(self, tmp_path):
        g = tiny_graph()
        save_model(g, tmp_path / "m")
        manifest = json.loads((tmp_path / "m.model.json").read_text())
        fc = next(n for n in manifest["nodes"] if n["id"] == "fc")
        assert fc["tensors"]["weight"]["offset"] == 0
        assert fc["tensors"]["bias"]["offset"] == 2  # elements, not bytes
        blob = (tmp_path / "m.weights.bin").read_bytes()
        assert len(blob) == 3 * 4  # three float32 values

    def test_wrong_format_tag(self, tmp_path):
        p = tmp_path / "bad.model.json"
        p.write_text(json.dumps({"format": "something-else", "nodes": []}))
        (tmp_path / "bad.weights.bin").write_bytes(b"")
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "bad")

    def test_truncated_blob(self, tmp_path):
        g = tiny_graph()
        save_model(g, tmp_path / "m")
        blob = (tmp_path / "m.weights.bin").read_bytes()
        (tmp_path / "m.weights.bin").write_bytes(blob[:-4])
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "m")

    def test_oversized_blob(self, tmp_path):
        g = tiny_graph()
        save_model(g, tmp_path / "m")
        blob = (tmp_path / "m.weights.bin").read_bytes()
        (tmp_path / "m.weights.bin").write_bytes(blob + b"\x00" * 4)
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("offset, error", [(0, "starts at float 0, not 3"), (7, "starts at float 7, not 6")])
    def test_blob_entries_must_tile_the_blob(self, tmp_path, offset, error):
        # fc0.bias at 0 overlaps fc0.weight; at 7 it leaves float 6 unread
        # and overlaps fc1.weight. The sizes still add up to the blob's.
        save_model(toys.mlp([2, 3, 2]), tmp_path / "m")
        path = tmp_path / "m.model.json"
        manifest = json.loads(path.read_text())
        fc0 = next(n for n in manifest["nodes"] if n["id"] == "fc0")
        assert fc0["tensors"] == {"bias": {"offset": 6, "shape": [3]}, "weight": {"offset": 0, "shape": [3, 2]}}
        fc0["tensors"]["bias"]["offset"] = offset
        path.write_text(json.dumps(manifest))
        with pytest.raises(ModelFormatError, match=error):
            load_model(tmp_path / "m")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "nope")

    def test_interrupted_json_write_keeps_previous_file(self, tmp_path, monkeypatch):
        p = tmp_path / "doc.json"
        write_json(p, {"a": 1})

        def torn_write(path, text):
            with open(path, "w") as fh:
                fh.write(text[:3])
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(KeyboardInterrupt):
            write_json(p, {"a": 2})
        monkeypatch.undo()
        assert json.loads(p.read_text()) == {"a": 1}
        assert [f.name for f in tmp_path.iterdir()] == ["doc.json"]

    def test_interrupted_csv_write_keeps_previous_file(self, tmp_path, monkeypatch):
        p = tmp_path / "rows.csv"
        write_csv(p, ["a", "b"], [[1, 0.5]])

        def torn_write(path, data):
            with open(path, "wb") as fh:
                fh.write(data[:3])
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_bytes", torn_write)
        with pytest.raises(KeyboardInterrupt):
            write_csv(p, ["a", "b"], [[2, 1.5], [3, 2.5]])
        monkeypatch.undo()
        assert p.read_bytes() == b"a,b\r\n1,0.5\r\n"
        assert [f.name for f in tmp_path.iterdir()] == ["rows.csv"]

    def test_interrupted_blob_write_keeps_previous_file(self, tmp_path, monkeypatch):
        old = toys.mlp([3, 4, 2], seed=0)
        save_model(old, tmp_path / "net")
        blob = (tmp_path / "net.weights.bin").read_bytes()

        def torn_write(path, data):
            with open(path, "wb") as fh:
                fh.write(data[:5])
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_bytes", torn_write)
        with pytest.raises(KeyboardInterrupt):
            save_model(toys.mlp([3, 4, 2], seed=1), tmp_path / "net")
        monkeypatch.undo()
        assert (tmp_path / "net.weights.bin").read_bytes() == blob
        assert sorted(f.name for f in tmp_path.iterdir()) == ["net.model.json", "net.weights.bin"]

    def test_model_paths_derivation(self):
        m, b = model_paths("/tmp/x/net")
        assert str(m).endswith("net.model.json")
        assert str(b).endswith("net.weights.bin")


def test_toy_models_run():
    x = np.random.default_rng(1).normal(size=(2, 3, 6, 6))
    assert toys.conv_bn_relu_conv(seed=0).forward(x).shape[0] == 2
    mlp = toys.mlp([4, 8, 3], seed=0)
    assert mlp.forward(np.zeros((5, 4))).shape == (5, 3)
    dw = toys.depthwise_net(seed=0)
    y = dw.forward(np.random.default_rng(2).normal(size=(1, 3, 6, 6)))
    assert np.isfinite(y).all()


class TestField:
    def test_returns_a_value_of_the_kind(self):
        assert field({"a": 3}, "a", int, "doc") == 3
        assert field({"a": 3}, "a", (int, float), "doc", check=lambda v: v > 0) == 3
        assert field({"a": True}, "a", bool, "doc") is True

    @pytest.mark.parametrize("value", [True, "3", None, [3], 3.5])
    def test_rejects_other_kinds_and_bools_as_numbers(self, value):
        with pytest.raises(ModelFormatError, match=r"doc: field 'a'"):
            field({"a": value}, "a", int, "doc")

    def test_check_and_missing_and_default(self):
        with pytest.raises(ModelFormatError, match="-1"):
            field({"a": -1}, "a", int, "doc", check=lambda v: v >= 0)
        with pytest.raises(ModelFormatError, match="doc has no field 'a'"):
            field({}, "a", int, "doc")
        assert field({}, "a", int, "doc", default=None) is None

    def test_doc_must_be_an_object(self):
        with pytest.raises(ModelFormatError, match="node 2 must be an object"):
            field([1], "id", str, "node 2")


def test_read_json_accepts_an_untagged_object_only_without_a_format(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"a": 1}')
    assert read_json(p, None, "config") == {"a": 1}
    with pytest.raises(ModelFormatError):
        read_json(p, "fixquant-model-v1", "model manifest")
    p.write_text("[1]")
    with pytest.raises(ModelFormatError):
        read_json(p, None, "config")


# ---------------------------------------------------------------------------
# Properties over random graphs

RANDOM_KINDS = ["conv2d", "batchnorm", "relu", "depthwise", "strided", "add", "relu6", "concat", "maxpool", "avgpool"]


@st.composite
def random_graphs(draw):
    """A DAG of at most 10 nodes on 2x3x8x8 inputs: drawn kinds, edges, one
    or two outputs and node order; weights from a drawn seed. A batchnorm
    reads the last node, and a conv is followed by up to two of them, so
    folds, chains and shared producers are common."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = {"in": (3, 8)}  # node id -> (channels, side) of its value
    nodes = [Node("in", "input")]

    def batchnorm():
        c, side = shape[nodes[-1].id]
        w = {"gamma": rng.uniform(0.5, 1.5, c), "beta": rng.normal(0, 0.1, c),
             "mean": rng.normal(0, 0.1, c), "var": rng.uniform(0.5, 1.5, c)}
        nodes.append(Node(f"n{len(nodes)}", "batchnorm", [nodes[-1].id], weights=w))
        shape[nodes[-1].id] = (c, side)

    size = draw(st.integers(2, 7))
    while len(nodes) < size:
        kind = draw(st.sampled_from(RANDOM_KINDS))
        if kind == "batchnorm":
            batchnorm()
            continue
        src = list(shape)[-1 - draw(st.just(0) | st.integers(0, len(shape) - 1))]  # half the time the last
        (c, side), inputs, attrs, w = shape[src], [src], {}, {}
        if kind in ("conv2d", "depthwise", "strided"):
            groups, stride = c if kind == "depthwise" else 1, 2 if kind == "strided" else 1
            c_out = c if kind == "depthwise" else int(rng.integers(2, 5))
            fan_in = c // groups * 9
            w = {"weight": rng.normal(0, fan_in**-0.5, (c_out, c // groups, 3, 3)), "bias": rng.normal(0, 0.1, c_out)}
            attrs = {"stride": stride, "padding": 1, "groups": groups}
            kind, c, side = "conv2d", c_out, (side - 1) // stride + 1
        elif kind in ("add", "concat"):
            mates = [m for m, (c2, side2) in shape.items() if side2 == side and (kind == "concat" or c2 == c)]
            inputs.append(draw(st.sampled_from(mates)))  # may be src again
            if kind == "concat":
                attrs, c = {"axis": 1}, c + shape[inputs[1]][0]
        elif kind.endswith("pool") and side >= 2:
            attrs, side = {"kernel": 2}, side // 2
        elif kind.endswith("pool"):
            kind = "relu"  # a 1x1 map has no 2x2 window
        nodes.append(Node(f"n{len(nodes)}", kind, inputs, attrs, w))
        shape[nodes[-1].id] = (c, side)
        for _ in range(draw(st.integers(0, 2)) if kind == "conv2d" else 0):
            batchnorm()
    outs = draw(st.lists(st.sampled_from(list(shape)[1:]), min_size=1, max_size=2, unique=True))
    nodes += [Node(f"out{j}", "output", [src]) for j, src in enumerate(outs)]
    return GraphModel(draw(st.permutations(nodes)))


RANDOM_X = np.random.default_rng(5).normal(size=(2, 3, 8, 8))
random_graph_settings = settings(max_examples=100, deadline=None, derandomize=True)


def _brute_readers(g):
    """Each node's distinct readers in the graph's order, by scanning every node's inputs."""
    return {nid: tuple(r for r, n in g.nodes.items() if nid in n.inputs) for nid in g.nodes}


def _upstream(g, ids):
    """``ids`` and every node they depend on."""
    out, stack = set(), list(ids)
    while stack:
        nid = stack.pop()
        if nid not in out:
            out.add(nid)
            stack.extend(g.nodes[nid].inputs)
    return out


def _same_outputs(g, a, b):
    return all(a[oid].tobytes() == b[oid].tobytes() for oid in g.output_ids)


class TestRandomGraphs:
    @random_graph_settings
    @given(g=random_graphs())
    def test_readers_are_each_nodes_distinct_readers_in_order(self, g):
        brute = _brute_readers(g)
        assert g.readers == brute
        for nid, rs in brute.items():
            assert g.sole_reader(nid) is (g.nodes[rs[0]] if len(rs) == 1 else None)

    @random_graph_settings
    @given(g=random_graphs())
    def test_a_streamed_pass_gives_the_keep_all_outputs(self, g):
        assert _same_outputs(g, g.evaluate_all(RANDOM_X, stream=True), g.evaluate_all(RANDOM_X))

    @random_graph_settings
    @given(g=random_graphs())
    def test_a_pass_stopped_anywhere_then_resumed_is_the_full_pass_and_runs_no_node_twice(self, g):
        full = g.evaluate_all(RANDOM_X)
        by_attrs = {id(n.attrs): nid for nid, n in g.nodes.items()}  # each node holds its own attrs dict
        real = graph_ir.eval_kind
        for stop in g.nodes:
            ran = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graph_ir, "eval_kind", lambda k, attrs, *a: ran.append(by_attrs[id(attrs)]) or real(k, attrs, *a))
                part = g.evaluate_all(RANDOM_X, stop=stop, stream=True)
                whole = g.evaluate_all(RANDOM_X, known=part)
                again = g.evaluate_all(RANDOM_X, known=whole, stop=stop, stream=True)  # runs nothing
            assert _same_outputs(g, whole, full)
            assert all(whole[nid].tobytes() == full[nid].tobytes() for nid in whole)
            assert again[stop] is whole[stop]
            assert sorted(ran) == sorted(set(ran)) == sorted(_upstream(g, [stop, *g.output_ids]) - {"in"}), stop

    @random_graph_settings
    @given(g=random_graphs())
    def test_the_fold_takes_the_batchnorms_a_rule_names_and_equalization_keeps_the_forward(self, g):
        readers, into = _brute_readers(g), {}  # folded batchnorm -> the conv holding it
        for nid, node in g.nodes.items():
            p = node.inputs[0] if node.kind == "batchnorm" else None
            if p is not None and (g.nodes[p].kind == "conv2d" or p in into) and readers[p] == (nid,):
                into[nid] = into.get(p, p)
        folded, report = fold_batch_norms_detailed(g)
        assert report["folded"] == [{"layer": layer, "batchnorm": bn} for bn, layer in into.items()]
        assert report["skipped"] == [nid for nid, n in g.nodes.items() if n.kind == "batchnorm" and nid not in into]
        assert list(folded.nodes) == [nid for nid in g.nodes if nid not in into]
        ref = g.outputs(g.evaluate_all(RANDOM_X))
        for model in (folded, cross_layer_scale(folded, CLEReport())):
            got = model.forward(RANDOM_X)
            for oid in g.output_ids:
                a, b = (got, ref) if len(g.output_ids) == 1 else (got[oid], ref[oid])
                assert float(np.max(np.abs(a - b))) <= 1e-5

    @random_graph_settings
    @given(g=random_graphs())
    def test_layer_groups_hold_each_enabled_quantizer_once(self, g):
        sim = create_quantsim(g)
        enabled = [k for k, q in sim.param_quantizers.items() if q.enabled]
        enabled += [k for k, q in sim.activation_quantizers.items() if q.enabled]
        grouped = [k for grp in find_layer_groups(sim) for k in grp.param_keys + grp.activation_keys]
        assert sorted(grouped) == sorted(enabled)
