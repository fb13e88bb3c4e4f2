import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mose.cli import dataset_hash
from mose.datasets import (Dataset, gen_graph_cycle, gen_graph_five,
                           load_tu_dataset, make_folds, make_node_splits,
                           save_tu_dataset)
from mose.graph import Graph, cycle_graph, degree_features, path_graph
from mose.util import FormatError


def write_tu(tmp_path, name, a, indicator, labels, node_labels=None, attrs=None):
    d = tmp_path / name
    d.mkdir(exist_ok=True)
    (d / f"{name}_A.txt").write_text("\n".join(a) + "\n")
    (d / f"{name}_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
    (d / f"{name}_graph_labels.txt").write_text("\n".join(labels) + "\n")
    if node_labels is not None:
        (d / f"{name}_node_labels.txt").write_text("\n".join(node_labels) + "\n")
    if attrs is not None:
        (d / f"{name}_node_attributes.txt").write_text("\n".join(attrs) + "\n")
    return str(d)


class TestLoader:
    def test_smallest_wellformed_input(self, tmp_path):
        d = write_tu(tmp_path, "tiny", ["1, 2", "2, 1"], ["1", "1"], ["1"])
        data = load_tu_dataset(d, "tiny")
        assert len(data.graphs) == 1
        assert data.graphs[0].node_count == 2
        assert data.graphs[0].edge_count == 1
        assert data.class_count == 1
        assert data.task == "graph"

    def test_labels_remapped_contiguous(self, tmp_path):
        d = write_tu(tmp_path, "remap", ["1, 2", "2, 1", "3, 4", "4, 3"],
                     ["1", "1", "2", "2"], ["7", "-3"])
        data = load_tu_dataset(d, "remap")
        assert sorted(g.graph_label for g in data.graphs) == [0, 1]
        assert data.graphs[0].graph_label == 1  # 7 sorts after -3

    def test_node_labels_become_onehot_features(self, tmp_path):
        d = write_tu(tmp_path, "lab", ["1, 2", "2, 1", "3, 4", "4, 3"],
                     ["1", "1", "2", "2"], ["1", "1"],
                     node_labels=["3", "5", "5", "3"])
        data = load_tu_dataset(d, "lab")
        assert data.graphs[0].features.tolist() == [[1, 0], [0, 1]]
        assert data.graphs[1].features.tolist() == [[0, 1], [1, 0]]

    def test_attributes_and_labels_concatenate(self, tmp_path):
        d = write_tu(tmp_path, "both", ["1, 2", "2, 1", "3, 4", "4, 3"],
                     ["1", "1", "2", "2"], ["1", "2"],
                     node_labels=["2", "4", "4", "2"],
                     attrs=["0.5, 1.5", "2.5,3.5", "0.0, 0.0", "1.0, 1.0"])
        data = load_tu_dataset(d, "both")
        assert data.graphs[0].features.tolist() == [[0.5, 1.5, 1, 0],
                                                    [2.5, 3.5, 0, 1]]

    def test_featureless_gets_degree_onehot(self, tmp_path):
        d = write_tu(tmp_path, "deg", ["1, 2", "2, 1", "2, 3", "3, 2"],
                     ["1", "1", "1"], ["1"])
        data = load_tu_dataset(d, "deg")
        assert data.feature_dim == 3  # global max degree 2
        assert data.graphs[0].features[1].tolist() == [0, 0, 1]

    def test_edges_deduplicated_and_symmetrized(self, tmp_path):
        d = write_tu(tmp_path, "dup", ["1, 2", "1, 2", "2, 1"], ["1", "1"], ["1"])
        assert load_tu_dataset(d, "dup").graphs[0].edge_count == 1

    def test_missing_file_names_it(self, tmp_path):
        d = write_tu(tmp_path, "partial", ["1, 2"], ["1", "1"], ["1"])
        import os
        os.remove(os.path.join(d, "partial_graph_labels.txt"))
        with pytest.raises(FileNotFoundError, match="partial_graph_labels.txt"):
            load_tu_dataset(d, "partial")

    def test_dangling_node_id_reports_line(self, tmp_path):
        d = write_tu(tmp_path, "dangle", ["1, 2", "2, 1", "1, 9"],
                     ["1", "1"], ["1"])
        with pytest.raises(FormatError, match=r"dangle_A.txt:3"):
            load_tu_dataset(d, "dangle")

    def test_single_labeled_graph_is_node_task(self, tmp_path):
        d = write_tu(tmp_path, "nodes", ["1, 2", "2, 1", "2, 3", "3, 2"],
                     ["1", "1", "1"], ["1"], node_labels=["4", "9", "4"])
        data = load_tu_dataset(d, "nodes")
        assert data.task == "node"
        assert data.class_count == 2
        assert data.graphs[0].node_labels.tolist() == [0, 1, 0]
        # labels are targets, so features fall back to degrees
        assert data.feature_dim == 3

    def test_roundtrip_degree_features(self, tmp_path):
        data = gen_graph_cycle(4, seed=3)
        out = str(tmp_path / "GraphCycle")
        save_tu_dataset(data, out)
        back = load_tu_dataset(out, "GraphCycle")
        assert len(back.graphs) == len(data.graphs)
        for a, b in zip(data.graphs, back.graphs):
            assert a.edges() == b.edges()
            assert a.graph_label == b.graph_label
            assert np.array_equal(a.features, b.features)

    def test_roundtrip_real_attributes(self, tmp_path):
        rng = np.random.default_rng(0)
        graphs = [cycle_graph(4).with_features(rng.normal(size=(4, 3))).with_label(0),
                  path_graph(3).with_features(rng.normal(size=(3, 3))).with_label(1)]
        data = Dataset(graphs=graphs, task="graph", class_count=2, name="attr")
        out = str(tmp_path / "attr")
        save_tu_dataset(data, out)
        back = load_tu_dataset(out, "attr")
        for a, b in zip(data.graphs, back.graphs):
            assert a.edges() == b.edges()
            assert np.array_equal(a.features, b.features)

    def test_non_integer_edge_field_reports_line(self, tmp_path):
        d = write_tu(tmp_path, "field", ["1, 2", "2, x"], ["1", "1"], ["1"])
        with pytest.raises(FormatError, match=r"field_A.txt:2: expected 'i, j', got '2, x'"):
            load_tu_dataset(d, "field")

    def test_oversized_indicator_reports_line(self, tmp_path):
        d = write_tu(tmp_path, "huge", ["1, 2"], ["1", "9" * 25], ["1"])
        with pytest.raises(FormatError, match=r"huge_graph_indicator.txt:2: bad graph"):
            load_tu_dataset(d, "huge")

    def test_graph_without_nodes_is_refused(self, tmp_path):
        d = write_tu(tmp_path, "gap", ["1, 2", "3, 4"], ["1", "1", "3", "3"], ["1", "2", "1"])
        with pytest.raises(FormatError, match=r"gap_graph_indicator.txt: graph 2 has no nodes"):
            load_tu_dataset(d, "gap")

    def test_undecodable_byte_reports_line(self, tmp_path):
        d = write_tu(tmp_path, "bytes", ["1, 2"], ["1", "1", "2"], ["0", "1"])
        (Path(d) / "bytes_graph_labels.txt").write_bytes(b"0\n1\xff\n")
        with pytest.raises(FormatError, match=r"bytes_graph_labels.txt:2: not UTF-8 text"):
            load_tu_dataset(d, "bytes")

    def test_non_numeric_attribute_reports_line(self, tmp_path):
        d = write_tu(tmp_path, "word", ["1, 2"], ["1", "1", "1"], ["1"],
                     attrs=["0.5, 1", "1.5, 2", "2.5, x"])
        with pytest.raises(FormatError, match=r"word_node_attributes.txt:3: bad attribute row"):
            load_tu_dataset(d, "word")

    @pytest.mark.parametrize("attrs, widths", [(["1, 2", "3"], r"\[1, 2\]"),
                                               (["1, 2", ""], r"\[0, 2\]"),
                                               (["1, 2", " , "], r"\[0, 2\]")])
    def test_mixed_attribute_widths_refused(self, tmp_path, attrs, widths):
        d = write_tu(tmp_path, "mixed", ["1, 2"], ["1", "1"], ["1"], attrs=attrs)
        with pytest.raises(FormatError, match=r"mixed_node_attributes.txt: inconsistent "
                                              r"attribute widths " + widths):
            load_tu_dataset(d, "mixed")

    def test_attributes_read_back_exactly(self, tmp_path):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(60, 9)) * np.logspace(-300, 300, 9)
        g = Graph.from_edges(60, [(i, i + 1) for i in range(59)], features=feats,
                             node_labels=np.arange(60) % 3)
        out = str(tmp_path / "exact")
        save_tu_dataset(Dataset(graphs=[g], task="node", class_count=3, name="exact"), out)
        assert np.array_equal(load_tu_dataset(out, "exact").graphs[0].features, feats)

    def test_attributes_float_spellings(self, tmp_path):
        # float() reads these; the array parser alone refuses some of them
        d = write_tu(tmp_path, "spell", ["1, 2"], ["1", "1"], ["1"],
                     attrs=["1_0, inf, -0.5", "\u0661, nan, 2e3"])
        x = load_tu_dataset(d, "spell").graphs[0].features
        assert np.array_equal(x, [[10.0, np.inf, -0.5], [1.0, np.nan, 2000.0]],
                              equal_nan=True)


FUZZ_FILES = {
    "A": ["1, 2", "2, 1", "2, 3", "3, 2", "4, 5", "5, 4"],
    "graph_indicator": ["1", "1", "1", "2", "2"],
    "graph_labels": ["0", "1"],
    "node_labels": ["3", "1", "3", "2", "1"],
    "node_attributes": ["0.5, 1", "-2, 3e-2", "0, 0", "1.25, inf", "7, -1"],
}

fuzz_text = st.one_of(
    st.text(st.characters(codec="utf-8"), max_size=12),
    st.integers(-2**70, 2**70).map(str),
    st.lists(st.integers(-3, 8).map(str), max_size=4).map(", ".join),
    st.lists(st.floats(), max_size=3).map(lambda xs: ", ".join(map(repr, xs))),
)


# spellings of a non-negative integer that int() reads; the array parser
# refuses the first two, and the scan that names a bad line must read them
INT_SPELLINGS = {
    "underscore": lambda s: "0_" + s,
    "arabic-indic": lambda s: s.translate(str.maketrans("0123456789",
                                                        "\u0660\u0661\u0662\u0663\u0664"
                                                        "\u0665\u0666\u0667\u0668\u0669")),
    "plus": lambda s: "+" + s,
    "padded": lambda s: f" \t{s}  ",
}


def spelled_files(suffix, spell):
    lines = {k: list(v) for k, v in FUZZ_FILES.items()}
    lines[suffix] = [", ".join(map(spell, line.split(", "))) for line in lines[suffix]]
    return lines


def write_files(directory, lines):
    for k, v in lines.items():
        Path(directory, f"fz_{k}.txt").write_text("\n".join(v) + "\n", encoding="utf-8")
    return str(directory)


class TestLoaderSpellingsAndLines:
    @pytest.mark.parametrize("spelling", sorted(INT_SPELLINGS))
    @pytest.mark.parametrize("suffix", ["A", "graph_indicator", "graph_labels", "node_labels"])
    def test_int_spellings_load_as_plain(self, tmp_path, suffix, spelling):
        plain = write_files(tmp_path, FUZZ_FILES)
        (tmp_path / "s").mkdir()
        spelled = write_files(tmp_path / "s", spelled_files(suffix, INT_SPELLINGS[spelling]))
        assert Path(spelled, f"fz_{suffix}.txt").read_text() != \
            Path(plain, f"fz_{suffix}.txt").read_text()
        assert dataset_hash(load_tu_dataset(spelled, "fz")) == \
            dataset_hash(load_tu_dataset(plain, "fz"))

    @pytest.mark.parametrize("suffix, edit, message", [
        ("A", ["1, 2", "", "", "2, x"], r"fz_A.txt:4: expected 'i, j', got '2, x'"),
        ("A", ["", "1, 2", " ", "1, 9"], r"fz_A.txt:4: node id out of range"),
        ("A", ["1, 2", "", "3, 4"], r"fz_A.txt:3: edge crosses graphs 1 and 2"),
        ("A", ["1, 2", "", ", "], r"fz_A.txt:3: expected 'i, j', got ', '"),
        ("graph_labels", ["0", "", "1", "", "z"], r"fz_graph_labels.txt:5: bad graph label 'z'"),
        ("graph_indicator", ["1", "1", "1.0", "2", "2"],
         r"fz_graph_indicator.txt:3: bad graph indicator '1.0'"),
        # numpy's array parser reads this unassigned code point as the integer 445544
        ("node_labels", ["3", "1", "\U0006cc98", "2", "1"], r"fz_node_labels.txt:3: bad node label"),
    ])
    def test_bad_line_is_named(self, tmp_path, suffix, edit, message):
        # blank lines count in the line named, and integer files take int() spellings only
        d = write_files(tmp_path, FUZZ_FILES | {suffix: edit})
        with pytest.raises(FormatError, match=message):
            load_tu_dataset(d, "fz")

    def test_graph_label_outside_int64_reports_line(self, tmp_path):
        d = write_files(tmp_path, FUZZ_FILES | {"graph_labels": ["0", "", "9" * 25]})
        with pytest.raises(FormatError, match=r"fz_graph_labels.txt:3: bad graph label '9+'"):
            load_tu_dataset(d, "fz")


def attributed_node_task():
    rng = np.random.default_rng(7)
    n = 150
    edges = [(i, (i + 1) % n) for i in range(n)] + [tuple(rng.integers(0, n, 2))
                                                    for _ in range(60)]
    feats = rng.normal(size=(n, 4)) * np.array([1e-3, 1.0, 1e3, 1e12])
    labels = np.array([3, 7, 11])[np.arange(n) % 3]
    g = Graph.from_edges(n, edges, features=feats, node_labels=labels)
    return Dataset(graphs=[g], task="node", class_count=3, name="attrnode")


def write_golden_case(case, directory):
    """Write one TU directory of the loader golden; returns the dataset name."""
    data = {"graph-cycle": lambda: gen_graph_cycle(12, 2),
            "graph-five": lambda: gen_graph_five(10, 3),
            "node-labels": lambda: gen_graph_cycle(6, 5),
            "attributed-node": attributed_node_task}[case]()
    save_tu_dataset(data, directory)
    if case == "node-labels":
        # a graph task whose node labels (-2..2) become one-hot features
        n = sum(g.node_count for g in data.graphs)
        labels = np.random.default_rng(1).integers(-2, 3, size=n)
        Path(directory, f"{data.name}_node_labels.txt").write_text(
            "\n".join(map(str, labels)) + "\n")
    return data.name


# dataset_hash of each case loaded back, pinned with the per-line parser that
# the array loader replaced, so any change to a loaded array fails the test
LOADER_GOLDEN = {
    "graph-cycle": "1f2a6263603b0c1e9819297491c07a10119f1a448fbc3665efc9786414bfd83d",
    "graph-five": "501a4b64e59023679c143ee74141f75f60c7f5ab9677986b425e6ba2ffee33d3",
    "node-labels": "435391122025f04865f95fecbde6de6b2e4e03ba40890a19e1b6869e567a7c7e",
    "attributed-node": "9420d566c26adf99525973e184e59a9dcd366a72e4ef6ddd872356771669b804",
}


@pytest.mark.parametrize("case", sorted(LOADER_GOLDEN))
def test_loaded_dataset_matches_golden(tmp_path, case):
    name = write_golden_case(case, str(tmp_path))
    assert dataset_hash(load_tu_dataset(str(tmp_path), name)) == LOADER_GOLDEN[case]

class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FUZZ_FILES)), st.sampled_from(["replace", "drop", "dup"]),
           st.integers(0, 5), fuzz_text)
    def test_one_bad_line_is_a_dataset_or_format_error(self, suffix, op, at, text):
        lines = {k: list(v) for k, v in FUZZ_FILES.items()}
        edit = lines[suffix]
        at %= len(edit)
        if op == "replace":
            edit[at] = text
        elif op == "drop":
            del edit[at]
        else:
            edit.insert(at, edit[at])
        with tempfile.TemporaryDirectory() as d:
            for k, v in lines.items():
                Path(d, f"fz_{k}.txt").write_text("\n".join(v) + "\n", encoding="utf-8")
            try:
                data = load_tu_dataset(d, "fz")
            except FormatError:
                return
        assert isinstance(data, Dataset)


class TestGenerators:
    def test_cycle_dataset_shape(self):
        data = gen_graph_cycle(10, seed=0)
        assert data.class_count == 2
        labels = [g.graph_label for g in data.graphs]
        assert labels.count(0) == 5 and labels.count(1) == 5

    def test_cycle_deterministic(self, tmp_path):
        a, b = gen_graph_cycle(2, seed=9), gen_graph_cycle(2, seed=9)
        for ga, gb in zip(a.graphs, b.graphs):
            assert ga.edges() == gb.edges()
            assert np.array_equal(ga.features, gb.features)
        save_tu_dataset(a, str(tmp_path / "a"))
        save_tu_dataset(b, str(tmp_path / "b"))
        for suffix in ("A", "graph_indicator", "graph_labels"):
            fa = (tmp_path / "a" / f"GraphCycle_{suffix}.txt").read_bytes()
            fb = (tmp_path / "b" / f"GraphCycle_{suffix}.txt").read_bytes()
            assert fa == fb

    def test_five_dataset_shape(self):
        data = gen_graph_five(5, seed=1)
        assert data.class_count == 5
        assert sorted(g.graph_label for g in data.graphs) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("gen,count", [(gen_graph_cycle, 6), (gen_graph_five, 10)])
    def test_generated_graphs_connected(self, gen, count):
        for g in gen(count, seed=2).graphs:
            seen = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in g.neighbors_of(u):
                        if int(v) not in seen:
                            seen.add(int(v))
                            nxt.append(int(v))
                frontier = nxt
            assert len(seen) == g.node_count

    def test_generated_graphs_satisfy_invariants(self):
        # construction already validates symmetry/no-self-loops; spot-check sizes
        data = gen_graph_cycle(8, seed=5)
        for g in data.graphs:
            assert g.node_count >= 80  # at least 8 communities of 10
            assert g.feature_dim == int(max(h.degrees.max()
                                            for h in data.graphs)) + 1

    def test_count_validation(self):
        with pytest.raises(ValueError):
            gen_graph_cycle(1, seed=0)
        with pytest.raises(ValueError):
            gen_graph_five(3, seed=0)


def toy_graph_dataset(n_graphs, class_count=2):
    graphs = []
    for i in range(n_graphs):
        g = cycle_graph(3 + i % 3).with_label(i % class_count)
        graphs.append(g.with_features(degree_features(g, 3)))
    return Dataset(graphs=graphs, task="graph", class_count=class_count, name="toy")


class TestFolds:
    def test_even_partition(self):
        plan = make_folds(toy_graph_dataset(100), 10, seed=0)
        assert all(len(te) == 10 for _, te in plan.folds)

    def test_188_graphs_fold_sizes(self):
        plan = make_folds(toy_graph_dataset(188), 10, seed=1)
        sizes = sorted(len(te) for _, te in plan.folds)
        assert set(sizes) <= {18, 19}
        assert sum(sizes) == 188

    def test_partition_properties(self):
        data = toy_graph_dataset(37, class_count=3)
        plan = make_folds(data, 5, seed=2)
        all_test = [i for _, te in plan.folds for i in te]
        assert sorted(all_test) == list(range(37))
        for tr, te in plan.folds:
            assert set(tr) | set(te) == set(range(37))
            assert not set(tr) & set(te)

    def test_stratification(self):
        data = toy_graph_dataset(40, class_count=2)
        plan = make_folds(data, 4, seed=3)
        labels = data.labels()
        for _, te in plan.folds:
            counts = np.bincount(labels[te], minlength=2)
            assert counts.min() >= 1

    def test_deterministic(self):
        data = toy_graph_dataset(30)
        a = make_folds(data, 3, seed=7)
        b = make_folds(data, 3, seed=7)
        for (tra, tea), (trb, teb) in zip(a.folds, b.folds):
            assert np.array_equal(tra, trb) and np.array_equal(tea, teb)

    def test_small_class_warns(self):
        data = toy_graph_dataset(11, class_count=2)
        bad = Dataset(graphs=data.graphs[:3] + [g.with_label(1) for g in data.graphs[3:]],
                      task="graph", class_count=2, name="warn")
        with pytest.warns(UserWarning, match="fewer members"):
            make_folds(bad, 5, seed=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_folds(toy_graph_dataset(10), 1, seed=0)


def toy_node_dataset(n=183, classes=5, seed=0, class_sizes=None):
    edges = [(i, (i + 1) % n) for i in range(n)]
    if class_sizes is None:
        labels = np.array([i % classes for i in range(n)])
    else:
        assert sum(class_sizes) == n
        labels = np.concatenate([np.full(s, c) for c, s in enumerate(class_sizes)])
    g = Graph.from_edges(n, edges, node_labels=labels)
    g = g.with_features(degree_features(g, 2))
    return Dataset(graphs=[g], task="node", class_count=classes, name="toynode")


class TestNodeSplits:
    def test_cornell_sized_split(self):
        # 183 nodes in 5 classes; floors plus train-first leftovers
        data = toy_node_dataset(183, 5, class_sizes=(50, 40, 40, 30, 23))
        plan = make_node_splits(data, (0.6, 0.2, 0.2), seed=0)
        train, val, test = plan.masks
        labels = data.graphs[0].node_labels
        exp_train = 0
        for c in range(5):
            n_c = int((labels == c).sum())
            sizes = [int(np.floor(r * n_c)) for r in (0.6, 0.2, 0.2)]
            leftover = n_c - sum(sizes)
            for i in range(leftover):
                sizes[i % 3] += 1
            exp_train += sizes[0]
        assert int(train.sum()) == exp_train
        assert exp_train in (109, 110)
        assert not np.any(train & val) and not np.any(train & test)
        assert not np.any(val & test)
        assert np.all(train | val | test)

    def test_all_train(self):
        data = toy_node_dataset(50, 2)
        train, val, test = make_node_splits(data, (1.0, 0.0, 0.0), seed=1).masks
        assert train.all() and not val.any() and not test.any()

    def test_deterministic(self):
        data = toy_node_dataset(60, 3)
        a = make_node_splits(data, (0.6, 0.2, 0.2), seed=5).masks
        b = make_node_splits(data, (0.6, 0.2, 0.2), seed=5).masks
        for ma, mb in zip(a, b):
            assert np.array_equal(ma, mb)

    def test_validation(self):
        data = toy_node_dataset(20, 2)
        with pytest.raises(ValueError):
            make_node_splits(data, (0.5, 0.2, 0.2), seed=0)
        with pytest.raises(ValueError):
            make_node_splits(toy_graph_dataset(10), (0.6, 0.2, 0.2), seed=0)


class TestDatasetType:
    def test_node_dataset_requires_single_labeled_graph(self):
        with pytest.raises(ValueError):
            Dataset(graphs=[cycle_graph(3), cycle_graph(4)], task="node",
                    class_count=2, name="bad")
