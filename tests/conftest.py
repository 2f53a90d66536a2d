"""Shared fixtures: small graphs, a toy dataset, and a CLI runner."""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nettwin.nettopo import FlowSet, Graph, build_reg_grid
from nettwin.pipeline import GenConfig, Sample, generate_dataset, load_dataset
from nettwin.routing import Path as RoutePath
from nettwin.routing import RoutingTable, shortest_paths
from nettwin.simulator import TrafficParams, default_sim_config, link_capacities
from nettwin.twin import GlanceDims, GnnDims

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

#: small architecture shared by the fast model tests
TINY_DIMS = GlanceDims(
    d_node=4,
    d_link=4,
    d_path=8,
    t_layers=2,
    l_max=2,
    link_hidden=(8,),
    readout_hidden=(8,),
)


#: TINY_DIMS with room for the 3-link paths of mixed_samples
BATCH_DIMS = replace(TINY_DIMS, l_max=3)


def kind_dims(kind: str, dims: GlanceDims, n_flows: int) -> GlanceDims | GnnDims:
    """dims for a path model; for gnn, the default GnnDims of n_flows flows."""
    return GnnDims(n_flows=n_flows) if kind == "gnn" else dims


def embedding_names(model) -> list[str]:
    """The model's parameters outside the readouts, in parameter order."""
    return [n for n in model.params.names() if not n.startswith("readout/")]


def wired_graph(n: int, edges: list[tuple[int, int]]) -> Graph:
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    return Graph(a, None, wired=True)


@pytest.fixture(scope="session")
def line3() -> Graph:
    return wired_graph(3, [(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def diamond4() -> Graph:
    # two shortest 0 -> 3 paths, via 1 or via 2
    return wired_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture(scope="session")
def cycle4() -> Graph:
    return wired_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture(scope="session")
def reg44() -> Graph:
    return build_reg_grid()


def line_sample(
    graph: Graph,
    tau_on: float,
    tau_off: float,
    labels_row: list[float],
    index: int = 0,
) -> Sample:
    """Hand-built single-flow sample on the 0-1-2 line, labels (1, 4)."""
    flows = FlowSet((0,), (2,))
    table = RoutingTable((RoutePath(0, ((0, 1), (1, 2))),), seed=0)
    config = default_sim_config(wired=True)
    return Sample(
        index=index,
        split="train",
        graph_id="line",
        graph=graph,
        flows=flows,
        traffic=TrafficParams((tau_on,), (tau_off,)),
        table=table,
        capacities=link_capacities(graph, config),
        labels=np.array([labels_row], dtype=np.float64),
    )


def mixed_samples() -> list[Sample]:
    """Three two-flow samples on different graphs, for batching tests.

    Their longest paths have 2, 3 and 1 links, and two of them list their
    flows out of canonical (source, destination) order.
    """
    rng = np.random.default_rng(21)
    cases = [
        (wired_graph(3, [(0, 1), (1, 2)]), (2, 0), (0, 2)),
        (build_reg_grid(), (0, 5), (15, 6)),
        (wired_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), (2, 0), (3, 1)),
    ]
    out = []
    for k, (graph, sources, dests) in enumerate(cases):
        flows = FlowSet(sources, dests)
        table = shortest_paths(graph, flows, seed=k)
        out.append(
            Sample(
                index=k,
                split="train",
                graph_id=f"mixed-{k}",
                graph=graph,
                flows=flows,
                traffic=TrafficParams(
                    tuple(rng.uniform(1.0, 20.0, 2)), tuple(rng.uniform(1.0, 20.0, 2))
                ),
                table=table,
                capacities=link_capacities(graph, default_sim_config(graph.wired)),
                labels=rng.uniform(1.0, 5.0, size=(2, 4)),
            )
        )
    return out


@pytest.fixture(scope="session")
def toy_dataset_dir(tmp_path_factory) -> str:
    """Small reggrid-fixed dataset reused across pipeline and CLI tests."""
    out = tmp_path_factory.mktemp("data") / "toy"
    config = GenConfig(
        scenario="reggrid-fixed",
        n_train=8,
        n_val=2,
        n_test=2,
        n_r_test=4,
        t_gen=5.0,
        seed=5,
    )
    generate_dataset(config, out, jobs=2)
    return str(out)


@pytest.fixture(scope="session")
def toy_dataset(toy_dataset_dir):
    return load_dataset(toy_dataset_dir)


#: one scenario per family: wired backbone, fixed wireless grid, and a
#: perturbed grid per sample (one topology file each)
FAMILY_SCENARIOS = ("nsfnet-fixed", "reggrid-fixed", "pertgrid-randtopo")


@pytest.fixture(scope="session")
def family_dataset_dirs(tmp_path_factory) -> dict[str, str]:
    """A tiny dataset of each family: 2 train, 1 val and 1 test sample."""
    root = tmp_path_factory.mktemp("families")
    for scenario in FAMILY_SCENARIOS:
        config = GenConfig(
            scenario=scenario, n_train=2, n_val=1, n_test=1, n_r_test=2,
            n_flows=4, t_gen=2.0, seed=9,
        )
        generate_dataset(config, root / scenario)
    return {scenario: str(root / scenario) for scenario in FAMILY_SCENARIOS}


def copy_with_edited_record(src, dst, edit) -> int:
    """Copy a dataset and apply edit(record) to train sample 0 in place.

    Returns that sample's index.
    """
    shutil.copytree(src, dst)
    lines = (Path(dst) / "train.jsonl").read_text().splitlines()
    record = json.loads(lines[0])
    edit(record)
    lines[0] = json.dumps(record, sort_keys=True)
    (Path(dst) / "train.jsonl").write_text("\n".join(lines) + "\n")
    return record["index"]


def copy_with_bad_route(src, dst, edit) -> tuple[int, int]:
    """Copy a dataset, replacing one train route by edit(route).

    The route is that of the first flow of train sample 0 with two or more
    links. Returns that flow's index and the sample's index.
    """
    edited = []

    def rewrite(record):
        f = next(f for f, links in enumerate(record["paths"]) if len(links) >= 2)
        record["paths"][f] = edit(record["paths"][f])
        edited.append(f)

    index = copy_with_edited_record(src, dst, rewrite)
    return edited[0], index


def copy_with_missing_link(src, dst) -> tuple[int, int]:
    """Copy a dataset, rerouting one train flow over a link not in the topology.

    The first flow of train sample 0 whose path has two or more links gets
    the one-link path (source, destination), which the graph lacks. Returns
    that flow's index and the sample's index.
    """
    return copy_with_bad_route(src, dst, lambda links: [[links[0][0], links[-1][1]]])


def copy_with_line(src, dst, split: str, line: int, rewrite) -> None:
    """Copy a dataset and replace the given 1-based line of a split by rewrite(line)."""
    shutil.copytree(src, dst)
    lines = (Path(dst) / f"{split}.jsonl").read_text().splitlines()
    lines[line - 1] = rewrite(lines[line - 1])
    (Path(dst) / f"{split}.jsonl").write_text("\n".join(lines) + "\n")


def copy_with_truncated_line(src, dst, split: str, line: int) -> None:
    """Copy a dataset and cut the given 1-based line of a split in half."""
    copy_with_line(src, dst, split, line, lambda text: text[: len(text) // 2])


@pytest.fixture()
def run_cli():
    from nettwin.cli import main

    def run(*argv: str) -> int:
        return main(list(argv))

    return run
