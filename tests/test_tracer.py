"""The benchmark's tracer (``perfbench/tracer.py``) patches named functions,
classes and methods of the program. Every name it patches must stay where
it looks, and every result field it reads must stay on the result, or
every traced benchmark run fails."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

from skillblend import cli
from skillblend.core import EngineConfig
from skillblend.dataio import EpisodeWriter

import helpers

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    # import the benchmark file as it is, leaving no bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_uninstalls(tmp_path, corpus_files, monkeypatch):
    tracer_module = _load(monkeypatch, "tracer")
    targets = [(owner, attr) for owner, attr, _name, _value in tracer_module._TARGETS]
    originals = [owner.__dict__.get(attr) for owner, attr in targets]
    assert None not in originals

    cfg = EngineConfig(rng_seed=3)
    seeds = helpers.make_seeds(corpus_files, cfg, 4)
    agents, judge, scorer = helpers.scripted_stack(cfg)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        with EpisodeWriter(str(tmp_path / "out.jsonl")) as writer:
            report = cli.run_batch(seeds, agents, judge, scorer, cfg, write=writer.write)
    finally:
        tracer.uninstall()

    assert [owner.__dict__.get(attr) for owner, attr in targets] == originals
    assert report.episodes_written == 4
    spans = {name: value for _id, _parent, name, _start, _end, _episode, value in tracer.spans}
    assert spans["orchestrator.run_batch"] == 4
    for name in (
        "orchestrator.run_episode",
        "moderator.simulate_approved",
        "moderator.select_final",
        "moderator.flow_gate",
        "agents.generate",
        "agents.rank",
        "classifiers.nli",
        "classifiers.classify",
        "dataio.write",
        "dataio.episode_line",
    ):
        assert name in spans, name


def test_traced_generate_yields_the_benchmark_metrics(tmp_path, corpus_files, monkeypatch):
    # as the benchmark's child process runs a traced generate command
    tracer_module = _load(monkeypatch, "tracer")
    metrics = _load(monkeypatch, "metrics")
    index = str(tmp_path / "ctx.idx")
    assert cli.main(["index", "--data", *corpus_files, "--out", index]) == 0
    argv = ["generate", "--data", *corpus_files, "--index", index,
            "--out", str(tmp_path / "out.jsonl"), "--episodes", "6", "--parallelism", "2"]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        rc = tracer.span("cli.generate", cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.dump(str(tmp_path / "spans.json"))
    assert rc == 0

    spans = metrics.load_spans(str(tmp_path / "spans.json"))
    per_layer = metrics.generate_metrics(spans, 6, 2)
    calls = metrics.backend_calls(spans)
    assert per_layer["seeds.seeds_per_pair"] > 0
    assert per_layer["cli.generate.self_s"] > 0
    assert min(calls.values()) > 0


def test_traced_validate_and_stats_yield_the_readback_metrics(tmp_path, corpus_files, monkeypatch):
    # as the benchmark's traced batch reads its corpus back
    tracer_module = _load(monkeypatch, "tracer")
    metrics = _load(monkeypatch, "metrics")
    out = tmp_path / "out.jsonl"
    helpers.generate_file(corpus_files, EngineConfig(rng_seed=3), 4, out)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for argv in (["validate", "--in", str(out)],
                     ["stats", "--in", str(out), "--out", str(tmp_path / "report")]):
            assert tracer.span("cli." + argv[0], cli.main, argv) == 0
    finally:
        tracer.uninstall()
        tracer.dump(str(tmp_path / "spans.json"))

    spans = metrics.load_spans(str(tmp_path / "spans.json"))
    reads = [s[6] for s in spans if s[2] == "dataio.read_episodes"]
    assert reads == [4, 4]
    readback = metrics.readback_metrics(spans)
    assert sorted(readback) == [
        "core.validate_episode.us_p50", "dataio.read_episodes.s", "stats.build_report.s",
    ]
    assert all(value > 0 for value in readback.values())
