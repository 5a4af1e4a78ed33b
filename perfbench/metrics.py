"""The benchmark's metric catalogue and the per-layer metrics computed from
spans.

``END_TO_END`` and ``PER_LAYER`` are the single list of names, units and
directions; ``BENCHMARK.json`` repeats them and the self-test checks that
the two agree. Each per-layer entry also names the end-to-end metric it
should move and the workloads where it should move it.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict

# Backend calls, by span name: what ``requests_per_episode`` counts.
BACKEND_SPANS = ("agents.generate", "agents.rank", "classifiers.nli", "classifiers.classify")

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("episodes_per_s", "episodes/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("requests_per_episode", "count", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("completed_share", "ratio", "higher", 0.01),
)

# name, unit, better, end-to-end metric it should move, workloads
PER_LAYER = (
    ("seeds.build_index.s", "s", "lower", "setup_s", "retrieval"),
    ("seeds.save_index.s", "s", "lower", "setup_s", "retrieval"),
    ("seeds.load_index.s", "s", "lower", "episodes_per_s", "retrieval"),
    ("seeds.build_seeds.self_ms", "ms", "lower", "episodes_per_s", "retrieval"),
    ("seeds.query.calls", "count", "lower", "episodes_per_s", "retrieval"),
    ("seeds.query.ms_p50", "ms", "lower", "episodes_per_s", "retrieval"),
    ("seeds.query.ms_p90", "ms", "lower", "episodes_per_s", "retrieval"),
    ("seeds.doc.calls", "count", "lower", "episodes_per_s", "retrieval"),
    ("seeds.doc.self_ms", "ms", "lower", "episodes_per_s", "retrieval"),
    ("seeds.seeds_per_pair", "ratio", "higher", "episodes_per_s", "retrieval"),
    ("dataio.read_dataset.s", "s", "lower", "episodes_per_s", "retrieval"),
    ("dataio.episode_line.us_p50", "us", "lower", "episodes_per_s", "scripted"),
    ("dataio.write.self_ms", "ms", "lower", "episodes_per_s", "scripted"),
    ("dataio.bytes_per_episode", "bytes", "lower", "none", "scripted"),
    ("dataio.read_episodes.s", "s", "lower", "none", "scripted"),
    ("agents.call.us_p50", "us", "lower", "episodes_per_s", "remote"),
    ("agents.call.us_p99", "us", "lower", "episodes_per_s", "remote"),
    ("agents.post_json.calls_per_episode", "count", "lower", "requests_per_episode", "remote"),
    ("agents.generate.us_p50", "us", "lower", "episodes_per_s", "remote"),
    ("agents.rank.us_p50", "us", "lower", "episodes_per_s", "remote"),
    ("agents.generate.calls_per_episode", "count", "lower", "requests_per_episode", "scripted remote"),
    ("agents.rank.calls_per_episode", "count", "lower", "requests_per_episode", "scripted remote"),
    ("agents.server_requests_per_episode", "count", "lower", "requests_per_episode", "remote"),
    ("agents.retries", "count", "lower", "requests_per_episode completed_share", "remote"),
    ("classifiers.nli.calls_per_episode", "count", "lower", "requests_per_episode", "scripted remote"),
    ("classifiers.nli.distinct_share", "ratio", "higher", "requests_per_episode", "scripted remote"),
    ("classifiers.classify.calls_per_episode", "count", "lower", "requests_per_episode", "scripted remote"),
    ("classifiers.classify.distinct_share", "ratio", "higher", "requests_per_episode", "scripted remote"),
    ("classifiers.nli.us_p50", "us", "lower", "episodes_per_s", "scripted remote"),
    ("classifiers.classify.us_p50", "us", "lower", "episodes_per_s", "scripted remote"),
    ("moderator.simulate_approved.self_ms", "ms", "lower", "episodes_per_s", "scripted"),
    ("moderator.select_final.self_ms", "ms", "lower", "episodes_per_s", "scripted"),
    ("moderator.attempts_per_candidate", "ratio", "lower", "requests_per_episode", "scripted"),
    ("moderator.flow_gate.calls_per_episode", "count", "lower", "requests_per_episode", "scripted"),
    ("moderator.refusals_per_episode", "count", "lower", "none", "all"),
    ("moderator.flow_gate.refused_share", "ratio", "lower", "none", "all"),
    ("moderator.exhausted_share", "ratio", "lower", "none", "all"),
    ("moderator.fallback_share", "ratio", "lower", "none", "all"),
    ("moderator.mic_pass_share", "ratio", "higher", "none", "all"),
    ("distmath.kl_divergence.calls_per_episode", "count", "lower", "episodes_per_s", "scripted"),
    ("core.config_digest.calls_per_episode", "count", "lower", "episodes_per_s", "scripted"),
    ("core.validate_episode.us_p50", "us", "lower", "none", "scripted"),
    ("stats.build_report.s", "s", "lower", "none", "scripted"),
    ("orchestrator.run_episode.ms_p50", "ms", "lower", "episodes_per_s", "all"),
    ("orchestrator.run_episode.ms_p90", "ms", "lower", "episodes_per_s", "all"),
    ("orchestrator.worker_busy_share", "ratio", "higher", "episodes_per_s", "remote"),
    ("cli.generate.self_s", "s", "lower", "episodes_per_s", "retrieval"),
    ("trace.overhead_share", "ratio", "lower", "none", "all"),
)


def load_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(span) for span in json.load(fh)]


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the part of its interval its child spans
    cover (children may overlap when they ran on parallel workers)."""
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
    out = {}
    for span_id, _parent, _name, start, end, _episode, _value in spans:
        covered = 0
        cursor = start
        for child in sorted(children.get(span_id, ()), key=lambda s: s[3]):
            lo, hi = max(child[3], cursor), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (end - start) - covered
    return out


def _by_name(spans: list[tuple]) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        out[span[2]].append(span)
    return out


def _durations(spans: list[tuple], scale: float) -> list[float]:
    return [(s[4] - s[3]) * scale for s in spans]


def _distinct_share(spans: list[tuple]) -> float:
    per_episode: dict[str, set] = defaultdict(set)
    for span in spans:
        per_episode[span[5]].add(span[6])
    return sum(len(keys) for keys in per_episode.values()) / len(spans) if spans else 0.0


NS_S, NS_MS, NS_US = 1e-9, 1e-6, 1e-3


def generate_metrics(spans: list[tuple], episodes: int, parallelism: int) -> dict[str, float]:
    """Per-layer metrics of one traced ``generate`` command."""
    named = _by_name(spans)
    selfs = self_times(spans)

    def self_total(name: str, scale: float) -> float:
        return sum(selfs[s[0]] for s in named[name]) * scale

    def per_episode(name: str) -> float:
        return len(named[name]) / episodes

    def p(name: str, q: float, scale: float) -> float:
        return quantile(_durations(named[name], scale), q) if named[name] else 0.0

    calls = [s for name in BACKEND_SPANS for s in named[name]]
    simulations = named["moderator.simulate_approved"]
    selections = named["moderator.select_final"]
    approved = sum(1 for s in simulations if not s[6][0])
    batch = named["orchestrator.run_batch"][0]
    busy = sum(_durations(named["orchestrator.run_episode"], 1.0))
    return {
        "seeds.load_index.s": sum(_durations(named["seeds.load_index"], NS_S)),
        "seeds.build_seeds.self_ms": self_total("seeds.build_seeds", NS_MS),
        "seeds.query.calls": len(named["seeds.query"]),
        "seeds.query.ms_p50": p("seeds.query", 0.5, NS_MS),
        "seeds.query.ms_p90": p("seeds.query", 0.9, NS_MS),
        "seeds.doc.calls": len(named["seeds.doc"]),
        "seeds.doc.self_ms": self_total("seeds.doc", NS_MS),
        "seeds.seeds_per_pair": sum(s[6] for s in named["seeds.build_seeds"]) / len(named["seeds.build_seeds"]),
        "dataio.read_dataset.s": sum(_durations(named["dataio.read_dataset"], NS_S)),
        "dataio.episode_line.us_p50": p("dataio.episode_line", 0.5, NS_US),
        "dataio.write.self_ms": self_total("dataio.write", NS_MS),
        "agents.call.us_p50": quantile(_durations(calls, NS_US), 0.5),
        "agents.call.us_p99": quantile(_durations(calls, NS_US), 0.99),
        "agents.post_json.calls_per_episode": per_episode("agents.post_json"),
        "agents.generate.us_p50": p("agents.generate", 0.5, NS_US),
        "agents.rank.us_p50": p("agents.rank", 0.5, NS_US),
        "agents.generate.calls_per_episode": per_episode("agents.generate"),
        "agents.rank.calls_per_episode": per_episode("agents.rank"),
        "classifiers.nli.calls_per_episode": per_episode("classifiers.nli"),
        "classifiers.nli.distinct_share": _distinct_share(named["classifiers.nli"]),
        "classifiers.classify.calls_per_episode": per_episode("classifiers.classify"),
        "classifiers.classify.distinct_share": _distinct_share(named["classifiers.classify"]),
        "classifiers.nli.us_p50": p("classifiers.nli", 0.5, NS_US),
        "classifiers.classify.us_p50": p("classifiers.classify", 0.5, NS_US),
        "moderator.simulate_approved.self_ms": self_total("moderator.simulate_approved", NS_MS),
        "moderator.select_final.self_ms": self_total("moderator.select_final", NS_MS),
        "moderator.attempts_per_candidate": len(named["agents.generate"]) / approved,
        "moderator.flow_gate.calls_per_episode": per_episode("moderator.flow_gate"),
        "moderator.refusals_per_episode": sum(s[6][1] for s in simulations) / episodes,
        "moderator.flow_gate.refused_share": sum(1 for s in named["moderator.flow_gate"] if not s[6])
        / len(named["moderator.flow_gate"]),
        "moderator.exhausted_share": (len(simulations) - approved) / len(simulations),
        "moderator.fallback_share": sum(1 for s in selections if s[6][0]) / len(selections),
        "moderator.mic_pass_share": sum(1 for s in selections if s[6][1]) / len(selections),
        "distmath.kl_divergence.calls_per_episode": per_episode("distmath.kl_divergence"),
        "core.config_digest.calls_per_episode": per_episode("core.config_digest"),
        "orchestrator.run_episode.ms_p50": p("orchestrator.run_episode", 0.5, NS_MS),
        "orchestrator.run_episode.ms_p90": p("orchestrator.run_episode", 0.9, NS_MS),
        "orchestrator.worker_busy_share": busy / ((batch[4] - batch[3]) * parallelism),
        "cli.generate.self_s": self_total("cli.generate", NS_S),
    }


def index_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of traced ``index`` commands (medians over them)."""
    named = _by_name(spans)
    return {
        "seeds.build_index.s": statistics.median(_durations(named["seeds.build_index"], NS_S)),
        "seeds.save_index.s": statistics.median(_durations(named["seeds.save_index"], NS_S)),
    }


def readback_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of traced ``validate`` and ``stats`` commands
    (medians over the passes)."""
    named = _by_name(spans)
    return {
        "dataio.read_episodes.s": statistics.median(_durations(named["dataio.read_episodes"], NS_S)),
        "core.validate_episode.us_p50": quantile(_durations(named["core.validate_episode"], NS_US), 0.5),
        "stats.build_report.s": statistics.median(_durations(named["stats.build_report"], NS_S)),
    }


def backend_calls(spans: list[tuple]) -> dict[str, int]:
    """Backend calls by kind, as the client made them."""
    counts = {name: 0 for name in BACKEND_SPANS}
    for span in spans:
        if span[2] in counts:
            counts[span[2]] += 1
    return counts


def post_json_routes(spans: list[tuple]) -> dict[str, int]:
    """Client-side ``post_json`` calls by route."""
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        if span[2] == "agents.post_json":
            counts[span[6]] += 1
    return dict(sorted(counts.items()))
