"""Span recording around skillblend's public callables, from outside.

``Tracer.install`` swaps wrappers into the module namespaces and classes
through which the program calls each layer, and ``Tracer.uninstall`` puts
the originals back, so untraced runs execute unmodified code. Each span is
one tuple ``(id, parent, name, start_ns, end_ns, episode, value)``:

* ``parent`` comes from a thread-local stack. Worker threads of a batch
  start with an empty stack; their top-level spans get the enclosing
  ``orchestrator.run_batch`` span as parent.
* ``episode`` is the ``episode_id`` of the ``run_episode`` call the span
  ran under (None outside episodes), shared by all spans of one episode.
* ``value`` is a small per-call observation some layers need (a route, a
  result size, a hash of the arguments for redundancy ratios).

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter_ns

from skillblend import agents, classifiers, cli, dataio, moderator, orchestrator, seeds


def _route(args, kwargs, result):
    return args[1]


def _length(args, kwargs, result):
    return len(result)


def _nli_key(args, kwargs, result):
    return hash((args[1], args[2]))


def _text_key(args, kwargs, result):
    return hash(args[1])


def _simulation(args, kwargs, result):
    return [result.candidate is None, len(result.refusals)]


def _selection(args, kwargs, result):
    return [result.used_fallback, result.mic_passed]


def _approved(args, kwargs, result):
    return result.approved


def _written(args, kwargs, result):
    return result.episodes_written


# (owner, attribute, span name, value extractor). Owners are the namespaces
# the calling code looks the name up in, so wrapping them intercepts the
# call; methods are wrapped on the class.
_TARGETS = (
    (cli, "read_dataset", "dataio.read_dataset", None),
    (cli, "build_index", "seeds.build_index", None),
    (cli, "save_index", "seeds.save_index", None),
    (cli, "load_index", "seeds.load_index", None),
    (cli, "build_seeds", "seeds.build_seeds", _length),
    (cli, "run_batch", "orchestrator.run_batch", _written),
    (cli, "read_episodes", "dataio.read_episodes", _length),
    (cli, "validate_episode", "core.validate_episode", None),
    (cli, "build_report", "stats.build_report", None),
    (seeds, "query", "seeds.query", None),
    (seeds.TfIdfIndex, "doc", "seeds.doc", None),
    (orchestrator, "run_episode", "orchestrator.run_episode", None),
    (orchestrator, "simulate_approved", "moderator.simulate_approved", _simulation),
    (orchestrator, "select_final", "moderator.select_final", _selection),
    (orchestrator, "config_digest", "core.config_digest", None),
    (moderator, "flow_gate", "moderator.flow_gate", _approved),
    (moderator, "kl_divergence", "distmath.kl_divergence", None),
    (dataio, "episode_line", "dataio.episode_line", None),
    (dataio.EpisodeWriter, "write", "dataio.write", None),
    (agents, "post_json", "agents.post_json", _route),
    (classifiers, "post_json", "agents.post_json", _route),
    (agents.ScriptedAgent, "generate", "agents.generate", None),
    (agents.ScriptedAgent, "rank", "agents.rank", None),
    (agents.RemoteSkillAgent, "generate", "agents.generate", None),
    (agents.RemoteSkillAgent, "rank", "agents.rank", None),
    (classifiers.LexicalNliJudge, "judge", "classifiers.nli", _nli_key),
    (classifiers.RemoteNliJudge, "judge", "classifiers.nli", _nli_key),
    (classifiers.LexicalSkillScorer, "score", "classifiers.classify", _text_key),
    (classifiers.RemoteSkillScorer, "score", "classifiers.classify", _text_key),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._batch_span: int | None = None
        self._saved: list[tuple] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.episode = None
        return local

    def wrap(self, name: str, fn, value=None):
        """``fn`` with every call recorded as a span called ``name``."""
        tracer = self
        is_batch = name == "orchestrator.run_batch"
        is_episode = name == "orchestrator.run_episode"
        is_generator = name == "dataio.read_dataset"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            parent = stack[-1] if stack else tracer._batch_span
            span_id = next(tracer._ids)
            outer_episode = local.episode
            if is_episode:
                local.episode = kwargs.get("episode_id")
            if is_batch:
                tracer._batch_span = span_id
            stack.append(span_id)
            observed = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if is_generator:
                    # The reader is lazy; consume it inside the span so the
                    # span covers the parsing. The caller only extends a list.
                    result = list(result)
                if value is not None:
                    observed = value(args, kwargs, result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                if is_batch:
                    tracer._batch_span = None
                episode = local.episode
                local.episode = outer_episode
                tracer.spans.append((span_id, parent, name, start, end, episode, observed))

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, value in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, value))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))
