from __future__ import annotations

import gc
import json
import math
import socket
import threading
import time
from collections import Counter
from functools import partial

import pytest

from skillblend import orchestrator
from skillblend.agents import (
    BackendEndpoint,
    BackendUnavailableError,
    ProtocolError,
    RemoteSkillAgent,
    default_scripted_agents,
    post_json,
    serve_mock,
)
from skillblend.classifiers import (
    LexicalNliJudge,
    LexicalSkillScorer,
    LexiconSpec,
    RemoteNliJudge,
    RemoteSkillScorer,
    default_lexicon,
)
from skillblend.core import (
    DEFAULT_ROSTER,
    EngineConfig,
    SkillContext,
    SkillContextSet,
    Utterance,
    compact_json,
    config_digest,
)
from skillblend.dataio import EpisodeWriter, episode_line
from skillblend.moderator import consistency_gate
from skillblend.orchestrator import BatchError, EpisodeAbortError, run_batch
from skillblend.seeds import SeedEpisode

import helpers

P, K, E = DEFAULT_ROSTER


def _plain_seed(seed_skill=P):
    contexts = (
        SkillContextSet(
            (
                SkillContext(P, ("i like to ski in winter",)),
                SkillContext(K, ("skiing",)),
                SkillContext(E, ("i was so proud last week", "proud")),
            )
        ),
        SkillContextSet(
            (
                SkillContext(P, ("i grow tomatoes in my garden",)),
                SkillContext(K, ("skiing", "alpine skiing became an olympic sport in 1936")),
            )
        ),
    )
    return SeedEpisode(seed_skill, ("do you enjoy skiing", "i love skiing a lot"), contexts)


def _stack(cfg):
    return helpers.scripted_stack(cfg)


def test_run_episode_shape_and_annotation(cfg):
    agents, judge, scorer = _stack(cfg)
    ep = helpers.run_episode(_plain_seed(), agents, judge, scorer, cfg, episode_id="ep-x")
    assert len(ep.turns) == 10  # 2-turn seed + 8 generated
    assert ep.turns[0].utterance.text == "do you enjoy skiing"
    assert ep.turns[1].utterance.text == "i love skiing a lot"
    # the episode seats the seed pair: side 0 speaks first
    assert ep.seed_pair == (Utterance(0, "do you enjoy skiing"), Utterance(1, "i love skiing a lot"))
    assert [t.utterance.speaker for t in ep.turns] == [i % 2 for i in range(10)]
    for i, turn in enumerate(ep.turns[:2]):
        assert turn.phase2_attempts == 0 and not turn.mic_passed
    for turn in ep.turns[2:]:
        assert turn.phase2_attempts >= 1
    assert ep.config_digest == config_digest(cfg)
    assert ep.seed_dataset == P


def test_run_episode_is_deterministic(cfg):
    agents, judge, scorer = _stack(cfg)
    a = helpers.run_episode(_plain_seed(), agents, judge, scorer, cfg, episode_id="ep-x")
    b = helpers.run_episode(_plain_seed(), agents, judge, scorer, cfg, episode_id="ep-x")
    assert episode_line(a) == episode_line(b)


def test_run_episode_requires_exact_roster_coverage(cfg):
    agents, judge, scorer = _stack(cfg)
    with pytest.raises(ValueError):
        helpers.run_episode(_plain_seed(), agents[:2], judge, scorer, cfg)
    with pytest.raises(ValueError):
        helpers.run_episode(_plain_seed(), agents + agents[:1], judge, scorer, cfg)


def test_run_episode_generated_turns_reapprove(cfg):
    agents, judge, scorer = _stack(cfg)
    ep = helpers.run_episode(_plain_seed(), agents, judge, scorer, cfg)
    for turn in ep.turns[2:]:
        side = turn.utterance.speaker
        decision = consistency_gate(judge, ep.contexts[side].flat_lines(), turn.utterance.text)
        assert decision.approved


def test_run_episode_matches_reference_replay(cfg):
    # independent re-execution of the turn loop with the public phase ops
    from skillblend.core import DialogueContext
    from skillblend.moderator import select_final, simulate_approved

    seed = _plain_seed()
    agents, judge, scorer = _stack(cfg)
    ep = helpers.run_episode(seed, agents, judge, scorer, cfg)

    by_id = {a.skill.id: a for a in agents}
    dtx = DialogueContext(
        (Utterance(0, seed.pair[0]), Utterance(1, seed.pair[1]))
    )
    active = seed.seed_dataset
    for t in range(2, cfg.episode_length):
        side = t % 2
        stx_all = seed.contexts[side]
        candidates = []
        for skill in cfg.skill_roster:
            stx_own = stx_all.get(skill) or SkillContext(skill, ())
            agent = by_id[skill.id]
            result = simulate_approved(
                agent, judge, stx_all.flat_lines(), stx_own, dtx, cfg.max_attempts,
                agent.generate(stx_own, dtx, 1),
            )
            if result.candidate is not None:
                candidates.append(result.candidate)
        stx_active = stx_all.get(active) or SkillContext(active, ())
        outcome = select_final(by_id[active.id], scorer, stx_active, dtx, candidates, cfg.alpha, cfg.epsilon)
        assert ep.turns[t].utterance.text == outcome.winner.text
        assert ep.turns[t].mic_passed == outcome.mic_passed
        assert ep.turns[t].phase2_attempts == outcome.winner.attempts
        dtx = dtx.extended(Utterance(side, outcome.winner.text))
        if outcome.mic_passed:
            active = outcome.winner.origin


def test_run_episode_aborts_when_everything_contradicts(cfg):
    # every template rendering contains a vowel, so all attempts trip
    spec = LexiconSpec(
        DEFAULT_ROSTER,
        {},
        contradiction_pairs=tuple(("poison line", v) for v in "aeiou"),
    )
    judge = LexicalNliJudge(spec)
    scorer = LexicalSkillScorer(default_lexicon(DEFAULT_ROSTER))
    agents = default_scripted_agents(DEFAULT_ROSTER)
    contexts = (
        SkillContextSet((SkillContext(P, ("poison line",)),)),
        SkillContextSet((SkillContext(P, ("poison line",)),)),
    )
    seed = SeedEpisode(
        P,
        ("hello", "hi"),
        contexts,
    )
    with pytest.raises(EpisodeAbortError, match="^episode ep-dead aborted at turn 2: "):
        helpers.run_episode(seed, agents, judge, scorer, cfg, episode_id="ep-dead")


def test_run_batch_order_is_seed_order_and_parallel_safe(tmp_path, corpus_files):
    cfg = EngineConfig(rng_seed=31)
    seeds = helpers.make_seeds(corpus_files, cfg, 24)
    agents, judge, scorer = _stack(cfg)

    lines_by_parallelism = {}
    for parallelism in (1, 8):
        collected = []
        report = run_batch(
            seeds, agents, judge, scorer, cfg,
            parallelism=parallelism, write=collected.append,
        )
        assert report.episodes_written == 24
        assert report.aborts == ()
        assert [ep.id for ep in collected] == [f"ep-{i:06d}" for i in range(24)]
        lines_by_parallelism[parallelism] = [episode_line(ep) for ep in collected]
    assert lines_by_parallelism[1] == lines_by_parallelism[8]


def test_default_stack_can_pass_the_mic(cfg):
    # contexts where the knowledge candidate covers more of the active
    # agent's context union than the active agent's own first-line echo
    agents, judge, scorer = _stack(cfg)
    contexts = SkillContextSet(
        (
            SkillContext(P, ("zzz", "qqq www")),
            SkillContext(K, ("qqq www",)),
            SkillContext(E, ("mmm",)),
        )
    )
    seed = SeedEpisode(
        P,
        ("hello there", "hi pal"),
        (contexts, contexts),
    )
    ep = helpers.run_episode(seed, agents, judge, scorer, cfg)
    # turn 2: P echoes "zzz" (overlap 1 + 0.5) vs K echoing "qqq www" (overlap 2)
    assert ep.turns[2].mic_passed
    assert ep.turns[2].utterance.text == "Did you know? qqq www"


def test_run_batch_refusal_total_matches_recount(corpus_files):
    cfg = EngineConfig(rng_seed=5)
    seeds = helpers.make_seeds(corpus_files, cfg, 15)
    agents, judge, scorer = _stack(cfg)
    collected = []
    report = run_batch(seeds, agents, judge, scorer, cfg, write=collected.append)
    recount = sum(len(t.refusals) for ep in collected for t in ep.turns)
    assert report.refusal_total == recount


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_batch_stamps_one_config_digest_per_batch(corpus_files, monkeypatch, parallelism):
    cfg = EngineConfig(rng_seed=5)
    seeds = helpers.make_seeds(corpus_files, cfg, 6)
    agents, judge, scorer = _stack(cfg)
    digests = []

    def counted(c):
        digests.append(config_digest(c))
        return digests[-1]

    monkeypatch.setattr(orchestrator, "config_digest", counted)
    collected = []
    run_batch(seeds, agents, judge, scorer, cfg, parallelism=parallelism, write=collected.append)
    assert digests == [config_digest(cfg)]
    assert [ep.config_digest for ep in collected] == digests * 6


def test_run_batch_records_aborts_without_writing(cfg):
    spec = LexiconSpec(
        DEFAULT_ROSTER, {}, contradiction_pairs=tuple(("poison line", v) for v in "aeiou")
    )
    judge = LexicalNliJudge(spec)
    scorer = LexicalSkillScorer(default_lexicon(DEFAULT_ROSTER))
    agents = default_scripted_agents(DEFAULT_ROSTER)
    doomed = SeedEpisode(
        P,
        ("hello", "hi"),
        (
            SkillContextSet((SkillContext(P, ("poison line",)),)),
            SkillContextSet((SkillContext(P, ("poison line",)),)),
        ),
    )
    collected = []
    report = run_batch([doomed], agents, judge, scorer, cfg, write=collected.append)
    assert report.episodes_written == 0
    assert collected == []
    assert len(report.aborts) == 1
    assert report.aborts[0][0] == 0


def test_run_batch_writer_failure_names_the_episode(corpus_files, monkeypatch):
    cfg = EngineConfig(rng_seed=3)
    seeds = helpers.make_seeds(corpus_files, cfg, 100)
    agents, judge, scorer = _stack(cfg)
    started = []
    run_episode_uncounted = orchestrator.run_episode

    def counted(*args, **kwargs):
        started.append(kwargs["episode_id"])
        return run_episode_uncounted(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "run_episode", counted)
    written = []

    def flaky(ep):
        if len(written) == 3:
            raise OSError("disk full")
        written.append(ep)

    with pytest.raises(BatchError, match="^writer failed on episode ep-000003: disk full$"):
        run_batch(seeds, agents, judge, scorer, cfg, write=flaky)
    assert len(written) == 3
    # at parallelism 1 each episode is written before the next one starts,
    # so the batch stops at the failed write with 4 of 100 started
    assert len(started) == 4


class _DeadJudge:
    """A judge whose backend is down: each call fails after a short wait,
    as a remote judge does once its retries run out. Every episode dies at
    its first verdict, so ``calls`` counts the episodes started."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def judge(self, premises, hypothesis):
        with self._lock:
            self.calls += 1
        time.sleep(0.005)
        raise BackendUnavailableError("/nli: backend unavailable")


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_batch_stops_at_first_backend_error(cfg, parallelism):
    agents, _, scorer = _stack(cfg)
    judge = _DeadJudge()
    seeds = [_plain_seed()] * 200
    with pytest.raises(BackendUnavailableError, match="episode ep-000000 "):
        run_batch(seeds, agents, judge, scorer, cfg, parallelism=parallelism)
    if parallelism == 1:
        # the calling thread stops at the first episode's error
        assert judge.calls == 1
    else:
        # about parallelism + 1 episodes start; the bound leaves the main
        # thread over 100 ms to cancel the rest, since each episode sleeps 5 ms
        assert judge.calls < 50


@pytest.mark.parametrize("parallelism", [1, 2, 3])
def test_run_batch_keeps_a_bounded_window_in_flight(cfg, monkeypatch, parallelism):
    agents, judge, scorer = _stack(cfg)
    started = []
    run_episode_uncounted = orchestrator.run_episode

    def counted(*args, **kwargs):
        started.append(kwargs["episode_id"])
        if kwargs["episode_id"] == "ep-000000":
            time.sleep(0.05)  # the other workers would run far ahead meanwhile
        return run_episode_uncounted(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "run_episode", counted)
    started_at_write = []

    def write(ep):
        started_at_write.append(len(started))

    report = run_batch(
        iter([_plain_seed()] * 40), agents, judge, scorer, cfg, parallelism=parallelism, write=write
    )
    assert report.episodes_written == 40
    assert started_at_write[0] <= 2 * parallelism + 1
    assert sorted(started) == [f"ep-{i:06d}" for i in range(40)]


def test_a_parallelism_1_batch_runs_on_the_calling_thread(cfg, monkeypatch):
    agents, judge, scorer = _stack(cfg)
    ran_on = []
    run_episode_unrecorded = orchestrator.run_episode

    def recorded(*args, **kwargs):
        ran_on.append(threading.current_thread())
        return run_episode_unrecorded(*args, **kwargs)

    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(orchestrator, "run_episode", recorded)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    report = run_batch([_plain_seed()] * 6, agents, judge, scorer, cfg, parallelism=1)
    assert report.episodes_written == 6
    assert ran_on == [threading.current_thread()] * 6
    assert started == []
    # the same batch at parallelism 2 runs on pool threads the probe sees start
    ran_on.clear()
    run_batch([_plain_seed()] * 6, agents, judge, scorer, cfg, parallelism=2)
    assert started
    assert threading.current_thread() not in ran_on


def test_run_batch_rejects_bad_parallelism(cfg):
    agents, judge, scorer = _stack(cfg)
    with pytest.raises(ValueError):
        run_batch([], agents, judge, scorer, cfg, parallelism=0)


# --- per-episode memo of backend verdicts ----------------------------------------


class _CountingBackends:
    """Wraps a judge and a scorer; logs every input that reaches them as
    (route, episode id, input): one entry per (premise, hypothesis) pair of
    each judge batch, and the size of every batch. The episode id is
    whatever ``episode`` holds on the calling thread."""

    def __init__(self, judge, scorer):
        self._judge = judge
        self._scorer = scorer
        self.roster = scorer.roster
        self.local = threading.local()
        self.calls = []
        self.batch_sizes = []

    def judge(self, premises, hypothesis):
        episode = getattr(self.local, "episode", None)
        self.batch_sizes.append(len(premises))
        self.calls.extend(("nli", episode, (premise, hypothesis)) for premise in premises)
        return self._judge.judge(premises, hypothesis)

    def score(self, text):
        self.calls.append(("classify", getattr(self.local, "episode", None), text))
        return self._scorer.score(text)


def _write_corpus(path, seeds, agents, judge, scorer, cfg, parallelism):
    with EpisodeWriter(str(path)) as writer:
        run_batch(seeds, agents, judge, scorer, cfg, parallelism=parallelism, write=writer.write)
    return path.read_bytes()


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_batch_sends_each_backend_input_once_per_episode(
    tmp_path, corpus_files, monkeypatch, parallelism
):
    cfg = EngineConfig(rng_seed=31)
    seeds = helpers.make_seeds(corpus_files, cfg, 12)
    agents, judge, scorer = _stack(cfg)
    plain = _write_corpus(tmp_path / "plain.jsonl", seeds, agents, judge, scorer, cfg, parallelism)

    counting = _CountingBackends(judge, scorer)
    run_episode_untagged = orchestrator.run_episode

    def tagged(*args, **kwargs):
        counting.local.episode = kwargs["episode_id"]
        return run_episode_untagged(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "run_episode", tagged)
    counted = _write_corpus(
        tmp_path / "counted.jsonl", seeds, agents, counting, counting, cfg, parallelism
    )

    assert counted == plain
    assert {episode for _, episode, _ in counting.calls} == {f"ep-{i:06d}" for i in range(12)}
    assert {route for route, _, _ in counting.calls} == {"nli", "classify"}
    assert counting.batch_sizes and min(counting.batch_sizes) > 0
    # batching did happen: some gate call judged several lines at once
    assert max(counting.batch_sizes) > 1
    repeated = [call for call, n in Counter(counting.calls).items() if n > 1]
    assert repeated == []


class _BatchingBackends(_CountingBackends):
    """``_CountingBackends`` plus the batch forms a remote judge and scorer
    offer, each item going through the logging per-item call; counts the
    ``judge_batch`` calls per episode."""

    def __init__(self, judge, scorer):
        super().__init__(judge, scorer)
        self.judge_batches = Counter()

    def judge_batch(self, items):
        self.judge_batches[getattr(self.local, "episode", None)] += 1
        return [self.judge(premises, hypothesis) for premises, hypothesis in items]

    def score_batch(self, texts):
        return [self.score(text) for text in texts]


def test_in_process_agents_get_a_batching_judge_and_scorer_batched(
    tmp_path, corpus_files, monkeypatch
):
    # scripted agents beside a judge and scorer that offer batch forms: the
    # memo batches each turn's openings whatever backend the agents are
    cfg = EngineConfig(rng_seed=31)
    seeds = helpers.make_seeds(corpus_files, cfg, 12)
    agents, judge, scorer = _stack(cfg)
    plain = _write_corpus(tmp_path / "plain.jsonl", seeds, agents, judge, scorer, cfg, 1)

    batching = _BatchingBackends(judge, scorer)
    run_episode_untagged = orchestrator.run_episode

    def tagged(*args, **kwargs):
        batching.local.episode = kwargs["episode_id"]
        return run_episode_untagged(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "run_episode", tagged)
    mixed = _write_corpus(tmp_path / "mixed.jsonl", seeds, agents, batching, batching, cfg, 1)

    assert mixed == plain
    assert batching.judge_batches
    # at most one judge_batch per generated turn of each episode
    assert max(batching.judge_batches.values()) <= cfg.episode_length - 2
    # no (premise, hypothesis) pair is judged twice, nor a text scored twice
    repeated = [call for call, n in Counter(batching.calls).items() if n > 1]
    assert repeated == []


_REMOTE_TABLES = {
    "generate": {
        "by_skill": {
            "P": [{"text": "i love skiing", "score": 0.9}, {"text": "me too, personally", "score": 0.8}],
            "K": [{"text": "did you know skiing is old", "score": 0.7}],
            "E": [{"text": "that sounds fun", "score": 0.6}],
        }
    },
    "rank": {"by_text": {"that sounds fun": 0.9}, "default_score": 0.1},
    "nli": {
        "pairs": [
            {"premise": "i like to ski in winter", "hypothesis": "i love skiing", "label": "contradict"}
        ],
        "default": {"label": "neutral", "confidence": 0.5},
    },
    "classify": {"by_text": {"i love skiing a lot": [0.8, 0.1, 0.1]}, "default": [0.2, 0.3, 0.5]},
}


def _remote_stack(endpoint, cfg):
    agents = [RemoteSkillAgent(endpoint, skill) for skill in cfg.skill_roster]
    return agents, RemoteNliJudge(endpoint), RemoteSkillScorer(endpoint, cfg.skill_roster)


def test_remote_episode_sends_each_nli_and_classify_body_once(cfg):
    seed = _plain_seed()
    with serve_mock(_REMOTE_TABLES) as server:
        agents, judge, scorer = _remote_stack(server.endpoint(), cfg)
        ep = helpers.run_episode(seed, agents, judge, scorer, cfg)
        requests = [(route, json.loads(body)) for route, body in server.requests]
    assert len(ep.turns) == cfg.episode_length
    assert any(t.refusals for t in ep.turns)  # the consistency gate did refuse

    # each generated turn opens with one /generate holding every agent's
    # first attempt, in roster order; every other /generate is one retry;
    # a lone episode sends one group per /generate
    assert all(len(req["groups"]) == 1 for route, req in requests if route == "/generate")
    generates = [req["groups"][0] for route, req in requests if route == "/generate"]
    openings = [req for req in generates if req["items"][0]["attempt"] == 1]
    retries = [req["items"] for req in generates if req["items"][0]["attempt"] != 1]
    assert [len(req["dialogue"]) for req in openings] == list(range(2, cfg.episode_length))
    roster = [skill.id for skill in cfg.skill_roster]
    for req in openings:
        assert [(item["skill"], item["attempt"]) for item in req["items"]] == [(s, 1) for s in roster]
    assert retries
    for items in retries:
        assert len(items) == 1 and items[0]["attempt"] >= 2

    # no empty /nli or /classify batch, and no (premise, hypothesis) pair
    # and no text sent twice in the episode
    pairs = []
    texts = []
    for route, req in requests:
        if route == "/nli":
            assert req["items"] and all(item["premises"] for item in req["items"])
            pairs += [(p, item["hypothesis"]) for item in req["items"] for p in item["premises"]]
        elif route == "/classify":
            assert req["texts"]
            texts += req["texts"]
    assert pairs and len(pairs) == len(set(pairs))
    assert texts and len(texts) == len(set(texts))
    # at most one /nli after each /generate, and one /classify per turn
    # (the seed turns share theirs)
    nli_runs, classify_runs = [0], [0]
    for route, req in requests:
        if route == "/generate":
            nli_runs.append(0)
            if req["groups"][0]["items"][0]["attempt"] == 1:
                classify_runs.append(0)
        elif route == "/nli":
            nli_runs[-1] += 1
        elif route == "/classify":
            classify_runs[-1] += 1
    assert max(nli_runs) == 1
    assert max(classify_runs) == 1


def _first_item(key, replace):
    """A response edit that replaces the first item of ``key``'s array."""
    return lambda obj: {key: [replace(obj[key][0])] + obj[key][1:]}


def _first_group(edit):
    """A ``/generate`` response edit that applies ``edit`` to the results
    of the first group."""
    return lambda obj: {"results": [edit(obj["results"][0])] + obj["results"][1:]}


@pytest.mark.parametrize(
    "route, edit, turn, message",
    [
        ("/generate", _first_group(lambda results: results[:-1]), 2, "expected 3 results, got 2"),
        ("/generate", lambda obj: {"results": obj["results"] + [[]]}, 2,
         "expected 1 result lists, got 2"),
        ("/generate", _first_group(lambda results: [results[0]["text"]] + results[1:]), 2,
         "result is not a JSON object"),
        ("/generate", _first_group(lambda results: [{**results[0], "score": math.nan}] + results[1:]),
         2, "missing or non-numeric 'score' field"),
        ("/nli", lambda obj: {"verdicts": obj["verdicts"] + [[]]}, 2,
         r"expected (\d+) verdict lists, got (?!\1)\d+"),
        ("/nli", _first_item("verdicts", lambda v: v[1:]), 2, r"expected \d+ verdicts, got \d+"),
        ("/nli", _first_item("verdicts", lambda v: ["neutral"] + v[1:]), 2,
         "verdict is not a JSON object"),
        ("/nli", _first_item("verdicts", lambda v: [{**v[0], "confidence": math.inf}] + v[1:]), 2,
         "missing or non-numeric 'confidence'"),
        ("/classify", lambda obj: {"distributions": obj["distributions"][:-1]}, 0,
         "expected 2 distributions, got 1"),
        ("/classify", _first_item("distributions", lambda d: {"P": d[0]}), 0,
         "expected 3 probabilities, got no"),
        ("/classify", _first_item("distributions", lambda d: [math.nan] + d[1:]), 0,
         "non-numeric probability in response"),
    ],
    ids=[
        "generate-short", "generate-long", "generate-non-object", "generate-nan-score", "nli-long",
        "nli-short-item", "nli-non-object", "nli-infinite-confidence", "classify-short",
        "classify-non-list", "classify-nan-probability",
    ],
)
def test_wrapped_protocol_error_keeps_its_raw_body(cfg, monkeypatch, route, edit, turn, message):
    # the mock answers well; its response on one route is edited on the
    # way to the client, and the raw body the client saw is kept
    sent = []

    def edited(endpoint, r, body):
        obj, raw = post_json(endpoint, r, body)
        if r != route:
            return obj, raw
        raw = compact_json(edit(obj)).encode("utf-8")
        sent.append(raw)
        return json.loads(raw), raw

    monkeypatch.setattr("skillblend.agents.post_json", edited)
    monkeypatch.setattr("skillblend.classifiers.post_json", edited)
    with serve_mock(_REMOTE_TABLES) as server:
        agents, judge, scorer = _remote_stack(server.endpoint(), cfg)
        pattern = rf"^episode ep-000000 turn {turn}: {route}: {message}"
        with pytest.raises(ProtocolError, match=pattern) as err:
            helpers.run_episode(_plain_seed(), agents, judge, scorer, cfg)
    assert err.value.body == sent[-1]


def test_wrapped_protocol_error_from_the_tables_keeps_its_raw_body(cfg):
    tables = dict(_REMOTE_TABLES, generate={"default": {"text": "x"}})  # no score
    with serve_mock(tables) as server:
        agents, judge, scorer = _remote_stack(server.endpoint(), cfg)
        with pytest.raises(ProtocolError, match=r"^episode ep-000000 turn 2: /generate: ") as err:
            helpers.run_episode(_plain_seed(), agents, judge, scorer, cfg)
    assert err.value.body == b'{"results":[[{"text":"x"},{"text":"x"},{"text":"x"}]]}'


def test_episode_memo_does_not_outlive_its_episode(cfg):
    agents, judge, scorer = _stack(cfg)
    counting = _CountingBackends(judge, scorer)
    first = helpers.run_episode(_plain_seed(), agents, counting, counting, cfg)
    calls_first = list(counting.calls)
    second = helpers.run_episode(_plain_seed(), agents, counting, counting, cfg)
    assert calls_first
    assert counting.calls[len(calls_first):] == calls_first
    assert episode_line(first) == episode_line(second)


def test_remote_batch_holds_one_connection_per_worker(tmp_path, corpus_files, cfg, connects):
    seeds = helpers.make_seeds(corpus_files, cfg, 8)
    corpora = {}
    with serve_mock(_REMOTE_TABLES) as server:
        agents, judge, scorer = _remote_stack(server.endpoint(), cfg)
        for parallelism in (1, 2):
            del connects[:]
            path = tmp_path / f"p{parallelism}.jsonl"
            corpora[parallelism] = helpers.run_bounded(
                partial(_write_corpus, path, seeds, agents, judge, scorer, cfg, parallelism)
            )
            assert 1 <= len(connects) <= parallelism
    assert corpora[1] == corpora[2]
    assert corpora[1].count(b"\n") == 8


def test_remote_batch_fails_fast_when_the_backend_dies(cfg, monkeypatch):
    # the server is closed mid-batch, after 250 requests: about nine
    # lockstep groups of eight like episodes, ~28 requests each; each
    # running group's next request fails, is retried twice after 0.05 +
    # 0.1 s of backoff, and then ends the batch
    started = []
    run_episode_uncounted = orchestrator.run_episode

    def counted(*args, **kwargs):
        started.append(kwargs["episode_id"])
        return run_episode_uncounted(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "run_episode", counted)
    written = []
    closed_at = []
    server = serve_mock(_REMOTE_TABLES)
    stop = threading.Event()

    def kill() -> None:
        while len(server.requests) <= 250:
            if stop.wait(0.001):
                return
        closed_at.append(time.monotonic())
        server.close()

    killer = threading.Thread(target=kill)
    killer.start()
    try:
        agents, judge, scorer = _remote_stack(server.endpoint(), cfg)
        with pytest.raises(BackendUnavailableError, match=r"^episode ep-\d{6} turn \d+: ") as err:
            helpers.run_bounded(partial(
                run_batch, [_plain_seed()] * 200, agents, judge, scorer, cfg,
                parallelism=2, write=written.append,
            ))
        failed_at = time.monotonic()
    finally:
        stop.set()
        killer.join()
        server.close()
    assert failed_at - closed_at[0] < 3.0

    failed = int(str(err.value).split()[1].removeprefix("ep-"))
    # the written episodes are the ones before the failed one, in seed order
    assert [ep.id for ep in written] == [f"ep-{i:06d}" for i in range(failed)]
    # only the groups in flight when it failed have started: at most
    # 2 * parallelism groups from the failed one's on, and none once the
    # batch ended
    assert sorted(started) == [f"ep-{i:06d}" for i in range(len(started))]
    assert len(started) <= failed + 2 * 2 * orchestrator._GROUP
    count = len(started)
    time.sleep(0.2)
    assert len(started) == count


@pytest.mark.parametrize("parallelism", [1, 2])
def test_a_failed_remote_batch_closes_its_client_connections(cfg, monkeypatch, parallelism):
    # the episode's exception holds frames that reach the connections of
    # the threads that ran groups (the calling thread's at parallelism 1,
    # the pool threads' above it) in a reference cycle; with the collector
    # off, the batch itself must close them
    opened = []
    create = socket.create_connection

    def recording(*args, **kwargs):
        sock = create(*args, **kwargs)
        opened.append(sock)
        return sock

    monkeypatch.setattr(socket, "create_connection", recording)
    tables = dict(_REMOTE_TABLES, fail_first={"/rank": 10**6})
    gc.disable()
    try:
        with serve_mock(tables) as server:
            agents, judge, scorer = _remote_stack(server.endpoint(max_retries=0), cfg)
            for batches in range(1, 6):
                with pytest.raises(BackendUnavailableError, match="/rank: backend unavailable"):
                    helpers.run_bounded(
                        partial(
                            run_batch, [_plain_seed()] * 16, agents, judge, scorer, cfg,
                            parallelism=parallelism,
                        )
                    )
                # one connection per thread that runs groups, and one host
                assert 0 < len(opened) <= batches * parallelism
                assert [sock.fileno() for sock in opened] == [-1] * len(opened)
    finally:
        gc.enable()


def test_remote_batch_fails_fast_when_the_backend_stalls(cfg):
    # the backend accepts connections and never answers: the first request
    # of each lockstep group running (20 seeds: groups of 8, 8 and 4) waits
    # out two 200 ms timeouts and 0.05 s of backoff, 0.45 s in all, and the
    # group queued behind them is skipped; the bound adds 1 s of slack for
    # a loaded machine
    written = []
    with helpers.RawServer() as server:
        endpoint = BackendEndpoint(f"http://127.0.0.1:{server.port}", timeout_ms=200, max_retries=1)
        agents, judge, scorer = _remote_stack(endpoint, cfg)
        start = time.monotonic()
        # an episode's first request scores its first seed utterance
        message = (
            r"^episode ep-000000 turn 0: /classify: "
            r"backend unavailable after 2 attempts \(timed out\)$"
        )
        with pytest.raises(BackendUnavailableError, match=message):
            helpers.run_bounded(partial(
                run_batch, [_plain_seed()] * 20, agents, judge, scorer, cfg,
                parallelism=2, write=written.append,
            ))
        elapsed = time.monotonic() - start
        attempts = len(server.sockets)
    assert elapsed < 2 * 0.2 + 0.05 + 1.0
    assert written == []
    assert attempts == 4  # two attempts for each of the two groups in flight
