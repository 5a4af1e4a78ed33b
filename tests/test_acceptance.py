"""Acceptance suite: one test per criterion, each printing a PASS line and
holding its runtime bound. Expected values are closed-form, hand-traced, or
produced by independent brute-force oracles written inline."""

from __future__ import annotations

import itertools
import json
import math
import pathlib
import random
import time

import pytest

from skillblend.agents import (
    ProtocolError,
    RemoteSkillAgent,
    ScriptedAgent,
    generate_texts,
    run_in_lockstep,
    serve_mock,
)
from skillblend.classifiers import (
    LexicalNliJudge,
    LexicalSkillScorer,
    LexiconSpec,
    RemoteNliJudge,
    RemoteSkillScorer,
)
from skillblend.core import (
    DEFAULT_ROSTER,
    DialogueContext,
    EngineConfig,
    ResponseCandidate,
    SkillContext,
    SkillContextSet,
    SkillDistribution,
    Utterance,
)
from skillblend.dataio import EpisodeWriter, read_episodes
from skillblend.distmath import entropy, kl_divergence
from skillblend.moderator import consistency_gate, flow_gate, select_final, simulate_approved
from skillblend.orchestrator import run_batch
from skillblend.seeds import ContextDoc, SeedEpisode, build_index, query
from skillblend.stats import build_report

import helpers
from helpers import FixedRankAgent, TableJudge, TableScorer, brute_force_cosines, uniform

GOLDEN = pathlib.Path(__file__).parent / "golden"
P, K, E = DEFAULT_ROSTER


def dist(*probs):
    return SkillDistribution(tuple(probs))


def test_acceptance_1_distribution_math():
    start = time.monotonic()

    # KL examples, closed-form to 1e-9
    u = dist(1 / 3, 1 / 3, 1 / 3)
    assert kl_divergence(u, u, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert kl_divergence(dist(1.0, 0.0, 0.0), dist(0.5, 0.25, 0.25), 0.0) == pytest.approx(
        math.log(2.0), abs=1e-9
    )
    assert kl_divergence(dist(0.8, 0.1, 0.1), dist(0.1, 0.8, 0.1), 0.0) == pytest.approx(
        0.8 * math.log(8.0) + 0.1 * math.log(1.0 / 8.0), abs=1e-9
    )

    # entropy examples, closed-form to 1e-9
    assert entropy(dist(1.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-9)
    assert entropy(u) == pytest.approx(math.log(3.0), abs=1e-9)
    assert entropy(dist(0.5, 0.25, 0.25)) == pytest.approx(
        0.5 * math.log(2.0) + 0.5 * math.log(4.0), abs=1e-9
    )

    # Gibbs non-negativity and entropy bounds over 1000 seeded random pairs
    rng = random.Random(20240811)
    for trial in range(1000):
        m = rng.randrange(2, 7)
        epsilon = rng.choice([0.0, 1e-9, 1e-3])

        def draw():
            weights = [rng.random() if rng.random() > 0.2 else 0.0 for _ in range(m)]
            if sum(weights) == 0.0:
                weights[rng.randrange(m)] = 1.0
            total = sum(weights)
            return SkillDistribution(tuple(w / total for w in weights))

        p, q = draw(), draw()
        assert kl_divergence(p, q, epsilon) >= 0.0
        for d in (p, q):
            h = entropy(d)
            assert 0.0 <= h <= math.log(m) + 1e-12

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS distribution math ({elapsed:.3f}s)")


def test_acceptance_2_gate_semantics():
    start = time.monotonic()

    # exhaustive: all 8 contradiction-bit assignments for 3 single-line contexts
    lines = ["ctx a", "ctx b", "ctx c"]
    stx = SkillContextSet(tuple(SkillContext(s, (line,)) for s, line in zip(DEFAULT_ROSTER, lines)))
    for assignment in itertools.product((False, True), repeat=3):
        judge = TableJudge(dict(zip(lines, assignment)))
        decision = consistency_gate(judge, stx.flat_lines(), "the response")
        assert decision.approved == (True not in assignment)

    # 500 randomized context sets with up to 6 lines
    rng = random.Random(77)
    for trial in range(500):
        n_lines = rng.randrange(0, 7)
        all_lines = [f"line {trial} {i}" for i in range(n_lines)]
        # each line is contradicted with probability 1/3
        assigned = {line: rng.randrange(3) == 2 for line in all_lines}
        per_skill = {s.id: [] for s in DEFAULT_ROSTER}
        for line in all_lines:
            per_skill[rng.choice("PKE")].append(line)
        stx = SkillContextSet(
            tuple(
                SkillContext(s, tuple(per_skill[s.id]))
                for s in DEFAULT_ROSTER
                if per_skill[s.id]
            )
        )
        decision = consistency_gate(TableJudge(assigned), stx.flat_lines(), "res")
        assert decision.approved == (not any(assigned.values()))

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS gate semantics ({elapsed:.3f}s)")


def _oracle_select(scores, gates, origins, active_id):
    """Brute-force argmax of score * gate with the documented fallback."""
    eligible = [i for i, g in enumerate(gates) if g]
    if eligible:
        best = eligible[0]
        for i in eligible[1:]:
            if scores[i] > scores[best]:
                best = i
        return best, False
    own = [i for i, origin in enumerate(origins) if origin == active_id]
    if own:
        return own[0], True
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return best, True


def test_acceptance_3_selection_oracle():
    start = time.monotonic()
    scorer = TableScorer(
        DEFAULT_ROSTER,
        {"block": SkillDistribution((0.97, 0.02, 0.01))},
        default=uniform(3),
    )
    dtx = DialogueContext((Utterance(0, "hello"), Utterance(1, "prev")))
    rng = random.Random(31337)
    roster_cycle = [P, K, E, K]

    for n in (2, 3, 4):
        for mask in itertools.product((0, 1), repeat=n):
            for _ in range(200):
                scores = [rng.uniform(-2.0, 5.0) for _ in range(n)]
                with_own = rng.random() < 0.5
                origins = [
                    P if (i == 0 and with_own) else roster_cycle[1 + (i % 3)] for i in range(n)
                ]
                candidates = [
                    ResponseCandidate("ok" if mask[i] else "block", origins[i])
                    for i in range(n)
                ]
                outcome = select_final(
                    FixedRankAgent(P, scores), scorer, SkillContext(P), dtx, candidates, 0.5, 0.0
                )
                want_index, want_fallback = _oracle_select(scores, mask, [o.id for o in origins], "P")
                assert outcome.winner is candidates[want_index]
                assert outcome.used_fallback == want_fallback
                assert outcome.mic_passed == (origins[want_index].id != "P")

                # positive scaling never changes the winner
                scale = rng.uniform(0.05, 40.0)
                scaled = select_final(
                    FixedRankAgent(P, [s * scale for s in scores]),
                    scorer, SkillContext(P), dtx, candidates, 0.5, 0.0,
                )
                assert scaled.winner is candidates[want_index]

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3 PASS selection oracle ({elapsed:.3f}s)")


def test_acceptance_4_retrieval_oracle():
    start = time.monotonic()
    rng = random.Random(4242)
    words = [
        "apple", "river", "stone", "cloud", "ember", "violet", "moss", "tide",
        "lantern", "meadow", "quartz", "drift", "harbor", "cinder", "fable",
    ]
    docs = []
    for i in range(100):
        if i % 10 == 9:  # exact duplicates force cosine ties
            docs.append(ContextDoc(DEFAULT_ROSTER[i % 3].id, 0, docs[i - 1].lines))
        else:
            text = " ".join(rng.choice(words) for _ in range(rng.randrange(3, 13)))
            docs.append(ContextDoc(DEFAULT_ROSTER[i % 3].id, 0, (text,)))
    index = build_index(docs)

    for _ in range(50):
        q = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 5)))
        mine = query(index, q, k=100)
        oracle = brute_force_cosines(docs, q)
        assert [pos for pos, _ in mine] == [pos for pos, _ in oracle]
        for (_, a), (_, b) in zip(mine, oracle):
            assert abs(a - b) <= 1e-9

    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    print(f"\nACCEPTANCE 4 PASS retrieval oracle ({elapsed:.3f}s)")


def test_acceptance_5_end_to_end_determinism(tmp_path, corpus_files):
    start = time.monotonic()
    cfg = EngineConfig(rng_seed=20240811)
    agents, judge, scorer = helpers.scripted_stack(cfg)

    def produce(name, parallelism):
        # seeds rebuilt from the raw files every time: whole-pipeline rerun
        seeds = helpers.make_seeds(corpus_files, cfg, 100)
        path = tmp_path / name
        with EpisodeWriter(str(path)) as writer:
            report = run_batch(
                seeds, agents, judge, scorer, cfg,
                parallelism=parallelism, write=writer.write,
            )
        return path, report

    path_a, report_a = produce("run-a.jsonl", 1)
    path_b, _ = produce("run-b.jsonl", 1)   # rerun, same rng_seed
    path_c, _ = produce("run-c.jsonl", 8)   # same batch, 8 workers

    bytes_a = path_a.read_bytes()
    assert bytes_a == path_b.read_bytes()
    assert bytes_a == path_c.read_bytes()
    assert report_a.episodes_written == 100
    assert report_a.aborts == ()

    episodes = read_episodes(str(path_a), cfg.skill_roster)
    assert len(episodes) == 100
    for ep in episodes:
        assert len(ep.turns) == 10
        for turn in ep.turns[2:]:
            side = turn.utterance.speaker
            assert consistency_gate(
                judge, ep.contexts[side].flat_lines(), turn.utterance.text
            ).approved

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 5 PASS end-to-end determinism and shape ({elapsed:.3f}s)")


def _scenario():
    """Hand-built mic-passing scenario.

    Scorer keywords: personally->P (w=1), consider->K (w=1), soothing->E (w=2.5).
    With alpha = 0.9: KL(dP||dK) = e/(e+2) - 1/(e+2) ~= 0.3642 (approved),
    KL(dK||dE) ~= 1.1468 (refused), KL(uniform||any) < 0.9 at these weights.

    Hand trace (turn: side, active, rank scores P/K/E against active context,
    winner, mic):
      2: s0 P  4.5 / 0   / 0    -> P  mic F   (P echoes its full persona line)
      3: s1 P  1.5 / 2.0 / 0    -> K  mic T   (K text 'consider mu' hits 2 of
                                               side-1 P tokens {zeta,consider,mu,tau})
      4: s0 K  0   / 2.5 / 0    -> K  mic F
      5: s1 K  0   / 1.5 / 2.0  -> K  mic F   (E out-ranks but KL-refused)
      6..9 repeat 4/5 dynamics; labels follow the winner's keyword.
    """
    contexts = (
        SkillContextSet((
            SkillContext(P, ("alpha beta gamma delta",)),
            SkillContext(K, ("kappa iota",)),
            SkillContext(E, ("lumen quiet",)),
        )),
        SkillContextSet((
            SkillContext(P, ("zeta", "consider mu tau")),
            SkillContext(K, ("mu", "omega sigma tau rho epsilon")),
            SkillContext(E, ("omega sigma",)),
        )),
    )
    seed = SeedEpisode(
        P,
        ("hello there", "hi pal"),
        contexts,
    )
    agents = [
        ScriptedAgent(P, ("personally {context}",)),
        ScriptedAgent(K, ("consider {context}",)),
        ScriptedAgent(E, ("soothing {context}",)),
    ]
    lexicon = LexiconSpec(
        DEFAULT_ROSTER,
        {
            "P": (("personally", 1.0),),
            "K": (("consider", 1.0),),
            "E": (("soothing", 2.5),),
        },
    )
    cfg = EngineConfig(alpha=0.9, rng_seed=1)
    return seed, agents, LexicalNliJudge(lexicon), LexicalSkillScorer(lexicon), cfg


def test_acceptance_6_protocol_driven_mic_passing():
    start = time.monotonic()
    seed, agents, judge, scorer, cfg = _scenario()
    ep = helpers.run_episode(seed, agents, judge, scorer, cfg, episode_id="ep-trace")

    assert [t.mic_passed for t in ep.turns] == [
        False, False, False, True, False, False, False, False, False, False
    ]
    assert [t.skill_label.id for t in ep.turns] == [
        "P", "P", "P", "K", "K", "K", "K", "K", "K", "K"
    ]
    expected_texts = {
        2: "personally alpha beta gamma delta",
        3: "consider mu",
        4: "consider kappa iota",
        5: "consider mu",
    }
    for turn_index, text in expected_texts.items():
        assert ep.turns[turn_index].utterance.text == text
    assert all(t.phase2_attempts == 1 for t in ep.turns[2:])

    # replay the active skill from the turn log
    active = seed.seed_dataset
    actives = []
    for turn in ep.turns[2:]:
        if turn.mic_passed:
            active = turn.skill_label  # labels track origins in this scenario
        actives.append(active.id)
    assert actives == ["P", "K", "K", "K", "K", "K", "K", "K"]

    # reconstruct turn 5: E out-ranks K but the flow gate blocks it at alpha
    dtx = DialogueContext(tuple(Utterance(i % 2, t.utterance.text) for i, t in enumerate(ep.turns[:5])))
    stx_all = seed.contexts[1]
    candidates = []
    for skill, agent in zip(DEFAULT_ROSTER, agents):
        stx_own = stx_all.get(skill) or SkillContext(skill, ())
        candidates.append(
            simulate_approved(
                agent, judge, stx_all.flat_lines(), stx_own, dtx, cfg.max_attempts,
                agent.generate(stx_own, dtx, 1),
            ).candidate
        )
    k_agent = agents[1]
    scores = k_agent.rank(stx_all.get(K), dtx, candidates)
    assert scores == [0.0, 1.5, 2.0]  # E's candidate out-ranks the active agent's
    outcome = select_final(k_agent, scorer, stx_all.get(K), dtx, candidates, cfg.alpha, cfg.epsilon)
    assert outcome.winner.origin == K
    assert not outcome.used_fallback
    e_gate = flow_gate(scorer, dtx.turns[-1].text, candidates[2].text, cfg.alpha, cfg.epsilon)
    assert not e_gate.approved
    e_kl = kl_divergence(
        scorer.score(dtx.turns[-1].text), scorer.score(candidates[2].text), cfg.epsilon
    )
    assert e_kl == pytest.approx(1.146788, abs=1e-3)

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 6 PASS protocol-driven mic passing ({elapsed:.3f}s)")


def test_acceptance_7_statistics_consistency(tmp_path, corpus_files):
    cfg = EngineConfig(rng_seed=20240811)
    seeds = helpers.make_seeds(corpus_files, cfg, 100)
    agents, judge, scorer = helpers.scripted_stack(cfg)

    path = tmp_path / "corpus.jsonl"
    in_memory = []
    with EpisodeWriter(str(path)) as writer:
        def tee(ep):
            writer.write(ep)
            in_memory.append(ep)

        batch = run_batch(seeds, agents, judge, scorer, cfg, write=tee)

    batch_report = build_report(in_memory, cfg.skill_roster, epsilon=cfg.epsilon)
    assert sum(batch_report["skill_shares"].values()) == pytest.approx(100.0, abs=0.01)
    assert sum(batch_report["skills_per_dialogue"].values()) == batch_report["episodes"] == 100
    matrix_total = sum(sum(row) for row in batch_report["contradictions"]["matrix"])
    assert matrix_total == batch.refusal_total == batch_report["refusal_total"]

    reread = read_episodes(str(path), cfg.skill_roster)
    reread_report = build_report(reread, cfg.skill_roster, epsilon=cfg.epsilon)
    assert reread_report == batch_report

    print("\nACCEPTANCE 7 PASS statistics consistency")


def test_acceptance_8_wire_protocol_conformance():
    start = time.monotonic()
    tables = {
        "generate": {"default": {"text": "a steady reply", "score": 0.75}},
        "rank": {"by_text": {"alpha reply": 0.1, "beta reply": 0.9}, "default_score": 0.0},
        "nli": {
            "pairs": [
                {
                    "premise": "i wear sneakers everyday",
                    "hypothesis": "my sandals were torn yesterday",
                    "label": "contradict",
                    "confidence": 1.0,
                }
            ],
            "default": {"label": "neutral", "confidence": 0.5},
        },
        "classify": {"by_text": {"hello there": [0.2, 0.3, 0.5]}, "default": [0.34, 0.33, 0.33]},
    }
    dtx = DialogueContext((Utterance(0, "hello there"), Utterance(1, "hi friend")))
    stx = SkillContext(K, ("the topic", "a fact"))

    with serve_mock(tables) as server:
        endpoint = server.endpoint()
        agent = RemoteSkillAgent(endpoint, K)

        # one item per (skill, context, attempt), the dialogue sent once
        texts = generate_texts(endpoint, dtx, [(K, stx, 2), (P, SkillContext(P), 1)])
        assert texts == ["a steady reply"] * 2
        assert server.requests[-1] == ("/generate", (GOLDEN / "wire_generate_req.json").read_bytes())
        # a single generation is a one-item group
        assert agent.generate(stx, dtx, 2) == "a steady reply"
        assert json.loads(server.requests[-1][1])["groups"][0]["items"] == [
            {"skill": "K", "context": ["the topic", "a fact"], "attempt": 2}
        ]

        # two callers in lockstep: one /generate holding a group for each,
        # in member order, and each caller gets its own group's texts
        later = dtx.extended(Utterance(0, "a steady reply"))
        before = len(server.requests)
        answers = run_in_lockstep(
            [
                lambda: generate_texts(endpoint, dtx, [(K, stx, 2), (P, SkillContext(P), 1)]),
                lambda: generate_texts(endpoint, later, [(E, SkillContext(E, ("a feeling",)), 1)]),
            ]
        )
        assert answers == [["a steady reply"] * 2, ["a steady reply"]]
        assert server.requests[before:] == [
            ("/generate", (GOLDEN / "wire_generate_groups_req.json").read_bytes())
        ]

        candidates = [ResponseCandidate("alpha reply", P), ResponseCandidate("beta reply", E)]
        scores = agent.rank(stx, dtx, candidates)
        assert scores == [0.1, 0.9]
        assert server.requests[-1] == ("/rank", (GOLDEN / "wire_rank_req.json").read_bytes())

        judge = RemoteNliJudge(endpoint)
        bits = judge.judge_batch(
            [
                (("i like tennis", "i wear sneakers everyday"), "my sandals were torn yesterday"),
                (("i wear sneakers everyday",), "a steady reply"),
            ]
        )
        assert bits == [(False, True), (False,)]
        assert server.requests[-1] == ("/nli", (GOLDEN / "wire_nli_req.json").read_bytes())
        assert judge.judge(("i wear sneakers everyday",), "my sandals were torn yesterday") == (True,)

        scorer = RemoteSkillScorer(endpoint, DEFAULT_ROSTER)
        dists = scorer.score_batch(["hello there", "hi friend"])
        assert [d.probs for d in dists] == [(0.2, 0.3, 0.5), (0.34, 0.33, 0.33)]
        assert server.requests[-1] == ("/classify", (GOLDEN / "wire_classify_req.json").read_bytes())
        assert scorer.score("hello there").probs == (0.2, 0.3, 0.5)

        # response bodies byte-for-byte against the goldens
        for route, req_name, resp_name in (
            ("/generate", "wire_generate_req.json", "wire_generate_resp.json"),
            ("/generate", "wire_generate_groups_req.json", "wire_generate_groups_resp.json"),
            ("/rank", "wire_rank_req.json", "wire_rank_resp.json"),
            ("/nli", "wire_nli_req.json", "wire_nli_resp.json"),
            ("/classify", "wire_classify_req.json", "wire_classify_resp.json"),
        ):
            _, raw = helpers.post_raw(server.base_url + route, (GOLDEN / req_name).read_bytes())
            assert raw == (GOLDEN / resp_name).read_bytes()

    # arity and missing-field violations raise protocol errors
    with serve_mock({"rank": {"force_scores": [0.1, 0.2, 0.3]}}) as server:
        with pytest.raises(ProtocolError):
            RemoteSkillAgent(server.endpoint(), K).rank(stx, dtx, candidates)
    with serve_mock({"generate": {"default": {"score": 0.9}}}) as server:
        with pytest.raises(ProtocolError):
            RemoteSkillAgent(server.endpoint(), K).generate(stx, dtx, 1)
    with serve_mock({"classify": {"default": [0.5, 0.5]}}) as server:
        with pytest.raises(ProtocolError):
            RemoteSkillScorer(server.endpoint(), DEFAULT_ROSTER).score("hello")

    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    print(f"\nACCEPTANCE 8 PASS wire protocol conformance ({elapsed:.3f}s)")
