"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed
gives the same dataset files and mock tables, byte for byte. Nothing is
downloaded.

* ``dialogue_corpus`` builds the small corpus used by ``scripted`` and
  ``remote``: 8 records per skill (40 context documents), shaped like the
  fixture corpus of the test suite, with the shipped lexicon's
  contradiction premises and hypotheses mixed in so that refusals,
  regenerations and mic passes occur every few episodes. Every turn and
  every context document shares the word "i", so each retrieval bucket
  fills up and the amount of gate work varies little from seed to seed.
* ``retrieval_corpus`` builds a corpus of at least 10^4 context documents
  over a random vocabulary, so that seed retrieval and the index dominate.
* ``mock_tables`` builds the tables the remote workload's mock server
  answers from, with NLI ``contradict`` pairs and skewed ``classify``
  distributions so that both moderator gates refuse some candidates.
"""

from __future__ import annotations

import json
import os
import random

# --- small dialogue corpus (scripted, remote) ---------------------------------

# The first three are the premises of the shipped lexicon's contradiction
# table; the hypotheses ("sandals", "bacon", "my roommate") appear in the
# topics and situations below, so candidates built from them get refused.
_PERSONAS = [
    "i wear sneakers everyday",
    "i am a vegetarian",
    "i live alone",
    "i love comfortable shoes",
    "i like to ski in winter",
    "my favorite food is pasta",
    "i visit museums on weekends",
    "i grow tomatoes in my garden",
    "i play guitar at night",
    "i drink too much coffee",
    "i ride my bicycle to work",
    "i have two dogs at home",
    "i am a writer of short stories",
    "i collect vinyl records",
]
_CONTRADICTION_PREMISES = 3

_TOPICS = {
    "sandals": [
        "sandals are among the oldest known footwear",
        "leather sandals were common in ancient rome",
    ],
    "bacon": [
        "bacon is cured pork belly",
        "bacon was a staple of english breakfasts",
    ],
    "my roommate": [
        "my roommate is a phrase from student housing",
        "sharing a flat with my roommate halves the rent",
    ],
    "sneakers": [
        "sneakers were primarily designed for sports",
        "people who say i wear sneakers everyday wear out their soles",
    ],
    "skiing": [
        "skiing began as a way to travel across deep snow",
        "many who like to ski in winter also hike in summer",
    ],
    "pasta": [
        "pasta is a staple food of italian cuisine",
        "my favorite food is pasta is a common answer in food polls",
    ],
    "museums": [
        "museums preserve artifacts for public education",
        "people who visit museums on weekends often buy a yearly pass",
    ],
    "coffee": [
        "coffee beans are the roasted seeds of the coffea plant",
        "surveys find many adults say i drink too much coffee",
    ],
    "bicycles": [
        "bicycles were introduced in the nineteenth century",
        "those who ride my bicycle to work style commutes save money",
    ],
}
_CONTRADICTION_TOPICS = ("sandals", "bacon", "my roommate")

_SITUATIONS = [
    ("my sandals were torn yesterday and i was upset", "sad"),
    ("i smelled bacon at the diner and felt sick", "disgusted"),
    ("my roommate ate my lunch again and i was angry", "annoyed"),
    ("i passed my final exam last week", "proud"),
    ("my dog ran away during the storm and i searched all night", "afraid"),
    ("my friend planned a surprise party that i never expected", "surprised"),
    ("i burned the pasta i cooked for my family", "embarrassed"),
    ("i finally rode my bicycle up the big hill", "excited"),
]
_CONTRADICTION_SITUATIONS = 3

RECORDS_PER_SKILL = 8
# Trigger items per corpus: one contradiction premise in every persona side,
# and a fixed number of the 8 topics and situations drawn from the
# contradiction pools. Fixed counts rather than rates keep the amount of
# gate work nearly the same from seed to seed.
TRIGGER_TOPICS = 3
TRIGGER_SITUATIONS = 3


def _draw(rng: random.Random, pool: list, triggers: int, count: int, picked: int) -> list:
    """``count`` items of ``pool`` in seeded order, exactly ``picked`` of
    them from its first ``triggers`` entries."""
    items = [pool[rng.randrange(triggers)] for _ in range(picked)]
    items += [pool[triggers + rng.randrange(len(pool) - triggers)] for _ in range(count - picked)]
    rng.shuffle(items)
    return items


def _persona_side(rng: random.Random) -> list[str]:
    side = [_PERSONAS[rng.randrange(_CONTRADICTION_PREMISES)]]
    side += rng.sample(_PERSONAS[_CONTRADICTION_PREMISES:], 4)
    rng.shuffle(side)
    return side


def dialogue_corpus(seed: int) -> dict[str, list[dict]]:
    """Persona, knowledge and empathy records keyed by file name."""
    rng = random.Random(f"dialogue:{seed}")
    topics = list(_TOPICS)
    n = RECORDS_PER_SKILL
    p_topics = _draw(rng, topics, len(_CONTRADICTION_TOPICS), n, TRIGGER_TOPICS)
    k_topics = _draw(rng, topics, len(_CONTRADICTION_TOPICS), n, TRIGGER_TOPICS)
    situations = _draw(rng, _SITUATIONS, _CONTRADICTION_SITUATIONS, n, TRIGGER_SITUATIONS)
    personas, knowledge, empathy = [], [], []
    for i in range(n):
        topic = p_topics[i]
        personas.append(
            {
                "skill": "P",
                "episode_id": f"p-{i:03d}",
                "contexts": [_persona_side(rng), _persona_side(rng)],
                "turns": [
                    {"speaker": 0, "text": f"do you enjoy {topic} as much as i do"},
                    {"speaker": 1, "text": f"i love {topic} and talk about it a lot"},
                    {"speaker": 0, "text": f"my week usually has some {topic} in it"},
                    {"speaker": 1, "text": f"mine too, {topic} keeps me happy"},
                ],
            }
        )
        topic = k_topics[i]
        lines = _TOPICS[topic]
        knowledge.append(
            {
                "skill": "K",
                "episode_id": f"k-{i:03d}",
                "contexts": [
                    [topic, f"i want to know more about {topic}"],
                    [topic, f"i know a lot about {topic}"] + lines,
                ],
                "turns": [
                    {"speaker": 0, "text": f"what do you know about {topic}, i wonder"},
                    {"speaker": 1, "text": f"i read that {lines[0]}, actually"},
                    {"speaker": 0, "text": f"interesting, i want to hear more about {topic}"},
                    {"speaker": 1, "text": f"did you know that {lines[1]}, i did not"},
                ],
            }
        )
        situation, emotion = situations[i]
        empathy.append(
            {
                "skill": "E",
                "episode_id": f"e-{i:03d}",
                "contexts": [[situation, emotion], []],
                "turns": [
                    {"speaker": 0, "text": situation},
                    {"speaker": 1, "text": "oh no, i am sorry, that sounds intense, how do you feel now"},
                    {"speaker": 0, "text": f"i feel {emotion} but talking about it helps"},
                    {"speaker": 1, "text": "i am glad you shared it with me"},
                ],
            }
        )
    return {"personas.jsonl": personas, "knowledge.jsonl": knowledge, "empathy.jsonl": empathy}


# --- large random-vocabulary corpus (retrieval) ---------------------------------

RETRIEVAL_RECORDS = {"P": 2500, "K": 2000, "E": 1500}  # 5000 + 4000 + 1500 = 10500 docs
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4))))
    return sorted(words)


def _sentence(rng: random.Random, vocab: list[str], weights: list[float]) -> str:
    return " ".join(rng.choices(vocab, weights, k=rng.randint(4, 7)))


def retrieval_corpus(seed: int) -> dict[str, list[dict]]:
    """Records whose context sides give 10 500 documents in total, written
    over a Zipf-weighted random vocabulary of 3000 words."""
    rng = random.Random(f"retrieval:{seed}")
    vocab = _vocabulary(rng, 3000)
    weights = [1.0 / (rank + 1) for rank in range(len(vocab))]

    def sentence() -> str:
        return _sentence(rng, vocab, weights)

    def turns() -> list[dict]:
        return [{"speaker": j % 2, "text": sentence()} for j in range(4)]

    files: dict[str, list[dict]] = {"personas.jsonl": [], "knowledge.jsonl": [], "empathy.jsonl": []}
    for i in range(RETRIEVAL_RECORDS["P"]):
        files["personas.jsonl"].append(
            {
                "skill": "P",
                "episode_id": f"p-{i:05d}",
                "contexts": [[sentence() for _ in range(3)], [sentence() for _ in range(3)]],
                "turns": turns(),
            }
        )
    for i in range(RETRIEVAL_RECORDS["K"]):
        topic = " ".join(rng.choices(vocab, weights, k=2))
        files["knowledge.jsonl"].append(
            {
                "skill": "K",
                "episode_id": f"k-{i:05d}",
                "contexts": [[topic], [topic, sentence(), sentence()]],
                "turns": turns(),
            }
        )
    for i in range(RETRIEVAL_RECORDS["E"]):
        files["empathy.jsonl"].append(
            {
                "skill": "E",
                "episode_id": f"e-{i:05d}",
                "contexts": [[sentence(), rng.choice(vocab)], []],
                "turns": turns(),
            }
        )
    return files


# --- mock model server tables (remote) -----------------------------------------

_GENERATE_TEXTS = {
    "P": ["I love my old sandals.", "Personally, I like quiet evenings.", "My favorite part is the weekend."],
    "K": ["Did you know bacon is cured?", "Actually, that fact is well known.", "History covers that in depth."],
    "E": ["That sounds hard, I hear you.", "I am glad you told me.", "I hope it turns out well."],
}
_PEAKED = {"P": [0.9, 0.05, 0.05], "K": [0.05, 0.9, 0.05], "E": [0.05, 0.05, 0.9]}
_MILD = {"P": [0.5, 0.25, 0.25], "K": [0.25, 0.5, 0.25], "E": [0.25, 0.25, 0.5]}


def mock_tables(seed: int) -> dict:
    """Tables for the mock server, drawn from the seed.

    ``/generate`` cycles three texts per skill; ``/nli`` says ``contradict``
    for (persona premise, generated text) pairs chosen by the seed, which
    makes the consistency gate refuse and regenerate; ``/classify`` maps each
    generated text to a peaked or a mild distribution, so moving from one
    peaked skill to another exceeds the flow gate's KL threshold and the gate
    refuses; ``/rank`` scores are seeded per text.
    """
    rng = random.Random(f"tables:{seed}")
    generate = {
        skill: [{"text": text, "score": round(0.9 - 0.1 * i, 2)} for i, text in enumerate(texts)]
        for skill, texts in _GENERATE_TEXTS.items()
    }
    all_texts = [text for texts in _GENERATE_TEXTS.values() for text in texts]
    pairs = []
    # Every persona side holds exactly one of the contradiction premises, and
    # each premise contradicts a seeded skill's first generated text (one of
    # them the second text too). So every speaking side refuses one or two
    # candidates per turn and the amount of regeneration varies little by seed.
    for i, premise in enumerate(_PERSONAS[:_CONTRADICTION_PREMISES]):
        texts = _GENERATE_TEXTS[rng.choice(sorted(_GENERATE_TEXTS))]
        pairs.append({"premise": premise, "hypothesis": texts[0], "label": "contradict", "confidence": 0.9})
        if i == 0:
            pairs.append({"premise": premise, "hypothesis": texts[1], "label": "contradict", "confidence": 0.8})
    classify = {}
    for skill, texts in _GENERATE_TEXTS.items():
        for text in texts:
            classify[text] = (_PEAKED if rng.random() < 0.5 else _MILD)[skill]
    rank = {text: round(rng.uniform(0.1, 1.0), 3) for text in all_texts}
    return {
        "generate": {"by_skill": generate},
        "rank": {"by_text": rank, "default_score": 0.05},
        "nli": {"pairs": pairs, "default": {"label": "neutral", "confidence": 0.5}},
        "classify": {"by_text": classify, "default": [1 / 3, 1 / 3, 1 / 3]},
    }


def _write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, separators=(",", ":")) + "\n")


def write_inputs(workload: str, seed: int, directory: str) -> tuple[list[str], str | None]:
    """Write the workload's dataset files (and, for ``remote``, its mock
    tables) into ``directory``. Returns (dataset paths, tables path)."""
    corpus = retrieval_corpus(seed) if workload == "retrieval" else dialogue_corpus(seed)
    paths = []
    for name, records in corpus.items():
        path = os.path.join(directory, name)
        _write_jsonl(path, records)
        paths.append(path)
    tables_path = None
    if workload == "remote":
        tables_path = os.path.join(directory, "tables.json")
        with open(tables_path, "w", encoding="utf-8") as fh:
            json.dump(mock_tables(seed), fh, separators=(",", ":"))
    return paths, tables_path
