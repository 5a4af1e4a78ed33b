from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from types import SimpleNamespace

import pytest

from skillblend.agents import serve_mock
from skillblend.cli import ENV_RNG_SEED, _resolve_config, main
from skillblend.core import EngineConfig, make_roster
from skillblend.dataio import ConfigError, load_config_file

@pytest.fixture
def workdir(tmp_path, corpus_files):
    return tmp_path, list(corpus_files)


def _run(*argv):
    return main(list(argv))


def test_index_then_generate_then_validate_then_stats(workdir, capsys):
    tmp_path, data = workdir
    index = str(tmp_path / "ctx.idx")
    episodes = str(tmp_path / "episodes.jsonl")

    assert _run("index", "--data", *data, "--out", index) == 0
    assert _run(
        "generate", "--data", *data, "--index", index, "--out", episodes,
        "--episodes", "10",
    ) == 0
    with open(episodes, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 10

    assert _run("validate", "--in", episodes) == 0

    report_prefix = str(tmp_path / "report")
    assert _run("stats", "--in", episodes, "--out", report_prefix) == 0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report_kld_hist.csv").exists()
    out = capsys.readouterr().out
    assert "episodes: 10" in out


def test_identical_generate_invocations_have_identical_digests(workdir):
    tmp_path, data = workdir
    index = str(tmp_path / "ctx.idx")
    assert _run("index", "--data", *data, "--out", index) == 0
    digests = []
    for name in ("a.jsonl", "b.jsonl"):
        out = str(tmp_path / name)
        assert _run(
            "generate", "--data", *data, "--index", index, "--out", out,
            "--episodes", "8", "--parallelism", "4",
        ) == 0
        with open(out, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    assert digests[0] == digests[1]


def test_generate_respects_config_file(workdir):
    tmp_path, data = workdir
    index = str(tmp_path / "ctx.idx")
    assert _run("index", "--data", *data, "--out", index) == 0
    cfg_path = tmp_path / "engine.cfg"
    cfg_path.write_text("episode_length = 6\nrng_seed = 99\n", encoding="utf-8")
    out = str(tmp_path / "short.jsonl")
    assert _run(
        "generate", "--config", str(cfg_path), "--data", *data,
        "--index", index, "--out", out, "--episodes", "3",
    ) == 0
    with open(out, encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    assert len(first["turns"]) == 6
    # validation needs the same config to check the length invariant
    assert _run("validate", "--in", out, "--config", str(cfg_path)) == 0
    assert _run("validate", "--in", out) == 1


def test_config_file_sets_every_engine_config_key(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_RNG_SEED, raising=False)
    path = tmp_path / "all.cfg"
    path.write_text(
        "alpha = 1\n"
        "episode_length = 12\n"
        "max_attempts = 3\n"
        "epsilon = 1e-6\n"
        "rng_seed = 4\n"
        "seeds_per_pair = 2\n"
        "skill_roster = A, B\n",
        encoding="utf-8",
    )
    cfg = _resolve_config(SimpleNamespace(config=str(path)))
    assert cfg == EngineConfig(
        alpha=1.0,
        episode_length=12,
        max_attempts=3,
        epsilon=1e-6,
        rng_seed=4,
        seeds_per_pair=2,
        skill_roster=make_roster(["A", "B"]),
    )
    assert type(cfg.alpha) is float and type(cfg.rng_seed) is int
    # the file above names every key there is
    assert len(load_config_file(str(path))) == len(fields(EngineConfig))

    for bad in ("mystery = 1\n", "rng_seed = 1.5\n", "skill_roster = P\n"):
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(ConfigError):
            _resolve_config(SimpleNamespace(config=str(path)))


def test_config_errors_never_touch_the_output(workdir, capsys):
    tmp_path, data = workdir
    index = str(tmp_path / "ctx.idx")
    assert _run("index", "--data", *data, "--out", index) == 0
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("alpha = -3\n", encoding="utf-8")
    out = tmp_path / "never.jsonl"
    rc = _run(
        "generate", "--config", str(bad_cfg), "--data", *data,
        "--index", index, "--out", str(out), "--episodes", "2",
    )
    assert rc == 2
    assert not out.exists()
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["alpha", "epsilon"])
def test_non_finite_config_value_is_a_config_error(workdir, capsys, key):
    tmp_path, data = workdir
    index = str(tmp_path / "ctx.idx")
    assert _run("index", "--data", *data, "--out", index) == 0
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(f"{key} = inf\n", encoding="utf-8")
    out = tmp_path / "never.jsonl"
    rc = _run(
        "generate", "--config", str(bad_cfg), "--data", *data,
        "--index", index, "--out", str(out), "--episodes", "2",
    )
    assert rc == 2
    assert not out.exists()
    assert f"{key} must be finite and > 0" in capsys.readouterr().err


def test_missing_input_file_is_a_config_error(workdir):
    tmp_path, data = workdir
    rc = _run("index", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "x.idx"))
    assert rc == 2
    assert not (tmp_path / "x.idx").exists()


def test_validate_exits_nonzero_on_violations(workdir):
    tmp_path, data = workdir
    index = str(tmp_path / "ctx.idx")
    episodes = tmp_path / "episodes.jsonl"
    assert _run("index", "--data", *data, "--out", index) == 0
    assert _run(
        "generate", "--data", *data, "--index", index, "--out", str(episodes), "--episodes", "2"
    ) == 0
    lines = episodes.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[0])
    obj["turns"] = obj["turns"][:-1]  # truncate: length violation
    episodes.write_text("\n".join([json.dumps(obj)] + lines[1:]) + "\n", encoding="utf-8")
    assert _run("validate", "--in", str(episodes)) == 1


def test_corrupt_episode_file_is_reported(workdir, capsys):
    tmp_path, _ = workdir
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n', encoding="utf-8")
    assert _run("validate", "--in", str(bad)) == 1
    assert "seed_dataset" in capsys.readouterr().err


def _edited(change):
    """Apply ``change`` to the parsed index file and serialize it again."""

    def apply(text):
        obj = json.loads(text)
        change(obj)
        return json.dumps(obj)

    return apply


_BAD_INDEXES = {
    "missing-role": _edited(lambda obj: obj["docs"][0].pop("role")),
    "missing-postings": _edited(lambda obj: obj.pop("postings")),
    "lines-not-a-list": _edited(lambda obj: obj["docs"][0].update(lines=5)),
    "skill-id-not-a-string": _edited(lambda obj: obj["docs"][0]["skill"].update(id=7)),
    "vocabulary-id-past-size": _edited(
        lambda obj: obj["vocabulary"].update({min(obj["vocabulary"]): len(obj["vocabulary"])})
    ),
    "idf-too-short": _edited(lambda obj: obj["idf"].pop()),
    "version-1": _edited(lambda obj: obj.update(version=1)),
    "truncated": lambda text: text[: len(text) // 2],
}


@pytest.mark.parametrize("case", sorted(_BAD_INDEXES))
def test_malformed_index_fails_cleanly(workdir, capsys, case):
    tmp_path, data = workdir
    index = tmp_path / "ctx.idx"
    assert _run("index", "--data", *data, "--out", str(index)) == 0
    index.write_text(_BAD_INDEXES[case](index.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "never.jsonl"
    rc = _run("generate", "--data", *data, "--index", str(index), "--out", str(out), "--episodes", "2")
    err = capsys.readouterr().err
    assert rc == 1
    assert f"skillblend: {index}: " in err
    assert "Traceback" not in err
    assert not out.exists()


def test_generate_with_remote_backend(workdir):
    tmp_path, data = workdir
    index = str(tmp_path / "ctx.idx")
    assert _run("index", "--data", *data, "--out", index) == 0
    tables = {
        "generate": {"default": {"text": "a steady reply", "score": 0.5}},
        "rank": {"default_score": 0.25},
        "nli": {"default": {"label": "neutral", "confidence": 0.5}},
        "classify": {"default": [0.2, 0.3, 0.5]},
    }
    out = str(tmp_path / "remote.jsonl")
    with serve_mock(tables) as server:
        rc = _run(
            "generate", "--data", *data, "--index", index, "--out", out,
            "--episodes", "2", "--backend", "remote", "--endpoint", server.base_url,
        )
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["turns"][2]["text"] == "a steady reply"
    assert first["turns"][2]["skill"] == "E"  # argmax of [0.2, 0.3, 0.5]


def test_remote_backend_requires_endpoint(workdir, monkeypatch):
    tmp_path, data = workdir
    monkeypatch.delenv("SKILLBLEND_ENDPOINT", raising=False)
    index = str(tmp_path / "ctx.idx")
    assert _run("index", "--data", *data, "--out", index) == 0
    rc = _run(
        "generate", "--data", *data, "--index", index,
        "--out", str(tmp_path / "x.jsonl"), "--backend", "remote",
    )
    assert rc == 2
    rc = _run(
        "generate", "--data", *data, "--index", index,
        "--out", str(tmp_path / "x.jsonl"), "--backend", "remote", "--endpoint", "ftp://x",
    )
    assert rc == 2
    assert not (tmp_path / "x.jsonl").exists()


def test_env_seed_override_changes_output(workdir, monkeypatch):
    tmp_path, data = workdir
    index = str(tmp_path / "ctx.idx")
    assert _run("index", "--data", *data, "--out", index) == 0

    def digest_with_seed(seed, name):
        if seed is None:
            monkeypatch.delenv("SKILLBLEND_RNG_SEED", raising=False)
        else:
            monkeypatch.setenv("SKILLBLEND_RNG_SEED", seed)
        out = str(tmp_path / name)
        assert _run(
            "generate", "--data", *data, "--index", index, "--out", out, "--episodes", "6"
        ) == 0
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    base = digest_with_seed(None, "seed0.jsonl")
    other = digest_with_seed("4242", "seed4242.jsonl")
    again = digest_with_seed("4242", "seed4242b.jsonl")
    assert other == again
    assert base != other
