"""Command-line entry point.

Configuration precedence per key: command-line flag > environment variable
(SKILLBLEND_ENDPOINT, SKILLBLEND_RNG_SEED) > config file > built-in default.
Exit codes: 0 success, 1 validation or runtime failure, 2 configuration
error. Diagnostics go to stderr; no subcommand touches its output path
before configuration and inputs have been validated. ``index`` and
``generate`` stream their datasets; ``generate`` loads the index first, so
when the index and the data are both bad, the index error is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from itertools import islice

from .agents import (
    BackendEndpoint,
    BackendError,
    RemoteSkillAgent,
    default_scripted_agents,
    serve_mock,
)
from .classifiers import (
    LexicalNliJudge,
    LexicalSkillScorer,
    RemoteNliJudge,
    RemoteSkillScorer,
    default_lexicon,
)
from .core import EngineConfig, make_roster, validate_episode
from .dataio import (
    ConfigError,
    EpisodeWriter,
    ParseError,
    load_config_file,
    read_dataset,
    read_episodes,
)
from .orchestrator import BatchError, run_batch
from .seeds import (
    SeedEpisode,
    TfIdfIndex,
    build_index,
    build_seeds,
    docs_from_records,
    iter_seed_pairs,
    load_index,
    save_index,
)
from .stats import build_report, format_report, write_report

ENV_ENDPOINT = "SKILLBLEND_ENDPOINT"
ENV_RNG_SEED = "SKILLBLEND_RNG_SEED"


def _err(message: str) -> None:
    print(f"skillblend: {message}", file=sys.stderr)


# the configuration keys are EngineConfig's fields; a value parses as the
# type of its field's default, except the comma-separated roster
_DEFAULTS = {f.name: f.default for f in fields(EngineConfig)}


def _parse_value(key: str, raw: str):
    try:
        if key == "skill_roster":
            return make_roster([part.strip() for part in raw.split(",") if part.strip()])
        return type(_DEFAULTS[key])(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}")


def _resolve_config(args) -> EngineConfig:
    values: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        for key, raw in load_config_file(config_path).items():
            values[key] = _parse_value(key, raw)
    env_seed = os.environ.get(ENV_RNG_SEED)
    if env_seed is not None:
        values["rng_seed"] = _parse_value("rng_seed", env_seed)
    try:
        return EngineConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _read(reader, paths, roster):
    """Stream every record ``reader`` yields for the files at ``paths``, in
    order; a parse error names its file."""
    for path in paths:
        try:
            yield from reader(path, roster)
        except ParseError as exc:
            exc.args = (f"{path}: {exc}",)
            raise


def _cmd_index(args) -> int:
    cfg = _resolve_config(args)
    docs = docs_from_records(_read(read_dataset, args.data, cfg.skill_roster))
    if not docs:
        raise ConfigError("input datasets carry no context lines to index")
    save_index(build_index(docs), args.out)
    print(f"indexed {len(docs)} context documents -> {args.out}")
    return 0


def _build_backends(args, cfg):
    if args.backend == "scripted":
        lexicon = default_lexicon(cfg.skill_roster)
        return (
            default_scripted_agents(cfg.skill_roster),
            LexicalNliJudge(lexicon),
            LexicalSkillScorer(lexicon),
        )
    url = args.endpoint or os.environ.get(ENV_ENDPOINT)
    if not url:
        raise ConfigError("remote backend requires --endpoint or " + ENV_ENDPOINT)
    try:
        endpoint = BackendEndpoint(url)
    except ValueError as exc:
        raise ConfigError(str(exc))
    agents = [RemoteSkillAgent(endpoint, skill) for skill in cfg.skill_roster]
    return agents, RemoteNliJudge(endpoint), RemoteSkillScorer(endpoint, cfg.skill_roster)


def draw_seeds(records, index: TfIdfIndex, cfg: EngineConfig, count: int) -> list[SeedEpisode]:
    """The first ``count`` seeds of the seeded pair stream over ``records``
    (any iterable, read once), built from at most max(100, 50 * count)
    pairs. A roster skill without pairs, or too few seeds within that
    budget, is a ConfigError; an error the records raise propagates."""
    pairs = iter_seed_pairs(records, cfg.skill_roster, cfg.rng_seed)
    seeds: list[SeedEpisode] = []
    for pair, skill in islice(pairs, max(100, 50 * count)):
        seeds.extend(build_seeds(pair, skill, index, cfg))
        if len(seeds) >= count:
            return seeds[:count]
    raise ConfigError(
        "seed construction produced too few episodes; the index may not match the data"
    )


def _cmd_generate(args) -> int:
    cfg = _resolve_config(args)
    if args.episodes < 1:
        raise ConfigError("--episodes must be at least 1")
    if args.parallelism < 1:
        raise ConfigError("--parallelism must be at least 1")
    agents, judge, scorer = _build_backends(args, cfg)

    # the index first, so that its load peak does not stack on the pair
    # pools the data stream leaves; a bad index is reported before bad data
    index = load_index(args.index)
    seeds = draw_seeds(_read(read_dataset, args.data, cfg.skill_roster), index, cfg, args.episodes)

    # All configuration and inputs validated; only now touch the output.
    with EpisodeWriter(args.out) as writer:
        report = run_batch(
            seeds, agents, judge, scorer, cfg,
            parallelism=args.parallelism, write=writer.write,
        )
    print(f"wrote {report.episodes_written} episodes -> {args.out}")
    for index_, message in report.aborts:
        _err(f"aborted seed {index_}: {message}")
    # refusals of written episodes only, so that `stats` on the file agrees
    print(f"refusals logged: {report.refusal_total} in {report.episodes_written} written episodes")
    if report.aborts:
        print(f"aborted seeds: {len(report.aborts)}")
    return 0


def _cmd_stats(args) -> int:
    cfg = _resolve_config(args)
    episodes = list(_read(read_episodes, [args.in_path], cfg.skill_roster))
    report = build_report(episodes, cfg.skill_roster, epsilon=cfg.epsilon)
    paths = write_report(report, args.out)
    print(format_report(report))
    print("report files: " + " ".join(paths))
    return 0


def _cmd_validate(args) -> int:
    cfg = _resolve_config(args)
    episodes = list(_read(read_episodes, [args.in_path], cfg.skill_roster))
    failures = 0
    for ep in episodes:
        for violation in validate_episode(ep, cfg):
            _err(f"{ep.id}: {violation}")
            failures += 1
    print(f"validated {len(episodes)} episodes, {failures} violations")
    return 1 if failures else 0


def _cmd_mockserver(args) -> int:
    try:
        with open(args.tables, encoding="utf-8") as fh:
            tables = json.load(fh)
    except ValueError as exc:
        raise ConfigError(f"{args.tables}: not a JSON file ({exc})") from None
    host, _, port = args.bind.partition(":")
    try:
        server = serve_mock(tables, host or "127.0.0.1", int(port or 0))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot start mock server: {exc}")
    print(f"mock server listening on {server.base_url}", flush=True)
    try:
        while True:
            server.wait(1.0)
    except KeyboardInterrupt:
        server.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skillblend")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build and persist the TF-IDF context index")
    p_index.add_argument("--data", nargs="+", required=True)
    p_index.add_argument("--out", required=True)
    p_index.add_argument("--config")
    p_index.set_defaults(func=_cmd_index)

    p_gen = sub.add_parser("generate", help="run the batch generation pipeline")
    p_gen.add_argument("--config")
    p_gen.add_argument("--data", nargs="+", required=True)
    p_gen.add_argument("--index", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--backend", choices=("scripted", "remote"), default="scripted")
    p_gen.add_argument("--endpoint")
    p_gen.add_argument("--episodes", type=int, default=10)
    p_gen.add_argument("--parallelism", type=int, default=1)
    p_gen.set_defaults(func=_cmd_generate)

    p_stats = sub.add_parser("stats", help="emit the statistics suite for an episode file")
    p_stats.add_argument("--in", dest="in_path", required=True)
    p_stats.add_argument("--out", required=True)
    p_stats.add_argument("--config")
    p_stats.set_defaults(func=_cmd_stats)

    p_val = sub.add_parser("validate", help="check every episode invariant in a file")
    p_val.add_argument("--in", dest="in_path", required=True)
    p_val.add_argument("--config")
    p_val.set_defaults(func=_cmd_validate)

    p_mock = sub.add_parser("mockserver", help="serve the wire protocol from fixture tables")
    p_mock.add_argument("--tables", required=True)
    p_mock.add_argument("--bind", default="127.0.0.1:0")
    p_mock.set_defaults(func=_cmd_mockserver)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _err(str(exc))
        return 2
    except FileNotFoundError as exc:
        _err(f"{exc.filename}: file not found")
        return 2
    except (BackendError, BatchError, OSError, ValueError) as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
