from __future__ import annotations

import os
import re
import textwrap
from pathlib import Path

import pytest

from dahl.backends import (
    BackendSpec,
    CachedBackend,
    MockBackend,
    RetryPolicy,
    ThrottledBackend,
    close_backend,
)
from dahl.config import ConfigError, load_config
from dahl.defaults import PROMPT_NAMES, load_prompt
from dahl.types import GenConfig


BASE = """
backends:
  generator: {kind: mock, model: gen-m}
  splitter: {kind: mock, model: split-m}
  checker: {kind: mock, model: check-m}
  categorizer: {kind: mock, model: cat-m}
"""


def write_config(tmp_path, text=BASE, name="run.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.gen_config.temperature == 0.6
    assert cfg.gen_config.max_tokens == 256
    assert cfg.concurrency == 4
    assert cfg.questions_per_doc == 5
    assert cfg.seed == 0
    assert cfg.cache_dir is None
    assert len(cfg.category_set) == 29
    assert len(cfg.rules) == 3
    assert set(cfg.prompts) == set(PROMPT_NAMES)
    assert all(isinstance(v, str) and v for v in cfg.prompts.values())


def test_generation_block_and_scalars(tmp_path):
    path = write_config(
        tmp_path,
        BASE
        + """
generation:
  temperature: 0.2
  max_tokens: 64
  seed: 11
seed: 5
concurrency: 2
questions_per_doc: 3
""",
    )
    cfg = load_config(path)
    assert cfg.gen_config.temperature == 0.2
    assert cfg.gen_config.max_tokens == 64
    assert cfg.gen_config.seed == 11
    assert cfg.seed == 5
    assert cfg.concurrency == 2
    assert cfg.questions_per_doc == 3


def test_mock_backend_built_with_role_behavior(tmp_path):
    cfg = load_config(write_config(tmp_path))
    backend = cfg.build_backend("generator")
    assert isinstance(backend, MockBackend)
    assert backend.model == "gen-m"
    assert backend.backend_id == "generator"


def test_mock_backend_constant_reply(tmp_path):
    path = write_config(
        tmp_path,
        """
backends:
  checker: {kind: mock, model: m, reply: "True"}
""",
    )
    backend = load_config(path).build_backend("checker")
    from dahl.backends import ChatRequest
    from dahl.types import GenConfig

    resp = backend.complete(ChatRequest(user_prompt="anything", gen_config=GenConfig()))
    assert resp.text == "True"


def test_unknown_role_and_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown backend role"):
        load_config(write_config(tmp_path, "backends:\n  poet: {kind: mock, model: m}\n"))
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(
            write_config(tmp_path, "backends:\n  generator: {kind: mock, model: m, nap: 1}\n")
        )
    with pytest.raises(ConfigError, match="model is required"):
        load_config(write_config(tmp_path, "backends:\n  generator: {kind: mock}\n"))


def test_unknown_kind_fails_at_load(tmp_path):
    path = write_config(tmp_path, "backends:\n  generator: {kind: carrier-pigeon, model: m}\n")
    with pytest.raises(ConfigError, match="backends.generator: kind: must be http or mock"):
        load_config(path)


def test_http_backend_requires_endpoint_and_builds_stack(tmp_path):
    path = write_config(tmp_path, "backends:\n  generator: {kind: http, model: m}\n")
    with pytest.raises(ConfigError, match="backends.generator: endpoint is required"):
        load_config(path)

    path = write_config(
        tmp_path,
        """
backends:
  generator:
    kind: http
    model: m
    endpoint: http://unit.test/chat
cache_dir: cache
""",
        name="http.yaml",
    )
    cfg = load_config(path)
    backend = cfg.build_backend("generator")
    assert isinstance(backend, CachedBackend)

    bare = write_config(
        tmp_path,
        "backends:\n  generator: {kind: http, model: m, endpoint: http://unit.test/chat}\n",
        name="nocache.yaml",
    )
    built_without_cache = load_config(bare).build_backend("generator")
    assert isinstance(built_without_cache, ThrottledBackend)


def test_missing_role_at_build_time(tmp_path):
    cfg = load_config(write_config(tmp_path))
    with pytest.raises(ConfigError, match="no backend configured for role 'question_generator'"):
        cfg.build_backend("question_generator")


def test_generators_list_for_multi_model_runs(tmp_path):
    path = write_config(
        tmp_path,
        """
backends:
  generators:
    - {kind: mock, model: model-a}
    - {kind: mock, model: model-b}
  splitter: {kind: mock, model: s}
  checker: {kind: mock, model: c}
""",
    )
    cfg = load_config(path)
    assert [g.model for g in cfg.generators] == ["model-a", "model-b"]
    # the first list entry doubles as the plain generator role
    assert cfg.backends["generator"].model == "model-a"

    single = load_config(write_config(tmp_path, BASE, name="single.yaml"))
    assert [g.model for g in single.generators] == ["gen-m"]


def test_referenced_files_checked_at_load(tmp_path):
    path = write_config(tmp_path, BASE + "rules_file: nope.jsonl\n")
    with pytest.raises(ConfigError, match="rules file does not exist"):
        load_config(path)
    path = write_config(tmp_path, BASE + "category_file: missing.txt\n", name="c.yaml")
    with pytest.raises(ConfigError, match="category file"):
        load_config(path)
    path = write_config(
        tmp_path, BASE + "prompts:\n  checker: gone.txt\n", name="p.yaml"
    )
    with pytest.raises(ConfigError, match="prompt template checker"):
        load_config(path)


@pytest.mark.parametrize(
    "name, subject, text",
    [
        ("checker", "{unit}", "Is the claim true? Answer True or False."),
        ("checker", "{unit}", ""),
        ("splitter", "{response}", "List the claims, one per line."),
        ("response_generation", "{question}", "Answer the question."),
        ("categorizer", "{question}", "Pick one of:\n{labels}"),
        ("question_generation", "{body}", "Write {n} questions about {title}."),
    ],
    ids=["checker", "checker-empty", "splitter", "response-generation", "categorizer", "qgen"],
)
def test_a_prompt_template_without_its_subject_is_refused(tmp_path, name, subject, text):
    (tmp_path / "t.txt").write_text(text, encoding="utf-8")
    path = write_config(tmp_path, BASE + f"prompts:\n  {name}: t.txt\n")
    want = f"prompts.{name}: {tmp_path / 't.txt'} lacks the placeholder {subject}"
    with pytest.raises(ConfigError, match=re.escape(want)):
        load_config(path)


def test_every_packaged_prompt_template_loads_from_a_file(tmp_path):
    lines = ["prompts:"]
    for name in PROMPT_NAMES:
        (tmp_path / f"{name}.txt").write_text(load_prompt(name), encoding="utf-8")
        lines.append(f"  {name}: {name}.txt")
    cfg = load_config(write_config(tmp_path, BASE + "\n".join(lines) + "\n"))
    assert cfg.prompts == {name: load_prompt(name) for name in PROMPT_NAMES}


def test_relative_paths_resolve_against_config_directory(tmp_path):
    sub = tmp_path / "conf"
    sub.mkdir()
    (sub / "cats.txt").write_text("Medicine\nOther\n", encoding="utf-8")
    (sub / "checker.txt").write_text("Judge: {unit}", encoding="utf-8")
    path = write_config(sub, BASE + "category_file: cats.txt\nprompts:\n  checker: checker.txt\n")
    cfg = load_config(path)
    assert list(cfg.category_set) == ["Medicine", "Other"]
    assert cfg.prompts["checker"] == "Judge: {unit}"


def test_cache_dir_override_beats_file_value(tmp_path):
    path = write_config(tmp_path, BASE + "cache_dir: from-file\n")
    cfg = load_config(path, cache_dir_override=str(tmp_path / "forced"))
    assert cfg.cache_dir == str(tmp_path / "forced")
    cfg = load_config(path)
    assert cfg.cache_dir == str(tmp_path / "from-file")


def test_a_relative_cache_dir_flag_is_cwd_relative_and_the_key_config_relative(
    tmp_path, monkeypatch
):
    (tmp_path / "cfgdir").mkdir()
    (tmp_path / "cwd").mkdir()
    write_config(tmp_path / "cfgdir", BASE + "cache_dir: from-file\n")
    monkeypatch.chdir(tmp_path / "cwd")
    path = os.path.join("..", "cfgdir", "run.yaml")
    cfg = load_config(path, cache_dir_override="mycache")
    assert os.path.abspath(cfg.cache_dir) == str(tmp_path / "cwd" / "mycache")
    assert load_config(path).cache_dir == str(tmp_path / "cfgdir" / "from-file")


def test_config_root_must_be_a_mapping(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("- just\n- a\n- list\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="root must be a mapping"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="config file does not exist"):
        load_config(str(tmp_path / "absent.yaml"))


def test_empty_config_is_usable_for_pure_stats(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.backends == {}
    assert cfg.generators == []


def test_null_values_are_unset_and_keep_their_defaults(tmp_path):
    path = write_config(
        tmp_path,
        """
backends:
  generator: {kind: http, model: m, endpoint: http://unit.test/chat, max_concurrency: null}
generation: {temperature: null, max_tokens: 64, seed: null}
prompts: {checker: null}
seed: null
cache_dir: null
""",
    )
    cfg = load_config(path)
    assert cfg.gen_config == GenConfig(max_tokens=64)
    assert cfg.seed == 0 and cfg.cache_dir is None
    assert cfg.prompts["checker"] == load_prompt("checker")
    backend = cfg.build_backend("generator")
    try:
        assert backend._inner.spec.max_concurrency == 4
    finally:
        close_backend(backend)


def test_http_settings_reach_the_backend_spec_and_unset_ones_keep_its_defaults(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("GEN_KEY", "sekrit")
    path = write_config(
        tmp_path,
        """
backends:
  generator:
    kind: http
    model: m
    endpoint: http://unit.test/chat
    auth_env: GEN_KEY
    max_concurrency: "2"
    timeout_s: 5
    requests_per_second: 10
    max_attempts: 3
    base_backoff_s: 0.1
  checker: {kind: http, model: c, endpoint: http://unit.test/check}
""",
    )
    cfg = load_config(path)
    generator = cfg.build_backend("generator")
    checker = cfg.build_backend("checker")
    try:
        assert generator._inner.spec == BackendSpec(
            backend_id="generator",
            endpoint="http://unit.test/chat",
            model="m",
            auth_env="GEN_KEY",
            max_concurrency=2,
            timeout_s=5.0,
            requests_per_second=10.0,
            retry=RetryPolicy(max_attempts=3, base_backoff_s=0.1),
        )
        assert checker._inner.spec == BackendSpec(
            backend_id="checker", endpoint="http://unit.test/check", model="c"
        )
    finally:
        close_backend(generator)
        close_backend(checker)


def test_every_yaml_example_in_the_readme_loads(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        load_config(write_config(tmp_path, block, name=f"readme-{i}.yaml"))
