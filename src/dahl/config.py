"""Run configuration: one YAML file describing backends, prompts, data.

Secrets never live in the file; HTTP backends name an environment
variable instead. Every referenced path is checked at load time so a
typo fails before any work starts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

import yaml

from . import defaults, mocks
from .backends import (
    Backend,
    BackendSpec,
    MockBackend,
    RetryPolicy,
    build_http_backend,
)
from .dataset import FilterRule, OverrideList, load_filter_rules, load_overrides
from .types import CategorySet, GenConfig

ROLE_NAMES = ("generator", "splitter", "checker", "categorizer", "question_generator")


class ConfigError(ValueError):
    """The run configuration is unusable."""


@dataclass(frozen=True)
class BackendConfig:
    """One backend entry as written in the config file."""

    role: str
    kind: str  # "mock" or "http"
    model: str
    behavior: Optional[str] = None  # mock only
    reply: Optional[str] = None  # mock only: constant reply text
    endpoint: Optional[str] = None  # http only
    auth_env: Optional[str] = None
    max_concurrency: int = 4
    timeout_s: float = 60.0
    requests_per_second: Optional[float] = None
    max_attempts: int = 5
    base_backoff_s: float = 0.5

    def build(self, cache_dir: Optional[str]) -> Backend:
        if self.kind == "mock":
            if self.reply is not None:
                default = self.reply
            else:
                default = mocks.get_behavior(self.behavior or self.role)
            return MockBackend(default=default, backend_id=self.role, model=self.model)
        if self.kind == "http":
            if not self.endpoint:
                raise ConfigError(f"backend {self.role}: http kind requires an endpoint")
            spec = BackendSpec(
                backend_id=self.role,
                endpoint=self.endpoint,
                model=self.model,
                auth_env=self.auth_env,
                max_concurrency=self.max_concurrency,
                timeout_s=self.timeout_s,
                requests_per_second=self.requests_per_second,
                retry=RetryPolicy(
                    max_attempts=self.max_attempts, base_backoff_s=self.base_backoff_s
                ),
            )
            return build_http_backend(spec, cache_dir)
        raise ConfigError(f"backend {self.role}: unknown kind {self.kind!r}")


@dataclass
class RunConfig:
    """Fully resolved configuration for one run."""

    backends: Dict[str, BackendConfig]
    generators: List[BackendConfig]
    gen_config: GenConfig
    category_set: CategorySet
    rules: List[FilterRule]
    overrides: OverrideList
    prompts: Dict[str, str]
    cache_dir: Optional[str]
    seed: int = 0
    concurrency: int = 4
    questions_per_doc: int = 5

    def build_backend(self, role: str) -> Backend:
        try:
            cfg = self.backends[role]
        except KeyError:
            raise ConfigError(f"no backend configured for role {role!r}") from None
        return cfg.build(self.cache_dir)


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise ConfigError(f"{what} does not exist: {path}")
    return path


# How typed keys are read; any other key is taken as written.
_COERCE = {
    "kind": str,
    "model": str,
    "max_concurrency": int,
    "timeout_s": float,
    "requests_per_second": lambda value: None if value is None else float(value),
    "max_attempts": int,
    "base_backoff_s": float,
}


def _parse_backend(role: str, raw: dict) -> BackendConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"backend {role!r} must be a mapping")
    known = {f.name for f in fields(BackendConfig)} - {"role"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"backend {role!r}: unknown keys {sorted(unknown)}")
    if not raw.get("model"):
        raise ConfigError(f"backend {role!r}: model is required")
    values = {key: _COERCE.get(key, lambda value: value)(value) for key, value in raw.items()}
    return BackendConfig(role=role, kind=values.pop("kind", "mock"), **values)


def load_config(path: str, cache_dir_override: Optional[str] = None) -> RunConfig:
    """Load and validate a YAML run configuration."""
    with open(_require_file(path, "config file"), encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    base_dir = os.path.dirname(os.path.abspath(path))

    def resolve(p: Optional[str]) -> Optional[str]:
        if p is None:
            return None
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    backends_raw = raw.get("backends") or {}
    if not isinstance(backends_raw, dict):
        raise ConfigError("backends must be a mapping of role -> backend")
    backends: Dict[str, BackendConfig] = {}
    generators: List[BackendConfig] = []
    for role, entry in backends_raw.items():
        if role == "generators":
            if not isinstance(entry, list):
                raise ConfigError("backends.generators must be a list")
            generators = [_parse_backend("generator", e) for e in entry]
            continue
        if role not in ROLE_NAMES:
            raise ConfigError(f"unknown backend role {role!r}, expected one of {ROLE_NAMES}")
        backends[role] = _parse_backend(role, entry)
    if "generator" not in backends and generators:
        backends["generator"] = generators[0]
    if not generators and "generator" in backends:
        generators = [backends["generator"]]

    gen_raw = raw.get("generation") or {}
    gen_config = GenConfig(
        temperature=float(gen_raw.get("temperature", 0.6)),
        max_tokens=int(gen_raw.get("max_tokens", 256)),
        seed=None if gen_raw.get("seed") is None else int(gen_raw["seed"]),
    )

    category_path = resolve(raw.get("category_file"))
    rules_path = resolve(raw.get("rules_file"))
    overrides_path = resolve(raw.get("overrides_file"))
    for p, what in (
        (category_path, "category file"),
        (rules_path, "rules file"),
        (overrides_path, "overrides file"),
    ):
        if p is not None:
            _require_file(p, what)

    prompts_raw = raw.get("prompts") or {}
    prompts: Dict[str, str] = {}
    for name in defaults.PROMPT_NAMES:
        prompt_path = resolve(prompts_raw.get(name))
        if prompt_path is not None:
            _require_file(prompt_path, f"prompt template {name}")
        prompts[name] = defaults.load_prompt(name, prompt_path)

    cache_dir = cache_dir_override if cache_dir_override is not None else raw.get("cache_dir")
    if cache_dir is not None:
        cache_dir = resolve(str(cache_dir))

    return RunConfig(
        backends=backends,
        generators=generators,
        gen_config=gen_config,
        category_set=defaults.load_category_set(category_path),
        rules=load_filter_rules(rules_path),
        overrides=load_overrides(overrides_path),
        prompts=prompts,
        cache_dir=cache_dir,
        seed=int(raw.get("seed", 0)),
        concurrency=int(raw.get("concurrency", 4)),
        questions_per_doc=int(raw.get("questions_per_doc", 5)),
    )
