"""Run configuration: one YAML file describing backends, prompts, data.

Secrets never live in the file; HTTP backends name an environment
variable instead. Every mapping is read through one checked reader, each
backend entry becomes what it builds (a mock, or an HTTP BackendSpec),
and every referenced path is checked at load time, so a typo fails
before any work starts, naming the key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import yaml

from . import defaults, mocks
from .backends import Backend, BackendSpec, MockBackend, RetryPolicy, build_http_backend
from .dataset import FilterRule, OverrideList, load_filter_rules, load_overrides
from .types import CategorySet, GenConfig

ROLE_NAMES = ("generator", "splitter", "checker", "categorizer", "question_generator")


class ConfigError(ValueError):
    """The run configuration is unusable."""


def _read(where: str, raw: object, schema: Dict[str, Callable]) -> dict:
    """Check one mapping against schema (key -> coercer) and coerce its values.

    A null mapping or value is unset and left out, so the dataclass it
    feeds keeps its default. Errors name where and the key; a nested
    mapping's ConfigError passes through.
    """
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping, not {type(raw).__name__}")
    unknown = sorted(str(key) for key in raw if key not in schema)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    values = {}
    for key, value in raw.items():
        if value is None:
            continue
        try:
            values[key] = schema[key](value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {key}: {exc}") from None
    return values


def _int(value: object) -> int:
    """int(), refusing what it would silently change: a bool or a fractional float."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _count(value: object) -> int:
    number = _int(value)
    if number < 1:
        raise ValueError(f"must be >= 1, got {number}")
    return number


def _float(value: object) -> float:
    """float(), refusing a bool, which it would turn into 0.0 or 1.0."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


_GENERATION_KEYS = {"temperature": _float, "max_tokens": _int, "seed": _int}
_MOCK_KEYS = {"behavior": mocks.get_behavior, "reply": str}
# BackendSpec fields, then RetryPolicy fields; each checks its own range, and an unset one
# keeps its default there.
_HTTP_KEYS = {
    "endpoint": str,
    "auth_env": str,
    "max_concurrency": _int,
    "timeout_s": _float,
    "requests_per_second": _float,
}
_RETRY_KEYS = {"max_attempts": _int, "base_backoff_s": _float}
_ENTRY_KEYS = {"kind": str, "model": str, **_MOCK_KEYS, **_HTTP_KEYS, **_RETRY_KEYS}
_KIND_KEYS = {"mock": _MOCK_KEYS, "http": {**_HTTP_KEYS, **_RETRY_KEYS}}
# A backend entry: a mock, built at load time, or the spec of an HTTP stack.
Entry = Union[MockBackend, BackendSpec]
# The placeholder that carries what one call of each template is about. Without it every
# call sends the same prompt; {title}, {n} and {labels} may be hard-coded instead.
_PROMPT_SUBJECTS = {
    "question_generation": "{body}",
    "response_generation": "{question}",
    "splitter": "{response}",
    "checker": "{unit}",
    "categorizer": "{question}",
}


@dataclass
class RunConfig:
    """Fully resolved configuration for one run."""

    backends: Dict[str, Entry]
    generators: List[Entry]
    gen_config: GenConfig
    category_set: CategorySet
    rules: List[FilterRule]
    overrides: OverrideList
    prompts: Dict[str, str]
    cache_dir: Optional[str]
    seed: int = 0
    concurrency: int = 4
    questions_per_doc: int = 5

    def build(self, entry: Entry) -> Backend:
        """The mock itself, or the HTTP stack a spec describes (cached if cache_dir is set)."""
        if isinstance(entry, BackendSpec):
            return build_http_backend(entry, self.cache_dir)
        return entry

    def build_backend(self, role: str) -> Backend:
        if role not in self.backends:
            raise ConfigError(f"no backend configured for role {role!r}")
        return self.build(self.backends[role])


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise ConfigError(f"{what} does not exist: {path}")
    return path


def _read_backend(where: str, role: str, raw: object) -> Entry:
    """One backend entry, checked whole against the keys of its kind (mock by default)."""
    values = _read(where, raw, _ENTRY_KEYS)
    kind = values.pop("kind", "mock")
    if kind not in _KIND_KEYS:
        raise ConfigError(f"{where}: kind: must be http or mock, not {kind!r}")
    stray = sorted(set(values) - {"model", *_KIND_KEYS[kind]})
    if stray:
        other = "mock" if kind == "http" else "http"
        raise ConfigError(f"{where}: {stray} apply only to kind {other}; set kind: {other}")
    if not values.get("model"):
        raise ConfigError(f"{where}: model is required")
    if kind == "mock":
        default = values.get("reply", values.get("behavior", mocks.get_behavior(role)))
        return MockBackend(default=default, backend_id=role, model=values["model"])
    if not values.get("endpoint"):
        raise ConfigError(f"{where}: endpoint is required for kind http")
    try:
        retry = RetryPolicy(**{key: values.pop(key) for key in _RETRY_KEYS if key in values})
        return BackendSpec(backend_id=role, retry=retry, **values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _read_backends(raw: object) -> Tuple[Dict[str, Entry], List[Entry]]:
    if not isinstance(raw, dict):
        raise ConfigError("backends must be a mapping of role -> backend")
    backends: Dict[str, Entry] = {}
    generators: List[Entry] = []
    for role, entry in raw.items():
        if role == "generators":
            if not isinstance(entry, list):
                raise ConfigError("backends.generators must be a list")
            generators = [
                _read_backend(f"backends.generators[{i}]", "generator", e)
                for i, e in enumerate(entry)
            ]
        elif role in ROLE_NAMES:
            backends[role] = _read_backend(f"backends.{role}", role, entry)
        else:
            raise ConfigError(f"unknown backend role {role!r}, expected one of {ROLE_NAMES}")
    if "generator" not in backends and generators:
        backends["generator"] = generators[0]
    if not generators and "generator" in backends:
        generators = [backends["generator"]]
    return backends, generators


def _read_prompts(files: Dict[str, str]) -> Dict[str, str]:
    """Every template, from its file or the packaged copy, each carrying its subject."""
    prompts = {}
    for name in defaults.PROMPT_NAMES:
        subject = _PROMPT_SUBJECTS[name]
        prompts[name] = defaults.load_prompt(name, files.get(name))
        if subject not in prompts[name]:
            where = files.get(name, "the packaged template")
            raise ConfigError(f"prompts.{name}: {where} lacks the placeholder {subject}")
    return prompts


def load_config(path: str, cache_dir_override: Optional[str] = None) -> RunConfig:
    """Load and validate a YAML run configuration."""
    with open(_require_file(path, "config file"), encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    base_dir = os.path.dirname(os.path.abspath(path))

    def file_at(what: str) -> Callable[[object], str]:
        # A relative path resolves against the config file's directory.
        return lambda value: _require_file(os.path.join(base_dir, str(value)), what)

    prompt_keys = {name: file_at(f"prompt template {name}") for name in defaults.PROMPT_NAMES}
    root = _read(
        "config root",
        raw,
        {
            "backends": _read_backends,
            "generation": lambda value: GenConfig(**_read("generation", value, _GENERATION_KEYS)),
            "prompts": lambda value: _read("prompts", value, prompt_keys),
            "category_file": file_at("category file"),
            "rules_file": file_at("rules file"),
            "overrides_file": file_at("overrides file"),
            "cache_dir": lambda value: os.path.join(base_dir, str(value)),
            "seed": _int,
            "concurrency": _count,
            "questions_per_doc": _count,
        },
    )
    backends, generators = root.pop("backends", ({}, []))
    cache_dir = root.pop("cache_dir", None)
    if cache_dir_override is not None:  # from the command line, so relative to the CWD
        cache_dir = cache_dir_override
    return RunConfig(
        backends=backends,
        generators=generators,
        gen_config=root.pop("generation", GenConfig()),
        category_set=defaults.load_category_set(root.pop("category_file", None)),
        rules=load_filter_rules(root.pop("rules_file", None)),
        overrides=load_overrides(root.pop("overrides_file", None)),
        prompts=_read_prompts(root.pop("prompts", {})),
        cache_dir=cache_dir,
        **root,  # seed, concurrency, questions_per_doc
    )
