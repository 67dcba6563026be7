"""The data files shipped inside the package, read once at import.

PROMPTS holds the five packaged prompt templates, ABBREVIATIONS the
abbreviations that never end a sentence, and NONCOMMITTAL_PHRASES the
refusal phrases that mark a response noncommittal. Prompt templates,
filter rules, categories and review overrides are configurable:
config.RunConfig resolves them once per run, falling back to the
packaged copies, and each function that fills a template takes its
text, with the packaged one as the default. Abbreviations and refusal
phrases are fixed; to port DAHL to another domain, edit the files under
src/dahl/data/.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import List, Optional

from .records import read_lines
from .types import CategorySet

# The placeholder that carries what one call of each template is about. Without it every
# call sends the same prompt; {title}, {n} and {labels} may be hard-coded instead.
PROMPT_SUBJECTS = {
    "question_generation": "{body}",
    "response_generation": "{question}",
    "splitter": "{response}",
    "checker": "{unit}",
    "categorizer": "{question}",
}
PROMPT_NAMES = tuple(PROMPT_SUBJECTS)


@lru_cache(maxsize=None)
def read_data_text(name: str) -> str:
    return resources.files("dahl.data").joinpath(name).read_text(encoding="utf-8")


def read_file_or_data(path: Optional[str], packaged_name: str) -> str:
    """The text of path, or of the packaged data file when path is None."""
    return read_data_text(packaged_name) if path is None else "".join(read_lines(path))


def parse_line_file(text: str) -> List[str]:
    """Non-blank, non-comment lines, stripped, order preserved."""
    lines = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def load_category_set(path: Optional[str] = None) -> CategorySet:
    labels = parse_line_file(read_file_or_data(path, "categories.txt"))
    return CategorySet(labels=tuple(labels))


def load_prompt(name: str, path: Optional[str] = None) -> str:
    if name not in PROMPT_NAMES:
        raise ValueError(f"unknown prompt template {name!r}, expected one of {PROMPT_NAMES}")
    return read_file_or_data(path, f"prompts/{name}.txt")


def missing_subject(name: str, template: str) -> Optional[str]:
    """The subject placeholder of prompt name that template lacks, else None."""
    subject = PROMPT_SUBJECTS[name]
    return None if subject in template else subject


def fill_template(template: str, **values: str) -> str:
    """Substitute {name} placeholders literally.

    Plain replacement instead of str.format so user-edited templates may
    contain braces without escaping them.
    """
    for key, value in values.items():
        template = template.replace("{" + key + "}", str(value))
    return template


PROMPTS = MappingProxyType({name: load_prompt(name) for name in PROMPT_NAMES})
ABBREVIATIONS = frozenset(parse_line_file(read_data_text("abbreviations.txt")))
NONCOMMITTAL_PHRASES = tuple(parse_line_file(read_data_text("noncommittal_phrases.txt")))
