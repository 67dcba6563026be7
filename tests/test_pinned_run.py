"""The bytes of one offline mock run, pinned by their sha256.

Twenty fixed questions go through run_evaluation over the dahl.mocks
behaviours. A change to anything a run writes (record layout, cleanup,
splitting, verdict parsing, scoring, report formatting or the manifest)
changes a digest here. Update PINNED only with a change meant to alter
the output, and record why.

The module imports neither pytest nor yaml nor requests, so an
interpreter without them can check the digests by hand; from the
repository root this prints True:

    PYTHONPATH=src:tests python -c "import tempfile, test_pinned_run as t;
    print(t.digests(tempfile.mkdtemp()) == t.PINNED)"
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from dahl.backends import MockBackend
from dahl.mocks import get_behavior
from dahl.pipeline import run_evaluation
from dahl.score import REPORT_FILES
from dahl.types import GenConfig, Question

CATEGORIES = ("Cardiology", "Dermatology", "Medicine", "Surgery")
SUBJECTS = ("gout", "iron deficiency", "atrial fibrillation", "migraine", "psoriasis")
QUESTIONS = [
    Question(
        question_id=f"pin-{i:02d}",
        text=f"What is the first-line management of {SUBJECTS[i % 5]} in case {i}?",
        category=CATEGORIES[i % 4],
        source_doc_id=f"doc-{i // 5}",
    )
    for i in range(20)
]

# Python 3.12 made sum() over floats compensated, so an average in the report can differ in
# its last digit from the one 3.10 and 3.11 write; those two digests depend on the version.
_COMPENSATED_SUM = sys.version_info >= (3, 12)
PINNED = {
    "records.jsonl": "5af62ee2f32c190b1800f1a02b095d4e167ea038dd3ed003a49a68639a0efde6",
    "report.json": (
        "72f6072d9924fb6dc716a753ab930033cc1ad329324f37c9f8891916f38d4366"
        if _COMPENSATED_SUM
        else "16f85561dea15af34a22a6fc5e2e40caa688b720a066981936040df299201313"
    ),
    "report.csv": (
        "186f9a1f3d7d4d2eff980197c7d76cedc928c3496ef1eb42605d49b60b9b9d93"
        if _COMPENSATED_SUM
        else "8633576c4b7e0296c270e4eba0b6d94bb32206efc1f8b0f383c3a988f63f8fae"
    ),
    "report.md": "c588640edb35de055211517d74292a3b91228d90c81db0f301742d667a961e6d",
    "run_manifest.json": "ba25bff89e0f23d66854d7b0ec56454162fd844c7fef711914f831a547bfe68f",
}


def digests(out_dir: str) -> dict:
    """Run the pinned evaluation into out_dir; the sha256 of each file PINNED names."""
    roles = ("generator", "splitter", "checker")
    backends = [
        MockBackend(default=get_behavior(r), backend_id=r, model=f"mock-{r}") for r in roles
    ]
    run_evaluation(
        QUESTIONS,
        out_dir,
        *backends,
        GenConfig(temperature=0.5, max_tokens=512, seed=7),
        concurrency=4,
    )
    return {name: hashlib.sha256(Path(out_dir, name).read_bytes()).hexdigest() for name in PINNED}


def test_a_mock_run_writes_the_pinned_bytes(tmp_path):
    assert set(PINNED) == {"records.jsonl", "run_manifest.json", *REPORT_FILES}
    assert digests(str(tmp_path)) == PINNED
