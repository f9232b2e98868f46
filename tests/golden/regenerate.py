"""Rewrite ``manifest.json`` beside this file: run every case of
``tests/test_golden.py`` in-process and record its exit code, JSON document
and stderr.  A residual field whose stored and fresh values both pass the
corpus's bound keeps its stored value (``test_golden.merged``), so an
unchanged program regenerates an unchanged manifest on any BLAS build.

    python tests/golden/regenerate.py

Run it from anywhere; it imports ``src/dctcsim`` and ``tests/test_golden.py``
from this checkout and writes only the manifest.
"""

import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import test_golden  # noqa: E402  (needs the paths above)


def main():
    stored = {}
    if test_golden.MANIFEST.exists():
        stored = {test_golden.case_id(entry["argv"], entry["plant"]): entry["document"]
                  for entry in json.loads(test_golden.MANIFEST.read_text(encoding="utf-8"))}
    entries = []
    for argv, plant in test_golden.CASES:
        entry = {"argv": list(argv), "plant": plant, **test_golden.run(argv, plant)}
        old = stored.get(test_golden.case_id(argv, plant))
        if entry["document"] is not None and old is not None:
            entry["document"] = test_golden.merged(
                entry["document"], old, entry["document"]["parameters"]["tolerance"])
        entries.append(entry)
    text = json.dumps(entries, indent=1, sort_keys=True, ensure_ascii=False)
    test_golden.MANIFEST.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
