"""Rewrite ``manifest.json`` beside this file: run every case of
``tests/test_golden.py`` in-process and record its exit code, JSON document
and stderr.

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
    entries = [{"argv": list(argv), "plant": plant, **test_golden.run(argv, plant)}
               for argv, plant in test_golden.CASES]
    text = json.dumps(entries, indent=1, sort_keys=True, ensure_ascii=False)
    test_golden.MANIFEST.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
