#!/usr/bin/env python3
"""Regenerate e2ebench/expected.json from the current code.

The benchmark checks every answer against this file, so re-record only in a
change that means to alter results, and say so in that change:

    PYTHONPATH=src python3 e2ebench/record.py
"""

import json
import tempfile

import workloads


def main():
    with tempfile.TemporaryDirectory() as tmp:
        expected = {
            "survey": workloads.Survey.record(tmp),
            "chi_hard": workloads.ChiHard.record(),
            "patterns": workloads.Patterns.record(),
            "catalog": workloads.Catalog.record(),
        }
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH}: {len(expected['catalog']['known_defects'])} known catalog defects")


if __name__ == "__main__":
    main()
