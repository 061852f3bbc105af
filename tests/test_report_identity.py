"""Report bytes are pinned: the default suite at small sizes reproduces a fixture.

Speed-ups of the simulator are meant to be exact, so every
``McReport.to_dict()`` of the default verification matrix must equal the
stored one field for field, floats bit for bit.  A change that alters
the reports a seed produces must say so and regenerate the fixture with

    PYTHONPATH=src python tests/test_report_identity.py
"""

import json
import os
import sys

from matconc.simulator import run_default_suite

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "report_identity_seed101.json")
SIZES = {"dims": (1, 2, 5), "trials_fixed": 10000, "trials_path": 512, "horizon": 150}
SEED = 101


def _reports() -> list[dict]:
    reports = run_default_suite(**SIZES, workers=1, base_seed=SEED)
    # through JSON, as the CLI writes them: tuples become lists
    return json.loads(json.dumps([r.to_dict() for r in reports]))


def test_default_suite_reports_match_fixture():
    with open(FIXTURE) as fh:
        expected = json.load(fh)
    got = _reports()
    assert len(got) == len(expected)
    for rep, exp in zip(got, expected):
        assert rep == exp, rep["name"]


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(_reports(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
