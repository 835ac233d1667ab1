"""Run one `voterlim` CLI call with span recording and write its spans.

    python traced_cli.py SPANS_JSON JOB_ID <voterlim arguments...>

The wrappers go in after `voterlim.cli` is imported and before
`voterlim.cli.main` runs; the exit code is the CLI's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main(argv: list[str]) -> int:
    spans_path, job, cli_args = argv[0], argv[1], argv[2:]
    import voterlim.cli

    recorder = spans.Recorder(job)
    installed = spans.install(recorder)
    try:
        return voterlim.cli.main(cli_args)
    finally:
        installed.restore()
        Path(spans_path).write_text(
            json.dumps({"missing": installed.missing, "spans": recorder.to_json()})
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
