"""Record ``references.json`` from the program as it is checked out.

    python3 perfbench/record_references.py

Run from the repository root, only on a commit whose outputs are known
to be right: every later benchmark run is checked against this file.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "src")

import afbm.cli as cli  # noqa: E402
from child import REFERENCES, observe_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    references = {}
    with tempfile.TemporaryDirectory(dir=".") as work:
        for name, workload in WORKLOADS.items():
            seen = observe_reference(workload, cli, Path(work) / name)
            for label, (problems, _) in seen.items():
                if problems:
                    sys.exit(f"{name}/{label}: {problems}")
            references[name] = {label: observation
                                for label, (_, observation) in seen.items()}
    REFERENCES.write_text(json.dumps(references, indent=1) + "\n")


if __name__ == "__main__":
    main()
