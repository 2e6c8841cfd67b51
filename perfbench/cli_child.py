"""One traced `modequiv check` call, for the traced runs of cli-cold.

Usage: cli_child.py <trace-out.json> <modequiv arguments...>

Times the package import, installs the span wrappers, runs the CLI's `main`
on the remaining arguments and writes the spans and counts to the given file.
The exit code is the CLI's.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import modequiv.cli

    import_s = time.perf_counter() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    rc = modequiv.cli.main(argv)
    sys.stdout.flush()
    Path(out).write_text(json.dumps({
        "import_s": import_s,
        "calls": tracer.calls,
        "self_time": tracer.self_time,
        "counts": tracer.counts,
    }))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
