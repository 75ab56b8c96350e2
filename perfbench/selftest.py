"""Self-test of the benchmark at smoke size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that

* every workload prints every end-to-end metric of ``BENCHMARK.json``
  with its unit and sample count, and passes its output checks;
* every traced workload prints every per-layer metric;
* a deliberately corrupted output — one permuted label, one stale
  snapshot served after a publish — is caught and counted as failed;
* without the ``repro`` sources next to it the benchmark exits non-zero
  and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    # Every traced function resolves at this version of the program; a
    # later rename shows here (and in the traced run's printed list).
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import tracing

    rec = tracing.SpanRecorder()
    rec.install()
    rec.uninstall()
    expect(not rec.missing,
           f"every traced function is wrapped (not wrapped: {rec.missing})")

    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for name in names:
            proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--smoke")
            if proc.returncode != 0:
                expect(False, f"{name} trace={trace}: exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-300:]}")
                continue
            res = _result(proc)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{name} trace={trace}: output checks pass")
            got = res["metrics"]
            missing = [m["name"] for m in metrics
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            expect(not missing and set(got) == {m["name"] for m in metrics},
                   f"{name} trace={trace}: exactly the listed metrics, with units "
                   f"(missing or wrong: {missing})")
            lines = proc.stdout.splitlines()
            unlabelled = [m["name"] for m in metrics
                          if not any(ln.startswith(m["name"] + " ") and "samples=" in ln
                                     for ln in lines)]
            expect(not unlabelled, f"{name} trace={trace}: sample counts printed "
                                   f"(missing: {unlabelled})")
            if trace == 0:
                zero = [k for k, v in got.items() if v["value"] == 0]
                expect(not zero, f"{name}: no end-to-end metric reads 0 ({zero})")

    for name in names:
        for inject in ("permuted-label", "stale-snapshot"):
            proc = _run(ROOT, "--workload", name, "--seed", "4", "--seconds", "1",
                        "--trace", "0", "--smoke", "--inject", inject)
            res = _result(proc) if proc.returncode == 0 else {}
            expect(res.get("failed", 0) >= 1 and res.get("correct") is False,
                   f"{name}: injected {inject} is caught and counted "
                   f"(failed={res.get('failed')})")

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "--workload", names[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"without the sources: exit {proc.returncode}, no result printed")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
