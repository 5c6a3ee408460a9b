"""Does the tier-1 suite catch the defects this project has already had?

    python3 tools/mutants.py

:data:`CATALOG` holds one ``(file, old, new, why)`` patch per mutant: the
defect CHANGES.md records a change mending (or a protocol slip no change
has made yet), written back into the source.  For each mutant the script
copies the repository (without ``.git``) into one temporary directory,
writes the patched file there — never into the working tree — runs the
tier-1 suite with ``-x`` there (all of it but the catalog test, which
every patch breaks) and prints ``killed`` with the first failing test
id, ``hung`` with the test that never finished, or ``survived``.  The
copy's file is restored before the next mutant.  It exits 1 while any
mutant survives.  A full pass takes about ten minutes on two cores: a
survivor runs the whole suite.

``tests/test_mutants_catalog.py`` checks, without running anything, that
every ``old`` still occurs exactly once in its file, so a refactor that
moves the code a mutant patches fails there until the entry is updated.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-mutant budget (seconds) for one tier-1 run, several times what a
#: passing run takes: a mutant that makes a run loop forever (QD that
#: never fires) is reported as ``hung`` with the test it hung in.
TIMEOUT = 300

#: ``(file under the repository root, old, new, why)``.  A literal, so the
#: catalog test can read it with ``ast`` instead of importing this file.
CATALOG = [
    ("src/repro/faults/models.py",
     "        kernel.pes[env.src_pe].retries += 1\n",
     "        kernel.pes[env.src_pe].retries += 1\n"
     "        kernel.pes[env.src_pe].counted_sent += 1\n",
     "PR 13: a retransmission counted as a new send, so quiescence "
     "counted sent > processed forever"),
    ("src/repro/sharing/manager.py",
     "        if key in self._contributed:\n",
     "        if False:\n",
     "PR 32: a branch contributing twice to one reduction was folded twice"),
    ("src/repro/sharing/manager.py",
     "            kernel.pes[pe].enqueue(held)\n",
     "            pass\n",
     "PR 34: branch messages held until their branch exists were never "
     "re-enqueued"),
    ("src/repro/core/kernel.py",
     "            ok = 0.0 <= units < _INF and type(units) is not bool\n",
     "            ok = not units < 0.0 and type(units) is not bool\n",
     "PR 35: charge(nan) and charge(inf) passed the work-unit check"),
    ("src/repro/util/hashing.py",
     "        # land on one shard.\n"
     "        h.update(b\"F\")\n"
     "        h.update((obj or 0.0).hex().encode())\n",
     "        # land on one shard.\n"
     "        h.update(b\"F\")\n"
     "        h.update(obj.hex().encode())\n",
     "PR 43: the equal table keys 0.0 and -0.0 hashed to different home PEs"),
    ("src/repro/sharing/manager.py",
     "        combiner(op)  # a bad op fails here, not at the first fold\n",
     "",
     "PR 42: an unknown contribute op was never checked at P = 1, where "
     "nothing folds"),
    ("src/repro/core/objects.py",
     "        if issubclass(cls, BranchOfficeChare):\n",
     "        if False:\n",
     "PR 41: a branch-office chare was accepted as a main chare and built "
     "as one plain chare"),
    ("src/repro/faults/models.py",
     "            if uid in self._seen:\n",
     "            if False:\n",
     "protocol: receive-side dedup off, so a duplicated or retransmitted "
     "message executes twice"),
    ("src/repro/faults/models.py",
     "                if uid in self._pending:\n"
     "                    self._send_ack(env)\n"
     "                return\n",
     "                return\n",
     "protocol: a suppressed duplicate is not re-acked, so a sender whose "
     "ack was lost retransmits until it gives up"),
    ("src/repro/util/priority.py",
     "        return (_NUMERIC, priority)\n",
     "        return (_NUMERIC, -priority)\n",
     "protocol: the priority compare reversed, largest number served first"),
    ("src/repro/core/tree.py",
     "    return [c for c in range(lo, min(lo + _ARITY, num_pes))]\n",
     "    return [c for c in range(lo, min(lo + _ARITY - 1, num_pes))]\n",
     "protocol: the rank tree drops each node's second child, so waves, "
     "broadcasts and reductions miss whole subtrees"),
    ("src/repro/sharing/manager.py",
     "                self._flood(name, pe, exclude=src)\n",
     "                pass\n",
     "protocol: a monotonic update is applied but not relayed, so it "
     "reaches only the updating PE's tree neighbours"),
    ("src/repro/quiescence/detector.py",
     "        if stable and self._prev_totals == (sent, processed):\n",
     "        if stable:\n",
     "protocol: quiescence declared on the first stable wave, without the "
     "second wave that rules out sampling skew"),
    ("src/repro/bench/harness.py",
     "    missing = tuple((k, v) for k, v in params.items() if k not in own)\n",
     "    missing = tuple((k, v) for k, v in params.items()\n"
     "                    if own.get(k) is None)\n",
     "recorded defect: a tracing sweep traced S6's scale arm, whose "
     "descriptor states trace_events=None"),
    ("src/repro/core/objects.py",
     "        if not retires:\n"
     "            self.placement[gid] = pe\n",
     "        self.placement[gid] = pe\n",
     "recorded defect: a seed of a class with no entry method kept a "
     "placement record, so a send to it was held instead of refused"),
    ("src/repro/faults/models.py",
     "            if uid in self._pending:\n"
     "                self._send_ack(env)\n"
     "        self._arrive(env)\n",
     "        self._arrive(env)\n",
     "protocol: the first copy of a tracked message is never acked, so "
     "every reliable send is retransmitted at least once"),
    ("src/repro/faults/models.py",
     "            self._seen.add(uid)\n",
     "            self._seen.add(uid + 1)\n",
     "protocol: dedup keyed off by one, so a duplicate runs twice and the "
     "next uid's first copy is suppressed"),
    ("src/repro/core/kernel.py",
     "        dst = self._resolve(target, f\"service reply {entry_name!r}\")\n",
     "        dst = self.objects.placement.get(getattr(target, \"gid\", None))\n",
     "PR 30: a service reply to a dead or unknown handle was parked in the "
     "held-send buffer forever instead of raising RoutingError"),
    ("src/repro/core/kernel.py",
     "        nbytes = env.nbytes\n",
     "        from repro.core.messages import HEADER_BYTES\n"
     "        from repro.util.sizing import payload_nbytes\n"
     "        nbytes = env.nbytes = HEADER_BYTES + payload_nbytes(env.args) + (\n"
     "            len(env.chare_cls.__name__) if env.kind == _SEED else 0)\n",
     "PR 35: an envelope was sized at delivery, after its sender had "
     "mutated the payload, instead of at the send"),
]

#: The tier-1 run inside the copy.  Verbose, so a hung run's output names
#: the test it hung in.  The catalog test is left out: it fails on every
#: patched ``old`` text, so with it in the run every mutant would read
#: ``killed`` by that test instead of by (or despite) the suite.
PYTEST_ARGS = ["-m", "pytest", "-x", "-v", "-o", "addopts=",
               "-p", "no:cacheprovider",
               "--ignore=tests/test_mutants_catalog.py"]

_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)
_STARTED = re.compile(r"^(tests/\S+::\S+)", re.M)


def run_mutant(copy: str, path: str, old: str, new: str) -> tuple:
    """Patch ``path`` inside ``copy``, run tier-1 there, restore the file;
    return ``(verdict, first failing test id or "")``."""
    target = os.path.join(copy, path)
    with open(target, encoding="utf-8") as fh:
        original = fh.read()
    if original.count(old) != 1:
        return "stale", f"old text occurs {original.count(old)} times"
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(original.replace(old, new))
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
               PYTHONUNBUFFERED="1")
    try:
        proc = subprocess.run(
            [sys.executable, *PYTEST_ARGS], cwd=copy, env=env,
            capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or b""
        started = _STARTED.findall(out.decode() if isinstance(out, bytes)
                                   else out)
        return "hung", started[-1] if started else f"over {TIMEOUT}s"
    finally:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(original)
    if proc.returncode == 0:
        return "survived", ""
    found = _FIRST_FAILURE.search(proc.stdout)
    return "killed", found.group(1) if found else f"exit {proc.returncode}"


def main() -> int:
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".bench_cache", "*.egg-info"))
        for n, (path, old, new, why) in enumerate(CATALOG, start=1):
            started = time.perf_counter()
            verdict, detail = run_mutant(copy, path, old, new)
            survivors += verdict not in ("killed", "hung")
            print(f"{n:2d}  {verdict:8s}  {time.perf_counter() - started:6.1f} s"
                  f"  {path}  {why}" + (f"\n      {detail}" if detail else ""),
                  flush=True)
    print(f"{len(CATALOG) - survivors} of {len(CATALOG)} mutants killed "
          "or hung")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
