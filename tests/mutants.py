"""Named mutants: each must fail tier-1, or be listed as equivalent with a reason.

Run from the root of a checkout (stdlib only; pytest and Hypothesis as for tier-1):

    python3 tests/mutants.py               # every mutant in MUTANTS
    python3 tests/mutants.py --self-test   # the runner's own check, on planted mutants

Each mutant replaces one exact text, which must occur exactly once in its file,
in a fresh temporary copy of the checkout. Tier-1 then runs in that copy with
``-x``, a fixed Hypothesis seed, the ``mutants`` Hypothesis profile (no shrinking
of a failing example) and the wall-time envelope test deselected. A failing
test that measures wall time or ``tracemalloc`` is not a kill: it is
deselected too and the run repeated. A tier-1 run that takes longer than
``TIER1_TIMEOUT_S``, many times a full run, is a hang the mutant caused,
and a kill. The command exits non-zero if a mutant survives that
``EQUIVALENT`` does not list, or if a mutant's text is not found.
It is not part of tier-1: a killed mutant costs a run up to its first failure,
a survivor a full tier-1 run.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# sync_to_counter's body up to its count: a mutant moves the count above it, before the range check.
_SYNC_BODY = """now, top, slack = self._now, self._event_top[0], self._slack
        jump = top - now if top > now else 0
        d = jump + slack if self._longest is None else (jump if jump > slack else slack)
        if jump > MU_MAX or not self._lo <= now + d <= self._hi:
            _checked_mu(jump, "at_mu")
            self.delay_mu(d)  # raises: the end is outside the window
        if self._longest is None:
            self._now = now + d
        elif d > self._longest:
            self._longest = d
"""

# (name, file, text, replacement)
MUTANTS = [
    ("edges-end-on-window-high", "src/rtsim/devices.py", "if t_off > time._hi:", "if t_off >= time._hi:"),
    ("edges-longest-tie", "src/rtsim/devices.py", "elif duration_mu > longest:", "elif duration_mu >= longest:"),
    ("dds-set-accepts-inf", "src/rtsim/devices.py", "0.0 <= freq < _INF", "0.0 <= freq <= _INF"),
    ("delay-duration-excludes-mu-max", "src/rtsim/timeline.py",
     "if not MU_MIN <= d <= MU_MAX:", "if not MU_MIN <= d < MU_MAX:"),
    # The five survivors of the comparison-operator sweep, each since pinned by a test.
    ("pulse-excludes-mu-max", "src/rtsim/devices.py", '<= MU_MAX:\n            _bad_duration("pulse_mu"',
     '< MU_MAX:\n            _bad_duration("pulse_mu"'),
    ("gate-excludes-mu-max", "src/rtsim/devices.py", '<= MU_MAX:\n            _bad_duration("gate_rising_mu"',
     '< MU_MAX:\n            _bad_duration("gate_rising_mu"'),
    ("count-saturates-past-2-63", "src/rtsim/devices.py",
     "count if count < 2**63 else", "count if count <= 2**63 else"),
    ("bernoulli-draws-at-p-0", "src/rtsim/rng.py", "if p <= 0.0:", "if p < 0.0:"),
    ("bernoulli-draws-at-p-1", "src/rtsim/rng.py", "if p >= 1.0:", "if p > 1.0:"),
    ("bernoulli-returns-bool", "src/rtsim/rng.py", "return 1 if self.random() < p else 0", "return self.random() < p"),
    # A uniform equal to a kept sum s_k counts k; an enqueue puts the sample its get consumed back in front.
    ("poisson-table-bisect-right", "src/rtsim/rng.py", "return bisect_left(tables[mean], self.random())",
     'return __import__("bisect").bisect_right(tables[mean], self.random())'),
    ("sampler-enqueues-at-back", "src/rtsim/devices.py", "self.buffer.appendleft(self.sample_get())",
     "self.buffer.append(self.sample_get())"),
    # A driver that stores a wrong but valid time or count.
    ("pulse-falling-edge-at-cursor", "src/rtsim/devices.py", "times.append(t_off)", "times.append(time._now)"),
    ("gate-count-off-by-one", "src/rtsim/devices.py", "self.buffer.append(count if count",
     "self.buffer.append(count + 1 if count"),
    ("count-saturation-dropped", "src/rtsim/devices.py",
     "self.buffer.append(count if count < 2**63 else 2**63 - 1)", "self.buffer.append(count)"),
    # A sampler with a sample delay reads its input at the cursor, not at the delay's end.
    ("ttl-in-reads-at-delay-end", "src/rtsim/devices.py", "bisect_right(self.prob._times, cursor)",
     "bisect_right(self.prob._times, cursor + self._sample_delay_mu)"),
    ("adc-reads-at-delay-end", "src/rtsim/devices.py", "bisect_right(sig._times, cursor)",
     "bisect_right(sig._times, cursor + self._sample_delay_mu)"),
    # The drivers' in-place appends and reads.
    ("edges-append-on-last-edge", "src/rtsim/devices.py", "t_on > times[-1]", "t_on >= times[-1]"),
    ("dds-append-unchecked-amp", "src/rtsim/devices.py", " and cursor > at[-1]", ""),
    ("edges-horizon-at-t-on", "src/rtsim/devices.py", "top[0] = t_off", "top[0] = t_on"),
    # bisect_left, written as bisect_right one MU earlier: the times are ints.
    ("adc-read-excludes-cursor", "src/rtsim/devices.py", "bisect_right(sig._times, cursor)",
     "bisect_right(sig._times, cursor - 1)"),
    # Frame windows and the sync.
    ("sync-jump-unchecked", "src/rtsim/timeline.py", "if jump > MU_MAX or not self._lo", "if not self._lo"),
    ("exit-keeps-window", "src/rtsim/timeline.py",
     "time._start, time._longest, time._lo, time._hi = time._enclosing.pop()",
     "time._start, time._longest, _, _ = time._enclosing.pop()"),
    ("enter-lo-clip", "src/rtsim/timeline.py", "if start + MU_MIN > time._lo:", "if start + MU_MIN < time._lo:"),
    ("enter-hi-clip", "src/rtsim/timeline.py", "if start + MU_MAX < time._hi:", "if start + MU_MAX > time._hi:"),
    ("delay-window-lo-open", "src/rtsim/timeline.py", "if not self._lo <= now <= self._hi:",
     "if not self._lo < now <= self._hi:"),
    ("sync-par-slack-sum", "src/rtsim/timeline.py",
     "d = jump + slack if self._longest is None else (jump if jump > slack else slack)", "d = jump + slack"),
    ("exit-par-start", "src/rtsim/timeline.py", "time._now = start\n", "time._now = start + duration\n"),
    ("sync-count-before-check", "src/rtsim/timeline.py", _SYNC_BODY + "        self.sync_count += 1\n",
     "self.sync_count += 1\n        " + _SYNC_BODY),
    # The event store and the value validators.
    ("text-size-off-by-one", "src/rtsim/signals.py", "    if size > MAX_TEXT_BYTES:",
     "    if size > MAX_TEXT_BYTES + 1:"),
    ("put-insert-bisect-right", "src/rtsim/signals.py", "idx = bisect_left(times, time)",
     "idx = bisect_right(times, time)"),
    ("events-in-excludes-t1", "src/rtsim/signals.py", "hi = bisect_right(times, t1, lo)",
     "hi = bisect_left(times, t1, lo)"),
    # The testkit's queries.
    ("nearest-before-excludes-time", "src/rtsim/testkit.py", "i = bisect_right(times, time)",
     "i = bisect_right(times, time - 1)"),
    ("expect-tolerance-strict", "src/rtsim/testkit.py", "<= abs_tol", "< abs_tol"),
    # The exports and the JSONL reader.
    ("records-rank-by-registration", "src/rtsim/trace.py", "enumerate(sorted(run.signals, key=_BY_NAME))",
     "enumerate(run.signals)"),
    ("read-plain-ignores-escape", "src/rtsim/trace.py", '"\\\\" not in part and ', ""),
    ("read-real-as-int", "src/rtsim/trace.py", "float(real)", "int(float(real))"),
    ("read-time-stale", "src/rtsim/trace.py", "if time_mu != last_text:", "if last_text is None:"),
]

# name -> why the mutant cannot change what any caller sees
EQUIVALENT = {
    "edges-longest-tie": "on a tie the parallel frame's longest delay is set to the value it already holds",
}

ENVELOPE_TEST = "tests/test_acceptance.py::test_criterion_7_performance_envelope"
TIER1_TIMEOUT_S = 900
BOUND_WORDS = re.compile(r"tracemalloc|perf_counter|monotonic|time\.time")


def _test_source(node_id: str, root: Path) -> str:
    """Source of the test function that ``node_id`` (``path::[Class::]name[params]``) names, or ''."""
    path, *names = node_id.split("::")
    if not names:
        return ""
    names[-1] = names[-1].split("[")[0]
    try:
        text = (root / path).read_text()
    except OSError:
        return ""
    scope = ast.parse(text).body
    for name in names:
        found = [node for node in scope if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return ""
        node, scope = found[0], found[0].body
    return ast.get_source_segment(text, node) or ""


def _is_bound_test(node_id: str, root: Path) -> bool:
    return bool(BOUND_WORDS.search(_test_source(node_id, root)))


def _tier1(root: Path, deselect: list[str]) -> tuple[str, list[str]]:
    """Run tier-1 in ``root``; return ("pass" | "fail" | "timeout", the failed or errored node ids)."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", "--hypothesis-seed=0",
           "--hypothesis-profile=mutants", *(f"--deselect={node}" for node in deselect)]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=TIER1_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", []
    if done.returncode == 0:
        return "pass", []
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "fail", failed or [f"exit status {done.returncode}"]


def run_mutant(path: str, text: str, new: str) -> tuple[str, str]:
    """Apply one mutant to a fresh copy and run tier-1; return (verdict, detail).

    The verdict is "killed", "survived" or "error" (the text is not found exactly once).
    """
    with tempfile.TemporaryDirectory(prefix="rtsim-mutant-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-out"))
        target = root / path
        source = target.read_text()
        if source.count(text) != 1:
            return "error", f"text found {source.count(text)} times in {path}: {text!r}"
        target.write_text(source.replace(text, new))
        deselect = [ENVELOPE_TEST]
        while True:
            outcome, failed = _tier1(root, deselect)
            if outcome == "pass":
                return "survived", ""
            if outcome == "timeout":
                return "killed", f"tier-1 ran past {TIER1_TIMEOUT_S} s"
            bounds = [node for node in failed if _is_bound_test(node, root) and node not in deselect]
            if len(bounds) < len(failed):
                return "killed", ", ".join(node for node in failed if node not in bounds)
            deselect += bounds  # a time or memory bound failed: not a kill, run the rest


def score(results: dict, equivalent: dict, out=print) -> bool:
    """Print each verdict and the score; return True iff every survivor is listed as equivalent."""
    counts = {"killed": 0, "equivalent": 0, "survived": 0, "error": 0}
    for name, (verdict, detail) in results.items():
        if verdict == "survived" and name in equivalent:
            verdict, detail = "equivalent", equivalent[name]
        counts[verdict] += 1
        out(f"{name}: {verdict.upper()}{': ' + detail if detail else ''}")
    out(f"{len(results)} mutants: {counts['killed']} killed, {counts['equivalent']} equivalent, "
        f"{counts['survived']} survived, {counts['error']} not applied")
    return counts["survived"] == counts["error"] == 0


def self_test() -> bool:
    """Plant a killed, an equivalent and an unapplicable mutant; check each verdict and the exit rule."""
    planted = [
        ("planted-killed", "src/rtsim/timeline.py", "MU_MAX = 2**63 - 1\n", "MU_MAX = 2**63 - 2\n"),
        ("planted-equivalent", "src/rtsim/timeline.py", "REGULAR_SYNC_SLACK_MU = 125_000\n",
         "REGULAR_SYNC_SLACK_MU = 125000\n"),
        ("planted-missing", "src/rtsim/timeline.py", "no such text", ""),
    ]
    results = {name: run_mutant(*mutant) for name, *mutant in planted}
    verdicts = {name: verdict for name, (verdict, _) in results.items()}
    print(verdicts)
    listed = {"planted-equivalent": "the same int literal"}
    checks = {
        "verdicts": verdicts == {"planted-killed": "killed", "planted-equivalent": "survived",
                                 "planted-missing": "error"},
        "a listed survivor passes": score({k: results[k] for k in ("planted-killed", "planted-equivalent")}, listed),
        "an unlisted survivor fails": not score({"planted-equivalent": results["planted-equivalent"]}, {}),
        "a text not found fails": not score({"planted-missing": results["planted-missing"]}, {}),
        "bound tests recognised": _is_bound_test(ENVELOPE_TEST, ROOT)
        and not _is_bound_test("tests/test_timeline.py::TestNowAndDelay::test_delay_advances_cursor", ROOT),
    }
    for check, ok in checks.items():
        print(f"self-test {'ok' if ok else 'FAILED'}: {check}")
    return all(checks.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--self-test", action="store_true", help="check the runner on planted mutants")
    args = parser.parse_args(argv)
    if args.self_test:
        return 0 if self_test() else 1
    results = {}
    for name, *mutant in MUTANTS:
        results[name] = run_mutant(*mutant)
        print(f"{name}: {results[name][0]}", flush=True)
    print()
    return 0 if score(results, EQUIVALENT) else 1


if __name__ == "__main__":
    sys.exit(main())
