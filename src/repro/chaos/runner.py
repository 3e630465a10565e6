"""The chaos driver: crash a real run, recover it, prove nothing changed.

:class:`ChaosRunner` executes one crash scenario end to end against the
actual CLI in child processes:

1. run ``seacma run --store-dir`` with one :class:`CrashDirective` armed
   through the ``SEACMA_CRASH_*`` environment — the child dies at the
   scheduled point (or survives it, when the point is a worker-internal
   one the executor recovers in-process);
2. recover: ``seacma resume`` the store; if the crash predates even the
   run's identity record the store is unusable and recovery falls back
   to a fresh ``seacma run`` into the same directory (same preset/seed,
   so the same derived run id);
3. compare the recovered store against a cached uninterrupted reference
   run: every ``*.jsonl`` stream byte-for-byte, the reassembled feed
   (version/hash history plus the latest served payload), and the full
   offline report (``seacma report --from-store``).

Identity bar: the comparison covers the run's *canonical measurement
record* — streams, feed, report.  A per-process telemetry trace is
excluded by design here: a crashed process's trace dies with it, so a
resumed process records the continuation, not a re-run.  The in-process
worker-kill tests (``tests/test_chaos.py``) do assert sim-lane trace
identity, because there the parent process survives the crash.

Crash-phase children are launched in their own session so a hard
``SIGKILL`` scenario cannot leave orphaned shard workers appending to
segment files while the recovery phase runs; the whole process group is
reaped between phases.

Truncate points only execute during recovery (a healthy run never
truncates), so ``recovery_only`` directives run a three-phase scenario:
a priming crash leaves an uncommitted batch intent behind, the armed
resume then crashes inside the rollback, and a final clean
resume completes the run.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.plan import CrashDirective
from repro.chaos import points as _points

_SRC = Path(__file__).resolve().parents[2]
#: Wall-clock limit on one child phase; a hung child is reaped, not waited on.
_PHASE_TIMEOUT_S = 600.0

#: The priming directive for ``recovery_only`` scenarios: die after the
#: second batch's interactions are ingested but before its progress
#: marker commits, leaving an open intent for the next open to roll back.
PRIMER = CrashDirective("checkpoint.persist", occurrence=2, mode="raise")


@dataclass(frozen=True)
class PhaseResult:
    """One child-process phase of a scenario."""

    label: str
    returncode: int
    stderr_tail: str = ""


@dataclass
class ChaosReport:
    """Outcome of one crash scenario."""

    directive: CrashDirective
    #: Whether the armed directive actually fired (claimed its token).
    #: False means the scheduled occurrence lies beyond the run's actual
    #: hit count — the scenario degenerates to an uninterrupted run.
    fired: bool = False
    phases: list[PhaseResult] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        return bool(self.phases) and self.phases[-1].returncode == 0

    @property
    def identical(self) -> bool:
        return self.recovered and not self.mismatches

    def describe(self) -> str:
        phases = ", ".join(
            f"{phase.label}={phase.returncode}" for phase in self.phases
        )
        issues = "; ".join(self.mismatches) or "identical"
        return (
            f"{self.directive.point}:{self.directive.occurrence}"
            f"[{self.directive.mode}] fired={self.fired} "
            f"phases=({phases}) -> {issues}"
        )


class ChaosRunner:
    """Runs crash scenarios for one (seed, workers) configuration of the
    ``tiny`` preset."""

    def __init__(
        self,
        work_dir: str | Path,
        seed: int = 7,
        days: float = 2.0,
        workers: int = 1,
        fsync: bool = False,
    ) -> None:
        # Resolved eagerly: store paths are handed to child processes
        # running with ``cwd=work_dir``, where a relative path would
        # resolve against itself.
        self.work_dir = Path(work_dir).resolve()
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.days = days
        self.workers = workers
        self.fsync = fsync
        self._reference: dict[str, bytes] | None = None

    # ------------------------------------------------------------ phases

    def _common_flags(self) -> list[str]:
        flags = ["--days", str(self.days), "--workers", str(self.workers)]
        if self.fsync:
            flags.append("--fsync")
        return flags

    def _run_args(self, store_dir: Path) -> list[str]:
        return [
            "run",
            "--store-dir",
            str(store_dir),
            "--preset",
            "tiny",
            "--seed",
            str(self.seed),
        ] + self._common_flags()

    def _resume_args(self, store_dir: Path) -> list[str]:
        return ["resume", str(store_dir)] + self._common_flags()

    def _invoke(
        self, cli_args: list[str], extra_env: dict[str, str] | None = None
    ) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        for key in (_points.ENV_POINT, _points.ENV_MODE, _points.ENV_TOKEN):
            env.pop(key, None)  # never leak an armed directive between phases
        env["PYTHONPATH"] = str(_SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        if extra_env:
            env.update(extra_env)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *cli_args],
            env=env,
            cwd=self.work_dir,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=_PHASE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._reap(process.pid)
            stdout, stderr = process.communicate()
        self._reap(process.pid)
        return subprocess.CompletedProcess(
            process.args, process.returncode, stdout, stderr
        )

    @staticmethod
    def _reap(pgid: int) -> None:
        """Kill whatever survives of a phase's process group (orphans)."""
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    @staticmethod
    def _phase(label: str, proc: subprocess.CompletedProcess) -> PhaseResult:
        tail = (proc.stderr or "").strip().splitlines()
        return PhaseResult(label, proc.returncode, tail[-1] if tail else "")

    # --------------------------------------------------------- reference

    def reference(self) -> dict[str, bytes]:
        """The uninterrupted run's fingerprint (computed once, cached)."""
        if self._reference is None:
            store_dir = self.work_dir / "reference"
            shutil.rmtree(store_dir, ignore_errors=True)
            proc = self._invoke(self._run_args(store_dir))
            if proc.returncode != 0:
                raise RuntimeError(
                    f"reference run failed ({proc.returncode}):\n{proc.stderr}"
                )
            self._reference = self._fingerprint(store_dir)
        return self._reference

    def _fingerprint(self, store_dir: Path) -> dict[str, bytes]:
        """Everything recovery must reproduce byte-for-byte."""
        result = {
            f"stream:{path.name}": path.read_bytes()
            for path in sorted(store_dir.glob("*.jsonl"))
        }
        result["feed"] = self._feed_bytes(store_dir)
        report = self._invoke(["report", "--from-store", str(store_dir)])
        if report.returncode != 0:
            raise RuntimeError(
                f"report --from-store failed on {store_dir}:\n{report.stderr}"
            )
        result["report"] = report.stdout.encode("utf-8")
        return result

    def _feed_bytes(self, store_dir: Path) -> bytes:
        """Version/hash history + latest payload as one comparable blob."""
        from repro.feed import FeedRequest, FeedServer
        from repro.store import FEED, JsonlStore

        store = JsonlStore.open(store_dir)
        try:
            if store.count(FEED) == 0:
                return b""
            server = FeedServer.from_store(store)
            history = [
                (snapshot.version, snapshot.content_hash)
                for snapshot in server.snapshots
            ]
            payload = server.handle(FeedRequest(client_version=None)).payload
        finally:
            store.close()
        return json.dumps(history).encode("utf-8") + b"\n" + payload

    # ---------------------------------------------------------- scenario

    def run_case(self, directive: CrashDirective) -> ChaosReport:
        """Execute one crash scenario and diff it against the reference."""
        name = f"{directive.point}-{directive.occurrence}-{directive.mode}"
        case_dir = self.work_dir / f"case-{name}"
        shutil.rmtree(case_dir, ignore_errors=True)
        case_dir.mkdir(parents=True)
        store_dir = case_dir / "store"
        token = case_dir / "crash.token"
        report = ChaosReport(directive=directive)

        if directive.recovery_only:
            primed = self._invoke(
                self._run_args(store_dir),
                PRIMER.to_env(case_dir / "primer.token"),
            )
            report.phases.append(self._phase("prime", primed))
            proc = self._invoke(
                self._resume_args(store_dir), directive.to_env(token)
            )
            report.phases.append(self._phase("crash", proc))
        else:
            proc = self._invoke(
                self._run_args(store_dir), directive.to_env(token)
            )
            report.phases.append(self._phase("crash", proc))
        report.fired = token.exists()

        if proc.returncode != 0:
            proc = self._invoke(self._resume_args(store_dir))
            report.phases.append(self._phase("resume", proc))
        if proc.returncode == 2:
            # The crash predates a usable store (not even the run identity
            # record survived): recovery is a fresh run, same derived id.
            proc = self._invoke(self._run_args(store_dir))
            report.phases.append(self._phase("fresh-run", proc))
        if proc.returncode != 0:
            report.mismatches.append(
                f"recovery failed (exit {proc.returncode}): "
                f"{report.phases[-1].stderr_tail}"
            )
            return report

        reference = self.reference()
        recovered = self._fingerprint(store_dir)
        for key in sorted(set(reference) | set(recovered)):
            if reference.get(key) != recovered.get(key):
                report.mismatches.append(f"diverged: {key}")
        return report
