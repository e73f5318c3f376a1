"""Benchmark runner for ctxsd.

Run from the root of a checkout, for example::

    python3 perfbench/run.py --verify-points 21 --sweep-points 100001 \
        --query-rate 400 --workload verify-grid --seed 1 --seconds 20 --trace 0

The sizes are fixed by the ``command`` of ``BENCHMARK.json``; the last four
arguments are chosen per run. The package is imported from ``src/`` of the
same checkout, never from an installed copy, and is driven only through its
public entry points, in this one process and on one thread.

Workloads (all closed loop, one caller):

* ``verify-grid``: ``ctxsd verify --points N`` in-process. One operation is
  one verify call.
* ``sweep-dense``: a sweep over c and one over p with every non-definitional
  table column, each followed by writing the four figure CSVs. One
  operation is both passes.
* ``point-queries``: a stream of distinct (c, p, omega) points. Every
  fourth one is log-spaced toward the singular corner (c -> 1, p -> 0) and
  comes from a fixed quasi-random sequence; the others are drawn from the
  seed. One operation is one query: the gap table, the maximum-confidence
  construction, the Helstrom and unambiguous constructions on the pure
  pair, and two oracles on the four-region model. A run makes a fixed
  number of queries, ``--query-rate`` times ``--seconds``, so that every
  run meets the same corner points and counts the same corner failures.

Every output is checked outside the timed region: pinned sha256 digests for
the CSVs, the verify report's check list and coverage line, and each query's
constructions and oracles against the closed forms at the package's default
tolerances. A check that fails counts the operation as failed; the run
carries on. ``correct`` is false when an operation outside the corner share
fails, because corner failures are a known defect of the closed forms that
stays visible through ``failed`` instead of blocking the gate.

With ``--trace 0`` the run times operations and prints the end-to-end
metrics. With ``--trace 1`` it spends half of ``--seconds`` (half of the
queries) untraced and half with every public function of the package
wrapped in a span, and prints the per-layer metrics. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
DIGEST_FILE = HERE / "digests.json"

LAYERS = ("qtheory", "ncmodel", "bounds", "harness", "cli")

# The 19 table columns less the four definitional ones (MESD P_0 and USD C,
# in both theories), which are constants.
SWEEP_TARGETS = (
    "MESD:Pg:Q", "MESD:Pg:NC", "MESD:C:Q", "MESD:C1:NC", "MESD:C2:NC",
    "USD:Pg:Q", "USD:Pg:NC", "USD:P0:Q", "USD:P0:NC",
    "MCM:Pg:Q", "MCM:Pg:NC", "MCM:P0:Q", "MCM:P0:NC", "MCM:C:Q", "MCM:C:NC",
)
SWEEP_VARIABLES = ("c", "p")
FIGURES = ("fig2", "fig3a", "fig3b", "fig4")

CORNER_EVERY = 4            # every fourth query lies in the corner share
CORNER_DECADES = (1.0, 12.0)  # 1 - c and p range over 10^-12 .. 10^-1
CORNER_BASES = (2, 3, 5)    # Halton bases for 1 - c, p and omega
TAIL_BLOCK = 500            # operations per block of the tail percentile
EXPECTED_COVERAGE = "operations exercised: 26/26"
SETUP_LAUNCHES = 7          # measured launches, after one warm-up launch
MIN_ATTRIBUTED_SHARE = 0.95  # layer self time / traced wall time
MAX_PROBLEMS_SHOWN = 20

# Host speed: the median time of one reference loop on the machine the
# bounds were set on (Intel Xeon, 2 vCPUs, Python 3.11). Timings are scaled
# to that speed; see SpeedProbe.
REFERENCE_S = 200e-6
PROBE_INTERVAL_S = 0.02
PROBE_WINDOW_S = 0.25
SETUP_PROBES = 21

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run or cannot check its outputs."""


# ---------------------------------------------------------------------------
# environment


def pin_environment() -> None:
    """One BLAS/OpenMP thread and the package's default tolerances."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CTXSD_TOL", None)


def load_package():
    """Import ctxsd from this checkout's ``src/`` and return the package."""
    if not (SRC / "ctxsd" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'ctxsd'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ctxsd
    import ctxsd.cli

    if Path(ctxsd.__file__).resolve().parent != (SRC / "ctxsd").resolve():
        raise BenchError(f"ctxsd was imported from {ctxsd.__file__}, not {SRC}")
    return ctxsd


def environment_line() -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
    return (
        f"env python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={os.cpu_count()} cpu={cpu!r} commit={commit} "
        f"threads={os.environ['OMP_NUM_THREADS']} "
        f"CTXSD_TOL={os.environ.get('CTXSD_TOL', 'unset')}"
    )


def reference_loop() -> float:
    """Fixed pure-Python work whose duration tracks the host's speed."""
    s = 0.0
    for i in range(2000):
        s += math.sqrt(i) * 0.5
    return s


def reference_speed_s(samples: int) -> float:
    """Median seconds of one reference loop over ``samples`` loops."""
    durations = []
    for _ in range(samples):
        t0 = time.perf_counter()
        reference_loop()
        durations.append(time.perf_counter() - t0)
    return statistics.median(durations)


def measure_setup_s() -> tuple[float, float, int]:
    """Median time of ``import ctxsd`` in fresh interpreters, raw and scaled.

    One warm-up launch fills the bytecode cache, as any earlier use would
    have; the next launches are measured. Each launch times the reference
    loop after the import, to scale its import time to reference speed.
    """
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        "import ctxsd\n"
        "print(time.perf_counter() - t)\n"
        "print(ctxsd.__file__)\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "from run import reference_speed_s\n"
        f"print(reference_speed_s({SETUP_PROBES}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"import ctxsd failed:\n{proc.stderr}")
        seconds, origin, speed = proc.stdout.split("\n")[:3]
        if Path(origin).resolve().parent != (SRC / "ctxsd").resolve():
            raise BenchError(f"fresh interpreter imported ctxsd from {origin}")
        raw.append(float(seconds))
        scaled.append(float(seconds) * REFERENCE_S / float(speed))
    return statistics.median(scaled[1:]), statistics.median(raw[1:]), SETUP_LAUNCHES


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans around every public function of the package's five layers.

    Each span records its name, start, end and parent in flat arrays, kept
    in memory until the traced phase ends. Spans are recorded only while
    ``active`` is set, which the runner does inside timed regions, so
    output checks are never traced. Class constructions are counted, not
    spanned.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = False
        self.counts: Counter = Counter()
        self.mcm_args: set = set()
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, after=None):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)
                if after is not None:
                    after(args, kwargs)

        return traced

    def _count_constructions(self, key: str, cls) -> None:
        original = cls.__dict__["__init__"]
        tracer = self

        def counted(obj, *args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            original(obj, *args, **kwargs)

        cls.__init__ = counted
        self._undo.append(lambda: setattr(cls, "__init__", original))

    def install(self) -> None:
        """Patch every binding of every public function, in every module."""
        from ctxsd import bounds, cli, harness, ncmodel, qtheory

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ctxsd" or n.startswith("ctxsd.")]
        hooks = {
            "qtheory.mcm_optimal": self._record_mcm_args,
            "harness.write_csv": self._record_csv_bytes,
        }
        for layer, module in (("qtheory", qtheory), ("ncmodel", ncmodel),
                              ("bounds", bounds), ("harness", harness), ("cli", cli)):
            names = getattr(module, "__all__", ("main",))
            for attr in names:
                original = getattr(module, attr)
                if not inspect.isfunction(original):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, original, hooks.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
                            self._undo.append(
                                lambda m=mod, k=key, v=original: setattr(m, k, v)
                            )
        registry = harness._CHECKS
        saved = list(registry)
        registry[:] = [
            (name, ops, self.wrap(check_span(name), fn)) for name, ops, fn in saved
        ]
        self._undo.append(lambda: registry.__setitem__(slice(None), saved))
        self._count_constructions("qtheory.Operator2.constructed", qtheory.Operator2)
        self._count_constructions("bounds.BoundSpec.constructed", bounds.BoundSpec)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _record_mcm_args(self, args, kwargs) -> None:
        self.mcm_args.add((args, tuple(sorted(kwargs.items()))))

    def _record_csv_bytes(self, args, kwargs) -> None:
        self.counts["harness.write_csv.bytes"] += os.path.getsize(args[0])

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: calls, self seconds, total seconds."""
        import numpy as np

        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        total_s = np.bincount(name_id, weights=dur, minlength=k)
        return {
            name: (int(calls[i]), float(self_s[i]), float(total_s[i]))
            for i, name in enumerate(self.names)
        }


def check_span(name: str) -> str:
    """Span and metric stem of a registered verify check."""
    return "harness.check." + name.replace("/", ".")


class Clock:
    """Times the operations of one phase; traces them when given a tracer.

    An operation may be timed in several segments, so that its output checks
    between them stay outside the timed region.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self._segments: list[tuple[float, float]] = []

    @contextlib.contextmanager
    def timed(self):
        tracer = self.tracer
        with tracer.span("op") if tracer else contextlib.nullcontext():
            if tracer:
                tracer.active = True
            start = time.perf_counter()
            try:
                yield
            finally:
                self._segments.append((start, time.perf_counter()))
                if tracer:
                    tracer.active = False

    def take(self) -> list[tuple[float, float]]:
        """The segments timed since the last call."""
        segments, self._segments = self._segments, []
        return segments


class SpeedProbe:
    """Samples the host's speed while a phase runs.

    On a shared virtual machine the host's speed can drift by a fifth
    within seconds, as other tenants load it, and the drift moves all
    timings together. So while a phase runs, a SIGALRM handler times one
    reference loop every PROBE_INTERVAL_S, on the main thread between
    bytecodes, and each operation's time is scaled by REFERENCE_S over the
    median loop time within PROBE_WINDOW_S of it. Loops that ran inside an
    operation are subtracted from its time.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that lands inside the handler is skipped
            return
        self._busy = True
        start = time.perf_counter()
        reference_loop()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def loop_s(self, start: float, end: float) -> float:
        """Median reference-loop time within PROBE_WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + PROBE_WINDOW_S)
        return statistics.median(self.durations[lo:hi] or self.durations)

    def scaled_s(self, segments: list[tuple[float, float]]) -> float:
        """Seconds of the segments outside probe loops, at reference speed."""
        total = 0.0
        for start, end in segments:
            lo = bisect.bisect_left(self.starts, start)
            hi = bisect.bisect_left(self.starts, end)
            own = end - start - sum(self.durations[lo:hi])
            total += own * REFERENCE_S / self.loop_s(start, end)
        return total


# ---------------------------------------------------------------------------
# workloads


class Op:
    """Outcome of one operation: its timed segments and what its checks found."""

    __slots__ = ("segments", "problems", "corner", "refused")

    def __init__(self, segments: list[tuple[float, float]], problems: list[str],
                 corner: bool = False, refused: bool = False) -> None:
        self.segments = segments
        self.problems = problems
        self.corner = corner
        self.refused = refused

    @property
    def seconds(self) -> float:
        return sum(end - start for start, end in self.segments)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def call_cli(ctxsd, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ctxsd.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class VerifyGrid:
    """``ctxsd verify --points N``: the cross-check users run."""

    def __init__(self, ctxsd, args, workdir: Path, rng: random.Random) -> None:
        self.ctxsd = ctxsd
        self.argv = ["verify", "--points", str(args.verify_points)]

    def run(self, clock: Clock) -> Op:
        with clock.timed():
            rc, out, err = call_cli(self.ctxsd, self.argv)
        return Op(clock.take(), self.problems(rc, out, err))

    def problems(self, rc: int, out: str, err: str) -> list[str]:
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}; {err.strip()}")
        names = [name for name, _, _ in self.ctxsd.harness._CHECKS]
        listed = {line.split()[1] for line in out.splitlines()
                  if line.startswith(("PASS ", "FAIL "))}
        missing = [name for name in names if name not in listed]
        if missing:
            problems.append("checks not listed: " + ", ".join(missing))
        if EXPECTED_COVERAGE not in out:
            problems.append(f"no {EXPECTED_COVERAGE!r} line")
        return problems


class SweepDense:
    """Two dense sweeps, each followed by the four figure CSVs."""

    def __init__(self, ctxsd, args, workdir: Path, rng: random.Random) -> None:
        self.ctxsd = ctxsd
        self.workdir = workdir
        points = args.sweep_points
        self.digests = json.loads(DIGEST_FILE.read_text())
        self.passes = []
        for variable in SWEEP_VARIABLES:
            name = f"sweep-{variable}-{points}.csv"
            argv = ["sweep", "--variable", variable, "--points", str(points),
                    "--out", str(workdir / name)]
            for target in SWEEP_TARGETS:
                argv += ["--target", target]
            figures = [["figure", "--id", fig, "--out", str(workdir / f"{fig}.csv")]
                       for fig in FIGURES]
            outputs = [name] + [f"{fig}.csv" for fig in FIGURES]
            missing = [out for out in outputs if out not in self.digests]
            if missing:
                raise BenchError(f"no pinned digest for {', '.join(missing)}")
            self.passes.append(([argv] + figures, outputs))

    def run(self, clock: Clock) -> Op:
        problems = []
        for commands, outputs in self.passes:
            for path in outputs:
                (self.workdir / path).unlink(missing_ok=True)
            results = []
            with clock.timed():
                for argv in commands:
                    results.append(call_cli(self.ctxsd, argv))
            for argv, (rc, _, err) in zip(commands, results):
                if rc != 0:
                    problems.append(f"{' '.join(argv[:3])} exit {rc}; {err.strip()}")
            for name in outputs:
                path = self.workdir / name
                got = file_sha256(path) if path.exists() else "missing"
                if got != self.digests[name]:
                    problems.append(f"{name} sha256 {got} is not the pinned digest")
        return Op(clock.take(), problems)


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def radical_inverse(i: int, base: int) -> float:
    """The ``i``-th term of the van der Corput sequence in ``base``."""
    f, r = 1.0, 0.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def corner_point(i: int) -> tuple[float, float, float]:
    """The ``i``-th point (i >= 1) of the fixed corner sequence.

    A Halton sequence, log-spaced in 1 - c and p, spreads the corner points
    evenly and makes them the same for every seed: a run of a given length
    meets the same corner points, so its count of corner failures repeats.
    """
    lo, hi = CORNER_DECADES
    u, v, omega = (radical_inverse(i, base) for base in CORNER_BASES)
    return 1.0 - 10.0 ** -(lo + (hi - lo) * u), 10.0 ** -(lo + (hi - lo) * v), omega


def query_points(rng: random.Random):
    """Distinct (corner, c, p, omega); every CORNER_EVERY-th near (1, 0)."""
    seen = set()
    k = corners = 0
    while True:
        corner = k % CORNER_EVERY == CORNER_EVERY - 1
        if corner:
            corners += 1
            point = corner_point(corners)
        else:
            point = (rng.random(), rng.random(), rng.random())
        if point in seen:
            continue
        seen.add(point)
        k += 1
        yield (corner, *point)


class PointQueries:
    """Independent scalar queries; each checked against the closed forms."""

    def __init__(self, ctxsd, args, workdir: Path, rng: random.Random) -> None:
        self.ctxsd = ctxsd
        self.points = query_points(rng)
        self.tols = ctxsd.DEFAULTS

    def query(self, c: float, p: float, omega: float) -> dict:
        x = self.ctxsd
        theta = math.acos(math.sqrt(c))
        report = x.table1_report(c, p, omega)
        mcm, mcm_p0 = x.mcm_optimal(theta, p)
        pure = x.noisy_ensemble(theta, 0.0)
        helstrom = x.helstrom_povm(pure)
        _, usd_p0 = x.usd_optimal(pure)
        scenario = x.canonical_scenario(c, p)
        _, oracle_pg = x.oracle_max_pg(scenario)
        _, oracle_p0 = x.oracle_min_p0_at_max_confidence(scenario)
        return {
            "report": report, "theta": theta, "mcm": mcm, "mcm_p0": mcm_p0,
            "pure": pure, "helstrom": helstrom, "usd_p0": usd_p0,
            "oracle_pg": oracle_pg, "oracle_p0": oracle_p0,
        }

    def mismatches(self, p: float, answer: dict) -> list[str]:
        """Constructions and oracles against the closed forms of the report."""
        x, tols = self.ctxsd, self.tols
        report = answer["report"]
        noisy = x.noisy_ensemble(answer["theta"], p)
        mcm = answer["mcm"]
        q = {fig: report.cell(scheme, fig) for scheme, fig in (
            ("MCM", "P_g"), ("MCM", "P_0"), ("MCM", "C"))}
        pairs = [
            ("mcm P_0", answer["mcm_p0"], q["P_0"].quantum_value, tols.closed_form),
            ("mcm P_g", x.guessing_probability(noisy, mcm),
             q["P_g"].quantum_value, tols.closed_form),
            ("mcm C(1)", x.confidence(noisy, mcm, 1), q["C"].quantum_value,
             tols.closed_form),
            ("mcm C(2)", x.confidence(noisy, mcm, 2), q["C"].quantum_value,
             tols.closed_form),
            ("helstrom P_g", x.guessing_probability(answer["pure"], answer["helstrom"]),
             report.cell("MESD", "P_g").quantum_value, tols.closed_form),
            ("usd P_0", answer["usd_p0"], report.cell("USD", "P_0").quantum_value,
             tols.closed_form),
            ("oracle P_g", answer["oracle_pg"],
             report.cell("MESD", "P_g").noncontextual_value, tols.oracle),
            ("oracle P_0", answer["oracle_p0"], q["P_0"].noncontextual_value,
             tols.oracle),
        ]
        return [f"{name} off by {got - want:.3g}" for name, got, want, tol in pairs
                if not abs(got - want) <= tol]

    def run(self, clock: Clock) -> Op:
        corner, c, p, omega = next(self.points)
        where = f"c={c!r}, p={p!r}, omega={omega!r}"
        try:
            with clock.timed():
                answer = self.query(c, p, omega)
        except self.ctxsd.CtxsdError:
            return Op(clock.take(), [], corner, refused=True)
        except Exception as exc:  # an untyped error is a failed query
            return Op(clock.take(), [f"{where}: {type(exc).__name__}: {exc}"], corner)
        try:
            problems = self.mismatches(p, answer)
        except Exception as exc:  # the answer could not even be checked
            problems = [f"{type(exc).__name__}: {exc}"]
        where += " (corner)" if corner else ""
        return Op(clock.take(), [f"{where}: {problem}" for problem in problems], corner)


WORKLOAD_TYPES = {
    "verify-grid": VerifyGrid,
    "sweep-dense": SweepDense,
    "point-queries": PointQueries,
}


def run_phase(workload, clock: Clock, seconds: float, count: int | None) -> list[Op]:
    """``count`` operations, or, without a count, operations until their
    timed sum reaches ``seconds`` (at least one)."""
    ops: list[Op] = []
    spent = 0.0
    while (len(ops) < count) if count is not None else (not ops or spent < seconds):
        op = workload.run(clock)
        ops.append(op)
        spent += op.seconds
    return ops


def query_count(args) -> int:
    """Queries per point-queries run: the rate times the seconds, and at
    least two corner intervals, so that each trace phase meets a corner."""
    return max(2 * CORNER_EVERY, round(args.query_rate * args.seconds))


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def block_percentile(values: list[float], q: float) -> float:
    """Median over consecutive blocks of TAIL_BLOCK values of each block's
    percentile ``q``; one block when there are fewer than 2 * TAIL_BLOCK.

    The slowest few percent of operations come in bursts, when another
    tenant stalls the host; a burst moves the percentile of its own block
    only, not the median over blocks.
    """
    blocks = max(1, len(values) // TAIL_BLOCK)
    size = len(values) / blocks
    return statistics.median(
        percentile(values[round(b * size):round((b + 1) * size)], q)
        for b in range(blocks))


def timing(times: list[float]) -> tuple[float, float, float, float]:
    """Median, 95th- (by blocks) and 99th-percentile milliseconds, and
    operations per second."""
    return (statistics.median(times) * 1e3, block_percentile(times, 95) * 1e3,
            percentile(times, 99) * 1e3, len(times) / sum(times))


def end_to_end_metrics(name: str, args, ops: list[Op], probe: SpeedProbe,
                       setup: tuple[float, float, int]) -> tuple[dict, list[str]]:
    """Timings at reference speed, with the wall-clock figures alongside."""
    setup_s, setup_wall_s, launches = setup
    n = len(ops)
    p50_ms, p95_ms, p99_ms, ops_per_s = timing(
        [probe.scaled_s(op.segments) for op in ops])
    wall_p50_ms, wall_p95_ms, wall_p99_ms, wall_per_s = timing(
        [op.seconds for op in ops])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_p95_ms": (p95_ms, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    loop_us = statistics.median(probe.durations) * 1e6
    lines = [
        f"host reference loop {loop_us:.4g} us (median of {len(probe.durations)}; "
        f"figures below are scaled to {REFERENCE_S * 1e6:g} us, wall clock in brackets)",
        f"setup_s {setup_s:.6g} s [{setup_wall_s:.6g} s] (median of {launches} launches)",
    ]
    if name == "verify-grid":
        lines.append(f"verify_s {p50_ms / 1e3:.6g} s [{wall_p50_ms / 1e3:.6g} s] "
                     f"(median, n={n})")
    elif name == "sweep-dense":
        cells = len(SWEEP_VARIABLES) * args.sweep_points * len(SWEEP_TARGETS)
        lines.append(f"sweep_cells_per_s {cells * ops_per_s:.6g} 1/s "
                     f"[{cells * wall_per_s:.6g} 1/s] ({cells} cells per operation, n={n})")
    else:
        lines += [
            f"query_p50_ms {p50_ms:.6g} ms [{wall_p50_ms:.6g} ms] (n={n})",
            f"query_p95_ms {p95_ms:.6g} ms [{wall_p95_ms:.6g} ms] (n={n})",
            f"query_p99_ms {p99_ms:.6g} ms [{wall_p99_ms:.6g} ms] (n={n})",
            f"queries_per_s {ops_per_s:.6g} 1/s [{wall_per_s:.6g} 1/s] (n={n})",
        ]
    failed = sum(op.failed for op in ops)
    corner = sum(op.corner for op in ops)
    corner_failed = sum(op.failed and op.corner for op in ops)
    refused = sum(op.refused for op in ops)
    lines.append(
        f"error_rate {failed / n:.6g} ({failed} failed of {n}; {corner_failed} "
        f"of the {corner} corner points; {refused} refused with a typed error)"
    )
    lines.append(f"peak_rss_mb {rss_mb:.6g} MB")
    return metrics, lines


def per_layer_metrics(ctxsd, tracer: Tracer, traced: list[Op],
                      untraced: list[Op]) -> dict:
    n = len(traced)
    stats = tracer.summary()

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_ms(name):
        return stats.get(name, (0, 0.0, 0.0))[1] * 1e3 / n

    def total_ms(name):
        return stats.get(name, (0, 0.0, 0.0))[2] * 1e3 / n

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        layer_s = sum(s for name, (_, s, _) in stats.items()
                      if name.startswith(layer + "."))
        m[f"{layer}.self_ms"] = (layer_s * 1e3 / n, "ms/op")
    for fn in ("mcm_optimal", "mcm_povm", "usd_optimal", "helstrom_povm",
               "noisy_ensemble"):
        m[f"qtheory.{fn}.calls"] = (calls(f"qtheory.{fn}") / n, "count/op")
        m[f"qtheory.{fn}.self_ms"] = (self_ms(f"qtheory.{fn}"), "ms/op")
    m["qtheory.min_eig_2x2.calls"] = (calls("qtheory.min_eig_2x2") / n, "count/op")
    m["qtheory.Operator2.constructed"] = (
        tracer.counts["qtheory.Operator2.constructed"] / n, "count/op")
    mcm_calls = calls("qtheory.mcm_optimal")
    m["qtheory.mcm_optimal.distinct_share"] = (
        len(tracer.mcm_args) / mcm_calls if mcm_calls else 0.0, "share")
    for fn in ("oracle_max_pg", "oracle_max_confidence",
               "oracle_min_p0_at_max_confidence", "canonical_scenario", "nc_figures"):
        m[f"ncmodel.{fn}.calls"] = (calls(f"ncmodel.{fn}") / n, "count/op")
        m[f"ncmodel.{fn}.self_ms"] = (self_ms(f"ncmodel.{fn}"), "ms/op")
    eval_calls = calls("bounds.eval_bound")
    m["bounds.eval_bound.calls"] = (eval_calls / n, "count/op")
    m["bounds.eval_bound.self_ms"] = (self_ms("bounds.eval_bound"), "ms/op")
    m["bounds.eval_bound.us_per_call"] = (
        stats["bounds.eval_bound"][1] * 1e6 / eval_calls if eval_calls else 0.0, "us")
    m["bounds.BoundSpec.constructed"] = (
        tracer.counts["bounds.BoundSpec.constructed"] / n, "count/op")
    m["bounds.gap.self_ms"] = (self_ms("bounds.gap"), "ms/op")
    m["bounds.table1_report.self_ms"] = (self_ms("bounds.table1_report"), "ms/op")
    for name, _, _ in ctxsd.harness._CHECKS:
        span = check_span(name)
        m[f"{span}.wall_ms"] = (total_ms(span), "ms/op")
    m["harness.run_sweep.self_ms"] = (self_ms("harness.run_sweep"), "ms/op")
    m["harness.write_csv.ms"] = (total_ms("harness.write_csv"), "ms/op")
    m["harness.write_csv.bytes"] = (tracer.counts["harness.write_csv.bytes"] / n, "B/op")
    m["harness.emit_figure.ms"] = (total_ms("harness.emit_figure"), "ms/op")
    m["cli.main.self_ms"] = (self_ms("cli.main"), "ms/op")

    traced_mean = sum(op.seconds for op in traced) / n
    untraced_mean = sum(op.seconds for op in untraced) / len(untraced)
    m["trace.overhead_share"] = (traced_mean / untraced_mean - 1.0, "share")
    layer_total = sum(m[f"{layer}.self_ms"][0] for layer in LAYERS)
    m["trace.attributed_share"] = (layer_total / (traced_mean * 1e3), "share")
    return m


def declared(spec: dict, key: str, computed: dict) -> dict:
    """The metrics BENCHMARK.json declares under ``key``, with their units.

    A declared check that is no longer registered took no time and reads 0;
    any other declared metric the runner cannot compute is an error.
    """
    out = {}
    for entry in spec[key]:
        name, unit = entry["name"], entry["unit"]
        if name in computed:
            value, have = computed[name]
            if have != unit:
                raise BenchError(f"{name} is measured in {have}, declared {unit}")
        elif name.startswith("harness.check."):
            print(f"warning: {name} names no registered check", file=sys.stderr)
            value = 0.0
        else:
            raise BenchError(f"declared metric {name} is not measured")
        out[name] = {"value": value, "unit": unit}
    return out


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_TYPES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds per phase (0: the minimum operations)")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--verify-points", type=int, required=True,
                        help="grid density of the verify-grid call")
    parser.add_argument("--sweep-points", type=int, required=True,
                        help="points of each sweep-dense pass")
    parser.add_argument("--query-rate", type=float, required=True,
                        help="point queries per second of --seconds")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    if args.query_rate <= 0:
        parser.error("--query-rate must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pin_environment()
    try:
        spec = json.loads(SPEC_FILE.read_text())
        setup = measure_setup_s()
        ctxsd = load_package()
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            return run_workload(args, spec, ctxsd, workdir, setup)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run_workload(args, spec, ctxsd, workdir: Path, setup) -> int:
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(environment_line())
    rng = random.Random(args.seed)
    workload = WORKLOAD_TYPES[args.workload](ctxsd, args, workdir, rng)
    count = query_count(args) if args.workload == "point-queries" else None
    if args.trace == 0:
        probe = SpeedProbe()
        with probe.running():
            ops = run_phase(workload, Clock(), args.seconds, count)
        computed, lines = end_to_end_metrics(args.workload, args, ops, probe, setup)
        print("\n".join(lines))
        metrics = declared(spec, "end_to_end", computed)
        all_ops, accounted = ops, True
    else:
        half = args.seconds / 2.0
        first = None if count is None else count // 2
        untraced = run_phase(workload, Clock(), half, first)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, Clock(tracer), half,
                               None if count is None else count - first)
        finally:
            tracer.uninstall()
        computed = per_layer_metrics(ctxsd, tracer, traced, untraced)
        for name, (value, unit) in computed.items():
            print(f"{name} {value:.6g} {unit}")
        share = computed["trace.attributed_share"][0]
        accounted = share >= MIN_ATTRIBUTED_SHARE
        if not accounted:
            print(f"trace accounting failed: layers hold {share:.3f} of the traced "
                  f"wall time, below {MIN_ATTRIBUTED_SHARE}", file=sys.stderr)
        metrics = declared(spec, "per_layer", computed)
        all_ops = untraced + traced
    problems = [problem for op in all_ops for problem in op.problems]
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {problem}", file=sys.stderr)
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"... and {len(problems) - MAX_PROBLEMS_SHOWN} more", file=sys.stderr)
    failed = sum(op.failed for op in all_ops)
    unexpected = sum(op.failed and not op.corner for op in all_ops)
    result = {
        "correct": accounted and unexpected == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
