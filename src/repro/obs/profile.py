"""The simulator's self-profiler: per-subsystem event counts and
wall-clock attribution for the discrete-event core.

The paper's thesis is that a mesh layer gives you visibility you can
act on; PRs 3-4 built that plane for the *simulated* mesh.  This module
turns the same idea on the simulator itself: every kernel dispatch is
timed with ``time.perf_counter`` and charged to the subsystem whose
code actually ran — sidecar, transport, qdisc, app, workload, obs — so
a bench report can say *where the simulator's wall-clock goes*, not
just how long a run took.

Design constraints:

* **Deterministic counts, host-dependent seconds.**  Which section an
  event lands in is a pure function of the simulation (the resumed
  process's code object, or the scheduled callback's owner), and the
  stride sampler advances on event position, so the ``events`` section
  of a report is byte-identical across back-to-back runs and across
  machines; only the ``seconds`` vary with the host.  Kernel dispatch
  counts are exact; explicit section entries (qdisc, obs) are observed
  on sampled dispatches only, i.e. at ~1/``timing_stride`` frequency.
* **Zero hooks when disabled.**  A :class:`~repro.sim.core.Simulator`
  without an attached profiler runs the plain ``step`` class method —
  no wrapper, no per-event branch.  Attaching installs an instance
  override; detaching removes it.
* **Low overhead when enabled.**  Event *counting* is exact and cheap:
  the kernel hook reduces each callback to a hashable key (code object,
  owner type, or function) with two or three attribute loads and looks
  the section up in a key cache.  Wall-clock *timing* is stride-sampled:
  only every ``timing_stride``-th dispatch pays the ``perf_counter``
  pair, and reported seconds are scaled back up by the stride.  With the
  default scenario stride (:data:`PROFILE_TIMING_STRIDE`) the enabled
  profiler stays within ~5 % of the plain run on the Figure-4 smoke
  scenario (see ``tests/obs/test_profile.py``).

Attribution of time *inside* a dispatch is refined with explicit
sections: hot paths that run on behalf of another subsystem (qdisc
enqueue/dequeue inside a link callback, the obs plane's registry and
attributor updates inside a sidecar process) open a
:meth:`SimProfiler.section`, whose exclusive time is subtracted from
the enclosing event's charge.
"""

from __future__ import annotations

import time

#: Bump when the report layout changes.
PROFILE_SCHEMA = 1

#: Timing stride used when a scenario attaches a profiler: one in this
#: many dispatches is timed with ``perf_counter`` (reported seconds are
#: scaled by the stride).  Event counts are always exact.  1 = time
#: every event (exact seconds, highest overhead).
PROFILE_TIMING_STRIDE = 16

#: Section names in reporting order.  ``dispatch`` is the kernel
#: residual: heap pops, callback plumbing, and any callback whose owner
#: no classification rule matches.
SECTIONS = (
    "dispatch",
    "sidecar",
    "transport",
    "qdisc",
    "app",
    "workload",
    "obs",
    "other",
)

#: First matching prefix wins; evaluated against the dotted path of the
#: module that owns the resumed generator / scheduled callback.
_MODULE_RULES = (
    ("repro.mesh", "sidecar"),
    ("repro.transport", "transport"),
    ("repro.net.qdisc", "qdisc"),
    ("repro.net", "transport"),
    ("repro.apps", "app"),
    ("repro.cluster", "app"),
    ("repro.workload", "workload"),
    ("repro.obs", "obs"),
    ("repro.sim", "dispatch"),
    ("repro", "other"),
)


def classify_module(module: str) -> str:
    """Map a dotted module path to a profiler section."""
    for prefix, section in _MODULE_RULES:
        if module.startswith(prefix):
            return section
    return "other"


def _module_from_filename(filename: str) -> str:
    """Best-effort dotted module path from a code object's filename
    (generators only expose ``gi_code``, not their defining module)."""
    normalized = filename.replace("\\", "/")
    marker = "/repro/"
    index = normalized.rfind(marker)
    if index < 0:
        return "?"
    tail = normalized[index + 1 :]
    if tail.endswith(".py"):
        tail = tail[:-3]
    return tail.replace("/", ".")


class _Section:
    """One explicit ``with profiler.section(name)`` block.

    Exclusive-time accounting: the measured wall-clock is added to the
    profiler's ``_child`` accumulator, which the kernel hook subtracts
    from the enclosing event's charge.  Sections are flat — nesting one
    inside another double-charges the inner block to ``_child``.
    """

    __slots__ = ("profiler", "name", "_start")

    def __init__(self, profiler: "SimProfiler", name: str):
        self.profiler = profiler
        self.name = name

    def __enter__(self) -> "_Section":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        prof = self.profiler
        if not prof._timing:
            return
        name = self.name
        elapsed = time.perf_counter() - self._start
        counts = prof._extra_counts
        counts[name] = counts.get(name, 0) + 1
        prof._child += elapsed
        seconds = prof._extra_seconds
        seconds[name] = seconds.get(name, 0.0) + elapsed


class _Phase:
    """One coarse ``with profiler.phase(name)`` block (build/run/drain).

    Phases measure whole stretches of wall-clock *around* the event
    loop, so they overlap the per-event section charges and are
    reported separately.
    """

    __slots__ = ("profiler", "name", "_start")

    def __init__(self, profiler: "SimProfiler", name: str):
        self.profiler = profiler
        self.name = name

    def __enter__(self) -> "_Phase":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        phases = self.profiler.phases
        count, seconds = phases.get(self.name, (0, 0.0))
        phases[self.name] = (count + 1, seconds + elapsed)


class SimProfiler:
    """Per-subsystem event counts and exclusive wall-clock attribution.

    Attach to a kernel with :meth:`Simulator.attach_profiler`; the
    kernel installs a specialized dispatch loop that counts every event
    into its owning section (via a key cache the loop shares with
    :meth:`_classify`) and, on every ``timing_stride``-th event, times
    the dispatch and charges its exclusive wall-clock.

    ``timing_stride`` trades timing fidelity for overhead: with stride
    *N* only one in *N* dispatches pays the ``perf_counter`` pair, and
    reported ``seconds`` are the sampled sums scaled by *N* (an
    estimate).  Counts are exact at any stride.
    """

    __slots__ = ("phases", "timing_stride", "_child", "_timing",
                 "_extra_counts", "_extra_seconds", "_code_cache",
                 "_type_cache", "_key_cache")

    def __init__(self, timing_stride: int = 1) -> None:
        if timing_stride < 1:
            raise ValueError(f"timing_stride must be >= 1, got {timing_stride}")
        self.phases: dict[str, tuple[int, float]] = {}
        self.timing_stride = int(timing_stride)
        self._child = 0.0
        #: True while the current dispatch is being timed; sections only
        #: pay ``perf_counter`` (and feed ``_child``) when set.  Starts
        #: True so a standalone profiler times explicit sections; the
        #: kernel loop toggles it per sampled event once attached.
        self._timing = True
        #: Section-keyed accumulators fed by :meth:`charge`,
        #: :meth:`run_section`, and explicit sections.
        self._extra_counts: dict[str, int] = {}
        self._extra_seconds: dict[str, float] = {}
        self._code_cache: dict = {}
        self._type_cache: dict = {}
        #: dispatch-key (code object / owner type / function) -> cell
        #: ``[count, seconds, section]``, shared with the kernel's
        #: specialized loop.  One dict probe plus one list store per
        #: event is the whole steady-state counting cost.
        self._key_cache: dict = {}

    # -- kernel hook ---------------------------------------------------

    def charge(self, owner, seconds: float) -> None:
        """Attribute one dispatched event's exclusive time."""
        section = self._section_of(owner)
        counts = self._extra_counts
        counts[section] = counts.get(section, 0) + 1
        table = self._extra_seconds
        table[section] = table.get(section, 0.0) + seconds

    def _classify(self, key) -> list:
        """Key-cache miss path for the kernel loop: classify ``key``
        (a code object, owner type, or ``None``) and install its cell."""
        if key is None:
            section = "dispatch"
        elif isinstance(key, type):
            section = classify_module(key.__module__)
        else:
            filename = getattr(key, "co_filename", None)
            if filename is not None:
                section = classify_module(_module_from_filename(filename))
            else:
                section = "other"
        cell = [0, 0.0, section]
        self._key_cache[key] = cell
        return cell

    def _section_of(self, owner) -> str:
        # ``owner`` is a timer's callback or an event's first callback.
        if owner is None:
            return "dispatch"
        obj = getattr(owner, "__self__", None)
        if obj is None:
            # Plain function or staticmethod callback (e.g. the link's
            # ``_deliver``): classify by its defining module, cached per
            # code object (lambdas share one code object per call site).
            code = getattr(owner, "__code__", None)
            if code is None:
                return "dispatch"
            section = self._code_cache.get(code)
            if section is None:
                section = classify_module(
                    getattr(owner, "__module__", None) or "?"
                )
                self._code_cache[code] = section
            return section
        generator = getattr(obj, "_generator", None)  # Process._resume
        if generator is not None:
            code = generator.gi_code
            section = self._code_cache.get(code)
            if section is None:
                section = classify_module(
                    _module_from_filename(code.co_filename)
                )
                self._code_cache[code] = section
            return section
        owner_type = type(obj)
        section = self._type_cache.get(owner_type)
        if section is None:
            section = classify_module(owner_type.__module__)
            self._type_cache[owner_type] = section
        return section

    # -- explicit instrumentation --------------------------------------

    def section(self, name: str) -> _Section:
        """Time a block on behalf of ``name`` (exclusive of the
        enclosing event's charge)."""
        return _Section(self, name)

    def run_section(self, name: str, fn, *args):
        """Run ``fn(*args)`` attributed to section ``name``.

        The call-equivalent of :meth:`section` for hot paths: one call
        instead of a context-manager protocol.  Section entries follow
        the stride sampler — on dispatches that are not being timed the
        call passes straight through (neither counted nor timed), so
        section counts and seconds are both 1-in-``timing_stride``
        samples and attribution shares stay consistent.
        """
        if not self._timing:
            return fn(*args)
        counts = self._extra_counts
        counts[name] = counts.get(name, 0) + 1
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self._child += elapsed
        seconds = self._extra_seconds
        seconds[name] = seconds.get(name, 0.0) + elapsed
        return result

    def phase(self, name: str) -> _Phase:
        """Time a coarse phase (build / generate / drain)."""
        return _Phase(self, name)

    def add_phase(self, name: str, seconds: float) -> None:
        """Record an externally-timed phase (e.g. construction that
        finished before the profiler block could wrap it)."""
        count, total = self.phases.get(name, (0, 0.0))
        self.phases[name] = (count + 1, total + seconds)

    # -- reporting -----------------------------------------------------

    def _aggregate(self) -> tuple[dict[str, int], dict[str, float]]:
        """Fold the per-key cells and the section-keyed extras into one
        (counts, seconds) pair.  Cheap: one pass over a few dozen keys,
        paid at read time so the hot loop never touches a string key."""
        counts: dict[str, int] = {}
        seconds: dict[str, float] = {}
        for count, secs, section in self._key_cache.values():
            counts[section] = counts.get(section, 0) + count
            if secs:
                seconds[section] = seconds.get(section, 0.0) + secs
        for name, count in self._extra_counts.items():
            counts[name] = counts.get(name, 0) + count
        for name, secs in self._extra_seconds.items():
            seconds[name] = seconds.get(name, 0.0) + secs
        return counts, seconds

    @property
    def counts(self) -> dict[str, int]:
        """Per-section event counts (a merged view; read-only)."""
        return self._aggregate()[0]

    @property
    def seconds(self) -> dict[str, float]:
        """Per-section sampled wall-clock sums, unscaled (a merged
        view; read-only — :meth:`report` applies the stride)."""
        return self._aggregate()[1]

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values()) * self.timing_stride

    @property
    def total_events(self) -> int:
        return sum(self.counts.values())

    def report(self) -> dict:
        """Plain-dict image of the profile (picklable, JSON-stable).

        ``events`` is the deterministic half (a pure function of the
        simulation); ``seconds`` and ``phases`` are host wall-clock.
        With ``timing_stride`` > 1 the per-section seconds are sampled
        sums scaled back up by the stride (estimates); phases are always
        timed in full and never scaled.
        """
        stride = self.timing_stride
        counts, seconds = self._aggregate()
        return {
            "schema": PROFILE_SCHEMA,
            "timing_stride": stride,
            "events": {k: counts[k] for k in sorted(counts)},
            "seconds": {k: seconds[k] * stride for k in sorted(seconds)},
            "phases": {
                name: {"count": count, "seconds": secs}
                for name, (count, secs) in sorted(self.phases.items())
            },
        }

    def to_registry(self, registry) -> None:
        """Mirror the profile into a :class:`MetricsRegistry` so the
        standard exporters (sorted keys, trailing newline) apply."""
        stride = self.timing_stride
        counts, seconds = self._aggregate()
        for name in sorted(counts):
            registry.counter("sim_profile_events_total", section=name).inc(
                counts[name]
            )
            registry.counter("sim_profile_seconds_total", section=name).inc(
                seconds.get(name, 0.0) * stride
            )


def profile_text(profile: dict, sim_time: float | None = None) -> str:
    """Render a profile report dict as an aligned text table.

    Follows the exporter contract: deterministic row order (the fixed
    :data:`SECTIONS` order, then any extras sorted) and exactly one
    trailing newline.
    """
    events = profile.get("events", {})
    seconds = profile.get("seconds", {})
    total_s = sum(seconds.values())
    total_n = sum(events.values())
    known = [s for s in SECTIONS if s in events or s in seconds]
    extras = sorted((set(events) | set(seconds)) - set(SECTIONS))
    lines = ["section      events    share      seconds    share"]
    for name in known + extras:
        count = events.get(name, 0)
        secs = seconds.get(name, 0.0)
        n_share = count / total_n if total_n else 0.0
        s_share = secs / total_s if total_s else 0.0
        lines.append(
            f"{name:<10} {count:>8}   {n_share * 100:5.1f}%   "
            f"{secs:8.3f}s   {s_share * 100:5.1f}%"
        )
    lines.append(
        f"{'total':<10} {total_n:>8}   100.0%   {total_s:8.3f}s   100.0%"
    )
    if sim_time is not None and total_s > 0:
        lines.append(
            f"throughput: {total_n / total_s:,.0f} events/s, "
            f"{sim_time / total_s:.2f} sim-s per wall-s (dispatch loop)"
        )
    stride = profile.get("timing_stride", 1)
    if stride > 1:
        lines.append(
            f"timing: 1/{stride} of dispatches sampled "
            "(seconds are scaled estimates; dispatch counts are exact, "
            "section entries sample at the stride)"
        )
    for name, row in sorted(profile.get("phases", {}).items()):
        lines.append(
            f"phase {name:<10} x{row['count']:<3} {row['seconds']:8.3f}s"
        )
    return "\n".join(lines) + "\n"
