"""``repro profile``: run any bench or figure target under cProfile.

Prints the top hot-path table (sorted by internal time by default), so
"why is this campaign slow" is one command instead of a scratch script::

    PYTHONPATH=src python -m repro profile kernel --scale quick
    PYTHONPATH=src python -m repro profile fig7 --scale quick
    PYTHONPATH=src python -m repro profile bench:mdcache --sort cumtime --top 40

Profiling adds substantial overhead (it traces every Python and C call),
so the absolute numbers are inflated — use the table for *relative*
ranking and the kernel bench (``repro bench kernel``) for honest
wall-clock numbers.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Callable, Dict, List

from .suites import SUITES

#: profile target -> zero-arg callable factory (scale, seed) -> fn
_TARGETS: Dict[str, Callable[[str, int], Callable[[], object]]] = {}


def _register(name: str):
    def deco(factory):
        _TARGETS[name] = factory
        return factory
    return deco


@_register("kernel")
def _kernel(scale: str, seed: int):
    from .kernel_bench import run
    return lambda: run(scale=scale, seed=seed, repeats=1)


@_register("kernel:timers")
def _kernel_timers(scale: str, seed: int):
    from .kernel_bench import _SCALES, _run_timers
    p = _SCALES[scale]
    return lambda: _run_timers(p[0], p[1])


@_register("kernel:fanout")
def _kernel_fanout(scale: str, seed: int):
    from .kernel_bench import _SCALES, _run_fanout
    p = _SCALES[scale]
    return lambda: _run_fanout(p[2], p[3], p[4])


@_register("kernel:spawn_interrupt")
def _kernel_spawn(scale: str, seed: int):
    from .kernel_bench import _SCALES, _run_spawn_interrupt
    p = _SCALES[scale]
    return lambda: _run_spawn_interrupt(p[5], p[6])


@_register("kernel:resource")
def _kernel_resource(scale: str, seed: int):
    from .kernel_bench import _SCALES, _run_resource
    p = _SCALES[scale]
    return lambda: _run_resource(p[7], p[8], p[9])


for _name, _suite in SUITES.items():
    _TARGETS[f"bench:{_name}"] = \
        lambda scale, seed, _suite=_suite: lambda: _suite.run(scale, seed)


def _figure(name: str):
    @_register(name)
    def _fig(scale: str, seed: int, _name=name):
        from . import figures
        runner = getattr(figures, f"run_{_name}")
        return lambda: runner(scale=scale, seed=seed)
    return _fig


for _n in ("fig7", "fig8", "fig9", "fig10", "fig11",
           "single_dir", "cmd_comparison", "ablations"):
    _figure(_n)
_TARGETS["singledir"] = _TARGETS.pop("single_dir")
_TARGETS["cmd"] = _TARGETS.pop("cmd_comparison")


def profile_targets() -> List[str]:
    return sorted(_TARGETS)


def run_profile(target: str, scale: str = "quick", seed: int = 0,
                top: int = 25, sort: str = "tottime") -> str:
    """Profile one target; returns the rendered hot-path table."""
    try:
        fn = _TARGETS[target](scale, seed)
    except KeyError:
        raise ValueError(
            f"unknown profile target {target!r} "
            f"(choose from: {', '.join(profile_targets())})") from None
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.sort_stats(sort).print_stats(top)
    header = (f"profile: target={target} scale={scale} seed={seed} "
              f"sort={sort} top={top}\n"
              "(profiler overhead inflates absolute times — rank only)\n")
    return header + buf.getvalue()

