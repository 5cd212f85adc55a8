"""Rule families (importing this package registers every rule).

Family          Rules                                   Scope
--------------  --------------------------------------  --------
nondeterminism  global-rng, wall-clock, env-read        guarded
ordering        set-iter, id-sort, float-time-eq        guarded
streams         stream-dup, stream-dynamic              tree
procpool        procpool-unsafe                         tree
hotpath         hot-slots, error-swallow                hot/tree
"""

from repro.analysis.rules import hotpath, nondet, ordering, procpool, streams

__all__ = ["nondet", "ordering", "streams", "procpool", "hotpath"]
