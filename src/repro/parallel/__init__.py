"""``repro.parallel`` — component-sharded parallel branch-and-bound.

The MaxRFC search decomposes naturally after the Algorithm 2 reduction:
surviving connected components are independent subproblems, coupled only
through the incumbent (which can only ever shrink work).  This package runs
the reduction once, compiles the frozen :mod:`repro.kernel` snapshot, splits
the components into shards (oversized ones one branch level deep), and solves
the shards in a process pool with a shared incumbent-size channel.  The
serial search runs the same shard plan with one worker, through the same
:meth:`~repro.kernel.search.KernelBranchAndBound.run`.

Entry points, from highest to lowest level:

* ``workers=N`` on a :class:`repro.api.FairCliqueQuery` (or the CLI's
  ``solve --search-workers N``) — the exact engine dispatches here;
* :func:`solve_parallel` / ``ParallelMaxRFC(config, workers=N)`` — the
  solver itself;
* :func:`plan_shards` — the shard planner, usable standalone.

The executor is exact: clique sizes always match the serial kernel search
(the returned clique may be a different one of equal size).  It pays off on
multi-core machines with several surviving components or one large split
component; on tiny graphs the fork/poll overhead loses to serial.
"""

from repro.parallel.executor import ParallelMaxRFC, solve_parallel
from repro.parallel.sharding import Shard, ShardPlan, plan_shards
from repro.parallel.worker import ShardResult, WorkerPayload, run_shard

__all__ = [
    "ParallelMaxRFC",
    "Shard",
    "ShardPlan",
    "ShardResult",
    "WorkerPayload",
    "plan_shards",
    "run_shard",
    "solve_parallel",
]
