(** The one clock of the repository.

    Everything that reads time goes through {!now}: spans and latencies,
    benchmarks, the supervisor's select timeouts and kill deadlines, and
    the {!Resilience.Budget} deadlines the solvers stop on. The
    [clock-outside-obs] lint rule confines raw clock reads to this
    module, so a solver deadline and the wall-clock kill that backstops
    it always count the same time. *)

val now : unit -> float
(** Monotonically non-decreasing wall-clock seconds: the system clock
    behind a max guard, so differences are never negative even across a
    backwards clock step. *)
