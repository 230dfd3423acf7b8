(** Discrete-event simulator with light-weight processes.

    The x-kernel runs protocols with shepherd processes, semaphores and
    an event (timer) library.  This module reproduces that execution
    model on a virtual clock: processes are OCaml 5 effect-based fibers
    that can [delay], block on {!Semaphore}s and wait on {!Ivar}s; the
    scheduler advances virtual time from event to event.

    All blocking operations ([delay], [Semaphore.p], [Ivar.read], …)
    must be called from inside a fiber started with {!spawn} (or from a
    timer callback, which runs as a fiber); calling them elsewhere
    raises [Not_in_fiber]. *)

type t
(** A simulator instance: virtual clock plus pending-event queue. *)

exception Not_in_fiber
(** Raised when a blocking operation is performed outside any fiber. *)

exception Stalled of string
(** Raised by {!run} when [max_events] is exceeded — a runaway-protocol
    backstop for tests. *)

val create : ?max_events:int -> ?seed:int -> unit -> t
(** [create ()] is a fresh simulator at time 0.  [max_events] (default
    10 million) bounds the total number of events one {!run} may
    process.  [seed] (default 42) seeds {!rng}. *)

val now : t -> float
(** Current virtual time, in seconds. *)

val rng : t -> Random.State.t
(** The simulator's seeded random state.  Protocol-level randomness
    (retransmission jitter, chaos plans) draws from here so whole runs
    stay bit-reproducible; nothing in this library touches the global
    [Random] state. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn sim f] schedules a new fiber running [f] at the current
    virtual time.  Exceptions escaping [f] are logged and re-raised out
    of {!run}.  As with {!call_after}, the event that starts the fiber
    becomes its wait record. *)

type duration = { mutable seconds : float }
(** A span of virtual seconds, in a record its caller owns and rewrites
    before each use.  It is all-float, so a computed span is stored
    unboxed; passed as a float argument it would be boxed on every
    call. *)

val call_after : t -> duration -> ('a -> unit) -> 'a -> unit
(** [call_after sim d f x] schedules a new fiber running [f x]
    [d.seconds] from now, reading [d] once, on entry: a wire's frame
    delivery.  Unlike {!after} it returns no handle, so it cannot be
    cancelled, and it builds no closure: the event carries [f] and [x]
    and becomes the fiber's wait record when the fiber first blocks,
    so a delivery that blocks on a CPU charge allocates one event, not
    two.  Raises [Invalid_argument] if [d.seconds] is negative or
    NaN. *)

val delay : t -> float -> unit
(** [delay sim d] suspends the calling fiber for [d] virtual seconds.
    Raises [Invalid_argument] if [d] is negative or NaN. *)

val yield : t -> unit
(** [yield sim] reschedules the calling fiber at the current time,
    letting other ready fibers run first. *)

type event
(** A cancellable scheduled event — the x-kernel event library's
    [evSchedule] handle. *)

val timer : t -> float -> ('a -> unit) -> 'a -> event
(** [timer sim d f x] schedules [f x] to run (as a fiber) [d] seconds
    from now: the x-kernel's [evSchedule(func, arg, time)].  The event
    carries [f] and [x], so a timer whose function is built once and
    whose argument already exists allocates only the event.  Timer
    callbacks may themselves block; the returned event is the caller's
    cancel handle, which {!cancel} must find spent once [f] has
    started, so it never becomes the callback's wait record and a
    callback that blocks allocates its own.  Raises [Invalid_argument]
    if [d] is negative or NaN. *)

val after : t -> float -> (unit -> unit) -> event
(** [after sim d f] is {!timer} for a thunk: [f ()] runs (as a fiber)
    [d] seconds from now.  Raises [Invalid_argument] if [d] is negative
    or NaN. *)

val at : t -> float -> (unit -> unit) -> event
(** [at sim time f] schedules [f] to run (as a fiber) at virtual time
    [time] exactly: for a deadline computed earlier, where [after sim
    (time -. now sim)] could miss it by an ulp.  Raises
    [Invalid_argument] if [time] is behind the clock or NaN. *)

val cancel : event -> bool
(** [cancel ev] cancels [ev]; returns [false] if it already ran (or was
    already cancelled).  The x-kernel's [evCancel]. *)

val spent : t -> event
(** A handle that is never live: {!cancel} returns [false] on it.  A
    holder's value for "no timer armed", which needs no option box. *)

val run : ?until:float -> t -> unit
(** [run sim] processes events in time order until the queue is empty
    (or virtual time would pass [until]).  Re-raises the first exception
    that escaped a fiber.

    The clock ends at [until] only when a live event is left queued past
    it.  When the queues drain first, or hold only cancelled events, it
    stays at the last event fired, so a timer armed next counts from
    there.  An [until] behind the clock fires nothing and leaves the
    clock alone: the clock never decreases. *)

val pending : t -> int
(** Number of live (non-cancelled) events still queued. *)

val processed : t -> int
(** Total events executed so far — the denominator of the harness
    benchmark's events/sec figure. *)

(** Counting semaphores — the x-kernel's process-synchronisation
    primitive.  The paper attributes CHANNEL's cost to exactly this
    synchronisation (section 4.2). *)
module Semaphore : sig
  type sem

  val create : t -> int -> sem
  (** [create sim n] is a semaphore with initial count [n]. *)

  val p : sem -> unit
  (** Decrement; blocks the calling fiber while the count is zero.
      Waiters are released in FIFO order. *)

  val v : sem -> unit
  (** Increment, or, if fibers are blocked, wake the one that blocked
      first instead: it leaves the queue at once (a later [v] wakes the
      next one) and continues after everything already due at the
      current instant.  May be called from anywhere (including outside
      fibers). *)
end

(** FIFO servers: one resource held for a known time, granted in arrival
    order — a host's CPU, a shared wire.  Since the grant order is the
    arrival order, a hold's finish time is known when it arrives, and
    the hold is one timed wait to it, with no hand-off between holders.
    Finish times are those of a semaphore [p], [delay d], [v]. *)
module Server : sig
  type server

  val create : t -> server
  (** An idle server. *)

  val hold : server -> duration -> unit
  (** [hold s d] waits for every hold that arrived before it, then holds
      [s] for [d.seconds] seconds, blocking the calling fiber throughout.
      It reads [d.seconds] once, on entry, so [d] may be rewritten for
      the next hold while this one waits.  A hold of an idle server for
      [0.] returns at once.  Its queued wait takes its place among
      events at its finish instant when it arrives, not when the server
      is granted.  Raises [Invalid_argument] if [d.seconds] is negative
      or NaN. *)

  val busy : server -> float
  (** Total time held, counted as each hold ends. *)

  val wait : server -> float
  (** Total time holds spent queued behind others, counted as each hold
      arrives (its wait is known then). *)

  val reset : server -> unit
  (** Zeroes {!busy} and {!wait}. *)

  val holds : server -> int
  (** Holds in flight: the one being served, if any, plus those queued
      behind it. *)
end

(** Write-once cells: how a client fiber waits for its RPC reply. *)
module Ivar : sig
  type 'a ivar

  val create : t -> 'a ivar

  val fill : 'a ivar -> 'a -> unit
  (** Wakes every waiting reader, {!read} and {!read_timeout} alike, in
      the order they started waiting; each continues after everything
      already due at the current instant.  A reader whose timeout has
      already expired is not woken again.  Raises [Invalid_argument] if
      already filled. *)

  val is_filled : 'a ivar -> bool

  val read : 'a ivar -> 'a
  (** Blocks the calling fiber until filled. *)

  val read_timeout : 'a ivar -> float -> 'a option
  (** [read_timeout iv d] waits at most [d] seconds; [None] on timeout.
      The deadline is one timer event, queued when the reader blocks and
      cancelled by a fill that comes first; either way the reader
      continues after everything already due at that instant, and
      returns the value if a fill has landed by then.  Raises
      [Invalid_argument] if it would block and [d] is negative or
      NaN. *)
end
