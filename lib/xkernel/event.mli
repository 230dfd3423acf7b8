(** The x-kernel event (timer) library.

    Thin veneer over {!Sim} using the x-kernel's vocabulary: protocols
    schedule a handler to run after a delay and may cancel it before it
    fires — the mechanism behind every retransmission timer in the RPC
    layers.  A charged [Timer_op] accounts for the bookkeeping cost on
    the host that owns the timer. *)

type t
(** A scheduled event handle: the {!Sim.event} itself, with no record
    of its own. *)

val schedule : Host.t -> float -> ('a -> unit) -> 'a -> t
(** [schedule host d f x] runs [f x] (in a fresh fiber) after [d]
    virtual seconds, charging one [Timer_op] to [host] now: the
    x-kernel's [evSchedule(func, arg, time)], a function and an
    argument rather than a closure.  A protocol builds [f] once and
    passes state it already holds as [x] (a session, or an int naming
    the transaction the timer guards), so arming a timer allocates only
    its event. *)

val none : Host.t -> t
(** A handle that is never live: {!cancel} and {!abort} return [false]
    on it.  A holder's value for "no timer armed", with no option
    box. *)

val cancel : Host.t -> t -> bool
(** [cancel host ev] cancels [ev], charging one [Timer_op]; [false] if
    the event already fired or was cancelled. *)

val abort : t -> bool
(** Like {!cancel} but free: no [Timer_op] is charged and no fiber is
    required.  For crash teardown ({!Host.at_reboot} hooks), where the
    machine is not executing normally. *)
