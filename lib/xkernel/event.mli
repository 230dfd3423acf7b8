(** The x-kernel event (timer) library.

    Thin veneer over {!Sim} using the x-kernel's vocabulary: protocols
    schedule a handler to run after a delay and may cancel it before it
    fires — the mechanism behind every retransmission timer in the RPC
    layers.  A charged [Timer_op] accounts for the bookkeeping cost on
    the host that owns the timer. *)

type t
(** A scheduled event handle: the {!Sim.event} itself, with no record
    of its own. *)

val schedule : Host.t -> float -> (unit -> unit) -> t
(** [schedule host d f] runs [f] (in a fresh fiber) after [d] virtual
    seconds, charging one [Timer_op] to [host] now. *)

val cancel : Host.t -> t -> bool
(** [cancel host ev] cancels [ev], charging one [Timer_op]; [false] if
    the event already fired or was cancelled. *)

val abort : t -> bool
(** Like {!cancel} but free: no [Timer_op] is charged and no fiber is
    required.  For crash teardown ({!Host.at_reboot} hooks), where the
    machine is not executing normally. *)
