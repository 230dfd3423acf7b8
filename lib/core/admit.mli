(** ADMIT — server-side admission control as a virtual protocol.

    The overload policy the paper's virtual-protocol technique makes
    composable: slotted between CHANNEL and a {!Select} server (via
    {!Select.serve_behind}), it puts an explicit, bounded queue in
    front of the procedure and decides, per request, to

    - {b execute} it (delivered on to the SELECT server by a single
      worker fiber, so the queue sojourn is honest waiting time);
    - {b reject} it with an explicit busy-pushback reply
      ([Control.Reject_busy] on the channel session, surfaced at the
      caller as [Error Busy] in one round trip) when the queue is full,
      or when a CoDel-style controller has seen the sojourn time stay
      above [codel_target] for a whole [codel_interval];
    - {b drop} it silently when its propagated deadline
      ([Control.Get_rx_deadline]) lapsed while it queued — the caller
      has given up, so no reply is owed and no procedure CPU is spent.

    With [lifo] set, overload flips the queue to last-in-first-out:
    fresh requests (whose callers are still waiting) are served first
    and stale ones age out via the deadline check — the classic
    LIFO-under-overload discipline.

    Statistics (registered as ["<host>/ADMIT"]): ["admitted"],
    ["busy-rejected"], ["codel-drop"], ["deadline-expired-server"], and
    the gauge ["sojourn-max-us"]. *)

type config = {
  queue_limit : int;  (** bound on queued requests; beyond it, reject *)
  codel_target : float;
      (** sojourn-time target in seconds; [0.] disables the controller *)
  codel_interval : float;
      (** how long sojourn must stay above target before a drop *)
  lifo : bool;  (** serve newest-first under overload *)
}

val default : config
(** [{ queue_limit = 64; codel_target = 0.; codel_interval = 0.1;
      lifo = false }] — a plain bounded FIFO. *)

type t

val create :
  host:Xkernel.Host.t -> upper:Xkernel.Proto.t -> ?config:config -> unit -> t
(** [create ~host ~upper ()] builds the layer on [host], forwarding
    admitted requests to [upper] (the SELECT server's protocol, via
    {!Select.serve_behind} — or any protocol whose [demux] executes
    them).  Spawns the worker fiber immediately. *)

val proto : t -> Xkernel.Proto.t
(** Pass as [upper] to {!Select.serve_behind}. *)

val depth : t -> int
(** Requests currently queued. *)

val busy_rejected : t -> int

val codel_dropped : t -> int

val expired_dropped : t -> int
