(** Probe — a minimal echo protocol for measuring raw stack latency.

    The first row of Table III ("VIP", 1.12 msec) is the round-trip
    time of a message through the bare delivery stack, with no RPC
    machinery above it.  Probe is the measurement harness for such
    rows: a 5-byte header (kind, sequence number), a client that sends
    and waits, and a server that echoes.  It is also the simplest
    possible example of a complete x-kernel protocol (~100 lines,
    matching the paper's claim that trivial protocols cost ~0.11 msec
    per layer). *)

type t

val create :
  host:Xkernel.Host.t ->
  lower:Xkernel.Proto.t ->
  ?max_msg:int ->
  ?port:int ->
  ?user_level:bool ->
  unit ->
  t
(** Protocol number 200 identifies Probe to the stack below;
    [max_msg] (default 1480) is what Probe answers to
    [Get_max_msg_size] — VIP reads it at open time.  [port] adds a
    [Port] component to the participants (required when [lower] is
    UDP).  [user_level] charges a user/kernel boundary crossing per
    message, for user-to-user measurements like the paper's intro UDP
    comparison (the section 4 experiments are kernel-to-kernel). *)

val proto : t -> Xkernel.Proto.t

val serve : t -> unit
(** Passively enable: echo every request back to its sender. *)

val rtt :
  t -> peer:Xkernel.Addr.Ip.t -> ?size:int -> unit -> float option
(** [rtt t ~peer ()] sends a probe of [size] payload bytes (default 0)
    and returns the round-trip time in virtual seconds, or [None] after
    1 s.  Blocks; call from a fiber. *)

