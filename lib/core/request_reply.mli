(** REQUEST_REPLY — Sun RPC's transaction layer (section 5, "Mix and
    Match RPCs").

    Matches replies to requests with a transaction id (xid) and
    retransmits on timeout, but — unlike CHANNEL — keeps *no* state
    about executed requests: a retransmission that crosses a slow reply
    causes re-execution.  These are Sun RPC's "zero or more" semantics;
    the paper's mix-and-match point is that swapping this layer for
    CHANNEL upgrades a Sun RPC stack to at-most-once without touching
    anything else.

    Header: type (1), xid (4), protocol number (4). *)

type t

val create : host:Xkernel.Host.t -> lower:Xkernel.Proto.t -> t
(** This layer's own number toward [lower] is 95.  A client waits 25 ms
    for each reply and retransmits 4 times before the call fails. *)

val proto : t -> Xkernel.Proto.t
(** Its ["executed"] counter is the server-side deliveries: under
    duplication it {e exceeds} the number of distinct requests, which
    is what tells zero-or-more from at-most-once. *)

val session :
  t -> peer:Xkernel.Addr.Ip.t -> upper_proto:int -> Xkernel.Proto.session
(** Client session toward [peer] on behalf of the upper protocol
    identified by [upper_proto].  Cached. *)

val call :
  t -> Xkernel.Proto.session -> Xkernel.Msg.t ->
  (Xkernel.Msg.t, Rpc_error.t) result
(** Blocking transaction; concurrent calls on one session are fine
    (xids demultiplex). *)

(** Server side: [open_enable] with [Ip_proto n]; each request is
    delivered up, and the upper protocol must reply by pushing into the
    session within the same fiber (before its demux returns). *)
