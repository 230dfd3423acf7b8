(** SELECT — procedure selection and channel allocation (section 3.2).

    The top layer of layered Sprite RPC.  On the client it maps an RPC
    invocation onto one of the fixed set of CHANNEL sessions — blocking
    when none is free — and caches everything so the per-call cost is
    one table lookup plus its 4-byte header (the paper's measured
    0.11 msec, the minimum cost of any layer).  On the server it maps
    the command (procedure id) in the header onto a registered
    procedure.

    SELECT is a separate protocol, rather than being folded into
    CHANNEL, so that other addressing schemes can be slotted in — see
    {!Select_fwd} for the forwarding variant the paper mentions. *)

type t

val proto_num : int
(** 90: identifies the SELECT/CHANNEL pair to the layers below. *)

val create : host:Xkernel.Host.t -> channel:Channel.t -> t

val proto : t -> Xkernel.Proto.t

(** {1 Client} *)

type client

val connect : t -> server:Xkernel.Addr.Ip.t -> client
(** Opens (and caches) one SELECT session per channel to [server] —
    "caching open sessions at all three levels". *)

val call :
  client ->
  ?expires:float ->
  ?shard:Wire_fmt.Select.stamp ->
  command:int ->
  Xkernel.Msg.t ->
  (Xkernel.Msg.t, Rpc_error.t) result
(** Allocate a free channel (blocking the calling fiber if all are in
    use), run the transaction, release the channel.  [expires] threads
    the caller's absolute deadline down to {!Channel.call} for wire
    propagation.  [shard] stamps the request with the virtual shard it
    was routed by and the routing map's generation; a sharding server
    that disowns the shard under a strictly newer map answers
    [Error (Wrong_shard v)] without executing the procedure. *)

val free_channels : client -> int

(** {1 Server} *)

type handler = Xkernel.Msg.t -> (Xkernel.Msg.t, int) result
(** A procedure: request body to reply body, or a non-zero status. *)

val register : t -> command:int -> handler -> unit
(** Bind a command (procedure id) to a procedure. *)

val serve : t -> unit
(** Passively enable the stack below; unknown commands are answered
    with [status_no_command].  Requests whose propagated deadline has
    already lapsed (per the lower session's [Get_rx_deadline]) are
    dropped before the procedure's CPU is charged and their replies
    suppressed (["deadline-expired-server"]). *)

val serve_behind : t -> upper:Xkernel.Proto.t -> unit
(** Like {!serve}, but incoming requests are delivered to [upper] — an
    admission-control protocol such as {!Admit} — which forwards the
    admitted ones back down into this server's demux. *)

(** {1 Sharding}

    Off by default; nothing below changes any output until
    {!enable_sharding} is called. *)

val enable_sharding : t -> self:int -> unit
(** Declare this server to be replica index [self] of a sharded set.
    From then on the protocol answers [control (Install_map bytes)] by
    installing any strictly newer {!Shard_map} (counting
    ["map-update-rx"], exporting ["map-version"] and ["shards-owned"]
    gauges), and shard-stamped requests for shards it does not own under
    a map newer than the stamp are refused with [status_wrong_shard]
    (["wrong-shard-tx"]) instead of executed. *)

val install_shard_map : t -> Shard_map.t -> bool
(** Direct install (the control path calls this); [false] if not newer
    than the map already held. *)
