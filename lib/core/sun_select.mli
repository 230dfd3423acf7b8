(** SUN_SELECT — Sun RPC's selection layer (section 5).

    Maps (program, version, procedure) triples onto registered
    procedures, over any transaction layer that provides blocking
    request/reply — REQUEST_REPLY for authentic Sun RPC's zero-or-more
    semantics, or CHANNEL for the at-most-once upgrade the paper
    describes ("one can replace the REQUEST_REPLY protocol … with the
    CHANNEL protocol").  Combined with FRAGMENT below the transaction
    layer, this reproduces the paper's other mix: Sun RPC that no
    longer "depend[s] on IP to fragment large messages".

    Header: program (4), version (4), procedure (4), status (1). *)

type t

(** The transaction layer abstraction: how SUN_SELECT runs one blocking
    exchange.  {!over_request_reply} and {!over_channel} build the two
    instances the paper composes. *)
type transaction = {
  x_open : peer:Xkernel.Addr.Ip.t -> Xkernel.Proto.session;
  x_call :
    Xkernel.Proto.session -> Xkernel.Msg.t ->
    (Xkernel.Msg.t, Rpc_error.t) result;
  x_serve : upper:Xkernel.Proto.t -> unit;
  x_proto : Xkernel.Proto.t;
}

val over_request_reply : Request_reply.t -> proto_num:int -> transaction
val over_channel : Channel.t -> proto_num:int -> transaction

val create : host:Xkernel.Host.t -> transaction:transaction -> t

(** {1 Client} *)

type client

val connect :
  t -> server:Xkernel.Addr.Ip.t -> prog:int -> vers:int -> client

val call :
  client -> proc:int -> Xkernel.Msg.t ->
  (Xkernel.Msg.t, Rpc_error.t) result

(** {1 Server} *)

val register :
  t -> prog:int -> vers:int -> proc:int -> Select.handler -> unit

val serve : t -> unit

val status_prog_unavail : int
val status_proc_unavail : int

val calls_handled : t -> int
