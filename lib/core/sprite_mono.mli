(** M.RPC — monolithic Sprite RPC (section 3).

    The un-decomposed comparison point: selection, channels with
    implicit acknowledgement and at-most-once semantics, and internal
    fragmentation all behind the single 36-byte SPRITE_HDR.  Behaviour
    mirrors Sprite's RPC system:

    - a fixed set of channels; one outstanding call per channel;
    - implicit acks (a reply acknowledges the request and all its
      fragments; the next request acknowledges the previous reply);
    - fragments of one call share a sequence number and are
      distinguished by the fragment mask — unlike layered FRAGMENT,
      retransmission is selective: an explicit (partial) ACK carries the
      mask of fragments the server has, and the client resends only the
      missing ones;
    - at-most-once by {!Amo}, the rule CHANNEL shares, with boot
      identifiers across restarts; a crash of the host ends its
      outstanding calls with [Rebooted] and clears its state.

    Semantically equivalent to layered L.RPC (SELECT ∘ CHANNEL ∘
    FRAGMENT) but *not* wire-compatible with it — "they are in effect
    two different protocols that provide the same level of service".

    The lower protocol is bound late: participants are supplied by the
    caller, so the same code runs over ETH (M.RPC-ETH), IP (M.RPC-IP)
    or VIP (M.RPC-VIP) — the three rows of Table I. *)

type t

val proto_num : int
(** 91: M.RPC's protocol number toward the layer below. *)

val create : host:Xkernel.Host.t -> lower:Xkernel.Proto.t -> t
(** Sprite's parameters: 1 KB fragments, 8 channels, and a timeout of
    20 ms, plus 3 ms per fragment for multi-fragment calls, with 5
    retries. *)

val proto : t -> Xkernel.Proto.t

(** {1 Client} *)

type client

val connect :
  t -> server:Xkernel.Addr.Ip.t ->
  ?remote:Xkernel.Part.participant ->
  unit ->
  client
(** [remote] overrides the remote participant handed to the lower
    protocol's [open_] — e.g. [[Eth e; Eth_type ty]] to run directly
    over the ethernet.  Defaults to [[Ip server; Ip_proto n]]. *)

val call :
  client -> command:int -> Xkernel.Msg.t ->
  (Xkernel.Msg.t, Rpc_error.t) result
(** Blocking; allocates a channel (waits for one if all are busy). *)

(** {1 Server} *)

val register : t -> command:int -> Select.handler -> unit

val serve : t -> ?enable:Xkernel.Part.participant -> unit -> unit
(** [enable] is the local participant for the lower [open_enable]
    (default [[Ip_proto n]]; use [[Eth_type ty]] over raw ethernet). *)

