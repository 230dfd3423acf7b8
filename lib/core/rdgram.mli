(** Reliable datagrams on top of CHANNEL.

    "It is trivial to build a reliable datagram protocol on top of
    CHANNEL" (section 3.2) — this is that protocol: each datagram is a
    CHANNEL transaction whose reply is empty, so delivery is confirmed
    (at most once) without any new machinery.  Roughly fifty lines,
    which is the paper's point about composing building blocks. *)

type t

val create : host:Xkernel.Host.t -> channel:Channel.t -> t
(** RDGRAM's protocol number toward CHANNEL is 94. *)

val send :
  t -> dest:Xkernel.Addr.Ip.t -> Xkernel.Msg.t ->
  (unit, Rpc_error.t) result
(** Blocking reliable send (channel 0 toward [dest]). *)

val listen : t -> (Xkernel.Addr.Ip.t -> Xkernel.Msg.t -> unit) -> unit
(** Deliver each received datagram (exactly once per successful send)
    to the callback. *)
