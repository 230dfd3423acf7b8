(** Forwarding selection layer.

    The alternative addressing scheme the paper mentions to justify
    SELECT being a separate protocol: "we have built an alternative
    selection layer that does forwarding" (section 3.2).  A forwarding
    selector serves a command set by relaying each request, unchanged,
    to a delegate host over its own client connection, and relaying the
    reply back — swapping it for plain {!Select} changes where
    procedures execute without touching CHANNEL or FRAGMENT. *)

type t

val create :
  host:Xkernel.Host.t ->
  channel:Channel.t ->
  delegate:Xkernel.Addr.Ip.t ->
  t
(** Requests arriving at this host are forwarded to [delegate] (which
    must run an ordinary {!Select} server; both use
    {!Select.proto_num}). *)

val serve : t -> unit
val forwarded : t -> int
