(** Internet Control Message Protocol.

    Part of the Arpanet suite the x-kernel carried (the paper's
    introduction lists RFC 792 among the implemented protocols).  Two
    roles here:

    - {b echo}: {!ping} measures reachability and round-trip time
      through the real IP path (including across the router of
      {!World.create_internet});
    - {b errors}: IP reports undeliverable traffic through its error
      hook, and ICMP turns the reports into Time-Exceeded /
      Destination-Unreachable messages sent back to the source — so a
      TTL loop or an unbound protocol number is observable instead of a
      silent drop.

    Header: type (1), code (1), checksum (2), identifier (2),
    sequence (2), then the payload (for errors: the offending
    datagram's IP header plus eight bytes, per the RFC). *)

type t

val create : host:Xkernel.Host.t -> ip:Ip.t -> t
(** Registers on [ip] with protocol number 1 and installs itself as the
    instance's error reporter. *)

val ping :
  t ->
  peer:Xkernel.Addr.Ip.t ->
  ?timeout:float ->
  unit ->
  float option
(** Echo round-trip time of 56 payload bytes in virtual seconds, or
    [None] on timeout ([timeout] defaults to 1 s).
    Blocks; call from a fiber. *)

type event =
  | Echo_reply of { from : Xkernel.Addr.Ip.t; seq : int }
  | Time_exceeded of { from : Xkernel.Addr.Ip.t }
  | Unreachable of { from : Xkernel.Addr.Ip.t; code : int }

val on_event : t -> (event -> unit) -> unit
(** Observe incoming ICMP traffic (errors arrive here too). *)

val code_proto_unreachable : int

val stat : t -> string -> int
