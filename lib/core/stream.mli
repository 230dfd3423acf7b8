(** STREAM — a reliable byte stream from building blocks.

    The paper reports applying the layered-protocol technique "to
    stream-oriented protocols with modest success" (section 6) and
    explains why TCP itself cannot sit on VIP: TCP reads the length
    field of the IP header and checksums across it, a compiled-in
    dependency on the layer below (section 5, "Generality of Virtual
    Protocols").  STREAM is the protocol that discussion asks for — a
    sliding-window reliable stream that carries its *own* length field
    and checksums nothing outside its own header, so it composes with
    any message-delivery layer with the same semantics that can name the
    peer by IP address: IP or VIP.  The tests run it over both,
    unchanged.

    Mechanics: cumulative acknowledgements, out-of-order segment
    buffering on the receiver, go-back-N retransmission on timeout, and
    a fixed send window (in segments).  Connections are implicit — one
    stream per (peer, upper protocol number) pair, sequence numbers
    starting at 1 — because connection setup/teardown is orthogonal to
    the composition question this protocol exists to answer.

    Header: type (1), sequence (4), ack (4), window (2), length (2). *)

type t

val create : host:Xkernel.Host.t -> lower:Xkernel.Proto.t -> t
(** Protocol number 99 names STREAM toward the layer below.  The send
    window is 8 segments, each what fits one lower-layer packet; the
    retransmission timeout is 30 ms, with 8 retransmissions before the
    stream breaks. *)

type conn

val connect : t -> peer:Xkernel.Addr.Ip.t -> conn
(** The (cached) stream toward [peer].  Both directions use the same
    connection object. *)

exception Broken
(** Raised by {!send} when the peer stopped acknowledging. *)

val send : conn -> Xkernel.Msg.t -> unit
(** Append bytes to the stream.  Blocks the calling fiber while the
    send window is full; returns when the data is queued (not yet
    acknowledged).  Segments are delivered to the peer's {!on_receive}
    callback in order, exactly once. *)

val flush : conn -> unit
(** Block until everything sent so far has been acknowledged. *)

val on_receive : t -> (peer:Xkernel.Addr.Ip.t -> Xkernel.Msg.t -> unit) -> unit
(** In-order delivery callback (chunk boundaries are not preserved —
    it is a byte stream). *)

val bytes_sent : conn -> int
val bytes_acked : conn -> int
val stat : t -> string -> int
