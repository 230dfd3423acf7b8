(** Ethernet device driver.

    One per (host, wire) pair.  Transmission is asynchronous: the
    calling shepherd process pays only the driver cost
    ([Machine.Device]) and the frame is queued for a transmitter fiber, so
    protocol processing of the next fragment overlaps serialization of
    the previous one — the pipelining that lets the throughput tests
    "drive the ethernet controller at its maximum rate" (section 4.1).

    On the receive side the device filters destination addresses in
    "hardware" (free): the wire asks the filter as it sends each copy,
    so a frame for another station costs no event at all.  An accepted
    frame dispatches an interrupt: a fresh shepherd fiber charges
    [Machine.Interrupt] and hands the frame to the handler the ETH protocol
    registered. *)

type t

val create : host:Host.t -> wire:Wire.t -> t
(** Attaches to [wire]; the device's unicast address is the host's
    ethernet address. *)

val host : t -> Host.t

val attachment : t -> Wire.attachment
(** The device's tap on the wire, for {!Wire.block_pair} and friends. *)

val transmit : t -> Msg.t -> unit
(** [transmit dev frame] queues a complete ethernet frame (header
    already pushed).  Must run in a fiber. *)

val set_handler : t -> (Msg.t -> unit) -> unit
(** Install the receive handler (the ETH protocol's entry point). *)

val set_promiscuous : t -> bool -> unit
(** Accept frames addressed to other stations too (test taps).  The
    filter judges a frame when the sender finishes serializing it, 5
    microseconds of propagation before it arrives, so a frame already
    propagating when the setting changes is judged by the old one. *)

val eth_header_bytes : int
(** 14: destination (6) + source (6) + type (2). *)

val peek_dst : Msg.t -> Addr.Eth.t option
(** Read the destination address of a frame without consuming it;
    [None] for runt frames. *)

