(** Address Resolution Protocol.

    Maps IP host addresses to ethernet addresses over broadcast
    request/unicast reply, with a gleaning cache.  Two clients in this
    repository: IP (next-hop resolution) and VIP, which uses ARP
    reachability as its locality test — "If ARP can resolve the address,
    then the destination host must be on the local ethernet"
    (section 3.1). *)

type t

val create : host:Xkernel.Host.t -> eth:Eth.t -> t
(** Registers on [eth] with the ARP ethernet type and pre-loads its own
    binding. *)

val proto : t -> Xkernel.Proto.t

val resolve : t -> Xkernel.Addr.Ip.t -> Xkernel.Addr.Eth.t option
(** [resolve t ip] returns the ethernet address of [ip] if [ip] is
    reachable on the local wire: from cache, or by broadcasting requests
    (3 tries, 50 ms apart).  Blocks the calling fiber.  The broadcast IP
    address resolves to the broadcast ethernet address. *)

val reverse : t -> Xkernel.Addr.Eth.t -> Xkernel.Addr.Ip.t option
(** Reverse cache lookup — lets header-less virtual protocols identify
    the IP peer behind an incoming ethernet session. *)

val generation : t -> int
(** A count that grows whenever the table gains a mapping or one changes
    — not when a reply repeats what it holds — so a client that
    remembers {!reverse} answers knows when they may be stale. *)

(** The protocol object answers [Resolve] (blocking; [R_eth] or
    [R_bool false]), [Reverse_resolve], and [Is_local]. *)
