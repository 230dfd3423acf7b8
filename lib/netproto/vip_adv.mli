(** VIP capability advertisement.

    VIP's ARP-reachability test assumes every host on the local
    ethernet also runs VIP; the paper notes that "a more general
    solution would be to maintain a table of hosts on the local network
    that support VIP.  This table could be dynamically maintained by
    running a broadcast-based protocol that advertizes the protocols
    that a given host supports; this approach is currently used in
    4.3BSD Unix to determine if trailers may be used" (section 3.1).

    This is that protocol: each participating host broadcasts a beacon
    naming its IP address, answers queries, and keeps a table of
    advertisers.  Hand the instance to {!Vip.create} via [?adv] and VIP
    will take the ethernet path only toward hosts that advertised —
    falling back to IP for everyone else, instead of silently sending
    them raw-ethernet packets they would drop.

    Packet: op (1: beacon or query), advertiser IP (4), version (1). *)

type t

val create : host:Xkernel.Host.t -> eth:Eth.t -> t
(** Broadcasts an initial beacon and answers queries. *)

val proto : t -> Xkernel.Proto.t

val supports : t -> Xkernel.Addr.Ip.t -> bool
(** Has this host advertised VIP support?  (The local host always
    counts.) *)

val query : t -> unit
(** Broadcast a query: everyone re-beacons.  Useful for late joiners. *)
