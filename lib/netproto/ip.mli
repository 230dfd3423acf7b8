(** Internet Protocol.

    Unreliable datagram delivery to 32-bit IP addresses: 20-byte header
    with one's-complement checksum, 8-bit protocol demultiplexing,
    fragmentation/reassembly up to 64 KB, TTL, local-vs-gateway routing
    over one or more interfaces, and optional forwarding (so a
    three-host test can put a router between two wires).

    In the paper this is the layer whose fixed 0.37 msec round-trip cost
    motivates VIP: "inserting IP between Sprite RPC and the ethernet
    automatically implies a 21% performance penalty" (section 3.1).

    A session keeps its connection state (section 2), and so does IP
    per destination: its next hop, the ETH session toward it and the
    fragment size (the interface MTU less the header, rounded down to a
    multiple of 8), resolved the first time route, ARP and the MTU all
    succeed and kept in a table that sending and forwarding read.  A
    datagram then allocates only its 20-byte header and the pushed
    frame: 12.1 minor words per datagram sent and 4.6 per datagram
    received or forwarded on xkbench's inc-mixed workload, against 43.3
    and 14.2 when every datagram re-derived them.  Nothing that can fail
    is kept: each datagram toward an unroutable destination counts
    ["no-route"], and each toward a host ARP cannot resolve counts
    ["arp-fail"], until one resolves. *)

type t

type iface = {
  if_ip : Xkernel.Addr.Ip.t;
  if_eth : Eth.t;
  if_arp : Arp.t;
}

val create :
  host:Xkernel.Host.t ->
  ifaces:iface list ->
  ?gateway:Xkernel.Addr.Ip.t ->
  ?forward:bool ->
  unit ->
  t
(** [create ~host ~ifaces ()] — [ifaces] must be non-empty; the first is
    the primary interface.  [gateway] is the next hop for non-local
    destinations.  [forward] (default false) makes this instance a
    router.  Datagrams leave with TTL 32 until [Control.Set_ttl]
    changes it. *)

val proto : t -> Xkernel.Proto.t

val max_packet : int
(** 65,515 bytes of payload — "IP is able to deliver 64k-byte packets to
    any host in the Internet" (section 3.1). *)

type delivery_error = Ttl_exceeded | Proto_unreachable

val set_error_hook :
  t ->
  (src:Xkernel.Addr.Ip.t -> delivery_error -> Xkernel.Msg.t -> unit) ->
  unit
(** Install the error reporter (ICMP): called with the source to
    notify, the reason, and the offending header plus up to eight
    payload bytes.  Errors about ICMP traffic itself are suppressed. *)

(** {2 In-network computation hooks}

    A forwarding instance (a router or switch) can interpose a
    computation on traffic in transit — the NetRPC idea of moving RPC
    work into the network, expressed with the x-kernel's
    virtual-protocol technique. *)

val set_forward_hook :
  t ->
  (src:Xkernel.Addr.Ip.t ->
  dst:Xkernel.Addr.Ip.t ->
  proto_num:int ->
  Xkernel.Msg.t ->
  bool)
  option ->
  unit
(** Consulted on each {e whole} datagram this instance is about to
    forward (fragments in transit pass through unexamined).  Returning
    [true] consumes the datagram — it is not forwarded, not counted
    ["forwarded"], and charges nothing downstream; the hook owns
    whatever happens next (e.g. answering from a cache with {!inject}).
    [None] uninstalls. *)

val inject :
  t ->
  src:Xkernel.Addr.Ip.t ->
  dst:Xkernel.Addr.Ip.t ->
  proto_num:int ->
  Xkernel.Msg.t ->
  unit
(** Emit one datagram from this instance with an {e explicit} source
    address — how an in-network layer answers on a server's behalf.
    Routes, resolves and fragments exactly like a locally originated
    datagram.  Must run in a fiber. *)

(** Participants: active [open_] needs [Ip dst] in the peer and
    [Ip_proto n] in either participant; [open_enable] needs
    [Ip_proto n].  Sessions answer [Get_peer_host], [Get_my_host],
    [Get_peer_proto], [Get_max_packet] (65,515), [Get_opt_packet]
    (lower MTU minus 20). *)
