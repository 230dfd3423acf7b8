(** Peer identification for header-less protocols.

    A virtual protocol attaches no header, so when a message comes up
    from below it must learn *who* sent it from the lower session
    itself, via [control] — the paper's "Information Loss" observation
    in action.  An IP-like session answers [Get_peer_host] directly; an
    ethernet session is identified through the reverse ARP cache plus
    the VIP ethernet-type mapping.

    A lower session keeps its peer for life, so a virtual protocol
    identifies it once: the {!cache} binds each lower session to the
    upper session its first message resolved to (the x-kernel's demux
    hands the upper protocol the lower session for exactly this). *)

val identify :
  arp:Arp.t ->
  Xkernel.Proto.session ->
  (Xkernel.Addr.Ip.t * Xkernel.Addr.ip_proto) option
(** [identify ~arp lower] is the (peer IP, IP protocol number) pair
    behind [lower], or [None] if the session cannot be identified. *)

type 'a cache
(** Lower session → the upper session (['a]) it resolved to. *)

val cache : arp:Arp.t -> 'a cache
(** An empty cache whose bindings hold while [arp]'s table stays as it
    is: an ethernet session's peer is read from that table. *)

val find : 'a cache -> Xkernel.Proto.session -> 'a
(** [find c lower] is the upper session bound to [lower], without
    allocating.  Raises [Not_found] if there is none, or if ARP's table
    has changed since the bindings were made (they are then dropped);
    the caller then identifies and resolves [lower] as on its first
    message. *)

val bind : 'a cache -> Xkernel.Proto.session -> 'a -> unit
(** [bind c lower upper] records that [lower]'s messages go to [upper].
    Bind only a session that {!find} just missed. *)

val clear : 'a cache -> unit
(** Drop every binding: an upper session has closed. *)
