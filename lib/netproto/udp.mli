(** User Datagram Protocol.

    Port-demultiplexed unreliable datagrams over any lower protocol that
    delivers to IP addresses (IP or VIP — the late binding is the
    point).  UDP "sends arbitrarily large messages (i.e., it depends on
    IP to fragment large messages)" (section 3.1), so its advertised
    maximum message size is the lower protocol's maximum packet.

    The paper notes (section 5) that moving UDP under VIP is hard *in
    general* because two 16-bit ports cannot be mapped into an 8-bit IP
    protocol number when VIP needs ETH types for them; here UDP keeps
    its own header (ports travel in-band), so composing it over VIP
    works, while the mapping caveat is a documented design limit.

    The optional checksum covers a source/destination pseudo-header
    obtained from the lower session via [control] — exactly the
    information-loss pattern the paper discusses for TCP. *)

type t

val create :
  host:Xkernel.Host.t -> lower:Xkernel.Proto.t -> ?checksum:bool -> unit -> t
(** [create ~host ~lower ()] opens nothing until sessions are created.
    [checksum] defaults to [false] (SunOS-era default). *)

val proto : t -> Xkernel.Proto.t

(** Participants: active [open_] needs [Ip dst] and [Port dport] in the
    peer; the local [Port] defaults to an ephemeral one.  [open_enable]
    needs a local [Port].  Sessions answer [Get_my_port],
    [Get_peer_port], [Get_peer_host], [Get_max_packet]. *)
