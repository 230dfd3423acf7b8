(** Ethernet protocol (ETH in the paper's figures).

    The bottom of every configuration: 14-byte header (destination,
    source, 16-bit type), 1500-byte MTU, broadcast.  Demultiplexes
    incoming frames on the type field to whichever upper protocol
    enabled it — 65,536 possible upper protocols, which is what gives
    VIP room to map the 256 IP protocol numbers into an unused range
    (section 3.1). *)

type t

val create : host:Xkernel.Host.t -> dev:Xkernel.Netdev.t -> t
(** Creates the protocol object and installs itself as the device's
    receive handler. *)

val proto : t -> Xkernel.Proto.t

(** Participants: an active [open_] needs [Eth dst] in the peer
    participant and [Eth_type ty] in either participant; [open_enable]
    needs [Eth_type ty].  Sessions answer [Get_mtu], [Get_max_packet],
    [Get_opt_packet], [Get_my_eth], [Get_peer_eth], [Get_peer_proto]. *)
