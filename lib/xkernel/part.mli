(** Participant sets.

    Every [open], [open_enable] and [open_done] takes a participant set
    identifying who is to communicate through the created session
    (section 2).  By convention the first participant is the local one.
    Each participant is a small list of address components; protocols
    pick out the components they understand and ignore the rest, which
    is what lets one participant set flow down through a whole stack at
    open time. *)

type component =
  | Ip of Addr.Ip.t
  | Eth of Addr.Eth.t
  | Port of Addr.port
  | Ip_proto of Addr.ip_proto  (** 8-bit IP protocol number. *)
  | Eth_type of Addr.eth_type  (** 16-bit ethernet type. *)
  | Channel of int             (** Sprite RPC channel number. *)
  | Command of int             (** Sprite RPC command (procedure id). *)
  | Program of int * int       (** Sun RPC program number and version. *)
  | Procedure of int           (** Sun RPC procedure number. *)
  | Any                        (** Wildcard: unspecified in open_enable. *)

type participant = component list

type t = { local : participant; remotes : participant list }
(** A participant set: the local participant plus zero or more remote
    peers.  [open] and [open_done] require at least one remote;
    [open_enable] may leave [remotes] empty (section 2). *)

val v : local:participant -> ?remotes:participant list -> unit -> t

val peer : t -> participant
(** [peer p] is the first remote participant.  Raises [Invalid_argument]
    if there is none — protocols whose [open] needs a peer call this. *)

val peer_opt : t -> participant option

(** Component accessors: [find_*] scans a participant front to back. *)

val find_ip : participant -> Addr.Ip.t option
val find_eth : participant -> Addr.Eth.t option
val find_port : participant -> Addr.port option
val find_ip_proto : participant -> Addr.ip_proto option
val find_eth_type : participant -> Addr.eth_type option
val find_channel : participant -> int option
val find_command : participant -> int option
val find_program : participant -> (int * int) option
val find_procedure : participant -> int option

(** {1 IP-keyed conventions}

    The protocols that sit on an IP-like layer (IP itself, VIP and its
    variants, FRAGMENT, CHANNEL, and the RPC layers above) all name a
    session by the peer's IP address and an IP protocol number. *)

val peer_ip : t -> Addr.Ip.t
(** The peer's IP address.  Raises [Invalid_argument] if there is no
    peer or it names no address. *)

val ip_proto : t -> Addr.ip_proto
(** The IP protocol number: the peer's if it names one, else the local
    participant's — so it also reads an [open_enable] set.  Raises
    [Invalid_argument] if neither names one. *)

val ip_open : local:Addr.Ip.t -> peer:Addr.Ip.t -> Addr.ip_proto -> t
(** [ip_open ~local ~peer n]: local and peer address, both under
    protocol number [n] — what a protocol hands to [open_] on the layer
    below. *)

val ip_enable : Addr.ip_proto -> t
(** A local-only participant naming protocol number [n] — what a
    protocol hands to [open_enable] on the layer below. *)

val with_component : participant -> component -> participant
(** [with_component p c] adds [c] to the front of [p] — how a protocol
    refines a participant before opening the next protocol down. *)

val pp : Format.formatter -> t -> unit
