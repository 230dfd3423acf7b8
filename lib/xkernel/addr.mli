(** Network addresses.

    The paper's protocols identify participants with 32-bit IP host
    addresses, 48-bit ethernet addresses, 8-bit IP protocol numbers,
    16-bit ethernet types and 16-bit UDP ports.  This module supplies
    those address types along with parsing, formatting and the
    IP-number-to-ethernet-type mapping VIP relies on (section 3.1: "VIP
    maps IP protocol numbers onto an unused range of 256 ethernet
    types"). *)

(** 32-bit IPv4-style host addresses. *)
module Ip : sig
  type t = private int
  (** An IP address, stored as a non-negative 32-bit value. *)

  val v : int -> int -> int -> int -> t
  (** [v a b c d] is the address [a.b.c.d].  Raises [Invalid_argument]
      if any octet is outside 0..255. *)

  val of_int32_bits : int -> t
  (** [of_int32_bits n] interprets the low 32 bits of [n] as an address. *)

  val to_int : t -> int
  val of_string : string -> t option
  (** [of_string "10.0.0.1"] parses dotted-quad notation. *)

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
  val equal : t -> t -> bool
  val broadcast : t
  (** The limited-broadcast address 255.255.255.255. *)

  val any : t
  (** The wildcard address 0.0.0.0. *)

  val same_network : t -> t -> bool
  (** Same /24 network prefix: how the simulated hosts decide
      local-vs-gateway routing. *)
end

(** 48-bit ethernet addresses. *)
module Eth : sig
  type t = private int

  val v : int -> t
  (** [v n] is the address with 48-bit value [n] (must be non-negative
      and fit in 48 bits). *)

  val to_int : t -> int
  val to_string : t -> string
  (** Colon-separated hex, e.g. ["08:00:20:01:02:03"]. *)

  val pp : Format.formatter -> t -> unit
  val equal : t -> t -> bool

  val broadcast : t
  (** ff:ff:ff:ff:ff:ff. *)

  val is_broadcast : t -> bool
end

type port = int
(** 16-bit UDP/transport port numbers. *)

type ip_proto = int
(** 8-bit IP protocol numbers (the IP header's protocol field). *)

type eth_type = int
(** 16-bit ethernet type field values. *)

val eth_type_ip : eth_type
val eth_type_arp : eth_type

val vip_eth_type_base : eth_type
(** Base of the unused range of 256 ethernet types onto which VIP maps
    the 256 possible IP protocol numbers. *)

val eth_type_of_ip_proto : ip_proto -> eth_type
(** [eth_type_of_ip_proto p] maps an 8-bit IP protocol number into VIP's
    reserved ethernet-type range.  Raises [Invalid_argument] if [p] is
    outside 0..255. *)

val ip_proto_of_eth_type : eth_type -> ip_proto option
(** Inverse of {!eth_type_of_ip_proto}; [None] for types outside the
    reserved range. *)
