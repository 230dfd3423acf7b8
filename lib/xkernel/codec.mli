(** Big-endian binary codecs for protocol headers.

    Every protocol header in this repository (ethernet, IP, UDP, the four
    RPC headers from the paper's appendix) is encoded with these
    primitives.  All multi-byte fields are big-endian ("network order"),
    matching the wire formats the paper's C structures imply.

    A header is written once, into a buffer of its exact size that
    becomes the header string without a copy.  Protocols read headers in
    place with {!Msg.u16} and friends; a string a program holds outside
    a message (a control-plane payload, a credential) is read with
    [String.get_uint16_be] and friends. *)

(** Writer: fills an exact-size header buffer front to back.  An append
    that does not fit in the size given to {!W.create} raises
    [Invalid_argument] and writes nothing. *)
module W : sig
  type t

  val create : int -> t
  (** [create n] is a writer for an [n]-byte header. *)

  val u8 : t -> int -> unit
  (** [u8 w v] appends the low 8 bits of [v]. *)

  val u16 : t -> int -> unit
  (** [u16 w v] appends the low 16 bits of [v], big-endian. *)

  val u32 : t -> int -> unit
  (** [u32 w v] appends the low 32 bits of [v], big-endian. *)

  val u48 : t -> int -> unit
  (** [u48 w v] appends the low 48 bits of [v] (ethernet addresses). *)

  val bytes : t -> string -> unit
  (** [bytes w s] appends [s] verbatim. *)

  val contents : t -> string
  (** [contents w] hands over the buffer as a string, without copying;
      write nothing to [w] afterwards.  Raises [Invalid_argument] unless
      exactly the size given to {!create} was written. *)
end

val ip_checksum : string -> int
(** [ip_checksum s] is the complement of the 16-bit one's-complement
    sum of [s] read as big-endian 16-bit words (odd trailing byte padded
    with zero): the value stored in an IP header checksum field.  A
    message is summed in place by {!Msg.ones_complement_sum}. *)
