(** Big-endian binary codecs for protocol headers.

    Every protocol header in this repository (ethernet, IP, UDP, the four
    RPC headers from the paper's appendix) is encoded with these
    primitives.  All multi-byte fields are big-endian ("network order"),
    matching the wire formats the paper's C structures imply. *)

(** Writer: accumulates header bytes. *)
module W : sig
  type t

  val create : ?size:int -> unit -> t

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
  (** [contents w] returns everything written so far. *)
end

(** Reader: consumes header bytes front to back.

    All read functions raise {!Truncated} when the input is exhausted;
    protocol [demux] implementations catch it and drop the packet, which
    is exactly what a real stack does with a runt frame. *)
module R : sig
  type t

  exception Truncated

  val of_string : string -> t

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u48 : t -> int

  val bytes : t -> int -> string
  (** [bytes r n] reads the next [n] raw bytes. *)

  val remaining : t -> int
  (** [remaining r] is the number of unread bytes. *)

  val pos : t -> int
  (** [pos r] is the number of bytes consumed so far. *)
end

val ones_complement_sum : string -> int
(** [ones_complement_sum s] is the 16-bit one's-complement sum of [s]
    interpreted as a sequence of big-endian 16-bit words (odd trailing
    byte padded with zero), as used by the IP header checksum. *)

val ip_checksum : string -> int
(** [ip_checksum s] is the complement of {!ones_complement_sum},
    i.e. the value stored in an IP header checksum field. *)
