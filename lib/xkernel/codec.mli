(** Big-endian binary codecs for protocol headers.

    Every protocol header in this repository (ethernet, IP, UDP, the four
    RPC headers from the paper's appendix) is encoded with these
    primitives.  All multi-byte fields are big-endian ("network order"),
    matching the wire formats the paper's C structures imply.

    A header is written once, field by field at fixed offsets, into a
    buffer of its exact size that becomes the header string without a
    copy.  Protocols read headers in place with {!Msg.u16} and friends;
    a string a program holds outside a message (a control-plane
    payload, a credential) is read with [String.get_uint16_be] and
    friends. *)

(** {1 Setters}

    An encoder allocates its header with [Bytes.create n], [n] the
    header's exact size, writes every field with these setters at the
    offset its reader uses, and hands the buffer over with
    [Bytes.unsafe_to_string]: the header's string is the only block it
    allocates.  Each setter checks that the whole field lies inside the
    buffer first, so a write that does not fit raises
    [Invalid_argument] and writes nothing. *)

val set_u8 : Bytes.t -> int -> int -> unit
(** [set_u8 b off v] writes the low 8 bits of [v] at [off]. *)

val set_u16 : Bytes.t -> int -> int -> unit
(** [set_u16 b off v] writes the low 16 bits of [v] at [off],
    big-endian. *)

val set_u32 : Bytes.t -> int -> int -> unit
(** [set_u32 b off v] writes the low 32 bits of [v] at [off],
    big-endian. *)

val set_u48 : Bytes.t -> int -> int -> unit
(** [set_u48 b off v] writes the low 48 bits of [v] at [off] (ethernet
    addresses). *)

val set_string : Bytes.t -> int -> string -> unit
(** [set_string b off s] copies [s] verbatim to [off]. *)

val ip_checksum : string -> int
(** [ip_checksum s] is the complement of the 16-bit one's-complement
    sum of [s] read as big-endian 16-bit words (odd trailing byte padded
    with zero): the value stored in an IP header checksum field.  A
    message is summed in place by {!Msg.ones_complement_sum}. *)
