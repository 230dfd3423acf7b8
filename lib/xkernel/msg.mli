(** Message objects.

    The x-kernel treats a message as a stack: protocols [push] headers
    onto the front on the way down and pop them off on the way up
    (section 2).  Popping here is a read of the header fields in place
    ({!u16} and friends) followed by a {!drop}; neither copies.
    Messages are immutable cords (concatenation trees), which gives the
    three properties the paper's infrastructure relies on:

    - O(1) length ("the x-kernel provides an inexpensive operation for
      determining the length of a given message" — VIP's push is a
      single length test);
    - cheap header push and pop without copying the body (the paper's
      pre-allocated header buffer discipline, section 5 "Potential
      Pitfalls");
    - multiple protocols may retain references to pieces of the same
      message (footnote 1: FRAGMENT keeps a copy of the fragments while
      CHANNEL retains the whole message), which immutability provides
      for free. *)

type t

val empty : t

val of_string : string -> t
(** [of_string s] is a single-leaf message with body [s]. *)

val fill : int -> char -> t
(** [fill n c] is an [n]-byte message of repeated [c]; bulk-transfer
    test payloads.  Shares one chunk internally, so 16 KB test messages
    are cheap. *)

val length : t -> int
(** O(1). *)

val append : t -> t -> t
(** [append a b] is the message [a] followed by [b]; O(1).  Two
    adjacent slices of one string become one slice. *)

val push : t -> string -> t
(** [push m h] pushes header bytes [h] onto the front of [m]; O(1). *)

val drop : t -> int -> t
(** [drop m n] strips the first [n] bytes off [m] without copying: a
    protocol popping its header on the way up, once it has read the
    fields in place.  Raises [Invalid_argument] if [n] is negative or
    greater than [length m]. *)

(** {2 In-place header reads}

    [u8 m off], [u16 m off], [u32 m off] and [u48 m off] are the 1-, 2-,
    4- and 6-byte big-endian values at byte [off] of [m] ("network
    order", as the {!Codec} setters write them).  A read inside the first leaf,
    which holds a header just pushed, allocates nothing; one that
    straddles leaves falls back to {!get}.  Raise [Invalid_argument] if
    any byte is out of range. *)

val u8 : t -> int -> int
val u16 : t -> int -> int
val u32 : t -> int -> int
val u48 : t -> int -> int

val split : t -> int -> t * t
(** [split m n] is [(take n m, drop n m)].  Used by fragmentation
    layers; both halves share structure with [m].  Raises
    [Invalid_argument] if [n] is negative or greater than [length m]. *)

val get : t -> int -> char
(** [get m i] is byte [i] of [m], read in place without allocating.
    Raises [Invalid_argument] if out of range. *)

val sub : t -> int -> int -> t
(** [sub m off len] is the [len]-byte slice of [m] starting at [off]. *)

val to_string : t -> string
(** Linearize.  O(n): for a payload a program consumes as a string,
    and for tests.  Protocols read their headers in place instead. *)

val blit : t -> bytes -> int -> unit
(** [blit m b off] copies the bytes of [m] into [b] from [off], leaf by
    leaf.  Raises [Invalid_argument] if they do not fit. *)

val equal : t -> t -> bool
(** Content equality (ignores tree shape).  Compares leaf against leaf
    in place: neither message is linearized. *)

val ones_complement_sum : ?init:int -> t -> int
(** [ones_complement_sum ~init m] is the 16-bit one's-complement sum of
    the bytes of [m], read as big-endian 16-bit words (an odd last byte
    padded with zero), with [init] added before the end-around carries
    are folded in: the sum of a pseudo-header (UDP) or of header fields
    (ICMP) then the message, read in place.  A 16-bit word may straddle
    two leaves.  [init] defaults to 0. *)

val map_byte : int -> (char -> char) -> t -> t
(** [map_byte i f m] replaces byte [i] with [f] of itself — the wire's
    corruption injector.  Raises [Invalid_argument] if out of range. *)

val pp : Format.formatter -> t -> unit
(** Prints length and a short hex prefix; for traces and test output. *)
