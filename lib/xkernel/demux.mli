(** The map manager: one protocol's session bookkeeping (section 2).

    Every protocol that demultiplexes by a key keeps two maps.  The
    {e active} map binds a session key (say, peer address and protocol
    number) to the session created for it by [open_] or by a passive
    open.  The {e passive} map binds an enable key (the protocol number,
    ethernet type or port an upper protocol named in [open_enable]) to
    that upper protocol.  An arriving message is switched by one rule:
    the bound session, else a fresh session for the enabled upper
    protocol ([open_done]), else nothing — the protocol counts it
    unbound.

    ['p] is the protocol's own state, handed to [make] so the table
    needs no back-reference to it; ['k] is the session key and ['s] the
    session. *)

type ('p, 'k, 's) t

val create : int -> make:('p -> upper:Proto.t -> 'k -> 's) -> ('p, 'k, 's) t
(** [create n ~make] is an empty map manager whose active map starts at
    [n] buckets.  [make p ~upper k] builds the session for key [k]
    delivering to [upper]; the manager binds it under [k]. *)

val enable : (_, _, _) t -> int -> Proto.t -> unit
(** [enable d key upper] records [upper]'s [open_enable] under [key],
    replacing any earlier registration. *)

val open_ : ('p, 'k, 's) t -> 'p -> upper:Proto.t -> 'k -> 's
(** The session bound to the key, or a fresh one for [upper] — an
    active open. *)

val resolve : ('p, 'k, 's) t -> 'p -> 'k -> int -> 's option
(** [resolve d p k key] switches an arriving message: the session bound
    to [k]; else, when an upper protocol enabled [key], a fresh session
    for it, bound to [k]; else [None]. *)

val find :
  ('p, 'k, 's) t ->
  'p ->
  key:(int -> int -> 'k) ->
  int ->
  int ->
  int ->
  's option
(** [find d p ~key a b e] is [resolve d p (key a b) e], for a key built
    from two ints, such as a peer address and a protocol number read
    from a header.  A small cache of sessions already found by [(a, b)]
    answers most calls without building the key, so a hit allocates
    nothing.  Pass the same [key] at every call on one [d]: the cache
    stands for [key a b] by [(a, b)]. *)

val unbind : (_, 'k, _) t -> 'k -> unit
(** Forget the key's session (its [close]); the next message for it
    opens afresh if its upper protocol is still enabled. *)

val iter : ('s -> unit) -> (_, _, 's) t -> unit
(** Every bound session, in the active map's bucket order. *)

val fold : ('s -> 'a -> 'a) -> (_, _, 's) t -> 'a -> 'a
