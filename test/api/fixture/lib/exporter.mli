val used : int -> int
(** Called from {!User} through a module alias. *)

val tested : int
(** Called only from the fixture's test directory. *)

val unused : int
(** Called from nowhere. *)
