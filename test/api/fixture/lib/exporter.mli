val used : int -> int
(** Called from {!User} through a module alias. *)

val tested : int
(** Called only from the fixture's test directory. *)

val unused : int
(** Called from nowhere. *)

val opts : ?lib:int -> ?tested:int -> ?never:int -> unit -> int
(** [?lib] is passed through from {!User}, [?tested] only from the
    fixture's test directory, [?never] from nowhere. *)
